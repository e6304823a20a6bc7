"""Transform records and shared model-surgery helpers.

A transform takes one or more parent models and produces a child model
plus a :class:`TransformRecord` describing the operation — the payload
attached to version-graph edges ("The edges can describe the
transformation", §3 Model Versioning).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.nn.module import Module

#: Canonical transform kind names (used by edge classification and docs).
TRANSFORM_KINDS = (
    "finetune",
    "lora",
    "edit",
    "distill",
    "prune",
    "quantize",
    "merge",
    "stitch",
    "preference",
)


@dataclass(frozen=True)
class TransformRecord:
    """Description of how a child model was derived from its parent(s)."""

    kind: str
    params: Dict = field(default_factory=dict)
    dataset_digest: Optional[str] = None
    dataset_name: Optional[str] = None
    seed: int = 0

    def describe(self) -> str:
        data = f" on {self.dataset_name}" if self.dataset_name else ""
        return f"{self.kind}{data} {self.params}"


def rebuild_model(spec: Dict) -> Module:
    """:func:`repro.nn.models.build_model` for ``spec``, stitched models too.

    The stitched family registers its builder when
    :mod:`repro.transforms.stitch` is imported, so that import happens
    here, the first time such a spec is rebuilt, rather than on every
    import of this package.
    """
    from repro.nn.models import build_model

    if spec.get("family") == "stitched_text_classifier":
        from repro.transforms import stitch  # noqa: F401

    return build_model(spec)


def clone_model(model: Module) -> Module:
    """Deep-copy a model: same architecture spec, same weights, new object.

    Uses the spec/build round trip when available (keeps the clone
    rebuildable from stored metadata), falling back to ``copy.deepcopy``
    for ad-hoc modules.
    """
    spec = getattr(model, "architecture_spec", None)
    if spec is None:
        return copy.deepcopy(model)
    clone = rebuild_model(spec())
    clone.load_state_dict(model.state_dict())
    clone.eval()
    return clone


def weight_delta(
    parent_state: Dict[str, np.ndarray], child_state: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Per-parameter difference ``child - parent`` over shared names."""
    return {
        name: child_state[name] - parent_state[name]
        for name in parent_state
        if name in child_state and child_state[name].shape == parent_state[name].shape
    }


def flatten_state(state: Dict[str, np.ndarray]) -> np.ndarray:
    """Deterministic flat vector of a state dict (sorted by name)."""
    return np.concatenate([state[name].ravel() for name in sorted(state)])
