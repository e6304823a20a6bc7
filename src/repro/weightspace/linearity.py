"""Cross-task linearity analysis (Zhou et al., ICML 2024).

§5 cites the finding that fine-tuned models of a shared base are
connected by low-loss linear paths in weight space.  We measure loss
along the interpolation between two models: related fine-tunes show a
flat (low-barrier) path; unrelated models show a high barrier.  This is
both a versioning signal and a sanity check on the lake's geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.versioning.distance import states_aligned
from repro.data.datasets import TextDataset
from repro.errors import IncompatibleModelsError
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.nn.train import per_example_losses


@dataclass
class InterpolationResult:
    """Loss along the linear path theta(t) = (1-t) a + t b."""

    ts: np.ndarray
    losses: np.ndarray

    @property
    def barrier(self) -> float:
        """Max loss above the endpoint-interpolation baseline.

        0 means perfectly linear connectivity; large values mean the
        models live in different basins.
        """
        baseline = np.linspace(self.losses[0], self.losses[-1], len(self.losses))
        return float(np.max(self.losses - baseline))

    @property
    def max_loss(self) -> float:
        return float(self.losses.max())


def interpolate_losses(
    model_a: Module,
    model_b: Module,
    dataset: TextDataset,
    num_points: int = 9,
) -> InterpolationResult:
    """Evaluate mean loss at evenly spaced points along the weight line."""
    state_a = model_a.state_dict()
    state_b = model_b.state_dict()
    if not states_aligned(state_a, state_b):
        raise IncompatibleModelsError(
            "linear interpolation needs parameter-aligned models"
        )
    probe = build_model(model_a.architecture_spec())
    ts = np.linspace(0.0, 1.0, num_points)
    losses = np.zeros(num_points)
    # theta(t) = a + t * (b - a): hoist the per-parameter delta so each
    # interpolation point costs one scaled add, not two scales and an
    # add over every tensor.  The loop itself stays — each point needs
    # a forward pass of the probe model, which dominates.
    delta = {name: state_b[name] - state_a[name] for name in state_a}
    for i, t in enumerate(ts.tolist()):
        mixed = {name: state_a[name] + t * delta[name] for name in state_a}
        probe.load_state_dict(mixed)
        losses[i] = float(
            per_example_losses(probe, dataset.tokens, dataset.labels).mean()
        )
    return InterpolationResult(ts=ts, losses=losses)


def linearity_gap(
    sibling_a: Module,
    sibling_b: Module,
    unrelated: Module,
    dataset: TextDataset,
    num_points: int = 9,
) -> Dict[str, float]:
    """Barriers for a sibling pair vs an unrelated pair.

    Expected shape (Zhou et al.): sibling barrier << unrelated barrier.
    """
    sibling = interpolate_losses(sibling_a, sibling_b, dataset, num_points)
    other = interpolate_losses(sibling_a, unrelated, dataset, num_points)
    return {
        "sibling_barrier": sibling.barrier,
        "unrelated_barrier": other.barrier,
        "gap": other.barrier - sibling.barrier,
    }
