"""Model Lakes: management, search, attribution, and versioning for
populations of trained models.

A faithful, self-contained implementation of the system envisioned in
*Model Lakes* (Pal, Bau, Miller — EDBT 2025): a lake stores genuinely
trained models with heterogeneous documentation quality, and lake tasks
— attribution, versioning, search, benchmarking, documentation
generation, auditing, citation — operate over the three viewpoints
``M = (D, A, f*, theta, p_theta)``.

Quickstart::

    from repro.lake import LakeSpec, generate_lake
    from repro.core.search import SearchEngine

    bundle = generate_lake(LakeSpec(seed=0))
    engine = SearchEngine(bundle.lake)
    for hit in engine.search("summarize legal documents", k=5):
        print(bundle.lake.get_record(hit.model_id).name, hit.score)
"""

__version__ = "0.1.0"

from repro.utils.lazy import lazy_exports

#: Subpackages, each imported on first attribute access.
_SUBPACKAGES = (
    "core", "data", "errors", "index", "interp", "lake", "nn", "obs",
    "transforms", "utils", "weightspace",
)

__all__ = ["__version__", *_SUBPACKAGES]
__getattr__, __dir__ = lazy_exports(
    __name__, {name: f"{__name__}.{name}" for name in _SUBPACKAGES}
)
