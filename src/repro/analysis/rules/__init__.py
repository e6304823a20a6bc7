"""Built-in rule set.

Importing this package registers every rule (each module's classes are
decorated with :func:`repro.analysis.core.register`).  Add a rule by
dropping a module here, subclassing :class:`repro.analysis.core.Rule`,
and decorating it — the registry, CLI, cache fingerprint, pragmas, and
baseline all pick it up automatically.
"""

from repro.analysis.rules import determinism, poolsafety, reliability

__all__ = ["determinism", "poolsafety", "reliability"]
