"""Lazy package exports (PEP 562): a public name loads its module on first use.

A package ``__init__`` that imports every submodule makes importing any
one of them pay for all of them; ``repro serve`` would load training,
transforms and lake generation just to answer searches.  A package
built with :func:`lazy_exports` keeps its public names importable as
before (``from repro.lake import LakeSpec``) but imports the defining
module only when a name is first looked up.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` exporting ``exports``.

    ``exports`` maps each public name to the module defining it; a name
    that maps to ``<package>.<name>`` is that submodule itself.  A
    resolved name is stored in the package namespace, so each lookup
    runs at most once.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        target = exports.get(name)
        if target is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(target)
        value = module if target == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
