"""Import budget: the CLI and serve entry points stay off the heavy imports.

``repro serve`` pays every module its import graph pulls in before the
first request.  scipy (``scipy.stats`` alone is ~0.5 s) and networkx
(~18 MiB of RSS) are needed only by version recovery and the version
graph, and ``repro.analysis`` only by the lint and graph commands, so
none of them may load on the way to a server -- neither at import nor
when a snapshot opens a lake that carries dataset lineage.  Within
``repro`` itself, the entry points load only the serving closure: the
package ``__init__`` files resolve their exports lazily and each CLI
command imports what only it uses.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.lake import save_lake

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_HEAVY = """
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "networkx")
    or name == "repro.analysis" or name.startswith("repro.analysis.")
)))
"""

_IMPORT_PROBE = """
import json, sys
import {module}
""" + _HEAVY

_SNAPSHOT_PROBE = """
import json, sys
from repro.serve.snapshot import LakeSnapshot
LakeSnapshot.open({directory!r}).close()
""" + _HEAVY


_REPRO = """
import json, sys
import repro.cli, repro.serve
print(json.dumps(sorted(
    name for name in sys.modules if name.split(".")[0] == "repro"
)))
"""

#: Most ``repro`` modules ``import repro.cli, repro.serve`` may load.
REPRO_MODULE_CEILING = 62


def _modules_after(source: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(completed.stdout)


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve"])
def test_entry_point_imports_no_scipy_or_analysis(module):
    assert _modules_after(_IMPORT_PROBE.format(module=module)) == []


def test_snapshot_open_with_lineage_imports_no_heavy_modules(lake_bundle, tmp_path):
    assert list(lake_bundle.lake.datasets.lineage_edges())  # lineage to load
    directory = str(tmp_path / "lake")
    save_lake(lake_bundle.lake, directory, sharded=True)
    probe = _SNAPSHOT_PROBE.format(directory=directory)
    assert _modules_after(probe) == []


def test_entry_points_load_only_the_serving_closure():
    modules = _modules_after(_REPRO)
    assert len(modules) <= REPRO_MODULE_CEILING, modules
    for unused in ("repro.core.attribution", "repro.core.audit",
                   "repro.lake.generator", "repro.lake.stats",
                   "repro.reliability.fsck", "repro.transforms.finetune"):
        assert unused not in modules
