"""Import budget: the CLI and serve entry points stay off the heavy imports.

``repro serve`` pays every module its import graph pulls in before the
first request.  scipy (``scipy.stats`` alone is ~0.5 s) and networkx
(~18 MiB of RSS) are needed only by version recovery and the version
graph, ``repro.analysis`` only by the lint and graph commands, and
``repro.nn`` only to run a model, which a warm open never does, so none
of them may load on the way to a server -- neither at import nor when a
snapshot opens a lake that carries dataset lineage.  Within ``repro``
itself, the entry points load only the serving closure: the package
``__init__`` files resolve their exports lazily and each CLI command
imports what only it uses.
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
    or name.split(".")[:2] in (["repro", "analysis"], ["repro", "nn"])
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
REPRO_MODULE_CEILING = 51


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
    # The cold open runs every model once to fill the embedding cache.
    cold = _modules_after(probe)
    assert [name for name in cold if not name.startswith("repro.nn")] == []
    assert _modules_after(probe) == []  # warm: every cache file is written


def test_entry_points_load_only_the_serving_closure():
    modules = _modules_after(_REPRO)
    assert len(modules) <= REPRO_MODULE_CEILING, modules
    for unused in ("repro.core.attribution", "repro.core.audit",
                   "repro.lake.generator", "repro.lake.stats",
                   "repro.reliability.fsck", "repro.transforms.finetune",
                   "repro.nn.autograd", "repro.transforms.stitch"):
        assert unused not in modules


_REBUILD_PROBE = """
import json, sys
import repro.lake
lake = repro.lake.load_lake({directory!r})
before = "repro.transforms.stitch" in sys.modules
model = lake.get_model({model_id!r})
print(json.dumps([before, type(model).__name__, {{
    name: value.tolist() for name, value in model.state_dict().items()
}}]))
"""


def test_stitched_model_rebuilds_in_a_fresh_interpreter(lake_bundle, tmp_path):
    # Nothing on the load path imports repro.transforms.stitch, whose
    # import registers the stitched family; rebuilding must import it.
    lake = lake_bundle.lake
    (stitched,) = [record.model_id for record in lake
                   if record.architecture["family"] == "stitched_text_classifier"]
    directory = str(tmp_path / "lake")
    save_lake(lake, directory, sharded=True)
    before, name, state = _modules_after(
        _REBUILD_PROBE.format(directory=directory, model_id=stitched)
    )
    assert not before
    assert name == "StitchedTextClassifier"
    assert state == {
        name: value.tolist()
        for name, value in lake.get_model(stitched).state_dict().items()
    }
