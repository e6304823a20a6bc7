"""Import budget: the CLI and serve entry points stay off the heavy imports.

``repro serve`` pays every module its import graph pulls in before the
first request.  scipy (``scipy.stats`` alone is ~0.5 s) is needed only
by version recovery, and ``repro.analysis`` only by the lint, graph and
perf-audit commands, so neither may load on the way to a server.
"""

import json
import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PROBE = """
import json, sys
import {module}
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "scipy"
    or name == "repro.analysis" or name.startswith("repro.analysis.")
)))
"""


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve"])
def test_entry_point_imports_no_scipy_or_analysis(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE.format(module=module)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert json.loads(completed.stdout) == []
