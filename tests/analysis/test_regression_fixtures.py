"""Seeded regression fixtures: realistic "plausible PR" code planted
with exactly the bugs the determinism and pool-safety rules exist to
catch.  Each fixture mimics how this repo actually writes the relevant
subsystem (generator waves, weight-store digests), so a pass here means
the rules catch the regression shape, not just a toy snippet.
"""

import textwrap

from repro.analysis import LintConfig, lint_source, run_lint

#: A weight-store "optimization" that stamps digests with the wall
#: clock and iterates an unsorted set — both real determinism breaks:
#: re-generated lakes would stop being bit-identical.
DETERMINISM_REGRESSION = """
import hashlib
import time

from repro.utils.serialization import to_jsonable


class WeightStore:
    def __init__(self):
        self._blobs = {}

    def put_digest(self, state):
        hasher = hashlib.sha256()
        for key in {name for name in state}:
            hasher.update(state[key].tobytes())
        hasher.update(str(time.time()).encode("utf-8"))
        return hasher.hexdigest()[:16]
"""

#: A generator "cleanup" that inlines the wave task as a closure over
#: the bundle — works at workers=1, explodes (or ships the whole lake
#: through pickle) at workers=N.
POOL_REGRESSION = """
from repro.parallel import WaveExecutor, topological_waves


class LakeGenerator:
    def generate(self, plan, bundle, workers):
        results = {}

        def run_task(task):
            # closes over bundle: unpicklable / drags the lake along
            return task.fit(bundle.base_dataset)

        with WaveExecutor(workers=workers) as executor:
            for wave in topological_waves(plan.dependencies):
                tasks = [plan.tasks[key] for key in wave]
                wave_results = executor.run_wave(run_task, tasks)
                results.update(zip(wave, wave_results))
        return results
"""


def rules_hit(source, rel_path):
    return {f.rule for f in lint_source(textwrap.dedent(source), rel_path)}


def test_determinism_rules_catch_seeded_store_regression():
    hit = rules_hit(DETERMINISM_REGRESSION, "src/repro/lake/store.py")
    assert "time-in-digest" in hit
    assert "unordered-digest-iteration" in hit


def test_pool_safety_rule_catches_seeded_generator_regression():
    hit = rules_hit(POOL_REGRESSION, "src/repro/lake/generator.py")
    assert "pool-task" in hit


def test_clean_variants_of_the_same_code_pass():
    determinism_fixed = DETERMINISM_REGRESSION.replace(
        "for key in {name for name in state}:",
        "for key in sorted(state):",
    ).replace(
        '        hasher.update(str(time.time()).encode("utf-8"))\n', ""
    )
    assert rules_hit(determinism_fixed, "src/repro/lake/store.py") == set()

    pool_fixed = """
    from repro.parallel import WaveExecutor, topological_waves


    def run_task(task):
        return task.fit()


    class LakeGenerator:
        def generate(self, plan, workers):
            results = {}
            with WaveExecutor(workers=workers) as executor:
                for wave in topological_waves(plan.dependencies):
                    tasks = [plan.tasks[key] for key in wave]
                    wave_results = executor.run_wave(run_task, tasks)
                    results.update(zip(wave, wave_results))
            return results
    """
    assert rules_hit(pool_fixed, "src/repro/lake/generator.py") == set()


def test_regression_caught_through_full_runner(tmp_path):
    """End to end: the planted regression fails a strict tree lint."""
    target = tmp_path / "src" / "repro" / "lake" / "store.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(DETERMINISM_REGRESSION))
    result = run_lint(
        LintConfig(paths=["src"], root=str(tmp_path), use_cache=False)
    )
    assert result.exit_code(strict=True) == 1
    assert {f.rule for f in result.findings} >= {
        "time-in-digest", "unordered-digest-iteration",
    }
