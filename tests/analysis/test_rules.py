"""Per-rule fixtures: one flagged (positive) and one clean (negative)
source per rule, run through the real single-file pipeline."""

import textwrap

import pytest

from repro.analysis import lint_source, rule_names

LIB = "src/repro/lake/example.py"


def findings_for(source, rel_path, rule):
    source = textwrap.dedent(source)
    return [f for f in lint_source(source, rel_path) if f.rule == rule]


# Each entry: rule -> (rel_path, positive source, negative source).
CASES = {
    "unseeded-random": (
        LIB,
        """
        import random
        import numpy as np

        JITTER = random.random()
        NOISE = np.random.normal(0.0, 1.0)
        """,
        """
        import random
        import numpy as np

        random.seed(0)
        _RNG = np.random.default_rng(7)

        def draw(rng):
            return rng.normal(0.0, 1.0)
        """,
    ),
    "time-in-digest": (
        LIB,
        """
        import hashlib
        import time

        def weights_digest(blob):
            stamp = time.time()
            return hashlib.sha256(blob + str(stamp).encode()).hexdigest()
        """,
        """
        import hashlib
        import time

        def weights_digest(blob):
            return hashlib.sha256(blob).hexdigest()

        def wall_clock():
            return time.time()
        """,
    ),
    "unordered-digest-iteration": (
        LIB,
        """
        import hashlib
        import json

        def content_digest(items, meta):
            hasher = hashlib.sha256()
            for item in set(items):
                hasher.update(item.encode())
            hasher.update(json.dumps(meta).encode())
            return hasher.hexdigest()
        """,
        """
        import hashlib
        import json

        def content_digest(items, meta):
            hasher = hashlib.sha256()
            for item in sorted(set(items)):
                hasher.update(item.encode())
            hasher.update(json.dumps(meta, sort_keys=True).encode())
            return hasher.hexdigest()
        """,
    ),
    "pool-task": (
        LIB,
        """
        from repro.parallel import WaveExecutor

        def run_all(tasks):
            def train(task):
                return task.fit()
            with WaveExecutor(workers=4) as executor:
                return executor.run_wave(train, tasks)
        """,
        """
        from repro.parallel import WaveExecutor

        def train(task):
            return task.fit()

        def run_all(tasks):
            with WaveExecutor(workers=4) as executor:
                return executor.run_wave(train, tasks)
        """,
    ),
    "raw-artifact-write": (
        LIB,
        """
        import json
        import numpy as np

        def save_manifest(path, payload):
            with open(path, "w") as handle:
                json.dump(payload, handle)

        def save_blob(path, arrays):
            np.savez(path, **arrays)
        """,
        """
        import json

        from repro.reliability.atomic import atomic_write_json, atomic_write_npz

        def save_manifest(path, payload):
            atomic_write_json(path, payload)

        def save_blob(path, arrays):
            atomic_write_npz(path, arrays)

        def load_manifest(path):
            with open(path) as handle:
                return json.load(handle)
        """,
    ),
    "whole-file-read": (
        LIB,
        """
        import pathlib

        import numpy as np

        def load_blob(path):
            return np.load(path)

        def read_raw(path):
            return pathlib.Path(path).read_bytes()
        """,
        """
        import numpy as np

        from repro.utils.serialization import open_arrays_memmap

        def load_blob(path):
            return open_arrays_memmap(path)

        def load_archive(path):
            return np.load(path, mmap_mode="r")
        """,
    ),
}


def test_every_registered_rule_has_a_case():
    assert sorted(CASES) == rule_names()


@pytest.mark.parametrize("rule", sorted(CASES))
def test_positive_fixture_is_flagged(rule):
    rel_path, positive, _negative = CASES[rule]
    found = findings_for(positive, rel_path, rule)
    assert found, f"{rule} missed its positive fixture"
    assert all(f.rule == rule and f.path == rel_path for f in found)
    assert all(f.line >= 1 for f in found)


@pytest.mark.parametrize("rule", sorted(CASES))
def test_negative_fixture_is_clean(rule):
    rel_path, _positive, negative = CASES[rule]
    assert findings_for(negative, rel_path, rule) == [], (
        f"{rule} false-positived on its negative fixture"
    )


# -- scoping -----------------------------------------------------------


def test_unseeded_random_allows_calls_inside_functions():
    source = """
    import random

    def sample():
        return random.random()
    """
    assert findings_for(source, LIB, "unseeded-random") == []


def test_pool_task_flags_lambda_and_bound_method():
    source = """
    class Trainer:
        def fit(self, task):
            return task

        def run(self, executor, tasks):
            return executor.run_wave(self.fit, tasks)

    def run_inline(executor, tasks):
        return executor.run_wave(lambda t: t, tasks)
    """
    found = findings_for(source, LIB, "pool-task")
    assert len(found) == 2


def test_pool_task_checks_initializer_keyword():
    source = """
    from repro.parallel import WaveExecutor

    def build(shared):
        return WaveExecutor(workers=2, initializer=lambda: shared)
    """
    assert len(findings_for(source, LIB, "pool-task")) == 1


def test_raw_artifact_write_scoped_to_artifact_layers():
    source = 'with open("x.json", "w") as handle:\n    handle.write("{}")\n'
    assert findings_for(
        source, "src/repro/core/search/engine.py", "raw-artifact-write"
    ) == []
    assert findings_for(
        source, "src/repro/reliability/atomic.py", "raw-artifact-write"
    ) == []
    assert findings_for(source, "src/repro/index/cache.py", "raw-artifact-write")
    assert findings_for(source, "src/repro/lake/persist.py", "raw-artifact-write")


def test_whole_file_read_scoped_and_pragma_suppressible():
    source = "import numpy as np\nblob = np.load('x.npz')\n"
    assert findings_for(
        source, "src/repro/core/search/engine.py", "whole-file-read"
    ) == []
    assert findings_for(source, LIB, "whole-file-read")
    suppressed = (
        "import numpy as np\n"
        "blob = np.load('x.npz')  # repro: noqa[whole-file-read]\n"
    )
    assert findings_for(suppressed, LIB, "whole-file-read") == []


def test_raw_artifact_write_ignores_read_and_dynamic_modes():
    source = """
    def read(path, mode):
        with open(path) as handle:
            first = handle.read()
        with open(path, "rb") as handle:
            second = handle.read()
        with open(path, mode) as handle:
            third = handle.read()
        return first, second, third
    """
    assert findings_for(source, LIB, "raw-artifact-write") == []


def test_syntax_error_becomes_finding():
    findings = lint_source("def broken(:\n", LIB)
    assert [f.rule for f in findings] == ["syntax-error"]
