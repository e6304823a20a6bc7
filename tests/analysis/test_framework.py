"""Framework behavior: pragmas, baseline ledger, stable JSON output."""

import json
import textwrap

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    LintConfig,
    lint_source,
    load_baseline,
    render_json,
    run_lint,
)
from repro.errors import ConfigError

LIB = "src/repro/lake/example.py"

_DRAWING = 'import random\nX = random.random()\n'


# -- pragma suppression ------------------------------------------------


def test_named_pragma_suppresses_only_that_rule():
    source = 'import random\nX = random.random()  # repro: noqa[unseeded-random]\n'
    assert lint_source(source, LIB) == []


def test_bare_pragma_suppresses_everything_on_the_line():
    source = 'import random\nX = random.random()  # repro: noqa\n'
    assert lint_source(source, LIB) == []


def test_pragma_for_other_rule_does_not_suppress():
    source = 'import random\nX = random.random()  # repro: noqa[pool-task]\n'
    assert [f.rule for f in lint_source(source, LIB)] == ["unseeded-random"]


def test_pragma_on_other_line_does_not_suppress():
    source = '# repro: noqa[unseeded-random]\nimport random\nX = random.random()\n'
    assert [f.rule for f in lint_source(source, LIB)] == ["unseeded-random"]


#: A module-level draw (unseeded-random) feeding a bare numpy.load
#: (whole-file-read): two rules firing on one line.
_TWO_RULES_ONE_LINE = (
    "import numpy, random\n"
    "W = numpy.load(random.choice(PATHS))  # repro: noqa[{spec}]\n"
)


def test_pragma_accepts_multiple_comma_separated_rules():
    source = _TWO_RULES_ONE_LINE.format(spec="unseeded-random,whole-file-read")
    assert lint_source(source, LIB) == []


def test_multi_rule_pragma_tolerates_spaces():
    source = _TWO_RULES_ONE_LINE.format(
        spec=" unseeded-random , whole-file-read "
    )
    assert lint_source(source, LIB) == []


def test_multi_rule_pragma_suppresses_only_named_rules():
    source = _TWO_RULES_ONE_LINE.format(spec="unseeded-random")
    assert [f.rule for f in lint_source(source, LIB)] == ["whole-file-read"]


def test_several_pragmas_on_one_line_union_their_rules():
    source = (
        "import numpy, random\n"
        "W = numpy.load(random.choice(PATHS))"
        "  # repro: noqa[unseeded-random]  # repro: noqa[whole-file-read]\n"
    )
    assert lint_source(source, LIB) == []


def test_bare_pragma_wins_over_named_pragmas_on_the_line():
    source = (
        "import numpy, random\n"
        "W = numpy.load(random.choice(PATHS))"
        "  # repro: noqa[unseeded-random]  # repro: noqa\n"
    )
    assert lint_source(source, LIB) == []


def test_pragma_on_decorated_function_goes_on_the_def_line():
    # A decorated function's findings anchor at the ``def`` line (the
    # AST lineno skips decorators), so that is where the noqa belongs.
    source = (
        "import functools\n"
        "import numpy\n\n\n"
        "@functools.cache\n"
        "def g(w=numpy.load('w.npy')):  # repro: noqa[whole-file-read]\n"
        "    return w\n"
    )
    assert lint_source(source, LIB) == []


def test_pragma_on_decorator_line_does_not_suppress_the_def():
    source = (
        "import functools\n"
        "import numpy\n\n\n"
        "@functools.cache  # repro: noqa[whole-file-read]\n"
        "def g(w=numpy.load('w.npy')):\n"
        "    return w\n"
    )
    assert [f.rule for f in lint_source(source, LIB)] == ["whole-file-read"]


# -- baseline ----------------------------------------------------------


def make_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def test_baseline_suppresses_matching_rule_and_path(tmp_path):
    root = make_tree(tmp_path, {"src/repro/lake/example.py": _DRAWING})
    (root / ".repro-lint.json").write_text(json.dumps({
        "version": 1,
        "suppressions": [{
            "rule": "unseeded-random",
            "path": "src/repro/lake/*.py",
            "reason": "legacy module, migration tracked elsewhere",
        }],
    }))
    result = run_lint(LintConfig(paths=["src"], root=str(root), use_cache=False))
    assert result.findings == []
    assert [f.rule for f in result.baseline_suppressed] == ["unseeded-random"]
    assert result.unused_baseline == []
    assert result.exit_code(strict=True) == 0


def test_stale_baseline_entry_fails_strict_only(tmp_path):
    root = make_tree(tmp_path, {"src/repro/lake/clean.py": "X = 1\n"})
    (root / ".repro-lint.json").write_text(json.dumps({
        "version": 1,
        "suppressions": [{
            "rule": "unseeded-random",
            "path": "src/repro/lake/clean.py",
            "reason": "drew at import time once",
        }],
    }))
    result = run_lint(LintConfig(paths=["src"], root=str(root), use_cache=False))
    assert len(result.unused_baseline) == 1
    assert result.exit_code(strict=False) == 0
    assert result.exit_code(strict=True) == 1


def test_entries_for_skipped_phases_are_not_stale(tmp_path):
    # A dataflow-rule entry can only match when the dataflow phase runs;
    # a per-file-only sweep must not report it as stale (else every
    # scoped run would demand ledger churn).
    root = make_tree(tmp_path, {"src/repro/lake/clean.py": "X = 1\n"})
    (root / ".repro-lint.json").write_text(json.dumps({
        "version": 1,
        "suppressions": [{
            "rule": "impure-digest-flow",
            "path": "src/repro/lake/clean.py",
            "reason": "the stamp is reported, never digested",
        }],
    }))
    config = LintConfig(paths=["src"], root=str(root), use_cache=False)
    assert not config.dataflow
    result = run_lint(config)
    assert result.unused_baseline == []
    assert result.exit_code(strict=True) == 0
    # With the phase on, the unmatched entry is stale again.
    with_dataflow = run_lint(LintConfig(
        paths=["src"], root=str(root), use_cache=False, dataflow=True,
    ))
    assert [entry.rule for entry in with_dataflow.unused_baseline] == [
        "impure-digest-flow"
    ]
    assert with_dataflow.exit_code(strict=True) == 1


def test_baseline_cannot_suppress_exempt_rule(tmp_path):
    # raw-artifact-write is baseline-exempt: the ledger entry neither
    # hides the finding nor counts as used.
    raw_write = (
        'def save(path, data):\n'
        '    with open(path, "w") as handle:\n'
        '        handle.write(data)\n'
    )
    root = make_tree(tmp_path, {"src/repro/lake/example.py": raw_write})
    (root / ".repro-lint.json").write_text(json.dumps({
        "version": 1,
        "suppressions": [{
            "rule": "raw-artifact-write",
            "path": "src/repro/lake/*.py",
            "reason": "attempting to grandfather a corruption bug",
        }],
    }))
    result = run_lint(LintConfig(paths=["src"], root=str(root), use_cache=False))
    assert [f.rule for f in result.findings] == ["raw-artifact-write"]
    assert result.baseline_suppressed == []
    assert [entry.rule for entry in result.unused_baseline] == [
        "raw-artifact-write"
    ]
    assert result.exit_code(strict=False) == 1


def test_baseline_entry_requires_reason(tmp_path):
    path = tmp_path / ".repro-lint.json"
    path.write_text(json.dumps({
        "version": 1,
        "suppressions": [
            {"rule": "unseeded-random", "path": "x.py", "reason": " "}
        ],
    }))
    with pytest.raises(ConfigError, match="reason"):
        load_baseline(str(path))


def test_missing_baseline_is_empty():
    assert load_baseline("/nonexistent/.repro-lint.json").entries == []


def test_baseline_entry_matching_is_rule_scoped():
    entry = BaselineEntry(
        rule="unseeded-random", path="src/repro/*.py", reason="r"
    )
    baseline = Baseline([entry])
    findings = lint_source(_DRAWING, "src/repro/mod.py")
    kept, suppressed, unused = baseline.apply(findings)
    assert kept == [] and len(suppressed) == 1 and unused == []


# -- exit codes and JSON stability ------------------------------------


def test_error_finding_fails_even_non_strict(tmp_path):
    root = make_tree(tmp_path, {"src/repro/lake/example.py": _DRAWING})
    result = run_lint(LintConfig(paths=["src"], root=str(root), use_cache=False))
    assert result.exit_code(strict=False) == 1


def test_json_report_is_stable_across_runs(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/lake/a.py": _DRAWING,
        "src/repro/lake/b.py": _DRAWING + "Y = random.randint(0, 9)\n",
    })
    config = LintConfig(paths=["src"], root=str(root), use_cache=False)
    first = render_json(run_lint(config))
    second = render_json(run_lint(config))
    assert first == second
    payload = json.loads(first)
    assert payload["version"] == 1
    assert payload["summary"]["files_scanned"] == 2
    assert payload["summary"]["errors"] == 3
    locations = [
        (f["path"], f["line"], f["col"], f["rule"])
        for f in payload["findings"]
    ]
    assert locations == sorted(locations)


def test_findings_identical_with_and_without_cache(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/lake/a.py": _DRAWING,
        "src/repro/lake/b.py": "Y = 2\n",
    })
    cached = LintConfig(paths=["src"], root=str(root))
    uncached = LintConfig(paths=["src"], root=str(root), use_cache=False)
    cold = run_lint(cached)
    warm = run_lint(cached)
    plain = run_lint(uncached)
    assert cold.findings == warm.findings == plain.findings
    assert warm.cache_hits == 2
