"""Every ``# repro: noqa[...]`` pragma in the repository names a real rule.

A pragma naming an unknown rule suppresses nothing and says nothing, so
it outlives the rule it was written for.  Only real comments count:
``tokenize`` yields ``COMMENT`` tokens, so pragma text inside string
fixtures is skipped.
"""

import os
import tokenize

from repro.analysis.pragmas import ALL_RULES, pragma_lines
from repro.analysis.runner import known_rule_names

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SWEPT = ("src", "tests", "benchmarks")


def _python_files():
    for top in _SWEPT:
        for dirpath, dirnames, filenames in os.walk(os.path.join(_REPO, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def _pragma_rules(path):
    """``(line, rule)`` for every rule a pragma comment in ``path`` names."""
    with open(path, "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type != tokenize.COMMENT:
                continue
            for rules in pragma_lines(token.string).values():
                for rule in sorted(rules - {ALL_RULES}):
                    yield token.start[0], rule


def test_pragmas_name_only_known_rules():
    known = set(known_rule_names())
    unknown = [
        f"{os.path.relpath(path, _REPO)}:{line}: {rule}"
        for path in _python_files()
        for line, rule in _pragma_rules(path)
        if rule not in known
    ]
    assert unknown == []


def test_pragmas_inside_strings_are_not_comments(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(
        'SOURCE = "x = 1  # repro: noqa[not-a-rule]"\n'
        "y = 2  # repro: noqa[no-print]\n"
    )
    assert list(_pragma_rules(path)) == [(2, "no-print")]
