"""The interprocedural graph rules, positive and negative cases."""

from repro.analysis.cache import LintCache
from repro.analysis.graph import analyze_project, load_contract
from repro.utils.hashing import stable_hash

LAYERED = """
version = 1

[project]
source-roots = ["src"]

[[layers]]
name = "low"
modules = ["pkg.low"]

[[layers]]
name = "high"
modules = ["pkg.high"]
"""


def run_rules(tmp_path, files, contract_text=None):
    contract = None
    if contract_text is not None:
        arch = tmp_path / "arch.toml"
        arch.write_text(contract_text, encoding="utf-8")
        contract = load_contract(arch)
    cache = LintCache(tmp_path / "graph-cache.json")
    file_map = {
        rel: (source, stable_hash(source)) for rel, source in files.items()
    }
    return analyze_project(file_map, contract, cache)


def by_rule(report, rule):
    return [f for f in report.findings if f.rule == rule]


# -- import-cycle ------------------------------------------------------


def test_import_cycle_flags_every_member(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/a.py": "import pkg.b\n",
        "src/pkg/b.py": "import pkg.a\n",
    })
    findings = by_rule(report, "import-cycle")
    assert sorted(f.path for f in findings) == [
        "src/pkg/a.py", "src/pkg/b.py"
    ]
    assert "pkg.a -> pkg.b -> pkg.a" in findings[0].message


def test_self_import_message_names_the_module(tmp_path):
    report = run_rules(tmp_path, {"src/pkg/a.py": "import pkg.a\n"})
    (finding,) = by_rule(report, "import-cycle")
    assert "imports itself" in finding.message


def test_lazy_import_breaks_the_cycle(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/a.py": "import pkg.b\n",
        "src/pkg/b.py": "def late():\n    import pkg.a\n    return pkg.a\n",
    })
    assert by_rule(report, "import-cycle") == []


# -- layering-violation ------------------------------------------------


def test_upward_import_violates_contract(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/low.py": "import pkg.high\n",
        "src/pkg/high.py": "X = 1\n",
    }, LAYERED)
    (finding,) = by_rule(report, "layering-violation")
    assert finding.path == "src/pkg/low.py"
    assert "pkg.low imports pkg.high" in finding.message


def test_lazy_upward_import_still_violates_contract(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/low.py": (
            "def late():\n    import pkg.high\n    return pkg.high\n"
        ),
        "src/pkg/high.py": "X = 1\n",
    }, LAYERED)
    assert len(by_rule(report, "layering-violation")) == 1


def test_downward_import_is_clean(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/low.py": "X = 1\n",
        "src/pkg/high.py": "import pkg.low\n",
    }, LAYERED)
    assert by_rule(report, "layering-violation") == []


def test_no_contract_means_no_layering_findings(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/low.py": "import pkg.high\n",
        "src/pkg/high.py": "X = 1\n",
    })
    assert by_rule(report, "layering-violation") == []


def test_pragma_suppresses_graph_finding(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/low.py": (
            "import pkg.high  # repro: noqa[layering-violation]\n"
        ),
        "src/pkg/high.py": "X = 1\n",
    }, LAYERED)
    assert by_rule(report, "layering-violation") == []


# -- pool-task-closure -------------------------------------------------


def test_imported_module_level_lambda_task_is_flagged(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/tasks.py": "work = lambda item: item\n",
        "src/pkg/driver.py": (
            "from pkg.tasks import work\n\n\n"
            "def launch(executor, items):\n"
            "    return executor.run_wave(work, items)\n"
        ),
    })
    (finding,) = by_rule(report, "pool-task-closure")
    assert finding.path == "src/pkg/driver.py"
    assert "lambda" in finding.message


def test_task_transitively_mutating_global_state_is_flagged(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/state.py": (
            "COUNT = 0\n\n\n"
            "def bump():\n    global COUNT\n    COUNT += 1\n"
        ),
        "src/pkg/tasks.py": (
            "from pkg.state import bump\n\n\n"
            "def work(item):\n    bump()\n    return item\n"
        ),
        "src/pkg/driver.py": (
            "from pkg.tasks import work\n\n\n"
            "def launch(executor, items):\n"
            "    return executor.run_wave(work, items)\n"
        ),
    })
    (finding,) = by_rule(report, "pool-task-closure")
    assert "pkg.state.bump" in finding.message
    assert "'global'" in finding.message


def test_initializer_may_install_global_state(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/setup.py": (
            "_CONTEXT = None\n\n\n"
            "def init_context(cfg):\n"
            "    global _CONTEXT\n    _CONTEXT = cfg\n"
        ),
        "src/pkg/driver.py": (
            "from pkg.setup import init_context\n"
            "from repro.parallel import WaveExecutor\n\n\n"
            "def build(cfg):\n"
            "    return WaveExecutor(initializer=init_context)\n"
        ),
    })
    assert by_rule(report, "pool-task-closure") == []


def test_clean_pool_task_is_clean(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/tasks.py": "def work(item):\n    return item * 2\n",
        "src/pkg/driver.py": (
            "from pkg.tasks import work\n\n\n"
            "def launch(executor, items):\n"
            "    return executor.run_wave(work, items)\n"
        ),
    })
    assert by_rule(report, "pool-task-closure") == []


# -- dead-symbol -------------------------------------------------------


def test_unreferenced_public_symbol_is_flagged(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/api.py": (
            "def orphan():\n    return 1\n\n\n"
            "def used():\n    return 2\n"
        ),
        "src/pkg/app.py": "from pkg.api import used\n\nVALUE = used()\n",
    })
    (finding,) = by_rule(report, "dead-symbol")
    assert "'orphan'" in finding.message


def test_own_all_does_not_keep_a_symbol_alive(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/api.py": (
            '__all__ = ["orphan"]\n\n\n'
            "def orphan():\n    return 1\n"
        ),
    })
    assert len(by_rule(report, "dead-symbol")) == 1


def test_reexport_from_another_module_keeps_symbol_alive(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/api.py": "def helper():\n    return 1\n",
        "src/pkg/__init__.py": '__all__ = ["helper"]\n',
    })
    assert by_rule(report, "dead-symbol") == []


def test_decorated_private_and_test_symbols_are_exempt(tmp_path):
    report = run_rules(tmp_path, {
        "src/pkg/api.py": (
            "from pkg.reg import register\n\n\n"
            "@register\n"
            "def hooked():\n    return 1\n\n\n"
            "def _internal():\n    return 2\n\n\n"
            "def main():\n    return 3\n"
        ),
        "src/pkg/reg.py": "def register(fn):\n    return fn\n",
        "tests/test_pkg.py": "def test_nothing():\n    assert True\n",
    })
    assert by_rule(report, "dead-symbol") == []
