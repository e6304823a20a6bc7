"""The five dataflow rules: positive and negative fixtures per rule.

Each fixture is a tiny in-memory project run through the real engine
(call graph + summaries + CFG solving), so what these tests pin is the
end-to-end behavior of ``repro lint --dataflow``, pragmas included.
"""

from repro.analysis.cache import LintCache
from repro.analysis.dataflow import analyze_dataflow
from repro.analysis.graph import build_project
from repro.utils.hashing import stable_hash


def run_dataflow(tmp_path, files):
    file_map = {
        rel: (source, stable_hash(source)) for rel, source in files.items()
    }
    project = build_project(file_map, None)
    cache = LintCache(tmp_path / "df-cache.json")
    return analyze_dataflow(file_map, project, cache)


def by_rule(report, rule):
    return [f for f in report.findings if f.rule == rule]


# -- shared-state-race -------------------------------------------------


def test_pool_task_read_modify_write_on_module_state_races(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/tasks.py": (
            "SEEN = {}\n\n\n"
            "def work(item):\n"
            "    SEEN[item.key] = item\n"
            "    return item\n"
        ),
        "src/pkg/driver.py": (
            "from pkg.tasks import work\n\n\n"
            "def launch(executor, items):\n"
            "    return executor.run_wave(work, items)\n"
        ),
    })
    (finding,) = by_rule(report, "shared-state-race")
    assert finding.path == "src/pkg/driver.py"
    assert finding.line == 5  # the submission site
    assert "SEEN" in finding.message


def test_closure_thread_target_mutating_captured_state_races(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/driver.py": (
            "import threading\n\n\n"
            "def launch(items):\n"
            "    counts = {}\n\n"
            "    def worker(item):\n"
            "        counts[item] = counts.get(item, 0) + 1\n\n"
            "    threads = [\n"
            "        threading.Thread(target=worker, args=(i,))\n"
            "        for i in items\n"
            "    ]\n"
            "    return threads, counts\n"
        ),
    })
    (finding,) = by_rule(report, "shared-state-race")
    assert "counts" in finding.message


def test_injected_race_reproduces_the_real_executor_shape(tmp_path):
    # The exact shape that bit the wave executor: a worker that does a
    # read-modify-write on a module-level cache keyed by digest.
    report = run_dataflow(tmp_path, {
        "src/pkg/cachemod.py": (
            "_CACHE = {}\n\n\n"
            "def remember(digest, record):\n"
            "    if digest not in _CACHE:\n"
            "        _CACHE[digest] = []\n"
            "    _CACHE[digest].append(record)\n"
        ),
        "src/pkg/wave.py": (
            "from pkg.cachemod import remember\n\n\n"
            "def train(spec):\n"
            "    remember(spec.digest, spec)\n"
            "    return spec\n"
        ),
        "src/pkg/run.py": (
            "from pkg.wave import train\n\n\n"
            "def go(pool, specs):\n"
            "    return pool.run_wave(train, specs)\n"
        ),
    })
    (finding,) = by_rule(report, "shared-state-race")
    assert finding.path == "src/pkg/run.py"
    assert "_CACHE" in finding.message
    assert "pkg.cachemod.remember" in finding.message


def test_pure_task_and_read_only_globals_do_not_race(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/tasks.py": (
            "SCALE = 2\n\n\n"
            "def work(item):\n"
            "    return item * SCALE\n"
        ),
        "src/pkg/driver.py": (
            "from pkg.tasks import work\n\n\n"
            "def launch(executor, items):\n"
            "    return executor.run_wave(work, items)\n"
        ),
    })
    assert by_rule(report, "shared-state-race") == []


# -- blocking-call-in-async --------------------------------------------


def test_direct_blocking_call_in_async_def_is_flagged(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/serve.py": (
            "import time\n\n\n"
            "async def handler(request):\n"
            "    time.sleep(1)\n"
            "    return request\n"
        ),
    })
    (finding,) = by_rule(report, "blocking-call-in-async")
    assert finding.line == 5
    assert "time.sleep" in finding.message


def test_blocking_call_behind_sync_helper_is_flagged_with_chain(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/io_helpers.py": (
            "def slurp(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        ),
        "src/pkg/serve.py": (
            "from pkg.io_helpers import slurp\n\n\n"
            "async def handler(path):\n"
            "    return slurp(path)\n"
        ),
    })
    (finding,) = by_rule(report, "blocking-call-in-async")
    assert finding.path == "src/pkg/serve.py"
    assert "pkg.io_helpers.slurp" in finding.message
    assert "open" in finding.message


def test_executor_hop_is_not_a_blocking_call(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/serve.py": (
            "import asyncio\n"
            "import time\n\n\n"
            "def measure():\n"
            "    time.sleep(1)\n"
            "    return 1\n\n\n"
            "async def handler(request):\n"
            "    return await asyncio.to_thread(measure)\n"
        ),
    })
    assert by_rule(report, "blocking-call-in-async") == []


def test_await_on_async_callee_is_not_blocking(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/serve.py": (
            "async def fetch(url):\n"
            "    return url\n\n\n"
            "async def handler(url):\n"
            "    return await fetch(url)\n"
        ),
    })
    assert by_rule(report, "blocking-call-in-async") == []


# -- memmap-escape -----------------------------------------------------


def test_memmap_view_returned_past_with_close_is_flagged(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/store.py": (
            "from repro.utils.serialization import open_arrays_memmap\n\n\n"
            "def peek(path, name):\n"
            "    views = open_arrays_memmap(path)\n"
            "    with open(path + '.lock') as lock:\n"
            "        pass\n"
            "    return views[name]\n"
        ),
    })
    # A plain (unscoped) view returned is the caller's business; the
    # *scoped* repro is below.  This shape must stay silent.
    assert by_rule(report, "memmap-escape") == []


def test_scoped_memmap_view_escaping_its_with_block_is_flagged(tmp_path):
    # The real bug shape: load_lake(materialize=False) views handed out
    # of the with-block that owns the backing file.
    report = run_dataflow(tmp_path, {
        "src/pkg/store.py": (
            "from repro.lake.persist import load_lake\n\n\n"
            "def grab(path, name):\n"
            "    with load_lake(path, materialize=False) as lake:\n"
            "        view = lake.weights[name]\n"
            "    return view\n"
        ),
    })
    (finding,) = by_rule(report, "memmap-escape")
    assert finding.path == "src/pkg/store.py"
    assert "view" in finding.message


def test_scoped_view_stored_on_self_is_flagged(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/store.py": (
            "from repro.utils.serialization import open_arrays_memmap\n\n\n"
            "class Holder:\n"
            "    def load(self, path):\n"
            "        with open_arrays_memmap(path) as views:\n"
            "            self.views = views\n"
        ),
    })
    (finding,) = by_rule(report, "memmap-escape")
    assert "self" in finding.message or "attribute" in finding.message


def test_memmap_view_captured_by_pool_task_is_flagged(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/store.py": (
            "from repro.utils.serialization import open_arrays_memmap\n\n\n"
            "def fan_out(pool, path, names):\n"
            "    views = open_arrays_memmap(path)\n\n"
            "    def task(name):\n"
            "        return views[name].sum()\n\n"
            "    return pool.run_wave(task, names)\n"
        ),
    })
    (finding,) = by_rule(report, "memmap-escape")
    assert "views" in finding.message


def test_materialized_copy_may_leave_the_scope(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/store.py": (
            "from repro.lake.persist import load_lake\n\n\n"
            "def grab(path, name):\n"
            "    with load_lake(path, materialize=False) as lake:\n"
            "        data = lake.weights[name].copy()\n"
            "    return data\n"
        ),
    })
    assert by_rule(report, "memmap-escape") == []


# -- impure-digest-flow ------------------------------------------------


def test_clock_value_flowing_into_digest_is_flagged_with_chain(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/ids.py": (
            "import time\n"
            "from repro.utils.hashing import stable_hash\n\n\n"
            "def make_id(payload):\n"
            "    stamp = time.time()\n"
            "    meta = {'at': stamp, 'payload': payload}\n"
            "    return stable_hash(meta)\n"
        ),
    })
    (finding,) = by_rule(report, "impure-digest-flow")
    assert finding.line == 8  # anchored at the sink, not the source
    assert "time.time" in finding.message
    assert "'stamp'" in finding.message  # the def-use chain is spelled out
    assert "'meta'" in finding.message


def test_impure_helper_two_hops_from_digest_is_flagged(tmp_path):
    # Ported from the retired heuristic impure-digest-path rule: the
    # taint engine must see through two call hops via summaries.
    report = run_dataflow(tmp_path, {
        "src/pkg/clock.py": (
            "import time\n\n\n"
            "def jitter():\n    return time.time()\n"
        ),
        "src/pkg/mid.py": (
            "from pkg.clock import jitter\n\n\n"
            "def salt():\n    return jitter()\n"
        ),
        "src/pkg/ids.py": (
            "from pkg.mid import salt\n"
            "from repro.utils.hashing import stable_hash\n\n\n"
            "def compute_digest(payload):\n"
            "    return stable_hash((payload, salt()))\n"
        ),
    })
    (finding,) = by_rule(report, "impure-digest-flow")
    assert finding.path == "src/pkg/ids.py"
    assert "time.time" in finding.message


def test_env_read_reaching_hashlib_update_is_flagged(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/ids.py": (
            "import hashlib\n"
            "import os\n\n\n"
            "def host_key():\n"
            "    digest = hashlib.sha256()\n"
            "    digest.update(os.environ['HOST'].encode())\n"
            "    return digest.hexdigest()\n"
        ),
    })
    (finding,) = by_rule(report, "impure-digest-flow")
    assert "os.environ" in finding.message


def test_seeded_rng_and_pure_values_stay_clean(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/ids.py": (
            "import numpy as np\n"
            "from repro.utils.hashing import stable_hash\n\n\n"
            "def make_id(payload, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    noise = rng.normal()\n"
            "    return stable_hash({'payload': payload}), noise\n"
        ),
    })
    assert by_rule(report, "impure-digest-flow") == []


def test_timing_that_never_reaches_a_digest_is_clean(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/bench.py": (
            "import time\n"
            "from repro.utils.hashing import stable_hash\n\n\n"
            "def run(payload):\n"
            "    start = time.perf_counter()\n"
            "    digest = stable_hash(payload)\n"
            "    return digest, time.perf_counter() - start\n"
        ),
    })
    assert by_rule(report, "impure-digest-flow") == []


# -- resource-leak -----------------------------------------------------


def test_handle_not_closed_on_early_return_path_is_flagged(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/reader.py": (
            "import json\n\n\n"
            "def load(path, strict):\n"
            "    handle = open(path)\n"
            "    if strict:\n"
            "        return json.load(handle)\n"
            "    data = json.load(handle)\n"
            "    handle.close()\n"
            "    return data\n"
        ),
    })
    (finding,) = by_rule(report, "resource-leak")
    assert finding.line == 5  # anchored at the acquisition
    assert "'handle'" in finding.message


def test_with_statement_closes_on_every_path(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/reader.py": (
            "import json\n\n\n"
            "def load(path, strict):\n"
            "    with open(path) as handle:\n"
            "        if strict:\n"
            "            return json.load(handle)\n"
            "        return json.load(handle)\n"
        ),
    })
    assert by_rule(report, "resource-leak") == []


def test_close_on_all_paths_is_clean(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/reader.py": (
            "def head(path, n):\n"
            "    handle = open(path)\n"
            "    data = handle.read(n)\n"
            "    handle.close()\n"
            "    return data\n"
        ),
    })
    assert by_rule(report, "resource-leak") == []


def test_returned_handle_transfers_ownership(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/reader.py": (
            "def acquire(path):\n"
            "    handle = open(path)\n"
            "    return handle\n"
        ),
    })
    assert by_rule(report, "resource-leak") == []


def test_exit_stack_registration_counts_as_release(tmp_path):
    report = run_dataflow(tmp_path, {
        "src/pkg/reader.py": (
            "def attach(stack, path):\n"
            "    handle = open(path)\n"
            "    stack.enter_context(handle)\n"
            "    return handle.name\n"
        ),
    })
    assert by_rule(report, "resource-leak") == []


# -- pragmas anchored at the sink --------------------------------------


def test_noqa_on_the_sink_line_suppresses_taint_finding(tmp_path):
    # Multi-line sink statement: the finding anchors at the statement's
    # first line, so that is where the pragma belongs.
    report = run_dataflow(tmp_path, {
        "src/pkg/ids.py": (
            "import time\n"
            "from repro.utils.hashing import stable_hash\n\n\n"
            "def make_id(payload):\n"
            "    stamp = time.time()\n"
            "    return stable_hash(  # repro: noqa[impure-digest-flow]\n"
            "        {'at': stamp, 'payload': payload}\n"
            "    )\n"
        ),
    })
    assert by_rule(report, "impure-digest-flow") == []


def test_noqa_on_the_closing_paren_line_does_not_suppress(tmp_path):
    # Pragmas are per-physical-line; the last line of a multi-line
    # statement is not where the finding anchors.
    report = run_dataflow(tmp_path, {
        "src/pkg/ids.py": (
            "import time\n"
            "from repro.utils.hashing import stable_hash\n\n\n"
            "def make_id(payload):\n"
            "    stamp = time.time()\n"
            "    return stable_hash(\n"
            "        {'at': stamp, 'payload': payload}\n"
            "    )  # repro: noqa[impure-digest-flow]\n"
        ),
    })
    assert len(by_rule(report, "impure-digest-flow")) == 1


def test_noqa_on_the_source_line_does_not_suppress(tmp_path):
    # The finding anchors at the sink; a pragma on the source line is a
    # stale comment, not a suppression.
    report = run_dataflow(tmp_path, {
        "src/pkg/ids.py": (
            "import time\n"
            "from repro.utils.hashing import stable_hash\n\n\n"
            "def make_id(payload):\n"
            "    stamp = time.time()  # repro: noqa[impure-digest-flow]\n"
            "    return stable_hash({'at': stamp, 'payload': payload})\n"
        ),
    })
    assert len(by_rule(report, "impure-digest-flow")) == 1


def test_decorated_async_function_is_analyzed_and_pragma_works(tmp_path):
    # Decorators neither hide the function from the dataflow pass nor
    # move where findings anchor: the noqa still goes on the call line.
    plain = (
        "import functools\n"
        "import time\n\n\n"
        "@functools.wraps(print)\n"
        "async def poll():\n"
        "    time.sleep(1){pragma}\n"
    )
    flagged = run_dataflow(tmp_path, {
        "src/pkg/poll.py": plain.format(pragma=""),
    })
    assert len(by_rule(flagged, "blocking-call-in-async")) == 1
    silenced = run_dataflow(tmp_path, {
        "src/pkg/poll.py": plain.format(
            pragma="  # repro: noqa[blocking-call-in-async]"
        ),
    })
    assert by_rule(silenced, "blocking-call-in-async") == []
