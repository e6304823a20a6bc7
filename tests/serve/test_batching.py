"""Unit tests for the micro-batcher: dispatch, coalescing, dedup, drain.

Workers are held busy by a runner that blocks on a gate, so queries
queue behind them deterministically, with no reliance on timing.
"""

import asyncio
import threading

import pytest

from repro.serve import MicroBatcher


class RecordingRunner:
    """Echoes each key back as its result and records every call.

    Every call waits for ``gate`` before it returns (the gate starts
    open), so a test decides how long the dispatched batches stay busy.
    """

    def __init__(self, fail: Exception | None = None):
        self.calls = []
        self.fail = fail
        self.gate = threading.Event()
        self.gate.set()
        self._lock = threading.Lock()

    def __call__(self, keys):
        with self._lock:
            self.calls.append(list(keys))
        if not self.gate.wait(timeout=10):
            raise TimeoutError("test never opened the gate")
        if self.fail is not None:
            raise self.fail
        return [("result", key) for key in keys]


def run_behind_busy_worker(runner, queries, **batcher_kwargs):
    """``(queue_depth, results)`` for ``queries`` sent to a busy batcher.

    One worker is held busy while every query is submitted, so they
    all queue; ``queue_depth`` is read just before the worker frees up.
    Results come back positionally, exceptions included.
    """

    async def scenario():
        batcher = MicroBatcher(runner, workers=1, **batcher_kwargs)
        runner.gate.clear()
        held = asyncio.ensure_future(batcher.submit("busy", 1, "hybrid"))
        await asyncio.sleep(0)  # "busy" dispatches at once and blocks
        queued = asyncio.gather(
            *(batcher.submit(*query) for query in queries),
            return_exceptions=True,
        )
        await asyncio.sleep(0)
        depth = batcher.queue_depth
        runner.gate.set()
        results = await asyncio.wait_for(queued, 5.0)
        await asyncio.gather(held, return_exceptions=True)
        assert batcher.queue_depth == 0
        return depth, results

    depth, results = asyncio.run(scenario())
    assert runner.calls[0] == [("busy", 1, "hybrid")]
    return depth, results


class TestMicroBatcher:
    def test_idle_query_dispatches_at_once(self):
        runner = RecordingRunner()

        async def scenario():
            runner.gate.clear()
            batcher = MicroBatcher(runner, workers=2)
            first = asyncio.ensure_future(batcher.submit("a", 5, "hybrid"))
            second = asyncio.ensure_future(batcher.submit("b", 5, "hybrid"))
            await asyncio.sleep(0)
            # Two free workers: neither query waits for company.
            depth_with_a_free_worker = batcher.queue_depth
            third = asyncio.ensure_future(batcher.submit("c", 5, "hybrid"))
            await asyncio.sleep(0)
            depth_when_busy = batcher.queue_depth
            runner.gate.set()
            await asyncio.wait_for(asyncio.gather(first, second, third), 5.0)
            return depth_with_a_free_worker, depth_when_busy

        assert asyncio.run(scenario()) == (0, 1)
        assert sorted(runner.calls[:2]) == [
            [("a", 5, "hybrid")], [("b", 5, "hybrid")],
        ]
        assert runner.calls[2] == [("c", 5, "hybrid")]

    def test_concurrent_queries_share_one_dispatch(self):
        runner = RecordingRunner()
        _, results = run_behind_busy_worker(runner, [
            ("a", 5, "hybrid"), ("b", 5, "hybrid"), ("c", 3, "keyword"),
        ])
        assert len(runner.calls) == 2
        assert sorted(runner.calls[1]) == [
            ("a", 5, "hybrid"), ("b", 5, "hybrid"), ("c", 3, "keyword"),
        ]
        assert results[0] == ("result", ("a", 5, "hybrid"))
        assert results[2] == ("result", ("c", 3, "keyword"))

    def test_identical_queries_deduplicate(self):
        runner = RecordingRunner()
        _, results = run_behind_busy_worker(runner, [("same", 5, "hybrid")] * 6)
        assert runner.calls[1:] == [[("same", 5, "hybrid")]]
        assert all(result is results[0] for result in results)

    def test_max_batch_caps_a_dispatch(self):
        runner = RecordingRunner()
        _, results = run_behind_busy_worker(runner, [
            ("a", 5, "hybrid"), ("b", 5, "hybrid"), ("c", 5, "hybrid"),
        ], max_batch=2)
        assert len(results) == 3
        assert runner.calls[1:] == [
            [("a", 5, "hybrid"), ("b", 5, "hybrid")],
            [("c", 5, "hybrid")],
        ]

    def test_twin_of_a_dispatched_query_gets_its_own_batch(self):
        runner = RecordingRunner()

        async def scenario():
            runner.gate.clear()
            batcher = MicroBatcher(runner, workers=1)
            first = asyncio.ensure_future(batcher.submit("a", 5, "hybrid"))
            await asyncio.sleep(0)
            twin = asyncio.ensure_future(batcher.submit("a", 5, "hybrid"))
            await asyncio.sleep(0)
            # The twin waits for a batch of its own; it does not ride
            # the one already running.
            depth = batcher.queue_depth
            runner.gate.set()
            results = await asyncio.wait_for(asyncio.gather(first, twin), 5.0)
            return depth, results

        depth, (first, twin) = asyncio.run(scenario())
        assert depth == 1
        assert runner.calls == [[("a", 5, "hybrid")], [("a", 5, "hybrid")]]
        assert first == twin and first is not twin

    def test_runner_failure_reaches_every_waiter(self):
        runner = RecordingRunner(fail=RuntimeError("engine exploded"))
        _, results = run_behind_busy_worker(
            runner, [("a", 5, "hybrid"), ("b", 5, "hybrid")]
        )
        assert runner.calls[1] == [("a", 5, "hybrid"), ("b", 5, "hybrid")]
        assert len(results) == 2
        for result in results:
            assert isinstance(result, RuntimeError)

    def test_drain_dispatches_tail_then_rejects(self):
        runner = RecordingRunner()

        async def scenario():
            runner.gate.clear()
            batcher = MicroBatcher(runner, workers=1)
            held = asyncio.ensure_future(batcher.submit("busy", 1, "hybrid"))
            await asyncio.sleep(0)
            pending = asyncio.ensure_future(batcher.submit("a", 5, "hybrid"))
            await asyncio.sleep(0)  # "a" queues behind the busy worker
            draining = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0)
            with pytest.raises(RuntimeError):
                await batcher.submit("b", 5, "hybrid")
            runner.gate.set()
            await asyncio.wait_for(draining, 5.0)
            assert pending.done()  # drain returned after the tail's batch
            result = await pending
            await held
            with pytest.raises(RuntimeError):
                await batcher.submit("c", 5, "hybrid")
            return result

        result = asyncio.run(scenario())
        assert result == ("result", ("a", 5, "hybrid"))
        assert runner.calls == [[("busy", 1, "hybrid")], [("a", 5, "hybrid")]]

    def test_queue_depth_tracks_pending(self):
        depth, _ = run_behind_busy_worker(RecordingRunner(), [
            ("a", 5, "hybrid"), ("a", 5, "hybrid"), ("b", 5, "hybrid"),
        ])
        assert depth == 2
