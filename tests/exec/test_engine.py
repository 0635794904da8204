"""The fan-out engine: ordering, determinism, crash and error handling."""

import os
import time

import pytest

from repro.exec.engine import (
    TaskError,
    TaskTimeout,
    derive_seed,
    parallel_map,
    resolve_workers,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x * 10


def _fail_on_even(x):
    if x % 2 == 0:
        raise ValueError(f"bad item {x}")
    return x


class _LambdaError(Exception):
    """An exception that cannot be pickled (callable attribute)."""

    def __init__(self):
        super().__init__("unpicklable failure")
        self.hook = lambda: None


def _raise_unpicklable(x):
    raise _LambdaError()


def _crash_in_worker(task):
    # Only die when running in a worker process; the parent's serial
    # retry (same function, same item) must succeed.
    if task["x"] == 2 and os.getpid() != task["parent_pid"]:
        os._exit(17)
    return task["x"] + 100


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    @pytest.mark.parametrize("bad", [0, -2])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(bad)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")

    def test_distinct_per_label(self):
        seeds = {
            derive_seed(7),
            derive_seed(7, "a"),
            derive_seed(7, "b"),
            derive_seed(8, "a"),
            derive_seed(7, "a", "b"),
        }
        assert len(seeds) == 5

    def test_range_fits_rng_constructors(self):
        for i in range(50):
            s = derive_seed(i, "edge", i * 3)
            assert 0 <= s < 2**63


class TestParallelMap:
    def test_serial_matches_list_comprehension(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=1) == [x * x for x in items]

    def test_parallel_matches_serial_in_order(self):
        items = list(range(20))
        serial = parallel_map(_square, items, workers=1)
        parallel = parallel_map(_square, items, workers=2)
        assert parallel == serial

    def test_single_item_stays_serial(self):
        registry = MetricsRegistry()
        assert parallel_map(
            _square, [4], workers=4, label="t", registry=registry
        ) == [16]
        flat = registry.flat()
        assert flat['exec_tasks_total{label="t",mode="serial"}'] == 1.0

    def test_task_error_propagates_with_original_type(self):
        with pytest.raises(ValueError, match="bad item 3"):
            parallel_map(_fail_on_three, list(range(6)), workers=2)

    def test_lowest_index_error_wins(self):
        # Items 0, 2, 4 all fail; a serial loop would raise on item 0.
        with pytest.raises(ValueError, match="bad item 0"):
            parallel_map(_fail_on_even, list(range(6)), workers=2)

    def test_unpicklable_exception_becomes_task_error(self):
        with pytest.raises(TaskError, match="_LambdaError"):
            parallel_map(_raise_unpicklable, [1, 2], workers=2)

    def test_worker_crash_falls_back_to_serial(self):
        registry = MetricsRegistry()
        tasks = [{"x": i, "parent_pid": os.getpid()} for i in range(5)]
        out = parallel_map(
            _crash_in_worker, tasks, workers=2, label="c", registry=registry
        )
        assert out == [100, 101, 102, 103, 104]
        flat = registry.flat()
        assert flat['exec_worker_crashes_total{label="c"}'] >= 1.0
        assert flat['exec_serial_retries_total{label="c"}'] >= 1.0
        assert flat['exec_tasks_total{label="c",mode="serial-retry"}'] >= 1.0

    def test_counts_and_durations_recorded(self):
        registry = MetricsRegistry()
        parallel_map(
            _square, list(range(8)), workers=2, label="m", registry=registry
        )
        flat = registry.flat()
        assert flat['exec_tasks_total{label="m",mode="parallel"}'] == 8.0
        hist = registry.histogram(
            "exec_task_seconds", labels={"label": "m"}
        )
        assert hist.count == 8

    def test_span_records_worker_busy_seconds(self):
        tracer = Tracer()
        parallel_map(_nap, [0.02] * 4, workers=2, label="b", tracer=tracer)
        (span,) = [s for s in tracer.spans() if s.name == "exec.parallel_map"]
        # Four 20 ms naps: the workers were busy at least that long.
        assert span.attrs["busy_s"] >= 0.08


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _sleep_on_two(x):
    if x == 2:
        time.sleep(5.0)
    return x * 10


class TestTimeouts:
    def test_serial_timeout_raises(self):
        with pytest.raises(TaskTimeout, match="deadline"):
            parallel_map(_sleep_on_two, [1, 2, 3], workers=1, timeout=0.2)

    def test_parallel_timeout_raises(self):
        with pytest.raises(TaskTimeout, match="deadline"):
            parallel_map(_sleep_on_two, [1, 2, 3], workers=2, timeout=0.2)

    def test_return_exceptions_keeps_good_slots(self):
        registry = MetricsRegistry()
        out = parallel_map(
            _sleep_on_two, [1, 2, 3], workers=2, timeout=0.2,
            label="t", registry=registry, return_exceptions=True,
        )
        assert out[0] == 10 and out[2] == 30
        assert isinstance(out[1], TaskTimeout)
        assert registry.flat()['exec_timeout_total{label="t"}'] == 1.0

    def test_return_exceptions_wraps_errors_without_timeout(self):
        out = parallel_map(
            _fail_on_even, list(range(4)), workers=2, return_exceptions=True
        )
        assert out[1] == 1 and out[3] == 3
        assert isinstance(out[0], ValueError)
        assert isinstance(out[2], ValueError)

    def test_no_timeout_is_the_default(self):
        assert parallel_map(_square, [1, 2], workers=1) == [1, 4]
