"""Deterministic process-pool fan-out: :func:`parallel_map`.

Design constraints, in order:

- **determinism**: results come back in submission order regardless of
  completion order, and ``workers=1`` is a plain in-order loop — no pool,
  no pickling — so a serial run is bit-identical to code that never heard
  of this module.  Anything a task needs beyond its item (seeds included)
  must be derived deterministically; :func:`derive_seed` folds a base
  seed and arbitrary task labels through SHA-256 for that.
- **crash containment**: a worker that dies (OOM kill, segfault,
  ``os._exit``) poisons its ``ProcessPoolExecutor``.  Tasks whose results
  were lost are retried serially in the parent, counted in
  ``exec_worker_crashes_total`` / ``exec_serial_retries_total`` — a fleet
  of fits should degrade to slow, not to dead.
- **error fidelity**: an exception *raised by the task function* is not a
  crash.  It is captured in the worker with its traceback text and
  re-raised in the parent with its original type (lowest task index
  first, matching what a serial loop would have raised).  Exceptions that
  do not survive pickling are wrapped in :class:`TaskError`.
- **deadline containment**: an optional per-task ``timeout`` cancels a
  task that exceeds its wall-clock budget *inside the worker* (SIGALRM,
  where the platform has it), so one hung fit cannot stall a whole
  retrain fan-out.  The cancelled task surfaces as :class:`TaskTimeout`
  and is counted in ``exec_timeout_total``; it is *not* retried serially
  (a hung task would hang the parent too).  With
  ``return_exceptions=True`` failed tasks — timeouts included — come
  back as exception objects in their slot instead of aborting the whole
  map, which is what a supervisor scheduling independent per-edge refits
  wants.

Worker count resolution (:func:`resolve_workers`): explicit argument,
else the ``REPRO_WORKERS`` environment variable, else 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import threading
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, exponential_buckets
from repro.obs.tracing import NULL_SPAN, Tracer

__all__ = [
    "resolve_workers",
    "derive_seed",
    "parallel_map",
    "timeout_enforceable",
    "TaskError",
    "TaskTimeout",
]

# 1 ms .. ~17 min: spans one edge fit through a full-study experiment.
_TASK_BUCKETS = exponential_buckets(1e-3, 2.0, 20)


class TaskError(RuntimeError):
    """A task raised an exception that could not be pickled back to the
    parent; the message carries the original type and traceback text."""


class TaskTimeout(TaskError):
    """A task exceeded its per-task ``timeout`` and was cancelled at the
    deadline (inside the worker on platforms with SIGALRM)."""


def timeout_enforceable() -> bool:
    """Whether :func:`_deadline` can actually enforce a timeout *here*:
    only in a process's main thread, and only on platforms with
    ``SIGALRM``.  Anywhere else a requested deadline is silently
    best-effort-unenforced."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


# One warning per process: a caller that schedules thousands of tasks
# from a worker thread should not get thousands of identical events.
_timeout_unavailable_warned = False


def _warn_timeout_unavailable(
    label: str,
    registry: MetricsRegistry | None,
    events: EventLog | None,
) -> None:
    global _timeout_unavailable_warned
    if _timeout_unavailable_warned:
        return
    _timeout_unavailable_warned = True
    if registry is not None:
        registry.counter(
            "exec_timeout_unavailable_total",
            "Task deadlines requested where SIGALRM enforcement is "
            "impossible (non-main thread or platform without SIGALRM).",
        ).inc()
    if events is not None:
        events.emit(
            "exec", "timeout_unavailable", severity="warning",
            label=label,
            has_sigalrm=hasattr(signal, "SIGALRM"),
            main_thread=(
                threading.current_thread() is threading.main_thread()
            ),
        )


@contextmanager
def _deadline(timeout: float | None):
    """Raise :class:`TaskTimeout` from the enclosed block after
    ``timeout`` seconds.

    Enforcement uses ``SIGALRM``/``setitimer``, which only works in a
    process's main thread and only on platforms that have it; anywhere
    else the deadline is best-effort-unenforced (the task simply runs to
    completion).  The timer is always cleared on exit so no alarm can
    leak into unrelated code.
    """
    if (
        not timeout
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise TaskTimeout(f"task exceeded its {timeout:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def resolve_workers(workers: int | None = None) -> int:
    """The effective worker count: explicit ``workers`` if given, else the
    ``REPRO_WORKERS`` environment variable, else 1 (pure serial)."""
    if workers is not None:
        count = int(workers)
    else:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        count = int(env) if env else 1
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {count}")
    return count


def derive_seed(base_seed: int, *parts) -> int:
    """A per-task seed derived from ``base_seed`` and any number of task
    labels — stable across processes and platforms (SHA-256, not
    ``hash()``), distinct for distinct label tuples, always in
    ``[0, 2**63)`` so it fits every RNG constructor."""
    payload = json.dumps(
        [int(base_seed), *[str(p) for p in parts]], separators=(",", ":")
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _span(tracer: Tracer | None, name: str, **attrs):
    if tracer is None or not tracer.enabled:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def _count_tasks(registry: MetricsRegistry | None, label: str, mode: str,
                 n: int = 1) -> None:
    if registry is not None and n:
        registry.counter(
            "exec_tasks_total", "Tasks completed by the fan-out engine.",
            labels={"label": label, "mode": mode},
        ).inc(n)


def _observe_duration(registry: MetricsRegistry | None, label: str,
                      seconds: float) -> None:
    if registry is not None:
        registry.histogram(
            "exec_task_seconds", "Per-task wall-clock duration.",
            labels={"label": label}, bounds=_TASK_BUCKETS,
        ).observe(seconds)


def _run_task(payload: tuple) -> tuple:
    """Top-level worker wrapper (must be importable for pickling).

    Returns ``(status, index, value, traceback_text, duration_s)`` where
    status is ``"ok"``, ``"error"``, or ``"timeout"`` — task exceptions
    are *data*, not crashes, so one bad edge cannot poison the pool, and
    a task that blows its deadline is cancelled right here in the worker.
    """
    fn, item, index, timeout = payload
    start = time.perf_counter()
    try:
        with _deadline(timeout):
            value = fn(item)
        return ("ok", index, value, "", time.perf_counter() - start)
    except TaskTimeout as exc:
        return ("timeout", index, exc, "", time.perf_counter() - start)
    except Exception as exc:
        tb = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = TaskError(f"{type(exc).__name__}: {exc}\n{tb}")
        return ("error", index, exc, tb, time.perf_counter() - start)


def _count_timeout(registry: MetricsRegistry | None, label: str,
                   events: EventLog | None = None) -> None:
    if registry is not None:
        registry.counter(
            "exec_timeout_total",
            "Tasks cancelled at their per-task deadline.",
            labels={"label": label},
        ).inc()
    if events is not None:
        events.emit("exec", "task_timeout", severity="warning", label=label)


def _serial_map(
    fn: Callable,
    items: list,
    label: str,
    registry: MetricsRegistry | None,
    tracer: Tracer | None,
    mode: str = "serial",
    timeout: float | None = None,
    return_exceptions: bool = False,
    events: EventLog | None = None,
) -> list:
    """The workers=1 path: a plain loop, exceptions propagate at the first
    failing item exactly as unengined code would (unless
    ``return_exceptions`` captures them into their result slot)."""
    if timeout and not timeout_enforceable():
        _warn_timeout_unavailable(label, registry, events)
    out = []
    for i, item in enumerate(items):
        with _span(tracer, "exec.task", label=label, index=i):
            start = time.perf_counter()
            try:
                with _deadline(timeout):
                    out.append(fn(item))
            except TaskTimeout as exc:
                _count_timeout(registry, label, events)
                if not return_exceptions:
                    raise
                out.append(exc)
            except Exception as exc:
                if not return_exceptions:
                    raise
                out.append(exc)
            _observe_duration(registry, label, time.perf_counter() - start)
        _count_tasks(registry, label, mode)
    return out


def parallel_map(
    fn: Callable,
    items: Iterable,
    workers: int | None = None,
    label: str = "task",
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    timeout: float | None = None,
    return_exceptions: bool = False,
    events: EventLog | None = None,
) -> list:
    """``[fn(item) for item in items]``, fanned out over worker processes.

    Results are returned in input order.  With ``workers=1`` (or a single
    item) this is a plain serial loop.  With ``workers>1``, ``fn`` and
    every item must be picklable; tasks whose worker crashed are retried
    serially in the parent, and if any task raised, the exception of the
    lowest-index failing task is re-raised with its original type.

    ``timeout`` gives every task a wall-clock deadline, enforced inside
    the worker (see :func:`_deadline`); a task past its deadline fails
    with :class:`TaskTimeout` and is never retried serially.  With
    ``return_exceptions=True`` failing tasks (timeouts included) come
    back as exception objects in their result slot instead of raising,
    so independent tasks cannot abort each other.
    """
    items = list(items)
    count = resolve_workers(workers)
    if count <= 1 or len(items) <= 1:
        return _serial_map(fn, items, label, registry, tracer,
                           timeout=timeout,
                           return_exceptions=return_exceptions,
                           events=events)

    outcomes: dict[int, tuple] = {}
    crashes = 0
    busy = 0.0  # summed worker-side task durations
    with _span(tracer, "exec.parallel_map", label=label, tasks=len(items),
               workers=count) as span:
        try:
            with ProcessPoolExecutor(max_workers=min(count, len(items))) as pool:
                futures = [
                    pool.submit(_run_task, (fn, item, i, timeout))
                    for i, item in enumerate(items)
                ]
                for future in futures:
                    try:
                        status, index, value, tb, duration = future.result()
                    except BrokenExecutor:
                        crashes += 1
                        continue
                    except Exception:
                        # Result lost in transit (e.g. an unpicklable
                        # return value): recompute it in the parent.
                        crashes += 1
                        continue
                    outcomes[index] = (status, value, tb)
                    if status == "timeout":
                        _count_timeout(registry, label, events)
                    _observe_duration(registry, label, duration)
                    busy += duration
        except BrokenExecutor:
            crashes += 1

        completed = len(outcomes)
        _count_tasks(registry, label, "parallel", completed)
        retry = [i for i in range(len(items)) if i not in outcomes]
        if crashes:
            if registry is not None:
                registry.counter(
                    "exec_worker_crashes_total",
                    "Worker deaths / lost results observed by parallel_map.",
                    labels={"label": label},
                ).inc(crashes)
            if events is not None:
                events.emit("exec", "worker_crash", severity="error",
                            label=label, crashes=crashes)
        if retry:
            if registry is not None:
                registry.counter(
                    "exec_serial_retries_total",
                    "Tasks recomputed serially after a worker crash.",
                    labels={"label": label},
                ).inc(len(retry))
            if events is not None:
                events.emit("exec", "serial_retry", severity="warning",
                            label=label, tasks=len(retry))
            # Run the survivors in index order in the parent; a task
            # exception here propagates directly, like the serial path.
            recovered = _serial_map(
                fn, [items[i] for i in retry], label, registry, tracer,
                mode="serial-retry", timeout=timeout,
                return_exceptions=return_exceptions, events=events,
            )
            for i, value in zip(retry, recovered):
                status = "error" if isinstance(value, Exception) else "ok"
                outcomes[i] = (status, value, "")
        span.attrs["crashes"] = crashes
        # busy_s / (workers * span duration) is the fan-out's efficiency.
        span.attrs["busy_s"] = busy

    if not return_exceptions:
        for i in range(len(items)):
            status, value, tb = outcomes[i]
            if status in ("error", "timeout"):
                raise value
    return [outcomes[i][1] for i in range(len(items))]
