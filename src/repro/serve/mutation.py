"""The mutation record: the one format the replicated serving state changes in.

The contention features (Table 2, Eq. 2) are computed from the
active-transfer population, and four mutations change that serving
state.  Each is a strict-JSON list, the same in the durability journal
and on the shard wire:

- ``["add", tid, view_dict]`` — a transfer started
  (``view_dict`` is :func:`~repro.serve.active_set.view_to_dict`);
- ``["progress", tid, rate, expected_end]`` — a progress report
  (either value may be ``None``, not both);
- ``["complete", tid]`` — a transfer finished;
- ``["drift", src, dst, tier, predicted, realized]`` — a completed
  transfer scored against its prediction.

Non-finite floats travel as their ``repr`` string (``"nan"``, ``"inf"``,
``"-inf"``): strict JSON has no spelling for them, and the journal must
record even the malformed progress reports a lenient state drops, so
replay rejects them identically.

Build records with the constructors (:func:`add`, :func:`progress`,
:func:`complete`, :func:`drift`).  :func:`decode` is the single reader:
it checks the structure and returns a :class:`Mutation` holding the
values ready to apply plus the canonical record they encode to, raising
``ValueError`` for anything no serving state could accept.
:class:`ServingState` is the journal-free state the records apply to —
the uninterrupted twin every durability and shard proof compares against,
and the base of :class:`~repro.serve.durability.DurableServingState`.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from repro.core.online import ActiveTransferView
from repro.obs import DriftMonitor, MetricsRegistry, Observability
from repro.obs.drift import check_rates
from repro.serve.active_set import ActiveSet, view_from_dict, view_to_dict

__all__ = [
    "Mutation",
    "ServingState",
    "add",
    "complete",
    "decode",
    "drift",
    "progress",
]


def _json_float(value) -> float | str | None:
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def add(tid: int, view: ActiveTransferView) -> list:
    """Record for a transfer start."""
    return ["add", int(tid), view_to_dict(view)]


def progress(tid: int, rate: float | None = None,
             expected_end: float | None = None) -> list:
    """Record for a progress report."""
    return ["progress", int(tid), _json_float(rate),
            _json_float(expected_end)]


def complete(tid: int) -> list:
    """Record for a transfer completion."""
    return ["complete", int(tid)]


def drift(src: str, dst: str, tier, predicted: float,
          realized: float) -> list:
    """Record for one drift observation; ``tier`` may be a
    :class:`~repro.serve.fallback.ModelTier` or its string value."""
    tier_name = getattr(tier, "value", None) or str(tier)
    return ["drift", str(src), str(dst), str(tier_name),
            _json_float(predicted), _json_float(realized)]


class Mutation(NamedTuple):
    """One decoded record: its op, the values to apply (in record order,
    the add's view as an :class:`ActiveTransferView`), and the canonical
    record they encode to."""

    op: str
    args: tuple
    record: list


_ARITY = {"add": 3, "progress": 4, "complete": 2, "drift": 6}


def _tid(value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"transfer id must be an integer, got {value!r}") \
            from None


def _float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def decode(record) -> Mutation:
    """Check one record and decode it; ``ValueError`` names the fault.

    Rejected here is everything every serving state refuses whatever its
    mode: unknown ops, wrong arity, a view that does not construct, a
    progress report carrying neither value, drift rates the monitor
    cannot score.  What depends on the state — duplicate adds, unknown
    ids, NaN progress rates — passes, so the journal records it and the
    state decides.
    """
    if not isinstance(record, (list, tuple)) or not record:
        raise ValueError(f"mutation must be a non-empty list, got {record!r}")
    op = record[0]
    arity = _ARITY.get(op) if isinstance(op, str) else None
    if arity is None:
        raise ValueError(f"unknown mutation op {op!r}")
    if len(record) != arity:
        raise ValueError(
            f"{op} takes {arity} fields, got {len(record)}: {record!r}")
    if op == "add":
        tid, fields = _tid(record[1]), record[2]
        if not isinstance(fields, dict):
            raise ValueError(f"add view must be an object, got {fields!r}")
        try:
            view = view_from_dict(fields)
        except KeyError as exc:
            raise ValueError(f"add view misses field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"add view rejected: {exc}") from None
        return Mutation(op, (tid, view), add(tid, view))
    if op == "progress":
        tid = _tid(record[1])
        rate = None if record[2] is None else _float(record[2], "rate")
        end = None if record[3] is None else _float(record[3], "expected_end")
        if rate is None and end is None:
            raise ValueError("progress needs rate and/or expected_end")
        return Mutation(op, (tid, rate, end), progress(tid, rate, end))
    if op == "complete":
        tid = _tid(record[1])
        return Mutation(op, (tid,), complete(tid))
    src, dst = _text(record[1], "src"), _text(record[2], "dst")
    tier = _text(record[3], "tier")
    predicted, realized = check_rates(_float(record[4], "predicted"),
                                      _float(record[5], "realized"))
    return Mutation(op, (src, dst, tier, predicted, realized),
                    drift(src, dst, tier, predicted, realized))


class ServingState:
    """The serving state the records change: the
    (:class:`~repro.serve.ActiveSet`, :class:`~repro.obs.DriftMonitor`,
    :class:`~repro.obs.MetricsRegistry`) triple, without a journal."""

    def __init__(self, obs: Observability | None = None,
                 lenient: bool = True) -> None:
        self.obs = obs if obs is not None else Observability.create(trace=False)
        self.registry: MetricsRegistry = self.obs.registry
        self.active = ActiveSet(lenient=lenient, obs=self.obs)
        self.drift: DriftMonitor = (
            self.obs.drift if self.obs.drift is not None
            else DriftMonitor(registry=self.registry)
        )

    def apply(self, record) -> None:
        """Decode one record and apply it.  ``ValueError`` from
        :func:`decode` means nothing changed; a strict
        :class:`~repro.serve.ActiveSet` may still refuse the decoded
        values with ``KeyError``/``ValueError``."""
        self._apply(decode(record))

    def _apply(self, mutation: Mutation) -> None:
        op, args = mutation.op, mutation.args
        if op == "add":
            self.active.add(*args)
        elif op == "progress":
            self.active.progress(*args)
        elif op == "complete":
            self.active.complete(*args)
        else:
            self.drift.record(*args)

    def state_fingerprint(self) -> dict:
        """The equivalence contract in one comparable value: the exact
        active population (insertion-ordered) and the exact drift
        windows.  Two states with equal fingerprints produce identical
        predictions and identical drift gauges."""
        return {
            "active": self.active.snapshot_state(),
            "drift": self.drift.dump_state(),
        }
