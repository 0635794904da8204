"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files only: :meth:`Recorder.wrap`
replaces a public entry point -- a module attribute or an attribute of one
live instance -- with a wrapper that times each call.  Nothing in the
program is edited, and an untraced run wraps nothing, so it runs the
program's code exactly as a user would.

Spans stay in memory as ``(name, start, end, parent)`` rows and are
written out once, when the run ends.  A span's *self time* is its
duration minus its children's; summed over every span under a root, self
times add up to the root's wall time exactly, which is what makes the
layer budget close.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class Recorder:
    """In-memory span tree with attribute wrapping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping -------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> object:
        """Set ``owner.attr`` until :meth:`restore`; returns the original."""
        original = getattr(owner, attr)
        own = attr in getattr(owner, "__dict__", {})
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, own))
        return original

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""
        original = getattr(owner, attr)
        rec = self

        def traced(*args, **kwargs):
            idx = rec.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                rec.close(idx)

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis -------------------------------------------------------------

    def self_times(self, root: str) -> tuple[dict[str, float], float]:
        """``({span name: self seconds}, wall seconds)`` over every span
        tree rooted at a span called ``root``.  The root's own self time
        is reported under ``"unattributed"``."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        # Resolve each span's root once, in creation order (a parent is
        # always created before its children).
        root_of = [-1] * len(dur)
        out: dict[str, float] = defaultdict(float)
        wall = 0.0
        for i, p in enumerate(self.parents):
            if p < 0:
                root_of[i] = i if self.names[i] == root else -1
                if root_of[i] < 0:
                    continue
                wall += dur[i]
                out["unattributed"] += dur[i] - child[i]
            else:
                root_of[i] = root_of[p]
                if root_of[i] < 0:
                    continue
                out[self.names[i]] += dur[i] - child[i]
        return dict(out), wall

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(e - s for n, s, e in zip(self.names, self.starts,
                                             self.ends) if n == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[n, s - t0, e - t0, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        path.write_text(json.dumps(
            {"columns": ["name", "start_s", "end_s", "parent"],
             "spans": rows}))


class CountingSocket:
    """Socket stand-in that counts the bytes a frame function moves."""

    __slots__ = ("_sock", "sent", "received")

    def __init__(self, sock) -> None:
        self._sock = sock
        self.sent = 0
        self.received = 0

    def sendall(self, data) -> None:
        self._sock.sendall(data)
        self.sent += len(data)

    def recv(self, n: int) -> bytes:
        data = self._sock.recv(n)
        self.received += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)
