"""In-memory span recorder for the benchmark's traced run.

The recorder replaces library functions by wrappers at the places where
their callers look them up (a module global or a class attribute), so the
library itself is not modified.  Each wrapped call records one span: name,
start, end, parent span and request id.  Calls too cheap for a span (scalar
field operations, about 1 us each) are only counted.  Spans stay in memory
in flat arrays and are written out once, by `save`, when the run ends.

Self time of a span is its duration minus the time covered by its child
spans; the wrappers run on one thread, so children never overlap and that
cover is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array

import numpy as np


class Recorder:
    """Records spans and counts for wrapped callables until `close`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.req = array("l")
        self.value = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._np: dict = {}
        self._np_len = -1

    # -- installation ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _install(self, owner, attr: str, fn, wrapper) -> None:
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _target(self, owner, attr: str):
        # Only attributes defined on `owner` itself are wrapped, so restoring
        # them in `close` puts back exactly what was there.
        fn = owner.__dict__.get(attr)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return fn

    def span(self, owner, attr: str, name: str, outcome=None,
             new_request: bool = False) -> None:
        """Wrap owner.attr so that every call records a span called `name`.

        `outcome(result)` may return (suffix, value): the suffix is appended
        to the span name and the integer value is stored with the span.
        `new_request` starts a new request id at each call.
        """
        fn = self._target(owner, attr)
        if fn is None:
            return
        rec = self
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_request:
                rec.request += 1
            idx = rec._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if outcome is not None:
                suffix, value = outcome(result)
                rec.name[idx] = rec._id(name + suffix)
                rec.value[idx] = value
            return result

        self._install(owner, attr, fn, wrapper)

    def count(self, owner, attr: str, key: str) -> None:
        """Wrap owner.attr so that every call only increments counts[key]."""
        fn = self._target(owner, attr)
        if fn is None:
            return
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._install(owner, attr, fn, wrapper)

    @contextlib.contextmanager
    def region(self, name: str):
        """Record a span around a block of benchmark code."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.req.append(self.request)
        self.value.append(-1)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.end[idx] = t1
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t1 - self.start[idx]

    def close(self) -> None:
        """Restore every wrapped attribute, last installed first."""
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- queries (after recording has ended) -------------------------------

    def arrays(self) -> dict:
        """The spans as numpy arrays, with durations and self times."""
        n = len(self.name)
        if self._np_len != n:
            # copies, so that the arrays stay free to grow
            start = np.array(self.start, dtype=np.float64)
            end = np.array(self.end, dtype=np.float64)
            self._np = {
                "name": np.array(self.name, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "request": np.array(self.req, dtype=np.int64),
                "value": np.array(self.value, dtype=np.int64),
                "start": start,
                "end": end,
                "dur": end - start,
                "self": end - start - np.array(self.child, dtype=np.float64),
            }
            self._np_len = n
        return self._np

    def _mask(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names)
               if n == prefix or n.startswith(prefix + ".")]
        return np.isin(self.arrays()["name"], ids)

    def calls(self, prefix: str) -> int:
        return int(self._mask(prefix).sum())

    def self_s(self, prefix: str) -> float:
        return float(self.arrays()["self"][self._mask(prefix)].sum())

    def p50_s(self, prefix: str) -> float:
        durs = self.arrays()["dur"][self._mask(prefix)]
        return float(np.median(durs)) if len(durs) else 0.0

    def values(self, prefix: str) -> np.ndarray:
        vals = self.arrays()["value"][self._mask(prefix)]
        return vals[vals >= 0]

    def save(self, path) -> None:
        """Write all spans and counts to one compressed .npz file."""
        arrs = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(self.counts)),
            **{k: arrs[k] for k in
               ("name", "parent", "request", "value", "start", "end", "self")},
        )

