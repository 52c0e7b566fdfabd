"""Shared pieces of the benchmark: the host-speed reference, the verdict
recorder, the span tracer and name patching for the traced sweep."""

from __future__ import annotations

import contextlib
import gc
import itertools
import random
import time

UNDECIDED_ERRORS = ("StateSpaceTooLarge", "SearchBudgetExceeded")

# The host-speed reference: a fixed pure-Python strongly-connected-component
# pass over a seeded graph, the kind of dict, tuple and set work the library
# does.  It never imports gamedyn.  REF_NOMINAL_S is about its time on a
# 2-core 2.0 GHz x86-64 VM under Python 3.11 in a fast phase; a time scaled
# by REF_NOMINAL_S / (reference time measured around it) reads as on that
# host at that speed.
REF_NOMINAL_S = 0.0025
REF_EVERY_S = 0.05
_REF_NODES = 600
_rng = random.Random(0)
_REF_GRAPH = {(v, v % 3): [(w, w % 3) for w in (_rng.randrange(_REF_NODES) for _ in range(4))]
              for v in range(_REF_NODES)}


def reference_work():
    """Iterative Tarjan over _REF_GRAPH; returns the number of components."""
    index, low, stack, on_stack, count = {}, {}, [], set(), 0
    n = 0
    for root in _REF_GRAPH:
        if root in index:
            continue
        index[root] = low[root] = n
        n += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(_REF_GRAPH[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = n
                    n += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(_REF_GRAPH[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    count += len(frozenset(comp)) > 0
    return count


def reference_s():
    """One host-speed sample: the faster of two reference passes, with the
    garbage collector off so that the size of the workload's heap does not
    count."""
    best = float("inf")
    was_on = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_on:
            gc.enable()
    return best


IN_PROCESS = (reference_s, REF_NOMINAL_S)


def scaled(seconds, refs, nominal_s):
    """seconds as on the nominal host: scaled by nominal_s over the mean
    of the reference samples taken around them."""
    return seconds * nominal_s * len(refs) / sum(refs)


class Recorder:
    """Closed-loop verdict log.

    A verdict's latency is the time since the previous verdict completed
    (or since the round started), minus any paused time: reference checks
    and trace probes run paused, so they count neither in latencies nor in
    the measured wall time.  A host-speed sample of the workload's
    reference, a (function, nominal seconds) pair, is taken paused when a
    round starts and ends and after each REF_EVERY_S of verdicts;
    scaled_latency() puts a verdict on the nominal host using the two
    samples around it.
    """

    def __init__(self, reference=IN_PROCESS):
        self.reference, self.nominal_s = reference
        self.verdicts = []
        self.refs = []
        self.wall_s = 0.0
        self.rounds = 0
        self._last = None
        self._paused = 0.0
        self._round_paused = 0.0
        self._since_ref = 0.0

    def _sample(self):
        self.refs.append(self.reference())
        self._since_ref = 0.0

    @contextlib.contextmanager
    def round(self):
        self._sample()
        self._round_start = self._last = time.perf_counter()
        self._paused = 0.0
        self._round_paused = 0.0
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - self._round_start - self._round_paused
            self.rounds += 1
            self._sample()

    @contextlib.contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._paused += dt
            self._round_paused += dt

    def verdict(self, key, result=None, status="ok", detail=""):
        now = time.perf_counter()
        latency = now - self._last - self._paused
        self._last, self._paused = now, 0.0
        entry = {"key": key, "latency": latency, "epoch": len(self.refs) - 1,
                 "status": status, "problems": [detail] if detail else [],
                 "result": result}
        self.verdicts.append(entry)
        self._since_ref += latency
        if self._since_ref >= REF_EVERY_S:
            with self.paused():
                self._sample()
        return entry

    def scaled_latency(self, entry):
        i = entry["epoch"]
        return scaled(entry["latency"], self.refs[i:i + 2], self.nominal_s)

    def call(self, key, fn, *args, **kwargs):
        """Record fn(*args) as one verdict; documented guard and budget
        errors make it undecided, any other exception makes it fail."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the verdict boundary: record and go on
            name = type(exc).__name__
            status = "undecided" if name in UNDECIDED_ERRORS else "failed"
            return self.verdict(key, None, status, f"{name}: {exc}")
        return self.verdict(key, result)


def fail(entry, reason):
    entry["status"] = "failed"
    entry["problems"].append(reason)


class Tracer:
    """In-memory spans (id, name, parent, start, end) and counters.

    Disabled, span() returns one shared no-op context manager, so the
    untraced run pays a single `with` per call site.
    """

    _NULL = contextlib.nullcontext()

    def __init__(self, enabled):
        self.on = enabled
        self.spans = []
        self.counts = {}
        self._stack = []
        self._ids = itertools.count(1)

    def span(self, name):
        return self._span(name) if self.on else self._NULL

    @contextlib.contextmanager
    def _span(self, name):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((sid, name, parent, start, time.perf_counter()))
            self._stack.pop()

    def add(self, key, value=1):
        if self.on:
            self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def probe(self, rec, name):
        """A separately timed call that is not part of the workload: paused
        in the recorder and recorded as its own span."""
        with rec.paused(), self.span(name):
            yield

    def self_times(self):
        child = {}
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for sid, name, _, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
        return out

    def dump(self):
        return [{"id": s, "name": n, "parent": p, "start": a, "end": b}
                for s, n, p, a, b in self.spans]


@contextlib.contextmanager
def patched(namespace, replacements):
    """Temporarily rebind names in a module namespace."""
    saved = {name: getattr(namespace, name) for name in replacements}
    for name, value in replacements.items():
        setattr(namespace, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(namespace, name, value)


def spanned(tr, name, fn, counter=None):
    """fn wrapped in a span; counter(tr, result, args) records counts."""

    def wrapper(*args, **kwargs):
        with tr.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tr, result, args)
        return result

    return wrapper


def tail(latencies):
    """The highest order statistic with at least ten samples beyond it,
    and the percentile it stands for."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2
