"""In-memory spans around the public calls the benchmark makes.

A span records its name, start, end, the span that was open when it began,
and work counts (rounds, draws, calls, ...).  Nothing is written until the
run ends.  The first dotted part of a span name is the dfsbell module whose
call it times; spans named otherwise (``workload.*``, ``layerpass``) only
group their children.
"""

import contextlib
import time

MODULES = ("qcore", "dfs_states", "correlations", "localmeas", "distinguish",
           "hardy", "decohere", "report", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **work):
        """Time the block; the yielded dict takes work counts known only after it."""
        rec = {"id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "name": name, "start": 0.0, "end": 0.0, "work": work}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield work
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Tracing off: the same interface, nothing recorded."""

    def span(self, name, **work):
        return contextlib.nullcontext(work)


def self_times(spans):
    """Span id -> its duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_self_times(spans):
    """Module -> summed self time of the spans named after it."""
    own = self_times(spans)
    out = dict.fromkeys(MODULES, 0.0)
    for s in spans:
        module = s["name"].split(".", 1)[0]
        if module in out:
            out[module] += own[s["id"]]
    return out


def totals(spans, name):
    """(summed duration, summed work counts) of the spans with this exact name."""
    seconds, work = 0.0, {}
    for s in spans:
        if s["name"] == name:
            seconds += s["end"] - s["start"]
            for k, v in s["work"].items():
                work[k] = work.get(k, 0) + v
    return seconds, work


def per_unit(spans, name, unit_key, scale):
    """Seconds per unit of work on the named spans, times ``scale``."""
    seconds, work = totals(spans, name)
    return seconds / work[unit_key] * scale


def work_sum(spans, prefix, key):
    """Sum of one work count over every span whose name starts with prefix."""
    return sum(s["work"].get(key, 0) for s in spans
               if s["name"].startswith(prefix))
