"""Metric helpers for the end-to-end benchmark (pure functions, no I/O).

A span is a tuple (name, start, end, id, parent) with times in seconds, as
perfbench_e2e writes them.
"""

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    v = sorted(values)
    k = max(1, math.ceil(p / 100.0 * len(v)))
    return v[k - 1]


def tail(values):
    """(p, value): the highest ladder percentile with at least ten samples
    beyond it. With fewer than 20 samples no percentile qualifies and the
    median is returned, labelled p50."""
    v = sorted(values)
    n = len(v)
    best = (50, percentile(v, 50))
    for p in TAIL_LADDER:
        k = max(1, math.ceil(p / 100.0 * n))
        if n - k >= TAIL_MIN_BEYOND:
            best = (p, v[k - 1])
    return best


def union_length(intervals, lo=-math.inf, hi=math.inf):
    """Length of the union of [start, end) intervals, clipped to [lo, hi).
    Overlapping intervals (concurrent threads) are counted once."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start, end, children):
    """Duration of [start, end) minus the part its children cover."""
    return (end - start) - union_length(children, start, end)


def spans_in(spans, lo, hi, prefix):
    """(start, end) of spans named `prefix`* that start inside [lo, hi]."""
    return [(s[1], s[2]) for s in spans
            if s[0].startswith(prefix) and lo <= s[1] <= hi]


def mean(values, default=0.0):
    values = list(values)
    return statistics.fmean(values) if values else default


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default
