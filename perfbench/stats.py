"""Statistics helpers of the failatom benchmark.

Pure functions, shared by run.py (one run) and compare.py (two sets of
runs), and tested by test_stats.py.
"""

import math
import statistics

# A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median_of_medians(pairs):
    """Median of the per-key medians of (key, value) pairs.  With an even
    number of keys whose values form separate clusters, the median of all
    values would be the mean of one cluster's maximum and the next one's
    minimum; this is the mean of their medians instead."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return statistics.median(statistics.median(v) for v in groups.values())


def nearest_rank(values, p):
    """The p-th percentile (0 < p < 100) by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """(p, value): the highest whole percentile with at least TAIL_BEYOND
    samples beyond its nearest rank, or None when there are too few
    samples for any percentile to qualify."""
    n = len(values)
    for p in range(99, 0, -1):
        if n - max(1, math.ceil(p / 100 * n)) >= TAIL_BEYOND:
            return p, nearest_rank(values, p)
    return None


def covered(interval, children):
    """Length of the part of `interval` that the union of the `children`
    intervals covers (children are clipped to the interval)."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi)
    total, end = 0, lo
    for a, b in clipped:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it its
    child spans cover.  `spans` are dicts with id, parent, start, end;
    returns {id: self time}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered((s["start"], s["end"]), children.get(s["id"], []))
        for s in spans
    }


def layer_self(spans, root_name="op"):
    """{span name: summed self time} over every span except the roots."""
    selfs = self_times(spans)
    totals = {}
    for s in spans:
        if s["name"] != root_name:
            totals[s["name"]] = totals.get(s["name"], 0) + selfs[s["id"]]
    return totals


def unattributed(op_wall, layer_totals):
    """What the layers do not account for in an untraced op's wall time:
    process start-up, argument handling, printing and any glue between
    the layers.  Negative when the traced layers took longer than the
    whole untraced op."""
    return op_wall - sum(layer_totals.values())


def accounted(op_wall, layer_totals, bound):
    """Whether the layers account for an untraced op's wall time: the
    unattributed remainder, either way, is at most `bound` of it."""
    return abs(unattributed(op_wall, layer_totals)) <= bound * op_wall


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles with n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`
    (negative when it is better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def compare(base_runs, new_runs, metrics):
    """Compares two sets of runs of one workload.

    `base_runs` and `new_runs` are lists of {metric: value}; `metrics` are
    the BENCHMARK.json end_to_end entries.  Returns one row per metric:
    both medians, both spreads, how much worse the new median is, and
    whether that stays within the metric's bound."""
    rows = []
    for m in metrics:
        name = m["name"]
        base = [r[name] for r in base_runs]
        new = [r[name] for r in new_runs]
        worse = worse_by(statistics.median(base), statistics.median(new), m["better"])
        rows.append({
            "name": name,
            "base_median": statistics.median(base),
            "new_median": statistics.median(new),
            "base_spread": spread(base) if len(base) > 1 else 0.0,
            "new_spread": spread(new) if len(new) > 1 else 0.0,
            "worse_by": worse,
            "bound": m["bound"],
            "within": worse <= m["bound"],
        })
    return rows
