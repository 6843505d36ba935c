"""Arithmetic of the end-to-end benchmark: percentiles, span self times,
failure counting, medians and the parent-versus-change verdict.

Pure functions over plain Python values, so test_stats.py can check each
rule on hand-made inputs.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; p99 therefore needs 1000 samples.
MIN_BEYOND = 10


def percentile(samples, q):
    """q-quantile (0 <= q <= 1) with linear interpolation between order
    statistics (the 'inclusive' method of statistics.quantiles)."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples lie beyond the q-quantile: n * (1 - q), rounded
    down (the epsilon absorbs float error such as 1000 * 0.01)."""
    return int(math.floor(n * (1 - q) + 1e-9))


def tail_percentile(samples, q, min_beyond=MIN_BEYOND):
    """(value, count) of the q-quantile, refusing a percentile that has
    fewer than min_beyond samples beyond it."""
    n = len(samples)
    beyond = samples_beyond(n, q)
    if beyond < min_beyond:
        raise ValueError(
            "p%g needs %d samples beyond it, %d samples give %d"
            % (q * 100, min_beyond, n, beyond))
    return percentile(samples, q), n


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children (overlapping children count once; a child
    sticking out of its parent counts only inside it).

    spans: list of dicts with start_ms, end_ms, parent (index or -1).
    Returns a list of self times in ms, parallel to spans."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ms"], s["end_ms"]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda j: spans[j]["start_ms"]):
            a = max(lo, spans[c]["start_ms"])
            b = min(hi, spans[c]["end_ms"])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def accounted_ratio(spans, selfs, names, wall_ms):
    """Sum of the self times of the spans named in names, as a share of a
    wall time measured apart from them."""
    if wall_ms <= 0:
        raise ValueError("no wall time to account for")
    return sum(own for s, own in zip(spans, selfs)
               if s["name"] in names) / wall_ms


def fail_ratio(attempted, failed):
    """Failed or wrong windows plus refused batches over those attempted."""
    if attempted <= 0:
        raise ValueError("nothing attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed %d outside [0, %d]" % (failed, attempted))
    return failed / attempted


def verdict(parent, change, better, bound):
    """Compare one metric's runs on two commits, paired by index.

    better: "lower" or "higher". bound: the share of the parent's median by
    which the change may be worse before it counts as a regression.
    Returns a dict with medians, quartiles, share of pairs won and one of
    better / worse / unchanged / unresolved:
      better     the change wins >= 9/10 of the pairs (ties count for
                 neither) and the medians differ by more than the parent's
                 interquartile distance;
      worse      the change's median is worse than the parent's by more
                 than bound;
      unresolved the parent's own spread is wider than bound, unless every
                 change run reads better than every parent run;
      unchanged  otherwise.
    """
    if not parent or not change:
        raise ValueError("need runs on both sides")
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q = quartiles(parent)
    c_q = quartiles(change)
    p_med, c_med = p_q[1], c_q[1]
    gain = sign * (c_med - p_med)
    won = wins / len(pairs) if pairs else 0.0
    if sign > 0:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if won >= 0.9 and gain > p_q[2] - p_q[0]:
        result = "better"
    elif -gain > bound * abs(p_med):
        result = "worse"
    elif relative_spread(parent) > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "parent_median": p_med, "parent_q1": p_q[0], "parent_q3": p_q[2],
        "change_median": c_med, "change_q1": c_q[0], "change_q3": c_q[2],
        "pairs": len(pairs), "won": won, "verdict": result,
    }
