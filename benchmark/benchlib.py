"""Statistics and trace analysis shared by run.py and its tests.

Everything here is a pure function of its arguments, so
test_benchlib.py can check it on hand-built inputs.
"""

import bisect
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_name(name):
    """A metric or workload name: letters, digits, '_', '.', '-'."""
    return isinstance(name, str) and bool(NAME_RE.match(name))


def valid_unit(unit):
    return isinstance(unit, str) and bool(UNIT_RE.match(unit))


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Linear-interpolated percentile of ``values``, q in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values, cap=0.99, beyond=10):
    """The tail percentile a sample set supports.

    Returns (q, value, n_beyond): the highest percentile, at most
    ``cap``, that leaves at least ``beyond`` samples above it, and the
    number of samples that lie beyond it. With ``beyond`` or fewer
    samples no percentile qualifies: (None, None, 0).
    """
    n = len(values)
    if n <= beyond:
        return None, None, 0
    q = min(cap, 1.0 - beyond / n)
    value = percentile(values, q)
    return q, value, sum(1 for v in values if v > value)


def with_misses(latencies, ceiling):
    """Latency samples with misses (negative) replaced by ``ceiling``.

    A refused or failed request misses every latency limit; ``ceiling``
    (the run's whole duration) is slower than any request that
    completed, so misses sort above every real latency.
    """
    return [ceiling if v < 0 else v for v in latencies]


def round_walls(end_ns, size):
    """Durations of consecutive rounds of ``size`` completions.

    ``end_ns`` are completion times (sorted, from the loop start). Round
    i spans from completion i*size (or the start) to completion
    (i+1)*size; a trailing partial round is dropped.
    """
    walls = []
    prev = 0
    for i in range(size - 1, len(end_ns), size):
        walls.append(end_ns[i] - prev)
        prev = end_ns[i]
    return walls


def hist_quantile(hist, q):
    """Quantile of an obs registry histogram ({bounds, counts, count}).

    Interpolates linearly inside the bucket that holds the quantile
    (the first bucket starts at 0); returns None when it is empty.
    """
    total = hist.get("count", 0)
    if not total:
        return None
    bounds = hist["bounds"]
    counts = hist["counts"]
    target = q * total
    seen = 0
    for i, c in enumerate(counts):
        if c and seen + c >= target:
            lo = bounds[i - 1] if i > 0 else 0.0
            if i >= len(bounds):
                return lo
            return lo + (bounds[i] - lo) * (target - seen) / c
        seen += c
    return bounds[-1]


def self_times(events):
    """Self time of every complete ("X") span of a Chrome trace.

    A span's children are the spans of the same thread that start
    inside it and are not inside another child; its self time is its
    duration minus the part of it they cover. Work another thread did
    on a span's behalf is that thread's own span, so it is accounted
    where it ran. Returns a list of (event, self_us) in input order.
    """
    by_tid = {}
    for idx, ev in enumerate(events):
        if ev.get("ph") == "X":
            by_tid.setdefault(ev.get("tid"), []).append(idx)
    covered = [0.0] * len(events)
    for idxs in by_tid.values():
        idxs.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack = []
        for i in idxs:
            ts = events[i]["ts"]
            end = ts + events[i]["dur"]
            while stack and stack[-1][1] <= ts:
                stack.pop()
            if stack:
                parent, pend = stack[-1]
                covered[parent] += max(0.0, min(end, pend) - ts)
            stack.append((i, end))
    out = []
    for idx, ev in enumerate(events):
        if ev.get("ph") == "X":
            out.append((ev, max(0.0, ev["dur"] - covered[idx])))
    return out


def self_by_category(events):
    """Total self time (seconds) per span category."""
    totals = {}
    for ev, self_us in self_times(events):
        cat = ev.get("cat", "")
        totals[cat] = totals.get(cat, 0.0) + self_us * 1e-6
    return totals


def _layer(name):
    return name.rsplit(":", 1)[0]


def top_phases(events, limit=10):
    """The (experiment, layer:op) phases that account for the most time.

    A phase ("layer:op") accounts for its own self time plus the self
    time of its bursts ("layer:bN"), which shard across the engine's
    threads: a burst belongs to the phase of its layer whose span holds
    the burst's start, on the burst's own thread if one does, else the
    most recently started one. Experiments run one after another, so a
    phase belongs to the experiment span that holds its start. Returns
    (experiment, phase name, seconds) tuples, largest first.
    """
    selfs = self_times(events)
    phases = [(ev, s) for ev, s in selfs if ev.get("cat") == "phase"]
    phases.sort(key=lambda p: p[0]["ts"])
    work = [s for _, s in phases]
    by_layer = {}
    for k, (ev, _) in enumerate(phases):
        by_layer.setdefault(_layer(ev["name"]), []).append(k)
    starts = {layer: [phases[k][0]["ts"] for k in ks]
              for layer, ks in by_layer.items()}
    for ev, s in selfs:
        if ev.get("cat") != "burst":
            continue
        layer = _layer(ev["name"])
        ks = by_layer.get(layer, [])
        # Phases of this layer that started before the burst, latest
        # first; a few dozen back covers every concurrent one.
        first = bisect.bisect_right(starts.get(layer, []), ev["ts"])
        owner = None
        for k in reversed(ks[max(0, first - 64):first]):
            p = phases[k][0]
            if p["ts"] + p["dur"] < ev["ts"]:
                continue
            if p.get("tid") == ev.get("tid"):
                owner = k
                break
            if owner is None:
                owner = k
        if owner is not None:
            work[owner] += s

    exps = sorted((ev["ts"], ev["ts"] + ev["dur"], ev["name"])
                  for ev in events
                  if ev.get("ph") == "X" and ev.get("cat") == "experiment")
    totals = {}
    for k, (ev, _) in enumerate(phases):
        owner = "?"
        for start, end, name in exps:
            if start <= ev["ts"] <= end:
                owner = name
                break
        key = (owner, ev["name"])
        totals[key] = totals.get(key, 0.0) + work[k] * 1e-6
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
    return [(k[0], k[1], v) for k, v in ranked]

