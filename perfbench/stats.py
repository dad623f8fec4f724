"""Summary statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it (:func:`tail_percentile`), always with
the sample count, so a tail figure never rests on one or two outliers.

Throughput is estimated from repeated units of work (:func:`cycle_rate`).
On a shared machine the speed of a core swings by up to 2x for seconds
to minutes at a time, so each unit's time is first divided by the time
of a fixed pure-Python reference loop measured next to it
(:func:`reference_seconds`); the program's code slows down with the
reference, and the quotient moves far less than the raw time does. Each
kind of unit is then taken at the median of its normalised times: a
unit that straddles a change of core speed is normalised too high or
too low, and the median ignores both.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

#: Percentiles tried for the tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ascending ``sorted_values``.

    Returns ``(value, beyond)`` where ``beyond`` counts the samples ranked
    above the returned one.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail_percentile(
    values: Sequence[float], *, min_beyond: int = MIN_BEYOND
) -> Optional[Tuple[float, float]]:
    """Highest ladder percentile with ``min_beyond`` samples beyond it.

    Returns ``(q, value)``, or ``None`` when even the median has fewer
    than ``min_beyond`` samples above it.
    """
    ordered = sorted(values)
    if not ordered:
        return None
    for q in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, q)
        if beyond >= min_beyond:
            return q, value
    return None


def latency_summary(seconds: Sequence[float], scale: float = 1e3) -> Dict[str, float]:
    """Median, tail percentile and count of a latency sample.

    Values are multiplied by ``scale`` (seconds to milliseconds by
    default). Both figures are nearest-rank percentiles, so the tail is
    never below the median. ``tail_q`` is 0 and ``tail`` equals the
    median when the sample is too small for any tail percentile.
    """
    if not seconds:
        return {"n": 0, "p50": 0.0, "tail_q": 0.0, "tail": 0.0}
    p50 = nearest_rank(sorted(seconds), 50.0)[0] * scale
    tail = tail_percentile(seconds)
    q, value = tail if tail is not None else (0.0, p50 / scale)
    return {"n": len(seconds), "p50": p50, "tail_q": q, "tail": value * scale}


#: Time of the reference loop on a fast core of the 2-CPU x86-64 VM the
#: baseline was recorded on; normalised rates are per second of a machine
#: on which the loop takes this long.
REFERENCE_NOMINAL_S = 0.003


def _reference_loop(n: int = 15000) -> float:
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(n):
        key = i % 97
        table[key] = table.get(key, 0.0) + 1.5
        total += (i * 7919) % 1000 / 3.0
    return total


def reference_seconds(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of a fixed pure-Python loop (~3 ms).

    The loop stands for the interpreter-bound work the program does
    (dict updates, float arithmetic); it does not touch the program, so
    a change to the program cannot move it.
    """
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def cycle_rate(
    cycle: Sequence[Hashable],
    seconds: Mapping[Hashable, Sequence[float]],
    points: Mapping[Hashable, int],
) -> float:
    """Points per second of one ``cycle`` of units, each at its median time.

    ``cycle`` lists the kind of every unit in one cycle (a kind may
    repeat), ``seconds[kind]`` every measured time of that kind and
    ``points[kind]`` the points one unit of it completes.
    """
    per_kind = {kind: statistics.median(seconds[kind]) for kind in set(cycle)}
    total_s = sum(per_kind[kind] for kind in cycle)
    return sum(points[kind] for kind in cycle) / total_s


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    The steadiness figure the benchmark is tuned against:
    ``(Q3 - Q1) / median`` with quartiles from
    ``statistics.quantiles(values, n=4)``.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf
