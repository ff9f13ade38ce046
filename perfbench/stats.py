"""Summary statistics and the machine-speed references shared by the runner,
the worker and their tests."""

import statistics
import subprocess
import sys
import time

# Percentiles a tail latency may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def beyond(n, pct):
    """How many of n samples lie above the nearest-rank pct percentile."""
    return n - int(max(1, -(-n * pct // 100)))


def tail_percentile(n):
    """Highest ladder percentile that leaves at least 10 of n samples beyond it.

    Returns None when even the median leaves fewer than 10 beyond it.
    """
    best = None
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= 10:
            best = pct
    return best


def failure_ratio(failed, attempted):
    """Failed items over attempted items; a run that attempted nothing failed."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


# Shared virtual CPUs switch between speed regimes: on a 2-vCPU Intel Xeon
# VM they were about 1.7x apart and lasted from under a second to minutes,
# so raw medians of whole 25 s runs spread by 15-40%.  Every time the benchmark reports is therefore
# scaled to a reference machine, by a reference of the same kind timed in the
# same place next to the work: in-process work by reference_kernel,
# which takes COMPUTE_REFERENCE_S there, and work that starts interpreters
# (set-up and CLI calls) by an empty interpreter start, which takes
# SPAWN_REFERENCE_S there.  Raw times are kept in the detail line.
COMPUTE_REFERENCE_S = 250e-6
SPAWN_REFERENCE_S = 15e-3


def reference_kernel():
    """Fixed pure-Python work: a 60 x 60 schoolbook integer product."""
    a = list(range(1, 61))
    b = list(range(7, 67))
    out = [0] * 119
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def compute_scale():
    """COMPUTE_REFERENCE_S over the median of two reference_kernel times."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return COMPUTE_REFERENCE_S / statistics.median(times)


def spawn_scale(env):
    """SPAWN_REFERENCE_S over the faster of two empty interpreter starts."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], env=env,
                       check=True)
        times.append(time.perf_counter() - t0)
    return SPAWN_REFERENCE_S / min(times)
