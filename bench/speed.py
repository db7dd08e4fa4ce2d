"""Machine speed, measured with a fixed piece of pure-Python work.

The benchmark shares its machine with other work, and how fast that machine
runs Python drifts by up to 2x within a minute, in spells of ten seconds or
more.  Wall times alone then differ between two runs of the same jobs by
more than any useful bound.  So each timed job is followed by the same
reference work, which never changes between commits, and the end-to-end
times are rescaled to a nominal machine on which the reference takes exactly
``NOMINAL_S``: a job's wall time is multiplied by ``NOMINAL_S`` over the
median reference time measured around it.  A change to the library moves the
rescaled times exactly as it moves wall times on a steady machine.
"""

from __future__ import annotations

from fractions import Fraction
from statistics import median
from time import perf_counter

NOMINAL_S = 0.006
WINDOW = 5  # reference timings on each side of a job


def reference():
    """Fixed work like the library's: a dict of 10,000 tuple keys, Fraction sums.

    The table is large enough to leave the first-level caches, so that the
    reference slows down with memory contention as the jobs do.
    """
    table = {}
    fractions = []
    for i in range(10000):
        key = (i, i % 13, str(i % 101))
        table[key] = table.get(key, 0) + i
        if i % 16 == 0:
            fractions.append(Fraction(i % 5, 3) + Fraction(1, 7))
    return len(table), len(fractions)


def time_reference():
    start = perf_counter()
    reference()
    return perf_counter() - start


def rescale(times, refs):
    """``times[k]`` at nominal speed, judged by the reference timings near k."""
    return [
        t * NOMINAL_S / median(refs[max(0, k - WINDOW): k + WINDOW + 1])
        for k, t in enumerate(times)
    ]
