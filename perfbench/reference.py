"""A fixed piece of pure-Python work that measures how fast the machine runs
right now.

On a shared host the same serreq call can take 1.8 times as long from one
second to the next, in CPU time as much as in wall time, in phases that
last from a fraction of a second to minutes.  The runner times the
reference before every op and after the last; an op's time divided by the
reference's time around it no longer depends on the phase, only on the
op's work.

The reference does the kinds of work serreq does: Fraction elimination
(like `linalg.f_rref`), fraction-free integer elimination with gcds (like
`linalg.smith`), hashing tuples into a dict, and JSON encoding.  It never
changes, so a change to serreq moves the ratio in full.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from math import gcd

# Times are reported as if every op had run while one reference unit took
# this long: a round figure close to what it takes on the 2-core machine
# the bounds were set on, so that the metrics read as milliseconds and
# seconds there.
NOMINAL_UNIT_S = 0.001

_rng = random.Random("perfbench|reference")
_FRAC = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(6)] for _ in range(6)]
_INT = [[_rng.randint(-50, 50) for _ in range(6)] for _ in range(6)]


def _fraction_rref(rows):
    a = [row[:] for row in rows]
    n = len(a)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            continue
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return a


def _integer_eliminate(rows):
    b = [row[:] for row in rows]
    n = len(b)
    for k in range(n):
        for i in range(k + 1, n):
            b[i] = [x * b[k][k] - y * b[i][k] for x, y in zip(b[i], b[k])]
            g = 0
            for x in b[i]:
                g = gcd(g, x)
            if g > 1:
                b[i] = [x // g for x in b[i]]
    return b


def unit():
    """One reference unit, about 1 ms on the machine the bounds were set on."""
    _fraction_rref(_FRAC)
    b = _integer_eliminate(_INT)
    d = {}
    for i in range(300):
        d[(i % 97, i % 13, i)] = tuple(b[i % 6])
    json.dumps({"rows": b, "keys": len(d)}, sort_keys=True)


def measure(units):
    """Wall and CPU seconds of `units` reference units, each per unit."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - t0) / units, (time.process_time() - cpu0) / units
