"""Asymptotic bit-flipping decoding threshold for regular (d_v, d_c) codes.

The threshold is the largest error count t for which Gallager-style density
evolution of the threshold-b flipping rule drives the expected number of
residual errors below one.  With q the current message error fraction and
p0 = t/n the channel error fraction, one evolution step reads

    r = (1 - (1 - 2q)^(d_c - 1)) / 2            unsatisfied-check fraction
    q' = p0 * (1 - T(d_v - 1, b, 1 - r))        errored bit, too few complaints
       + (1 - p0) * T(d_v - 1, b, r)            correct bit, spuriously flipped

where T(d, b, x) is the binomial tail P[Binom(d, x) >= b].  The recursion
must decrease monotonically below 1/n within MAX_RECURSION_STEPS = 100
steps.  The reported threshold maximizes over decision thresholds b in
[ceil(d_v/2), d_v]: one exponential-then-binary search over t, using
monotonicity of convergence in t, asks at each t whether some b converges
(trying b upwards, stopping at the first); the reported b, the smallest that
converges at the largest such t, is kept from that t's probe (ceil(d_v/2) at t = 0).

T sums c_j x^j (1-x)^(d-j) over j = b..d from float triples (C(d, j), j, d - j)
memoized per (d, b): CPython's int * float and float ** int convert the int by
PyLong_AsDouble, so T keeps the bits of math.comb and int powers in every term;
C(1030, 515) is past float range and raises OverflowError either way, so
ThresholdQuery takes d_v <= 1030.  sum() over a list adds in the same order as
over a generator (3.12 made it compensated, in both forms), without the
generator's frame switches.

A probe that cannot converge stops at a certified fixed point.  On [0, 1/2] the
step f is nondecreasing: r rises with q and both tails with r (Richardson and
Urbanke, IEEE Trans. IT 2001).  After a step q -> q' whose drop e = q - q' is
below the last drop e0 (inf at first), one step is tried 1% below the geometric
limit, at q_c = 0.99 (q' - e^2/(e0 - e)), if 1/n + D <= q_c <= q' <= 1/2.  If
fl(f(q_c)) >= q_c + D, with D >= 2E and E bounding a step's rounding error, each
later iterate x in [q_c, 1/2] has fl(f(x)) >= f(q_c) - E >= q_c + D - 2E > 1/n,
so the plain loop could not converge either.  With u = 2^-53, d = d_v - 1, pow
within an ulp and |dT/dx| <= d, 1 - r is within (d_c + 5)u/2, a tail within
d (d_c + 5)u/2 + (2d + 7)u and f within E = (d (d_c + 5)/2 + 2d + 12)u, while
D = 2u (d + 2)(d_c + 12) also absorbs rounding q_c + D and 2^(d - 1072) of subnormals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError

__all__ = ["ThresholdQuery", "bf_threshold", "bf_threshold_detail"]

MAX_RECURSION_STEPS = 100


@dataclass(frozen=True)
class ThresholdQuery:
    n: int
    n0: int
    d_v: int

    def __post_init__(self):
        if self.n0 * self.d_v >= self.n:
            raise ParameterError("check degree n0*d_v must be below n")
        if self.n0 < 1 or not 1 <= self.d_v <= 1030:
            raise ParameterError("need n0 >= 1 and 1 <= d_v <= 1030 (C(1030, 515) overflows a float)")


@lru_cache(maxsize=1024)
def _binomial_row(d: int, b: int) -> tuple[tuple[float, float, float], ...]:
    """(C(d, j), j, d - j) for j in [b, d], each rounded to float as int * float
    and float ** int would round it."""
    return tuple((float(math.comb(d, j)), float(j), float(d - j)) for j in range(b, d + 1))


def binomial_tail(d: int, b: int, x: float) -> float:
    """P[Binom(d, x) >= b], by direct summation (d is small here)."""
    if b <= 0:
        return 1.0
    if b > d:
        return 0.0
    y = 1.0 - x
    return sum([c * x**j * y**k for c, j, k in _binomial_row(d, b)])


def evolution_step(d_c: int, d_v: int, b: int, p0: float, q: float) -> float:
    """One density-evolution step of the threshold-b flipping rule."""
    r = (1.0 - (1.0 - 2.0 * q) ** (d_c - 1)) / 2.0
    stay_wrong = 1.0 - binomial_tail(d_v - 1, b, 1.0 - r)
    go_wrong = binomial_tail(d_v - 1, b, r)
    return p0 * stay_wrong + (1.0 - p0) * go_wrong


def _converges(n: int, d_c: int, d_v: int, b: int, t: int, max_steps: int) -> bool:
    p0 = t / n
    q, last_drop = p0, math.inf
    margin = (d_v + 1) * (d_c + 12) * 2.0**-52  # D in the module docstring
    for _ in range(max_steps):
        q_next = evolution_step(d_c, d_v, b, p0, q)
        if q_next < 1.0 / n:
            return True
        if q_next >= q:
            return False
        if (drop := q - q_next) < last_drop:
            q_c = 0.99 * (q_next - drop * drop / (last_drop - drop))
            if (1.0 / n + margin <= q_c <= q_next <= 0.5
                    and evolution_step(d_c, d_v, b, p0, q_c) >= q_c + margin):
                return False
        q, last_drop = q_next, drop
    return False


@lru_cache(maxsize=None)
def _threshold_cached(n: int, n0: int, d_v: int) -> tuple[int, int]:
    b_values = range(math.ceil(d_v / 2), d_v + 1)

    def first_b(t: int) -> int | None:
        return next((b for b in b_values
                     if _converges(n, n0 * d_v, d_v, b, t, MAX_RECURSION_STEPS)), None)

    lo, b_lo, hi = 0, b_values[0], 1  # t = 0 converges at every b
    while hi < n and (b := first_b(hi)) is not None:
        lo, b_lo, hi = hi, b, hi * 2
    hi = min(hi, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (b := first_b(mid)) is not None:
            lo, b_lo = mid, b
        else:
            hi = mid
    return lo, b_lo


def bf_threshold(q: ThresholdQuery) -> int:
    """Maximum correctable error count, optimized over decision thresholds."""
    return _threshold_cached(q.n, q.n0, q.d_v)[0]


def bf_threshold_detail(q: ThresholdQuery) -> tuple[int, int]:
    """(t_max, optimizing b)."""
    return _threshold_cached(q.n, q.n0, q.d_v)
