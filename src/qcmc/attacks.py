"""Work-factor estimation for the two dominant attacks on the cryptosystem.

Both attacks reduce to finding a low-weight codeword with a Stern-style
information-set decoder, costed per iteration as

    c_iter = (n-k)^2 (n+k)/2                      Gaussian elimination
           + 2 l p_s C(ceil(k/2), p_s)            collision-window search
           + 2 p_s (n-k) C(ceil(k/2), p_s)^2 / 2^l   candidate checking

with per-iteration success probability

    pi_one = C(floor(k/2), p_s) C(ceil(k/2), p_s) C(n-k-l, w-2 p_s) / C(n, w)

boosted by multiplicity: pi = 1 - (1 - pi_one)^n_targets.  The reported work
factor is log2(c_iter / pi), minimized over 1 <= p_s <= PS_MAX, 1 <= l <= ELL_MAX.

Dual-code attack (DCA): search the dual of the public code for the rows of
the sparse H' = H Q^T, so w = n0 * d_v' with multiplicity p.  Information-set
decoding attack (ISDA): append s block-wise cyclic shifts of an intercepted
ciphertext to the public generator and search the extended code, of dimension
k = (n0-1) p + s, for any of the s shifted weight-t error patterns.  The
reported s is the smallest minimizer of the work factor over 1 <= s < p.

WF(s) is not unimodal in s, so the minimum is found by branch-and-bound over
intervals [s_lo, s_hi] with a provable lower bound, evaluated on the same
(p_s, l) grid with each term at the end of [k_lo, k_hi] least favourable to
the attacker:

  * elimination (n-k)^2 (n+k)/2 has derivative -(n-k)(n+3k) < 0: use k_hi;
  * C(ceil(k/2), p_s) grows with k, so both search terms use k_lo, and the
    factor n-k of the checking term uses k_hi;
  * in pi_one, C(floor(k/2), p_s) and C(ceil(k/2), p_s) grow with k (use k_hi)
    and C(n-k-l, w-2 p_s) shrinks with k (use k_lo);
  * 1 - (1 - pi)^T <= T pi, with T = s <= s_hi, and the probability is <= 1;
  * a grid point is infeasible exactly where a binomial of pi_one is undefined
    (p_s > floor(k_hi/2), or w - 2 p_s outside [0, n - k_lo - l]): infeasible
    <=> an undefined binomial <=> log2 pi_one = -inf <=> WF = +inf.  At t < 0
    or t > n, C(n, t) is undefined too and no s is feasible (at each k,
    2 p_s <= k and t - 2 p_s <= n - k - l force t < n), so the bound is inf.

The search starts from an initial incumbent, the bar, and an interval is
pruned only when its bound exceeds min(bar, best work factor found so far)
by more than PRUNE_MARGIN = 1e-6 bits.  The bound and the exact values come
from different lgamma arguments, so the proof holds only up to rounding:
against exact integer binomials, log2 C(a, b) via lgamma is off by at most
1e-10 bits for a <= 2e4 and 4e-10 bits for a <= 7e4, and each side sums four
such terms.  The margin is over 250 times that worst case, so no s whose
computed work factor ties or beats the incumbent is ever pruned.  Each split
expands the half with the lower bound first (the lower s_lo on equal bounds;
Land and Doig, Econometrica 1960).  Intervals of at most LEAF_SIZE shift counts
are scanned with isd_wf itself; the best is the least (log2_wf, s), so ties go
to the smallest s.

With bar = inf this is the minimization isda_wf_at reports, and the result
equals a full scan of every s in every field.  A finite bar decides whether
the minimum reaches it (isda_secure, asked by the optimizer at the security
target): the search stops at the first s whose work factor is below the bar,
and the argument above, with the same margin, shows that every pruned s is
at or above it.  So the minimum reaches the bar exactly when no s below it
turns up and some s is feasible at all.

Binomials are evaluated in log2 through lgamma, so code lengths in the tens
of thousands stay exact to float precision.  gammaln is elementwise, so each
cell keeps its bits: integer arguments read one read-only table of
gammaln(i + 1.0), grown by doubling up to LGAMMA_TABLE_MAX = 2^18 entries
(2 MiB), and a - b is exact in int64 as in float64; floats, other dtypes, empty
arrays and a at or above the cap call gammaln on float64.  The grid's three p_s
columns share one stacked call, the -inf mask is skipped where no cell is
undefined, log2 C(n, w) is memoized, and the constant p_s, l and w - 2 p_s terms
are cached, each computed in the order the cost formula reads.  Callers take
only the rows with 2 p_s <= w, the others being infeasible (one row at w <= 1).
Four scalar tests prove every cell defined and feasible: 2 ps_max <= w (so
w - 2 p_s >= 0), ps_max <= min(k_lo - k_lo//2, k_hi//2) (p_s fits every half
of k), w - 2 <= n - k_lo - ell_max (the largest w - 2 p_s fits the least
n - k - l) and n < the table size (every a is below n, as k_lo <= k_hi < n).
Then the grid reads the table with no mask; every other input takes
_log2_comb, whose -inf marks each undefined cell, into the same formulas.
Where no ln pi is below -500, the success probability is computed in one buffer.

scipy loads at the first work factor, not with this module: the module-level
gammaln replaces itself with scipy.special.gammaln on its first call, so every
later call is scipy's ufunc itself.  `import qcmc` and the commands that compute
no work factor (keygen, encrypt, decrypt, inspect, simulate, threshold) never
load scipy; wf and optimize load it at their first work factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ParameterError

__all__ = [
    "IsdInstance", "WfReport", "isd_wf", "isd_success_probability",
    "dca_wf_at", "isda_wf_at", "isda_secure",
    "q_space_size", "h_enumeration_wf",
]

PS_MAX = 10
ELL_MAX = 60
LN2 = math.log(2.0)
PRUNE_MARGIN = 1e-6
LEAF_SIZE = 8
LGAMMA_TABLE_MAX = 2**18
_lgamma_table = np.empty(0)


@dataclass(frozen=True)
class IsdInstance:
    """Low-weight-codeword search instance for a Stern-style decoder."""

    n: int
    k: int
    w: int
    n_targets: int = 1

    def __post_init__(self):
        if not 0 < self.w < self.n:
            raise ParameterError("need 0 < w < n")
        if not 0 < self.k < self.n:
            raise ParameterError("need 0 < k < n")
        if self.n_targets < 1:
            raise ParameterError("need at least one target codeword")


@dataclass(frozen=True)
class WfReport:
    """log2 work factor and the ISD parameters attaining it."""

    log2_wf: float
    p_s: int
    ell: int
    s: int = 0


def gammaln(x):
    """scipy.special.gammaln, bound here on first use so that scipy loads only then."""
    global gammaln
    from scipy.special import gammaln
    return gammaln(x)


def _log2_comb(a, b):
    """log2 C(a, b) via lgamma (from the table for ints below the cap); -inf where undefined."""
    global _lgamma_table
    a, b = np.asarray(a), np.asarray(b)
    from_table = (a.dtype.kind == b.dtype.kind == "i" and a.size and b.size
                  and (top := max(int(a.max()), 0)) < LGAMMA_TABLE_MAX)  # masked cells read 0
    if not from_table:
        a, b = a.astype(np.float64), b.astype(np.float64)
    ok = (b >= 0) & (b <= a)
    defined = ok.all()
    if not defined:
        a, b = np.where(ok, a, 0), np.where(ok, b, 0)
    if from_table and top >= _lgamma_table.size:
        size = max(2 * _lgamma_table.size, 1 << top.bit_length())
        _lgamma_table = gammaln(np.arange(size, dtype=np.float64) + 1.0)
        _lgamma_table.flags.writeable = False
    lgamma = _lgamma_table.__getitem__ if from_table else lambda x: gammaln(x + 1.0)
    val = _lgamma_comb(lgamma, a, b)
    return np.asarray(val) if defined else np.where(ok, val, -np.inf)


def _lgamma_comb(lgamma, a, b):
    """log2 C(a, b) from lgamma(x) = ln x!, unmasked."""
    return (lgamma(a) - lgamma(b) - lgamma(a - b)) / LN2


@lru_cache(maxsize=1024)
def _log2_comb_scalar(a: int, b: int) -> float:
    """_log2_comb of two ints, memoized: the grid's C(n, w) repeats across shift counts."""
    return float(_log2_comb(a, b))


def _log2_success(log2_pi_one, n_targets: int):
    """log2(1 - (1 - pi)^T) elementwise, stable for tiny pi."""
    log2_pi_one = np.asarray(log2_pi_one, dtype=np.float64)
    ln_pi = log2_pi_one * LN2
    buf = ln_pi if ln_pi.ndim and ln_pi.min(initial=0.0) >= -500.0 else None  # no tiny pi: in place
    tiny = buf is None and ln_pi < -500.0
    any_tiny = buf is None and tiny.any()
    with np.errstate(divide="ignore", invalid="ignore"):
        pi = np.exp(np.where(tiny, -500.0, ln_pi) if any_tiny else ln_pi, out=buf)
        pi = np.negative(np.clip(pi, 0.0, 1.0 - 1e-16, out=buf), out=buf)
        pi = np.multiply(n_targets, np.log1p(pi, out=buf), out=buf)
        exact = np.log2(np.negative(np.expm1(pi, out=buf), out=buf), out=buf)
    # for tiny pi, 1 - (1 - pi)^T ~ T*pi
    out = np.where(tiny, log2_pi_one + math.log2(n_targets), exact) if any_tiny else exact
    return np.minimum(out, 0.0, out=buf)


@lru_cache(maxsize=16)
def _grid_axes(ps_max: int, ell_max: int) -> tuple[np.ndarray, ...]:
    """Read-only grid constants: p_s column, l row, 2.0 l p_s, 2.0 p_s and 2^l."""
    psg = np.arange(1, ps_max + 1)[:, None]
    ellg = np.arange(1, ell_max + 1)[None, :]
    axes = (psg, ellg, 2.0 * ellg * psg, 2.0 * psg, np.exp2(ellg))
    for arr in axes:
        arr.flags.writeable = False
    return axes


@lru_cache(maxsize=256)
def _weight_column(w: int, ps_max: int) -> np.ndarray:
    """Read-only (ps_max, 1) column w - 2 p_s."""
    rest_w = w - 2 * np.arange(1, ps_max + 1)[:, None]
    rest_w.flags.writeable = False
    return rest_w


def _grid_eval(n: int, k_lo: int, k_hi: int, w: int, ps_max: int, ell_max: int):
    """Cost model over the (p_s, l) grid for dimensions k in [k_lo, k_hi].

    Returns four arrays: log2 pi_one, c_iter, the p_s column and the l row.
    An infeasible cell is one with an undefined binomial, so log2 pi_one is
    -inf there (for 0 <= w <= n).  Terms in p_s alone are evaluated on the
    (ps_max, 1) column and terms in l alone on the (1, ell_max) row; only
    C(n-k-l, w-2 p_s) needs the full grid, and broadcasting gives every cell
    the value a full grid would.  Each term takes the end of the range least
    favourable to the attacker (see the module docstring); with k_lo == k_hi
    it is the exact model at k.
    """
    psg, ellg, search_w, check_w, window = _grid_axes(ps_max, ell_max)
    rest_w, rest_n = _weight_column(w, ps_max), n - k_lo - ellg
    halves = np.array([k_lo - k_lo // 2, k_hi // 2, k_hi - k_hi // 2])[:, None, None]
    log2_c_nw = _log2_comb_scalar(n, w)  # a miss grows the lgamma table past n

    defined = (2 * ps_max <= w and ps_max <= min(k_lo - k_lo // 2, k_hi // 2)
               and w - 2 <= n - k_lo - ell_max and n < _lgamma_table.size)
    comb = partial(_lgamma_comb, _lgamma_table.__getitem__) if defined else _log2_comb
    with np.errstate(divide="ignore", invalid="ignore"):
        lo_half, hi_floor, hi_ceil = comb(halves, psg)
        log2_pi_one = hi_floor + hi_ceil + comb(rest_n, rest_w) - log2_c_nw
        half_rows = np.exp2(lo_half)
        cost = ((n - k_hi) ** 2 * (n + k_hi) / 2.0
                + search_w * half_rows
                + check_w * (n - k_hi) * half_rows**2 / window)
    return log2_pi_one, cost, psg, ellg


def isd_wf(inst: IsdInstance) -> WfReport:
    """Minimum Stern work factor over p_s in [1, PS_MAX], l in [1, ELL_MAX]."""
    log2_pi_one, cost, psg, ellg = _grid_eval(inst.n, inst.k, inst.k, inst.w,
                                              max(1, min(PS_MAX, inst.w // 2)), ELL_MAX)
    wf = np.log2(cost) - _log2_success(log2_pi_one, inst.n_targets)
    i, j = divmod(int(wf.argmin()), wf.shape[1])
    if not math.isfinite(wf[i, j]):
        raise ParameterError("no feasible (p_s, l) pair for this instance")
    return WfReport(float(wf[i, j]), int(psg[i, 0]), int(ellg[0, j]))


def isd_success_probability(inst: IsdInstance, p_s: int, ell: int) -> float:
    """Per-iteration success probability at fixed (p_s, l), multiplicity included."""
    n, k, w = inst.n, inst.k, inst.w
    k2a, k2b = k // 2, k - k // 2
    l2 = float(_log2_comb(k2a, p_s) + _log2_comb(k2b, p_s)
               + _log2_comb(n - k - ell, w - 2 * p_s) - _log2_comb(n, w))
    return float(np.exp2(_log2_success(l2, inst.n_targets)))


def dca_wf_at(n0: int, p: int, d_v_prime) -> WfReport:
    """Dual-code attack work factor at public column weight d_v_prime.

    The dual of the public code has length n0*p and dimension p; the sought
    rows of H' have weight n0*d_v' and occur with multiplicity p.
    """
    if n0 < 2:
        raise ParameterError("need n0 >= 2 circulant blocks")
    w = int(round(n0 * d_v_prime))
    return isd_wf(IsdInstance(n=n0 * p, k=p, w=w, n_targets=p))


def _isda_bound(n: int, k0: int, t: int, s_lo: int, s_hi: int,
                ps_max: int, ell_max: int) -> float:
    """Lower bound on the ISDA log2 work factor for every s in [s_lo, s_hi].

    k0 is the public generator's dimension, so s shifts give k = k0 + s.
    At t < 0 or t > n no s is feasible, so the bound is inf without a grid:
    there log2 C(n, t) = -inf would turn an undefined cell's -inf into NaN.
    """
    if not 0 <= t <= n:
        return math.inf
    log2_pi_one, cost, _, _ = _grid_eval(n, k0 + s_lo, k0 + s_hi, t,
                                         max(1, min(ps_max, t // 2)), ell_max)
    return float((np.log2(cost) - np.minimum(log2_pi_one + math.log2(s_hi), 0.0)).min())


def _root_bound(n0: int, p: int, t: int) -> float:
    """_isda_bound over all of [1, p); inf when there is no shift count at all."""
    return _isda_bound(n0 * p, (n0 - 1) * p, t, 1, p - 1, PS_MAX, ELL_MAX) if p > 1 else math.inf


def _isda_search(n0: int, p: int, t: int, bar: float, root: float | None = None):
    """Branch-and-bound over 1 <= s < p with the initial incumbent bar.

    Yields each new best WfReport by (log2_wf, s), in search order: with
    bar = inf the last one is the minimum; with a finite bar a caller may stop
    at the first one below it.  A split bounds both halves; the lower-bound
    half pops first.  Intervals are pruned above min(bar, best) + PRUNE_MARGIN.
    root is _root_bound(n0, p, t), computed here unless the caller has it.
    """
    n, k0 = n0 * p, (n0 - 1) * p
    best: WfReport | None = None
    stack = [(_root_bound(n0, p, t) if root is None else root, 1, p - 1)]
    while stack:
        bound, s_lo, s_hi = stack.pop()
        incumbent = bar if best is None else min(bar, best.log2_wf)
        if bound == math.inf or bound > incumbent + PRUNE_MARGIN:
            continue
        if s_hi - s_lo < LEAF_SIZE:
            for s in range(s_lo, s_hi + 1):
                try:
                    rep = isd_wf(IsdInstance(n=n, k=k0 + s, w=t, n_targets=s))
                except ParameterError:
                    continue
                if best is None or (rep.log2_wf, s) < (best.log2_wf, best.s):
                    best = WfReport(rep.log2_wf, rep.p_s, rep.ell, s)
                    yield best
        else:
            mid = (s_lo + s_hi) // 2
            halves = [(_isda_bound(n, k0, t, lo, hi, PS_MAX, ELL_MAX), lo, hi)
                      for lo, hi in ((s_lo, mid), (mid + 1, s_hi))]
            stack += sorted(halves, reverse=True)


@lru_cache(maxsize=None)
def _isda_cached(n0: int, p: int, t: int) -> WfReport:
    best = None
    for best in _isda_search(n0, p, t, math.inf):
        pass
    if best is None:
        raise ParameterError("no feasible shift count for this instance")
    return best


def isda_wf_at(n0: int, p: int, t: int) -> WfReport:
    """Information-set decoding attack work factor at t intentional errors.

    Minimizes over the number s of block-wise shifted ciphertexts appended to
    the public generator: length n0*p, dimension (n0-1)*p + s, weight t,
    multiplicity s, each s costed by isd_wf over its PS_MAX x ELL_MAX grid.
    The optimizing s is reported.
    """
    if n0 < 2:
        raise ParameterError("need n0 >= 2 circulant blocks")
    return _isda_cached(n0, p, t)


def isda_secure(n0: int, p: int, t: int, target_bits: float) -> bool:
    """Whether isda_wf_at(n0, p, t).log2_wf >= target_bits, False where it raises.

    Decides without minimizing: the search runs with target_bits as its bar
    and stops at the first s below it.  If none is found, the answer is yes
    exactly when some s is feasible, which isd_wf tells from s = 1 upward
    (s = 1 already is for 2 <= t <= p).  An infinite bound over all of
    [1, p), the one the search starts from, already proves that no s is.
    """
    if n0 < 2:
        raise ParameterError("need n0 >= 2 circulant blocks")
    root = _root_bound(n0, p, t)
    if root == math.inf or any(rep.log2_wf < target_bits
                               for rep in _isda_search(n0, p, t, target_bits, root)):
        return False
    n, k0 = n0 * p, (n0 - 1) * p
    for s in range(1, p):
        try:
            isd_wf(IsdInstance(n=n, k=k0 + s, w=t, n_targets=s))
        except ParameterError:
            continue
        return True
    return False


def q_space_size(p: int, n0: int) -> float:
    """log2 of the number of QC permutation choices for Q in the m = 1 case."""
    if p < 1 or n0 < 1:
        raise ParameterError("p and n0 must be positive")
    return math.log2(p**n0 * math.factorial(n0))


def h_enumeration_wf(p: int, d_v: int) -> float:
    """log2 cost of enumerating one circulant block's first row: log2 C(p, d_v)."""
    if not 0 <= d_v <= p:
        raise ParameterError("need 0 <= d_v <= p")
    return math.log2(math.comb(p, d_v))
