"""Independent oracles for tests: dense GF(2) linear algebra, plain polynomial
division over GF(2), the shift-xor ring product, the ring product by a
zero-padded linear FFT and the block product summed one ring product at a
time, ring inversion by the extended Euclidean algorithm, block matrix
inversion by Gauss-Jordan elimination, a small executable Stern search, the
full ISDA shift-count scan, the ISDA branch-and-bound as it was before
best-bound-first order, the Stern cost grid on a full meshgrid, the security
targets searched by full ISDA minimization, the decoding threshold searched
once per decision threshold b and as it was before it kept the winning b, the
density evolution run to its end, the binomial tail, lgamma binomials and
Stern cost grid as they were before their rows and columns were cached or
stacked, the ISD success probability as it was before it worked in place,
Tanner-graph gathers through explicit index tables, the decoders
as they were before their passes became incremental and in place, the
difference-family property by pooled counting, and Monte Carlo lots on random
codewords instead of the all-zero word.

Everything here is deliberately separate from the package implementation:
dense matrices instead of ring arithmetic, schoolbook algorithms instead of
packed-bit tricks or FFTs, a folded linear convolution per block pair instead
of summed cyclic spectra, Euclid instead of exponentiation, unit pivots
instead of the adjugate, an exhaustive scan instead of branch-and-bound, the
lower half first instead of the lower bound first, a final probe instead of a
kept b, a full meshgrid instead of broadcast one-dimensional terms, a minimum
instead of a decision against the target, one t search per b instead of one
for all b, every step until a stall instead of a certified fixed point,
fancy-index gathers instead of circulant rotations, full recomputation instead
of incremental updates, a binomial per term instead of a cached row, a masked
lgamma per binomial instead of an unmasked one over stacked columns, a fresh
array per step instead of one buffer, a pooled count instead of an early-exit
scan, random codewords instead of the all-zero word, so agreement is
meaningful.

The package's inversion a^-1 = a^(E-1) follows T. Itoh and S. Tsujii, "A fast
algorithm for computing multiplicative inverses in GF(2^m) using normal
bases", Inform. and Comput. 78 (1988), and N. Drucker, S. Gueron and
D. Kostic, "Fast polynomial inversion for post quantum QC-MDPC
cryptography" (2020).  Its block inverse det^-1 adj(A) is Cramer's rule over a
commutative ring (B. R. McDonald, "Linear Algebra over Commutative Rings",
1984).
"""

import math

import numpy as np
from scipy.special import gammaln

from qcmc.attacks import (ELL_MAX, LEAF_SIZE, LN2, PRUNE_MARGIN, PS_MAX, IsdInstance, WfReport,
                          _isda_bound, _log2_comb, dca_wf_at, isd_wf, isda_wf_at)
from qcmc.crypto import random_error_vector
from qcmc.decoder import (LLR_CLAMP, Algorithm, DecodeOutcome, DecoderConfig, _check_p0,
                          _checked_word, decode)
from qcmc.design import ParityCheck, systematic_generator
from qcmc.errors import NotInvertibleError, ParameterError, SingularMatrixError
from qcmc.gf2 import (FFT_CROSSOVER, BitPolynomial, QcMatrix, _cyclic_shift, bits_to_int,
                      int_to_bits, poly_mul, qc_vec_mul)
from qcmc.optimize import D_V_PRIME_MAX, T_MAX, _smallest_over
from qcmc.prng import SeedStream
from qcmc.simulate import TRIAL_RECORD
from qcmc import threshold
from qcmc.threshold import MAX_RECURSION_STEPS, _converges


def gf2_rref(M):
    """Reduced row echelon form over GF(2); returns (R, rank, pivot_cols)."""
    R = (np.array(M, dtype=np.uint8) & 1).copy()
    rows, cols = R.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(R[r:, c])[0]
        if hits.size == 0:
            continue
        pivot = r + hits[0]
        R[[r, pivot]] = R[[pivot, r]]
        for i in range(rows):
            if i != r and R[i, c]:
                R[i] ^= R[r]
        pivots.append(c)
        r += 1
    return R, r, pivots


def gf2_rank(M) -> int:
    return gf2_rref(M)[1]


def gf2_inv(M):
    """Dense inverse over GF(2), or None if singular."""
    M = np.array(M, dtype=np.uint8) & 1
    n = M.shape[0]
    aug = np.concatenate([M, np.eye(n, dtype=np.uint8)], axis=1)
    R, rank, pivots = gf2_rref(aug)
    if rank < n or pivots[:n] != list(range(n)):
        return None
    return R[:, n:]


def gf2_matmul(A, B):
    return (np.array(A, dtype=np.int64) @ np.array(B, dtype=np.int64)) % 2


def poly_divides(divisor_bits: int, dividend_bits: int) -> bool:
    """Plain GF(2)[x] trial division (schoolbook, on bit-packed ints)."""
    if divisor_bits == 0:
        return dividend_bits == 0
    a, b = dividend_bits, divisor_bits
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a == 0


def support_bit_loop(poly: BitPolynomial) -> tuple[int, ...]:
    """Support of a ring element by peeling off its lowest set bit, one at a time."""
    bits, out = poly.bits, []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def poly_mul_shift_xor(a: BitPolynomial, b: BitPolynomial) -> BitPolynomial:
    """Product in R_p as the XOR of cyclic shifts of one operand, one shift per
    term of the sparser operand, whatever the weights."""
    if a.p != b.p:
        raise ParameterError("mismatched moduli")
    if a.weight > b.weight:
        a, b = b, a
    acc = 0
    bb = b.bits
    for s in support_bit_loop(a):
        acc ^= _cyclic_shift(bb, s, a.p)
    return BitPolynomial(a.p, acc)


def linear_fft_poly_mul(a: BitPolynomial, b: BitPolynomial) -> BitPolynomial:
    """Product in R_p by shift-xor up to FFT_CROSSOVER, else a zero-padded linear
    FFT convolution at the smallest power-of-two length >= 2p - 1, folded mod x^p - 1."""
    if a.p != b.p:
        raise ParameterError("mismatched moduli")
    if a.weight > b.weight:
        a, b = b, a
    p = a.p
    if a.weight <= FFT_CROSSOVER:
        acc = 0
        for s in a.support():
            acc ^= _cyclic_shift(b.bits, s, p)
        return BitPolynomial(p, acc)
    size = 1 << (2 * p - 2).bit_length()
    spectrum = np.fft.rfft(a.coeffs(), size) * np.fft.rfft(b.coeffs(), size)
    counts = np.rint(np.fft.irfft(spectrum, size)[:2 * p - 1]).astype(np.int64)
    counts[:p - 1] += counts[p:]
    return BitPolynomial(p, bits_to_int(counts[:p] & 1))


def blockwise_qc_mul(a: QcMatrix, b: QcMatrix) -> QcMatrix:
    """Block matrix product as one linear_fft_poly_mul per nonzero (i, k, j) pair."""
    if a.cols0 != b.rows0 or a.p != b.p:
        raise ParameterError("shape mismatch")
    rows = []
    for i in range(a.rows0):
        row = []
        for j in range(b.cols0):
            acc = BitPolynomial.zero(a.p)
            for k in range(a.cols0):
                if a.blocks[i][k] and b.blocks[k][j]:
                    acc = acc + linear_fft_poly_mul(a.blocks[i][k], b.blocks[k][j])
            row.append(acc)
        rows.append(tuple(row))
    return QcMatrix(rows)


def _poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of GF(2)[x] division of a by b (plain, not mod x^p-1)."""
    db = b.bit_length() - 1
    q = 0
    while a and a.bit_length() - 1 >= db:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _poly_mul_plain(a: int, b: int) -> int:
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def euclid_inverse(a: BitPolynomial) -> BitPolynomial:
    """Inverse in R_p via the extended Euclidean algorithm against x^p - 1.

    Raises NotInvertibleError when gcd(a, x^p - 1) != 1; in particular every
    even-weight element is a multiple of x + 1 and never invertible.
    """
    if a.weight % 2 == 0:
        raise NotInvertibleError("gcd with x^p - 1 is nontrivial")
    p = a.p
    modulus = (1 << p) | 1
    r0, r1 = modulus, a.bits
    s0, s1 = 0, 1
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _poly_mul_plain(q, s1)
    if r0 != 1:
        raise NotInvertibleError("gcd with x^p - 1 is nontrivial")
    _, s0 = _poly_divmod(s0, modulus)
    return BitPolynomial(p, s0)


def elimination_invert(a: QcMatrix) -> QcMatrix:
    """Inverse by block Gauss-Jordan elimination, pivoting on blocks euclid_inverse inverts.

    Raises SingularMatrixError when no block left in a pivot column is a unit
    of R_p, which also happens to some invertible matrices (at q > 1 only).
    """
    if a.rows0 != a.cols0:
        raise ParameterError("only square block matrices can be inverted")
    n = a.rows0
    work = [list(row) for row in a.blocks]
    aug = [list(row) for row in QcMatrix.identity(n, a.p).blocks]
    for col in range(n):
        for r in range(col, n):
            try:
                pivot_inv = euclid_inverse(work[r][col])
                break
            except NotInvertibleError:
                continue
        else:
            raise SingularMatrixError(f"no invertible pivot in block column {col}")
        work[col], work[r] = work[r], work[col]
        aug[col], aug[r] = aug[r], aug[col]
        work[col] = [poly_mul(pivot_inv, blk) for blk in work[col]]
        aug[col] = [poly_mul(pivot_inv, blk) for blk in aug[col]]
        for r in range(n):
            factor = work[r][col]
            if r == col or not factor:
                continue
            work[r] = [x + poly_mul(factor, y) for x, y in zip(work[r], work[col])]
            aug[r] = [x + poly_mul(factor, y) for x, y in zip(aug[r], aug[col])]
    return QcMatrix(aug)


def circulant_dense(first_row):
    """Dense circulant: row s is the first row cyclically shifted right by s."""
    row = np.asarray(first_row, dtype=np.uint8)
    p = row.size
    idx = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    return row[idx]


def count_weight_w_codewords(G, w: int) -> int:
    """Exhaustive codeword enumeration (k small)."""
    k, n = G.shape
    count = 0
    for msg in range(1, 1 << k):
        u = np.array([(msg >> i) & 1 for i in range(k)], dtype=np.uint8)
        if int(gf2_matmul(u[None, :], G).sum()) == w:
            count += 1
    return count


def stern_search_iterations(G, w: int, ell: int, rng: np.random.RandomState,
                            max_iterations: int = 200_000) -> int:
    """Iterations a (p_s=1, ell) Stern search needs to hit a weight-w codeword.

    Each counted iteration: draw a column permutation whose first k columns
    form an information set (singular draws are retried without counting, as
    in the cost model), row-reduce to [I | R], and look for a pair of rows,
    one from each half, that collides on the first ell redundancy positions
    and sums to weight w.
    """
    G = np.array(G, dtype=np.uint8)
    k, n = G.shape
    half = k // 2
    for iteration in range(1, max_iterations + 1):
        while True:
            perm = rng.permutation(n)
            Gp = G[:, perm]
            R, rank, pivots = gf2_rref(Gp)
            if rank == k and pivots == list(range(k)):
                break
        window = R[:, k:k + ell]
        buckets = {}
        for i in range(half):
            buckets.setdefault(window[i].tobytes(), []).append(i)
        for j in range(half, k):
            for i in buckets.get(window[j].tobytes(), ()):
                cand = R[i] ^ R[j]
                if int(cand.sum()) == w:
                    return iteration
    raise RuntimeError("stern search did not terminate")


def isda_full_scan(n0: int, p: int, t: int) -> WfReport:
    """ISDA work factor by evaluating isd_wf at every shift count s in [1, p).

    Keeps the first strict minimum, so ties go to the smallest s; raises
    ParameterError when no s is feasible.
    """
    k0 = n0 - 1
    n = n0 * p
    best = None
    for s in range(1, p + 1):
        k = k0 * p + s
        if k >= n:
            break
        try:
            rep = isd_wf(IsdInstance(n=n, k=k, w=t, n_targets=s))
        except ParameterError:
            continue
        if best is None or rep.log2_wf < best.log2_wf:
            best = WfReport(rep.log2_wf, rep.p_s, rep.ell, s)
    if best is None:
        raise ParameterError("no feasible shift count for this instance")
    return best


def left_first_isda_search(n0: int, p: int, t: int, bar: float):
    """The ISDA branch-and-bound as it was before best-bound-first order: each
    interval is bounded when popped, the lower half always goes first, and the
    first strict minimum is kept."""
    n, k0 = n0 * p, (n0 - 1) * p
    best: WfReport | None = None
    stack = [(1, p - 1)] if p > 1 else []
    while stack:
        s_lo, s_hi = stack.pop()
        bound = _isda_bound(n, k0, t, s_lo, s_hi, PS_MAX, ELL_MAX)
        incumbent = bar if best is None else min(bar, best.log2_wf)
        if bound == math.inf or bound > incumbent + PRUNE_MARGIN:
            continue
        if s_hi - s_lo < LEAF_SIZE:
            for s in range(s_lo, s_hi + 1):
                try:
                    rep = isd_wf(IsdInstance(n=n, k=k0 + s, w=t, n_targets=s))
                except ParameterError:
                    continue
                if best is None or rep.log2_wf < best.log2_wf:
                    best = WfReport(rep.log2_wf, rep.p_s, rep.ell, s)
                    yield best
        else:
            mid = (s_lo + s_hi) // 2
            stack += [(mid + 1, s_hi), (s_lo, mid)]


def log2_comb_masked(a, b):
    """log2 C(a, b) via lgamma; array-friendly, -inf where undefined."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ok = (b >= 0) & (b <= a)
    safe_b = np.where(ok, b, 0.0)
    val = (gammaln(a + 1.0) - gammaln(safe_b + 1.0) - gammaln(a - safe_b + 1.0)) / LN2
    return np.where(ok, val, -np.inf)


def grid_eval_per_term(n: int, k_lo: int, k_hi: int, w: int, ps_max: int, ell_max: int):
    """The Stern cost grid with one log2_comb_masked call per binomial term."""
    psg = np.arange(1, ps_max + 1)[:, None]
    ellg = np.arange(1, ell_max + 1)[None, :]

    feasible = (2 * psg <= w) & (psg <= k_hi // 2) & (w - 2 * psg <= n - k_lo - ellg)
    with np.errstate(divide="ignore", invalid="ignore"):
        log2_pi_one = (log2_comb_masked(k_hi // 2, psg)
                       + log2_comb_masked(k_hi - k_hi // 2, psg)
                       + log2_comb_masked(n - k_lo - ellg, w - 2 * psg)
                       - log2_comb_masked(n, w))
        half_rows = np.exp2(log2_comb_masked(k_lo - k_lo // 2, psg))
        cost = ((n - k_hi) ** 2 * (n + k_hi) / 2.0
                + 2.0 * ellg * psg * half_rows
                + 2.0 * psg * (n - k_hi) * half_rows**2 / np.exp2(ellg))
    return feasible, log2_pi_one, cost, psg, ellg


def meshgrid_eval(n: int, k_lo: int, k_hi: int, w: int, ps_max: int, ell_max: int):
    """The Stern cost grid with every term evaluated on a full (p_s, l) meshgrid."""
    ps = np.arange(1, ps_max + 1)
    ell = np.arange(1, ell_max + 1)
    psg, ellg = np.meshgrid(ps, ell, indexing="ij")

    feasible = (2 * psg <= w) & (psg <= k_hi // 2) & (w - 2 * psg <= n - k_lo - ellg)
    with np.errstate(divide="ignore", invalid="ignore"):
        log2_pi_one = (_log2_comb(k_hi // 2, psg) + _log2_comb(k_hi - k_hi // 2, psg)
                       + _log2_comb(n - k_lo - ellg, w - 2 * psg) - _log2_comb(n, w))
        half_rows = np.exp2(_log2_comb(k_lo - k_lo // 2, psg))
        cost = ((n - k_hi) ** 2 * (n + k_hi) / 2.0
                + 2.0 * ellg * psg * half_rows
                + 2.0 * psg * (n - k_hi) * half_rows**2 / np.exp2(ellg))
    return feasible, log2_pi_one, cost, psg, ellg


def log2_success_masked(log2_pi_one, n_targets: int):
    """log2(1 - (1 - pi)^T) with a fresh array per step, T pi for ln pi below -500."""
    log2_pi_one = np.asarray(log2_pi_one, dtype=np.float64)
    ln_pi = log2_pi_one * LN2
    tiny = ln_pi < -500.0
    any_tiny = tiny.any()
    with np.errstate(divide="ignore", invalid="ignore"):
        pi = np.exp(np.where(tiny, -500.0, ln_pi) if any_tiny else ln_pi)
        pi = np.clip(pi, 0.0, 1.0 - 1e-16)
        exact = np.log2(-np.expm1(n_targets * np.log1p(-pi)))
    out = np.where(tiny, log2_pi_one + math.log2(n_targets), exact) if any_tiny else exact
    return np.minimum(out, 0.0)


def meshgrid_isd_wf(inst: IsdInstance) -> WfReport:
    """isd_wf over the full meshgrid of meshgrid_eval."""
    feasible, log2_pi_one, cost, psg, ellg = meshgrid_eval(inst.n, inst.k, inst.k, inst.w,
                                                           PS_MAX, ELL_MAX)
    with np.errstate(divide="ignore", invalid="ignore"):
        log2_pi = log2_success_masked(log2_pi_one, inst.n_targets)
        wf = np.where(feasible, np.log2(cost) - log2_pi, np.inf)
    if not np.isfinite(wf).any():
        raise ParameterError("no feasible (p_s, l) pair for this instance")
    flat = int(np.argmin(wf))
    i, j = np.unravel_index(flat, wf.shape)
    return WfReport(float(wf[i, j]), int(psg[i, j]), int(ellg[i, j]))


def meshgrid_isda_bound(n: int, k0: int, t: int, s_lo: int, s_hi: int,
                        ps_max: int, ell_max: int) -> float:
    """The ISDA interval bound over the full meshgrid of meshgrid_eval."""
    feasible, log2_pi_one, cost, _, _ = meshgrid_eval(n, k0 + s_lo, k0 + s_hi, t,
                                                      ps_max, ell_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        log2_pi = np.minimum(log2_pi_one + math.log2(s_hi), 0.0)
        bound = np.where(feasible, np.log2(cost) - log2_pi, np.inf)
    return float(bound.min())


def security_targets_by_minimum(target_bits: float, n0: int, p_ref: int) -> tuple[int, int]:
    """Smallest (d_v', t) meeting the target, each step comparing a full minimum."""
    def dca_ok(v: int) -> bool:
        try:
            return dca_wf_at(n0, p_ref, v).log2_wf >= target_bits
        except ParameterError:
            return False

    def isda_ok(v: int) -> bool:
        try:
            return isda_wf_at(n0, p_ref, v).log2_wf >= target_bits
        except ParameterError:
            return False  # e.g. w too small for any split weight

    return _smallest_over(1, D_V_PRIME_MAX, dca_ok), _smallest_over(1, T_MAX, isda_ok)


def binomial_tail_per_term(d: int, b: int, x: float) -> float:
    """P[Binom(d, x) >= b], by direct summation with math.comb in every term."""
    if b <= 0:
        return 1.0
    if b > d:
        return 0.0
    return sum(math.comb(d, j) * x**j * (1.0 - x) ** (d - j) for j in range(b, d + 1))


def plain_converges(n: int, d_c: int, d_v: int, b: int, t: int, max_steps: int) -> bool:
    """Whether threshold-b density evolution falls below 1/n, decided as before
    the certified early exit: step until q falls below 1/n, stops decreasing or
    runs out of steps.  Steps go through the module-global evolution_step."""
    p0 = t / n
    q = p0
    for _ in range(max_steps):
        q_next = threshold.evolution_step(d_c, d_v, b, p0, q)
        if q_next < 1.0 / n:
            return True
        if q_next >= q:
            return False
        q = q_next
    return False


def t_max_for_b(n: int, d_c: int, d_v: int, b: int, max_steps: int) -> int:
    """Largest t at which threshold-b density evolution converges, searched for b alone."""
    if not _converges(n, d_c, d_v, b, 1, max_steps):
        return 0
    lo, hi = 1, 2
    while hi < n and _converges(n, d_c, d_v, b, hi, max_steps):
        lo, hi = hi, hi * 2
    hi = min(hi, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _converges(n, d_c, d_v, b, mid, max_steps):
            lo = mid
        else:
            hi = mid
    return lo


def per_b_threshold(n: int, n0: int, d_v: int) -> tuple[int, int]:
    """(t_max, b): one t search per decision threshold b, the largest t kept,
    ties to the smallest b."""
    d_c = n0 * d_v
    best_t, best_b = 0, math.ceil(d_v / 2)
    for b in range(math.ceil(d_v / 2), d_v + 1):
        tm = t_max_for_b(n, d_c, d_v, b, MAX_RECURSION_STEPS)
        if tm > best_t:
            best_t, best_b = tm, b
    return best_t, best_b


def reprobing_threshold(n: int, n0: int, d_v: int) -> tuple[int, int]:
    """(t_max, b) as the threshold search gave it before it kept the winning b:
    the b is searched again at t_max by a final probe."""
    b_values = range(math.ceil(d_v / 2), d_v + 1)

    def first_b(t: int) -> int | None:
        return next((b for b in b_values
                     if _converges(n, n0 * d_v, d_v, b, t, MAX_RECURSION_STEPS)), None)

    lo, hi = 0, 1  # t = 0 converges at every b
    while hi < n and first_b(hi) is not None:
        lo, hi = hi, hi * 2
    hi = min(hi, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if first_b(mid) is not None:
            lo = mid
        else:
            hi = mid
    return lo, first_b(lo)


class TannerGather:
    """Gather tables tying check indices to variable indices per block."""

    def __init__(self, h: ParityCheck):
        n0, p, d_v = h.params.n0, h.params.p, h.params.d_v
        self.n0, self.p, self.d_v = n0, p, d_v
        supp = np.array([blk.support for blk in h.blocks], dtype=np.int64)
        js = np.arange(p, dtype=np.int64)
        # to_check[i, l, s] = variable position (s + supp_il) % p feeding check s
        self.to_check = (js[None, None, :] + supp[:, :, None]) % p
        # to_var[i, l, j] = check position (j - supp_il) % p watching variable j
        self.to_var = (js[None, None, :] - supp[:, :, None]) % p
        self.block_axis = np.arange(n0).reshape(n0, 1, 1)
        self.edge_axis = np.arange(d_v).reshape(1, d_v, 1)

    def syndrome(self, v_blocks: np.ndarray) -> np.ndarray:
        """H v^T over GF(2); v_blocks has shape (n0, p)."""
        gathered = v_blocks[self.block_axis, self.to_check]
        return (gathered.sum(axis=(0, 1), dtype=np.int64) & 1).astype(np.uint8)

    def unsatisfied_counts(self, synd: np.ndarray) -> np.ndarray:
        """Per-variable count of unsatisfied checks, shape (n0, p)."""
        return synd[self.to_var].sum(axis=1, dtype=np.int64)

    def spread_to_edges(self, var_blocks: np.ndarray) -> np.ndarray:
        """Per-variable data -> per-edge view indexed by check, shape (n0, d_v, p)."""
        return var_blocks[self.block_axis, self.to_check]

    def collect_at_vars(self, edge_vals: np.ndarray) -> np.ndarray:
        """Sum per-edge data (indexed by check) at each variable, shape (n0, p)."""
        return edge_vals[self.block_axis, self.edge_axis, self.to_var].sum(axis=1)


# The decoders as they were before incremental bit flipping and the in-place
# SPA passes: every iteration recomputes the syndrome and the unsatisfied-check
# counts from full (n0, d_v, p) rotation arrays, and SPA guards its divide with
# np.where.  reference_decode must agree with qcmc.decoder.decode exactly.


def _ref_rotate(rows: np.ndarray, shifts) -> np.ndarray:
    """out[i, l, s] = rows[i, l, (s + shifts[i][l]) % p]; a length-1 axis of rows broadcasts."""
    p = rows.shape[-1]
    shape = (len(shifts), len(shifts[0]))
    doubled = np.broadcast_to(np.concatenate([rows, rows], axis=-1), shape + (2 * p,))
    out = np.empty(shape + (p,), dtype=rows.dtype)
    for i, row_shifts in enumerate(shifts):
        for l, a in enumerate(row_shifts):
            out[i, l] = doubled[i, l, a:a + p]
    return out


def _ref_index(h: ParityCheck) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Rotation shifts (to checks, to variables), each of shape (n0, d_v)."""
    p = h.params.p
    to_check = tuple(blk.support for blk in h.blocks)
    return to_check, tuple(tuple((p - a) % p for a in supp) for supp in to_check)


def _ref_syndrome(to_check, v_blocks: np.ndarray) -> np.ndarray:
    edges = _ref_rotate(v_blocks[:, None, :], to_check)
    return (edges.sum(axis=(0, 1), dtype=np.int64) & 1).astype(np.uint8)


def _ref_decode_bf(h: ParityCheck, received: np.ndarray, cfg: DecoderConfig) -> DecodeOutcome:
    """Parallel bit flipping with a fixed or per-iteration variable threshold.

    Each iteration: compute the syndrome, count unsatisfied checks per bit,
    flip every bit whose count reaches the threshold (b for BF_FIXED, the
    largest count for BF_VARIABLE), stop on a zero syndrome.
    Non-convergence is an unsuccessful outcome, not an exception.
    """
    params = h.params
    b = None
    if cfg.algorithm is Algorithm.BF_FIXED:
        b = params.d_v if cfg.b is None else cfg.b
        if not math.ceil(params.d_v / 2) <= b <= params.d_v:
            raise ParameterError("b must lie in [ceil(d_v/2), d_v]")
    received = _checked_word(received, h.params.n)
    to_check, to_var = _ref_index(h)
    v = received.reshape(params.n0, params.p).copy()
    synd = _ref_syndrome(to_check, v)
    if not synd.any():
        return DecodeOutcome(True, np.zeros(params.n, dtype=np.uint8), 0)

    iterations = 0
    success = False
    for iterations in range(1, cfg.max_iterations + 1):
        upc = _ref_rotate(synd[None, None, :], to_var).sum(axis=1, dtype=np.int64)
        threshold = max(int(upc.max()), 1) if b is None else b
        flips = upc >= threshold
        if not flips.any():
            break
        v ^= flips.astype(np.uint8)
        synd = _ref_syndrome(to_check, v)
        if not synd.any():
            success = True
            break
    return DecodeOutcome(success, (v.reshape(-1) ^ received), iterations)


def _ref_decode_spa(h: ParityCheck, received: np.ndarray, cfg: DecoderConfig) -> DecodeOutcome:
    """Log-domain sum-product decoding over the expanded Tanner graph.

    Channel LLRs assume a binary symmetric channel with crossover p0.
    Messages are clamped to +/-LLR_CLAMP; a hard decision is taken every
    iteration and decoding stops on a zero syndrome.
    """
    params = h.params
    p0 = cfg.p0 if cfg.p0 is not None else _check_p0(
        params.error_fraction,
        f"the default p0 = max(t', 1)/n (t'={params.t_prime}, n={params.n})")
    received = _checked_word(received, h.params.n)
    to_check, to_var = _ref_index(h)
    rec_blocks = received.reshape(params.n0, params.p)
    synd = _ref_syndrome(to_check, rec_blocks)
    if not synd.any():
        return DecodeOutcome(True, np.zeros(params.n, dtype=np.uint8), 0)

    llr0 = math.log((1.0 - p0) / p0)
    channel = llr0 * (1.0 - 2.0 * rec_blocks.astype(np.float64))
    v2c = _ref_rotate(channel[:, None, :], to_check)

    success = False
    iterations = 0
    hard = rec_blocks
    for iterations in range(1, cfg.max_iterations + 1):
        tnh = np.tanh(0.5 * v2c)
        prod = tnh.reshape(-1, params.p).prod(axis=0)
        safe = np.where(np.abs(tnh) < 1e-30, np.copysign(1e-30, tnh), tnh)
        ratio = np.clip(prod[None, None, :] / safe, -1.0 + 1e-14, 1.0 - 1e-14)
        c2v = np.clip(2.0 * np.arctanh(ratio), -LLR_CLAMP, LLR_CLAMP)
        total = channel + _ref_rotate(c2v, to_var).sum(axis=1)
        hard = (total < 0.0).astype(np.uint8)
        synd = _ref_syndrome(to_check, hard)
        if not synd.any():
            success = True
            break
        v2c = np.clip(_ref_rotate(total[:, None, :], to_check) - c2v, -LLR_CLAMP, LLR_CLAMP)
    return DecodeOutcome(success, (hard.reshape(-1) ^ received), iterations)


def reference_decode(h: ParityCheck, received: np.ndarray, cfg: DecoderConfig) -> DecodeOutcome:
    """Decode a length-n word with cfg.algorithm; b and p0 left as None come from h."""
    if cfg.algorithm is Algorithm.SPA:
        return _ref_decode_spa(h, received, cfg)
    return _ref_decode_bf(h, received, cfg)


def has_distinct_differences(p: int, supports) -> bool:
    """True when the ordered cyclic differences (a - b) mod p, a != b, pooled over
    all supports, never repeat: the random difference family (RDF) property."""
    diffs = [(a - b) % p for sup in supports for a in sup for b in sup if a != b]
    return len(diffs) == len(set(diffs))


def random_codeword_lot(h: ParityCheck, cfg: DecoderConfig, t_err: int, count: int,
                        seed: bytes, lot_index: int) -> np.ndarray:
    """qcmc.simulate._run_lot on random codewords instead of the all-zero word.

    Each error pattern e is drawn from the lot stream exactly as the package
    draws it; each codeword's message comes from a separate child stream, so
    both runners decode the same patterns and their records can be compared
    trial by trial.
    """
    params = h.params
    rng = SeedStream(seed, f"sim/lot{lot_index}")
    messages = rng.child("codewords")
    g = systematic_generator(h)
    record = np.empty(count, dtype=TRIAL_RECORD)
    for i in range(count):
        e = random_error_vector(params.n, t_err, rng)
        codeword = qc_vec_mul(int_to_bits(messages.take_bits(params.k), params.k), g)
        outcome = decode(h, codeword ^ e, cfg)
        record[i] = (outcome.iterations_used, outcome.success,
                     np.count_nonzero(outcome.error_estimate != e))
    return record
