"""Private code construction: system parameters, parity-check sampling, generator.

The private parity-check matrix is a single block row of n0 circulants,
H = [H_0 | H_1 | ... | H_{n0-1}], each of column weight d_v.  Supports are
drawn either completely at random or under a random-difference-family (RDF)
constraint that forbids repeated cyclic differences and hence 4-cycles in
the expanded Tanner graph.  The difference multiset is pooled across all n0
blocks (the stronger variant), so no 4-cycle can occur anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DesignFailure, NotInvertibleError, ParameterError, SingularMatrixError
from .gf2 import BitPolynomial, QcMatrix, SparseSupport, is_unit, poly_inverse, poly_mul
from .prng import SeedStream

RESAMPLE_BUDGET = 100
# Most circulant blocks per row: S and Q are decided and inverted by a memoized Laplace
# expansion (gf2._minors) of about n0^2 2^n0 ring products.  The paper uses n0 = 2 to 4.
N0_MAX = 8


def pattern_det_gf2(W) -> int:
    """Determinant over GF(2) of the mod-2 image of a weight pattern.

    Evaluation at x = 1 maps R_p onto GF(2) and each circulant block onto its
    weight parity, so det(W mod 2) = 1 is necessary for any Q with block
    weights W to be invertible.  In particular an integer even m (all row
    sums even) can never give an invertible Q.
    """
    m = [[x & 1 for x in row] for row in W]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                m[r] = [a ^ b for a, b in zip(m[r], m[col])]
    return 1


def realizable_sigma(n0: int, sigma: int) -> bool:
    """Whether some weight pattern with total sigma can give an invertible Q."""
    if sigma < n0:
        return False
    q, r = divmod(sigma, n0)
    return not (r == 0 and q % 2 == 0)


def weight_matrix(n0: int, sigma: int) -> tuple[tuple[int, ...], ...]:
    """Near-regular n0 x n0 weight pattern with total weight sigma (m = sigma/n0).

    Row and column sums differ by at most one, all are >= 1, and the mod-2
    pattern is nonsingular so that invertible Q matrices exist.  sigma = n0
    gives a permutation pattern (m = 1).  Raises ParameterError for integer
    even m, which is unrealizable (see pattern_det_gf2).
    """
    if not 1 <= n0 <= N0_MAX:
        raise ParameterError(f"n0 must lie in [1, N0_MAX = {N0_MAX}]")
    if sigma < n0:
        raise ParameterError("total weight below n0 cannot give row/column sums >= 1")
    q, r = divmod(sigma, n0)
    if r == 0 and q % 2 == 0:
        raise ParameterError(
            f"sigma={sigma} means integer even m={q}: every row of the mod-2 "
            "pattern has even parity, so no invertible Q exists")
    # q odd (always so at r = 0): diagonal q plus a strictly-upper band of r ones is
    # unitriangular mod 2, hence nonsingular, so the pattern needs no determinant check.
    if q % 2 == 1:
        w = [[q if i == j else 0 for j in range(n0)] for i in range(n0)]
        for i in range(r):  # r < n0, so the band never wraps
            w[i][i + 1] += 1
        return tuple(tuple(row) for row in w)
    # remaining cases: deterministic seeded search over near-regular patterns
    rng = SeedStream(b"\x00" * 32, f"weight-matrix/{n0}/{sigma}")
    row_sums = [q + 1 if i < r else q for i in range(n0)]
    for _ in range(1000):
        cols = [q + 1 if j < r else q for j in range(n0)]
        w = [[0] * n0 for _ in range(n0)]
        ok = True
        for i in range(n0):
            for _ in range(row_sums[i]):
                open_cols = [j for j in range(n0) if cols[j] > 0]
                if not open_cols:
                    ok = False
                    break
                j = open_cols[rng.below(len(open_cols))]
                w[i][j] += 1
                cols[j] -= 1
            if not ok:
                break
        if ok and all(cols[j] == 0 for j in range(n0)) and pattern_det_gf2(w):
            return tuple(tuple(row) for row in w)
    raise ParameterError(f"no invertible weight pattern found for sigma={sigma}")


@dataclass(frozen=True)
class SystemParams:
    """Cryptosystem parameters (n0, p, d_v, W, t) plus derived quantities."""

    n0: int
    p: int
    d_v: int
    W: tuple[tuple[int, ...], ...]
    t: int

    def __post_init__(self):
        if not 2 <= self.n0 <= N0_MAX:
            raise ParameterError(f"n0 must lie in [2, N0_MAX = {N0_MAX}]")
        object.__setattr__(self, "W", tuple(tuple(int(x) for x in row) for row in self.W))
        if self.p < 1:
            raise ParameterError("p must be positive")
        if not 1 <= self.d_v <= self.p:
            raise ParameterError("d_v must lie in [1, p]")
        if len(self.W) != self.n0 or any(len(row) != self.n0 for row in self.W):
            raise ParameterError("W must be an n0 x n0 grid")
        if any(not 0 <= x <= self.p for row in self.W for x in row):
            raise ParameterError("W entries must lie in [0, p]")
        for i in range(self.n0):
            if sum(self.W[i]) < 1 or sum(row[i] for row in self.W) < 1:
                raise ParameterError("every row and column sum of W must be >= 1")
        if not 0 <= self.t <= self.n:
            raise ParameterError("t out of range")

    @property
    def n(self) -> int:
        return self.n0 * self.p

    @property
    def k(self) -> int:
        return (self.n0 - 1) * self.p

    @property
    def r(self) -> int:
        return self.p

    @property
    def k0(self) -> int:
        return self.n0 - 1

    @property
    def d_c(self) -> int:
        return self.n0 * self.d_v

    @property
    def sigma_w(self) -> int:
        return sum(sum(row) for row in self.W)

    @property
    def m(self) -> Fraction:
        """Average row/column weight of the transformation matrix Q."""
        return Fraction(self.sigma_w, self.n0)

    @property
    def t_prime(self) -> int:
        """Errors the private decoder must correct: ceil(m * t)."""
        return math.ceil(self.m * self.t)

    @property
    def error_fraction(self) -> float:
        """Fraction max(t', 1)/n of errored bits the private decoder sees (SPA's p0)."""
        return max(self.t_prime, 1) / self.n

    @property
    def d_v_prime(self) -> Fraction:
        return self.m * self.d_v

    @classmethod
    def make(cls, n0: int, p: int, d_v: int, t: int,
             sigma_w: int | None = None) -> "SystemParams":
        """Convenience constructor; W is the weight_matrix of sigma_w (default n0, so m = 1)."""
        return cls(n0, p, d_v, weight_matrix(n0, n0 if sigma_w is None else sigma_w), t)


@dataclass(frozen=True)
class ParityCheck:
    """Private parity-check matrix: n0 circulant blocks of weight d_v each."""

    params: SystemParams
    blocks: tuple[SparseSupport, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.blocks) != self.params.n0:
            raise ParameterError("expected one block per block column")
        for blk in self.blocks:
            if blk.p != self.params.p:
                raise ParameterError("block modulus mismatch")
            if blk.weight != self.params.d_v:
                raise ParameterError("block weight must equal d_v")

    def block_polys(self) -> tuple[BitPolynomial, ...]:
        return tuple(blk.to_poly() for blk in self.blocks)

    def to_qc_matrix(self) -> QcMatrix:
        return QcMatrix((self.block_polys(),))


def _draw_support(p: int, d_v: int, rng: SeedStream) -> SparseSupport:
    return SparseSupport(p, rng.sample_distinct(p, d_v))


def sample_h_random(params: SystemParams, rng: SeedStream) -> ParityCheck:
    """Fully random design: each support uniform among weight-d_v subsets.

    The last block is redrawn until it is ring-invertible (needed for the
    systematic generator); DesignFailure after RESAMPLE_BUDGET attempts.
    """
    blocks = [_draw_support(params.p, params.d_v, rng) for _ in range(params.n0 - 1)]
    for _ in range(RESAMPLE_BUDGET):
        last = _draw_support(params.p, params.d_v, rng)
        if is_unit(last.to_poly()):
            return ParityCheck(params, tuple(blocks) + (last,))
    raise DesignFailure("no invertible last block within the resampling budget")


def cyclic_differences(p: int, support) -> list[int]:
    """All ordered differences (a - b) mod p, a != b, within one support."""
    return [(a - b) % p for a in support for b in support if a != b]


def _grow_difference_block(p: int, d_v: int, pool: set[int],
                           rng: SeedStream) -> SparseSupport | None:
    """One support grown element by element against the pooled difference set.

    Whole-block rejection is hopeless at practical densities (every fresh
    block would have to dodge hundreds of used differences at once), so each
    new index is tested individually before it joins the support.
    """
    support: list[int] = []
    local: set[int] = set()
    for _ in range(d_v):
        for _ in range(200):  # draws per index before the block is given up
            cand = rng.below(p)
            if cand in support:
                continue
            new_diffs = [d for j in support for d in ((cand - j) % p, (j - cand) % p)]
            if any(d in pool or d in local for d in new_diffs) \
                    or len(set(new_diffs)) != len(new_diffs):
                continue
            support.append(cand)
            local.update(new_diffs)
            break
        else:
            return None
    return SparseSupport(p, tuple(sorted(support)))


def sample_h_rdf(params: SystemParams, rng: SeedStream) -> ParityCheck:
    """Random-difference-family design: pooled cyclic differences all distinct.

    Guarantees girth >= 6 in the expanded Tanner graph.  Each block has a
    resampling budget; the final block must additionally be ring-invertible.
    """
    if params.n0 * params.d_v * (params.d_v - 1) >= params.p:
        raise ParameterError("n0*d_v*(d_v-1) must be < p for distinct differences")
    seen: set[int] = set()
    blocks: list[SparseSupport] = []
    for idx in range(params.n0):
        for _ in range(RESAMPLE_BUDGET):
            cand = _grow_difference_block(params.p, params.d_v, seen, rng)
            if cand is None:
                continue
            if idx == params.n0 - 1 and not is_unit(cand.to_poly()):
                continue
            seen.update(cyclic_differences(params.p, cand.support))
            blocks.append(cand)
            break
        else:
            raise DesignFailure(f"difference-family budget exhausted at block {idx}")
    return ParityCheck(params, tuple(blocks))


def systematic_form(column) -> QcMatrix:
    """The k0 x (k0 + 1) block matrix [I | P] whose last block column is column (P)."""
    eye = QcMatrix.identity(len(column), column[0].p)
    return QcMatrix([row + (blk,) for row, blk in zip(eye.blocks, column)])


def systematic_generator(h: ParityCheck) -> QcMatrix:
    """Systematic generator G = systematic_form(P) = [I | P] with P_i = (H_last^-1 * H_i)^T.

    G is (n0-1) x n0 blocks and satisfies G * H^T = 0.  Raises
    SingularMatrixError when the last block of H is not invertible.
    """
    polys = h.block_polys()
    try:
        last_inv = poly_inverse(polys[-1])
    except NotInvertibleError as exc:
        raise SingularMatrixError("last parity-check block is not invertible") from exc
    return systematic_form([poly_mul(last_inv, blk).transpose() for blk in polys[:-1]])
