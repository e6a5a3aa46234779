"""Arithmetic in R_p = GF(2)[x]/(x^p - 1) and on block matrices of circulants.

A p x p binary circulant is identified with the polynomial whose coefficients
form its first row; row s is the first row cyclically shifted right by s.
Under this identification, row-vector-times-circulant equals polynomial
multiplication, so all quasi-cyclic linear algebra reduces to ring operations.

A ring element is a bit-packed Python integer (BitPolynomial, bit i =
coefficient of x^i); SparseSupport keeps the sorted support of the low-weight
parity-check blocks, from which the decoder builds its rotation shifts.

Every product runs through one kernel, _product_bits, which returns the sum
of a * b over a list of pairs: poly_mul passes one pair, qc_mul one list per
output block.  A pair whose sparser operand has weight up to FFT_CROSSOVER
XORs that many cyclic shifts of the other operand (the sparse H/Q case,
about d_v shifts).  Every other pair adds the product of the two operands'
cyclic length-p real FFTs into the block's spectrum; one inverse transform
of length p, rounding and a reduction mod 2 close the block, so there is no
zero padding and no fold.  Spectra are cached per ring element (_spectrum,
the last 64, read-only), so a key's dense blocks are transformed once and
not on every product.  The rounding is exact: every bin of a block's integer
sum is a count of at most k p for k summed pairs, and the worst round-off
measured, for 8 all-ones pairs at the prime p = 32749, is 4.4e-10, far
below 1/2.  FFT_CROSSOVER = 256 lies between the weights at which the two
methods cost the same: about 150 at p = 4096 and 5120, 190 at p = 6272 and
above 256 from p = 16384 (x86-64, numpy 2.4: a dense product with a cold
cache takes about 0.13 ms at p = 4096, one shift about 0.9 us).

poly_inverse has no arithmetic of its own.  For p = 2^e r with r odd and
D = ord_r(2), every unit satisfies a^E = 1 with E = 2^e (2^D - 1), so
a^-1 = a^(E-1) = b_e Frob^(e+1)(b_(D-1)): the Itoh-Tsujii chain gives
b_k = a^(2^k - 1) in O(log k) poly_mul products and Frobenius maps
a(x) -> a(x^(2^j)), which move coefficient i to i 2^j mod p and cancel
collisions.  Even weight (a multiple of x + 1) is rejected before any
product, every other non-unit by one more product: a * a^(E-1) != 1.

Serialized form of a polynomial: ceil(p/8) bytes, little-endian bit order
(coefficient of x^i lives in bit i mod 8 of byte i // 8), rendered as
lowercase hex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotInvertibleError, ParameterError, SingularMatrixError

FFT_CROSSOVER = 256

__all__ = [
    "BitPolynomial",
    "SparseSupport",
    "QcMatrix",
    "poly_mul",
    "poly_inverse",
    "qc_mul",
    "qc_add",
    "qc_transpose",
    "qc_invert",
    "qc_is_invertible",
    "qc_vec_mul",
    "is_unit",
    "int_to_bits",
    "bits_to_int",
]


def int_to_bits(value: int, p: int) -> np.ndarray:
    """Bit-packed integer -> uint8 coefficient array of length p."""
    raw = np.frombuffer(value.to_bytes((p + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:p]


def bits_to_int(bits: np.ndarray) -> int:
    """uint8 coefficient array -> bit-packed integer."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8) & 1, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


@dataclass(frozen=True)
class BitPolynomial:
    """Element of GF(2)[x]/(x^p - 1), coefficients packed into an int."""

    p: int
    bits: int

    def __post_init__(self):
        if self.p < 1:
            raise ParameterError("p must be positive")
        if not 0 <= self.bits < (1 << self.p):
            raise ParameterError("coefficient mask out of range for modulus degree")

    @classmethod
    def zero(cls, p: int) -> "BitPolynomial":
        return cls(p, 0)

    @classmethod
    def one(cls, p: int) -> "BitPolynomial":
        return cls(p, 1)

    @classmethod
    def monomial(cls, p: int, k: int) -> "BitPolynomial":
        return cls(p, 1 << (k % p))

    @classmethod
    def from_support(cls, p: int, support) -> "BitPolynomial":
        bits = 0
        for i in support:
            bits |= 1 << (i % p)
        return cls(p, bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def coeffs(self) -> np.ndarray:
        return int_to_bits(self.bits, self.p)

    def support(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.coeffs()).tolist())

    def transpose(self) -> "BitPolynomial":
        """Polynomial of the transposed circulant: exponents negated mod p."""
        reversed_bits = int(format(self.bits, f"0{self.p}b")[::-1], 2)  # i -> p - 1 - i
        return BitPolynomial(self.p, _cyclic_shift(reversed_bits, 1, self.p))

    def to_dense(self) -> np.ndarray:
        """Full p x p circulant expansion (intended for small p)."""
        row = self.coeffs()
        idx = (np.arange(self.p)[None, :] - np.arange(self.p)[:, None]) % self.p
        return row[idx]

    def to_bytes(self) -> bytes:
        return self.bits.to_bytes((self.p + 7) // 8, "little")

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    @classmethod
    def from_hex(cls, p: int, text: str) -> "BitPolynomial":
        try:
            raw = bytes.fromhex(text.strip())
        except ValueError as exc:
            raise ParameterError(f"not a hex polynomial: {exc}") from exc
        if len(raw) != (p + 7) // 8:
            raise ParameterError(f"expected {(p + 7) // 8} bytes for p={p}, got {len(raw)}")
        value = int.from_bytes(raw, "little")
        if value >> p:
            raise ParameterError("stray bits beyond coefficient p-1")
        return cls(p, value)

    def __add__(self, other: "BitPolynomial") -> "BitPolynomial":
        if self.p != other.p:
            raise ParameterError("mismatched moduli")
        return BitPolynomial(self.p, self.bits ^ other.bits)

    def __mul__(self, other: "BitPolynomial") -> "BitPolynomial":
        return poly_mul(self, other)

    def __bool__(self) -> bool:
        return self.bits != 0


@dataclass(frozen=True)
class SparseSupport:
    """Low-weight ring element stored as its sorted support."""

    p: int
    support: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        if any(not 0 <= i < self.p for i in self.support):
            raise ParameterError("support index out of range")
        if any(a >= b for a, b in zip(self.support, self.support[1:])):
            raise ParameterError("support must be strictly increasing")

    @property
    def weight(self) -> int:
        return len(self.support)

    def to_poly(self) -> BitPolynomial:
        return BitPolynomial.from_support(self.p, self.support)

    @classmethod
    def from_poly(cls, poly: BitPolynomial) -> "SparseSupport":
        return cls(poly.p, poly.support())


def _cyclic_shift(bits: int, s: int, p: int) -> int:
    if s == 0:
        return bits
    mask = (1 << p) - 1
    return ((bits << s) | (bits >> (p - s))) & mask


@lru_cache(maxsize=64)
def _spectrum(a: BitPolynomial) -> np.ndarray:
    """Cyclic length-p real DFT of a's coefficients, cached per element and read-only."""
    spec = np.fft.rfft(a.coeffs(), a.p)
    spec.flags.writeable = False
    return spec


def _product_bits(pairs, p: int) -> int:
    """Bits of the sum of a * b over pairs: shift-xor sparse pairs, sum dense spectra."""
    acc, terms = 0, []
    for a, b in pairs:
        if a.weight > b.weight:
            a, b = b, a
        if a.weight > FFT_CROSSOVER:
            terms.append(_spectrum(a) * _spectrum(b))
        elif a:
            for s in a.support():
                acc ^= _cyclic_shift(b.bits, s, p)
    if terms:
        acc ^= bits_to_int(np.rint(np.fft.irfft(sum(terms), p)).astype(np.int64) & 1)
    return acc


def poly_mul(a: BitPolynomial, b: BitPolynomial) -> BitPolynomial:
    """Product in R_p: shift-xor over a sparse operand, else an exact cyclic FFT product."""
    if a.p != b.p:
        raise ParameterError("mismatched moduli")
    return BitPolynomial(a.p, _product_bits(((a, b),), a.p))


def _frobenius(a: BitPolynomial, k: int) -> BitPolynomial:
    """a^(2^k) = a(x^(2^k)): coefficient i moves to i * 2^k mod p, colliding ones cancel."""
    p = a.p
    moved = np.flatnonzero(a.coeffs()) * pow(2, k, p) % p
    return BitPolynomial(p, bits_to_int(np.bincount(moved, minlength=p) & 1))


def _itoh_tsujii(a: BitPolynomial, k: int) -> BitPolynomial:
    """b_k = a^(2^k - 1) by the chain b_2j = Frob^j(b_j) b_j, b_2j+1 = Frob(b_2j) a."""
    if k == 0:
        return BitPolynomial.one(a.p)
    b, j = a, 1
    for bit in bin(k)[3:]:
        b, j = poly_mul(_frobenius(b, j), b), 2 * j
        if bit == "1":
            b, j = poly_mul(_frobenius(b, 1), a), j + 1
    return b


def poly_inverse(a: BitPolynomial) -> BitPolynomial:
    """Inverse in R_p as a^(E - 1); NotInvertibleError unless gcd(a, x^p - 1) = 1."""
    if a.weight % 2 == 0:
        raise NotInvertibleError("gcd with x^p - 1 is nontrivial")
    p = a.p
    e = (p & -p).bit_length() - 1
    r = p >> e
    d, power = 1, 2 % r
    while power > 1:
        power, d = 2 * power % r, d + 1
    inv = poly_mul(_itoh_tsujii(a, e), _frobenius(_itoh_tsujii(a, d - 1), e + 1))
    if poly_mul(a, inv) != BitPolynomial.one(p):
        raise NotInvertibleError("gcd with x^p - 1 is nontrivial")
    return inv


def _fold_odd(a: BitPolynomial) -> BitPolynomial:
    """a mod x^q - 1 for q the odd part of p, halving the modulus while it is even."""
    bits, q = a.bits, a.p
    while q % 2 == 0:
        q //= 2
        bits = (bits >> q) ^ (bits & ((1 << q) - 1))
    return BitPolynomial(q, bits)


def is_unit(a: BitPolynomial) -> bool:
    """Whether a is a unit of R_p, by Euclid on q-bit ints (p = 2^e q, q odd).

    x^p - 1 = (x^q - 1)^(2^e), so a is a unit iff gcd(a mod (x^q - 1), x^q - 1) = 1.
    """
    a = _fold_odd(a)
    r, b = a.bits, (1 << a.p) | 1
    while r:
        while (shift := b.bit_length() - r.bit_length()) >= 0:
            b ^= r << shift
        r, b = b, r
    return b == 1


@dataclass(frozen=True)
class QcMatrix:
    """Grid of circulant blocks, all sharing the same modulus degree p."""

    rows0: int
    cols0: int
    p: int
    blocks: tuple[tuple[BitPolynomial, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(row) for row in self.blocks))
        if len(self.blocks) != self.rows0 or any(len(r) != self.cols0 for r in self.blocks):
            raise ParameterError("block grid shape mismatch")
        if any(blk.p != self.p for row in self.blocks for blk in row):
            raise ParameterError("all blocks must share the same p")

    @classmethod
    def from_blocks(cls, blocks) -> "QcMatrix":
        blocks = tuple(tuple(row) for row in blocks)
        return cls(len(blocks), len(blocks[0]), blocks[0][0].p, blocks)

    @classmethod
    def identity(cls, n: int, p: int) -> "QcMatrix":
        one, zero = BitPolynomial.one(p), BitPolynomial.zero(p)
        return cls(n, n, p, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    @property
    def total_weight(self) -> int:
        return sum(blk.weight for row in self.blocks for blk in row)

    def expand(self) -> np.ndarray:
        """Dense (rows0*p) x (cols0*p) binary matrix (intended for small p)."""
        out = np.zeros((self.rows0 * self.p, self.cols0 * self.p), dtype=np.uint8)
        for i in range(self.rows0):
            for j in range(self.cols0):
                out[i * self.p:(i + 1) * self.p, j * self.p:(j + 1) * self.p] = \
                    self.blocks[i][j].to_dense()
        return out

    def __add__(self, other: "QcMatrix") -> "QcMatrix":
        return qc_add(self, other)

    def __mul__(self, other: "QcMatrix") -> "QcMatrix":
        return qc_mul(self, other)


def qc_add(a: QcMatrix, b: QcMatrix) -> QcMatrix:
    if (a.rows0, a.cols0, a.p) != (b.rows0, b.cols0, b.p):
        raise ParameterError("shape mismatch")
    return QcMatrix(a.rows0, a.cols0, a.p, tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.blocks, b.blocks)
    ))


def qc_mul(a: QcMatrix, b: QcMatrix) -> QcMatrix:
    """Block matrix product over R_p; equals the dense GF(2) product of expansions."""
    if a.cols0 != b.rows0 or a.p != b.p:
        raise ParameterError("shape mismatch")
    cols = tuple(zip(*b.blocks))
    return QcMatrix(a.rows0, b.cols0, a.p, tuple(
        tuple(BitPolynomial(a.p, _product_bits(zip(row, col), a.p)) for col in cols)
        for row in a.blocks
    ))


def qc_transpose(a: QcMatrix) -> QcMatrix:
    return QcMatrix(a.cols0, a.rows0, a.p, tuple(
        tuple(a.blocks[i][j].transpose() for i in range(a.rows0)) for j in range(a.cols0)
    ))


def qc_invert(a: QcMatrix) -> QcMatrix:
    """Inverse by block Gauss-Jordan elimination, pivoting on ring-invertible blocks.

    May reject some invertible matrices: if at some elimination step no
    remaining block in the pivot column is invertible in R_p, the matrix is
    reported singular and the caller is expected to resample.  Any returned
    inverse is exact.  Callers that only test invertibility use qc_is_invertible.
    """
    if a.rows0 != a.cols0:
        raise ParameterError("only square block matrices can be inverted")
    n, p = a.rows0, a.p
    work = [list(row) for row in a.blocks]
    aug = [list(row) for row in QcMatrix.identity(n, p).blocks]
    for col in range(n):
        pivot_row, pivot_inv = None, None
        for r in range(col, n):
            try:
                pivot_inv = poly_inverse(work[r][col])
                pivot_row = r
                break
            except NotInvertibleError:
                continue
        if pivot_row is None:
            raise SingularMatrixError(f"no invertible pivot in block column {col}")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        work[col] = [poly_mul(pivot_inv, blk) for blk in work[col]]
        aug[col] = [poly_mul(pivot_inv, blk) for blk in aug[col]]
        for r in range(n):
            factor = work[r][col]
            if r == col or not factor:
                continue
            work[r] = [x + poly_mul(factor, y) for x, y in zip(work[r], work[col])]
            aug[r] = [x + poly_mul(factor, y) for x, y in zip(aug[r], aug[col])]
    return QcMatrix(n, n, p, tuple(tuple(row) for row in aug))


def qc_is_invertible(a: QcMatrix) -> bool:
    """Whether a square block matrix is invertible over R_p: its determinant is a unit.

    Reduction mod x^q - 1 is a ring map, so the determinant is taken over R_q by
    Laplace expansion, minors memoized on their column sets (n 2^(n-1) products
    at most, zero blocks skipped); at p = 2^e it is that of the weight parities.
    """
    if a.rows0 != a.cols0:
        raise ParameterError("only square block matrices have a determinant")
    n, q = a.rows0, a.p >> ((a.p & -a.p).bit_length() - 1)
    folded = [[_fold_odd(blk) for blk in row] for row in a.blocks]

    @lru_cache(maxsize=None)
    def minor(cols: int) -> BitPolynomial:
        """Determinant of the last popcount(cols) rows on the block columns in cols."""
        if not cols:
            return BitPolynomial.one(q)
        row = folded[n - cols.bit_count()]
        pairs = ((row[j], minor(cols & ~(1 << j))) for j in range(n) if cols >> j & 1 and row[j])
        return BitPolynomial(q, _product_bits(pairs, q))
    return is_unit(minor((1 << n) - 1))


def qc_vec_mul(v: np.ndarray, a: QcMatrix) -> np.ndarray:
    """Row vector times expanded matrix: the one-block-row product qc_mul(v, a)."""
    v = np.asarray(v, dtype=np.uint8)
    if v.shape != (a.rows0 * a.p,):
        raise ParameterError(f"vector length must be {a.rows0 * a.p}")
    row = [BitPolynomial(a.p, bits_to_int(v[i * a.p:(i + 1) * a.p])) for i in range(a.rows0)]
    product = qc_mul(QcMatrix(1, a.rows0, a.p, (row,)), a)
    return np.concatenate([blk.coeffs() for blk in product.blocks[0]])
