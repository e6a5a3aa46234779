"""Ring arithmetic against dense GF(2) matrix oracles and frozen examples."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import qcmc
import qcmc.gf2
from oracles import (blockwise_qc_mul, circulant_dense, elimination_invert, euclid_inverse,
                     gf2_inv, gf2_matmul, gf2_rank, linear_fft_poly_mul, poly_divides,
                     poly_mul_shift_xor, support_bit_loop)
from qcmc.design import SystemParams, pattern_det_gf2
from qcmc.errors import NotInvertibleError, ParameterError, SingularMatrixError
from qcmc.gf2 import (FFT_CROSSOVER, BitPolynomial, QcMatrix, SparseSupport, bits_to_int,
                      int_to_bits, is_unit, poly_inverse, poly_mul, qc_add, qc_invert,
                      qc_is_invertible, qc_mul, qc_transpose, qc_vec_mul)
from qcmc.optimize import DEFAULT_P_GRID
from qcmc.prng import SeedStream

# Tiny moduli, the prime p = 257 (a cyclic transform of prime length), both
# parities around the 100-bit point's p = 4096, a p that is not a power of
# two, and the largest p the optimizer searches.
ORACLE_P = (1, 2, 3, 7, 257, 4095, 4096, 6272, max(DEFAULT_P_GRID))


def random_poly(p, rng, weight=None):
    if weight is None:
        return BitPolynomial(p, rng.take_bits(p))
    return BitPolynomial.from_support(p, rng.sample_distinct(p, weight))


def dense_poly(p, rng):
    """Random element of weight above FFT_CROSSOVER (p > FFT_CROSSOVER)."""
    return BitPolynomial(p, rng.take_bits(p) | random_poly(p, rng, FFT_CROSSOVER + 1).bits)


def random_qc(rows0, cols0, p, rng):
    return QcMatrix([[random_poly(p, rng) for _ in range(cols0)] for _ in range(rows0)])


class TestPolyMul:
    def test_identity(self):
        rng = SeedStream(0, "mul-id")
        for p in (5, 7, 16, 31):
            a = random_poly(p, rng)
            assert poly_mul(a, BitPolynomial.one(p)) == a

    def test_monomial_wraps(self):
        # x^6 * x = x^7 = 1 in R_7
        assert poly_mul(BitPolynomial(7, 1 << 6), BitPolynomial(7, 1 << 1)) \
            == BitPolynomial.one(7)

    def test_worked_product(self):
        # (1+x)(1+x+x^3) = 1+x^2+x^3+x^4 mod x^7-1, cross-checked densely
        a = BitPolynomial.from_support(7, [0, 1])
        b = BitPolynomial.from_support(7, [0, 1, 3])
        out = poly_mul(a, b)
        assert out.support() == (0, 2, 3, 4)
        dense = gf2_matmul(circulant_dense(a.coeffs()), circulant_dense(b.coeffs()))
        assert np.array_equal(dense, circulant_dense(out.coeffs()))

    def test_commutative_and_weight_bound(self):
        rng = SeedStream(1, "mul-comm")
        for _ in range(50):
            p = 8 + rng.below(25)
            a = random_poly(p, rng, weight=min(p, 1 + rng.below(6)))
            b = random_poly(p, rng, weight=min(p, 1 + rng.below(6)))
            ab = poly_mul(a, b)
            assert ab == poly_mul(b, a)
            assert ab.weight <= a.weight * b.weight

    def test_matches_dense_oracle(self):
        rng = SeedStream(2, "mul-dense")
        for _ in range(100):
            p = 2 + rng.below(31)
            a, b = random_poly(p, rng), random_poly(p, rng)
            dense = gf2_matmul(circulant_dense(a.coeffs()), circulant_dense(b.coeffs()))
            assert np.array_equal(dense, circulant_dense(poly_mul(a, b).coeffs()))

    def test_mismatched_p(self):
        with pytest.raises(ParameterError):
            poly_mul(BitPolynomial.one(7), BitPolynomial.one(8))


class TestProductOracle:
    """poly_mul and support() equal the shift-xor product and the bit loop."""

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_dense_by_dense(self, p):
        rng = SeedStream(19, f"oracle-dense-{p}")
        full = BitPolynomial(p, (1 << p) - 1)  # largest counts: p terms per bin
        pairs = [(full, full)] + [(random_poly(p, rng), random_poly(p, rng))
                                  for _ in range(3)]
        for a, b in pairs:
            assert poly_mul(a, b) == poly_mul_shift_xor(a, b)

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_sparse_by_dense_around_crossover(self, p):
        rng = SeedStream(20, f"oracle-cross-{p}")
        for w in (FFT_CROSSOVER - 1, FFT_CROSSOVER, FFT_CROSSOVER + 1):
            sparse = random_poly(p, rng, weight=min(w, p))
            dense = random_poly(p, rng)
            assert sparse.weight == min(w, p)
            assert poly_mul(sparse, dense) == poly_mul_shift_xor(sparse, dense)
            assert poly_mul(dense, sparse) == poly_mul_shift_xor(dense, sparse)

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_support_matches_bit_loop(self, p):
        rng = SeedStream(21, f"oracle-support-{p}")
        polys = [BitPolynomial.zero(p), BitPolynomial.one(p),
                 BitPolynomial(p, (1 << p) - 1), BitPolynomial(p, 1 << (p - 1)),
                 random_poly(p, rng), random_poly(p, rng, weight=min(p, 15))]
        for poly in polys:
            support = poly.support()
            assert support == support_bit_loop(poly)
            assert all(type(i) is int for i in support)

    def test_fft_rounding_margin_at_largest_p(self):
        p = max(DEFAULT_P_GRID)
        size = p  # poly_mul's transforms are cyclic, of length p
        rng = SeedStream(22, "oracle-rounding")
        ones = np.ones(p, dtype=np.uint8)
        pairs = [(ones, ones)] + [(int_to_bits(rng.take_bits(p), p),
                                   int_to_bits(rng.take_bits(p), p)) for _ in range(2)]
        for a, b in pairs:
            raw = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)
            assert np.abs(raw - np.rint(raw)).max() < 0.25


class TestSpectralKernel:
    """Summed cyclic spectra equal the folded linear FFT and the per-block sum."""

    @pytest.mark.parametrize("p", sorted({257, 457, 8191, *DEFAULT_P_GRID}))
    def test_poly_mul_equals_linear_fft(self, p):
        rng = SeedStream(25, f"spectral-{p}")
        full = BitPolynomial(p, (1 << p) - 1)
        pairs = [(full, full), (full, dense_poly(p, rng)), (dense_poly(p, rng), dense_poly(p, rng)),
                 (random_poly(p, rng, weight=FFT_CROSSOVER + 1), dense_poly(p, rng))]
        for a, b in pairs:
            assert poly_mul(a, b) == linear_fft_poly_mul(a, b)

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("p", (32749, max(DEFAULT_P_GRID)))
    def test_summed_all_ones_pairs(self, p, k):
        # k all-ones pairs put k p in every bin, the largest counts a block sums;
        # the dense pair last keeps the product from being 0 or all-ones
        rng = SeedStream(26, f"spectral-sum-{p}-{k}")
        full = BitPolynomial(p, (1 << p) - 1)
        a = QcMatrix([[full] * k + [dense_poly(p, rng)]])
        b = QcMatrix([[full]] * k + [[dense_poly(p, rng)]])
        assert qc_mul(a, b) == blockwise_qc_mul(a, b)

    def test_mixed_output_block(self):
        # per output block: sparse x dense, dense x dense, zero x dense,
        # dense x zero, dense x sparse and, last, dense x dense again
        p = 457
        rng = SeedStream(27, "spectral-mixed")
        zero = BitPolynomial.zero(p)

        def dense():
            return dense_poly(p, rng)

        a = QcMatrix([[random_poly(p, rng, 15), dense(), zero, dense(), dense(), dense()]])
        b = QcMatrix([[dense(), dense()], [dense(), zero], [dense(), dense()],
                      [zero, dense()], [random_poly(p, rng, 3), dense()],
                      [dense(), dense()]])
        product = qc_mul(a, b)
        assert product == blockwise_qc_mul(a, b)
        for j in range(2):
            acc = BitPolynomial.zero(p)
            for k in range(6):
                acc = acc + poly_mul_shift_xor(a.blocks[0][k], b.blocks[k][j])
            assert product.blocks[0][j] == acc

    def test_cold_cache_equals_warm(self):
        rng = SeedStream(28, "spectral-cache")
        a, b = random_qc(1, 3, 4096, rng), random_qc(3, 4, 4096, rng)
        qcmc.gf2._spectrum.cache_clear()
        cold = qc_mul(a, b)
        before = qcmc.gf2._spectrum.cache_info()
        warm = qc_mul(a, b)
        after = qcmc.gf2._spectrum.cache_info()
        assert cold == warm == blockwise_qc_mul(a, b)
        assert after.misses == before.misses and after.hits == before.hits + 24

    def test_spectrum_is_read_only(self):
        spectrum = qcmc.gf2._spectrum(BitPolynomial(457, (1 << 457) - 1))
        with pytest.raises(ValueError):
            spectrum[0] = 0
        with pytest.raises(ValueError):
            spectrum += 1


def test_import_does_not_load_scipy_signal(fresh_python):
    code = "import sys, qcmc; print(qcmc.__file__); print('scipy.signal' in sys.modules)"
    loaded_from, signal_loaded = fresh_python(code)
    assert Path(loaded_from).resolve() == Path(qcmc.__file__).resolve()
    assert signal_loaded == "False"


class TestPolyInverse:
    def test_one(self):
        assert poly_inverse(BitPolynomial.one(9)) == BitPolynomial.one(9)

    def test_monomial(self):
        assert poly_inverse(BitPolynomial(7, 1 << 3)) == BitPolynomial(7, 1 << 4)

    def test_known_divisor_fails(self):
        # 1+x+x^3 divides x^7-1: verified by trial division, must be rejected
        a = BitPolynomial.from_support(7, [0, 1, 3])
        assert poly_divides(a.bits, (1 << 7) | 1)
        with pytest.raises(NotInvertibleError):
            poly_inverse(a)

    def test_even_weight_never_invertible(self):
        rng = SeedStream(3, "inv-even")
        for _ in range(30):
            p = 3 + rng.below(30)
            w = 2 * (1 + rng.below(max(p // 2, 1)))
            if w > p:
                continue
            with pytest.raises(NotInvertibleError):
                poly_inverse(random_poly(p, rng, weight=w))

    def test_even_weight_rejected_before_euclid(self, monkeypatch):
        def no_euclid(*args):
            raise AssertionError("a product ran on an even-weight operand")
        monkeypatch.setattr(qcmc.gf2, "poly_mul", no_euclid)
        rng = SeedStream(23, "inv-even-early")
        for poly in (BitPolynomial.zero(4096), random_poly(4096, rng, weight=2 * 1024)):
            with pytest.raises(NotInvertibleError, match="gcd with x\\^p - 1 is nontrivial"):
                poly_inverse(poly)

    def test_exact_inverse_or_singular_dense(self):
        rng = SeedStream(4, "inv-oracle")
        inverted = failed = 0
        for _ in range(120):
            p = 2 + rng.below(31)
            a = random_poly(p, rng)
            try:
                inv = poly_inverse(a)
            except NotInvertibleError:
                assert gf2_rank(circulant_dense(a.coeffs())) < p
                failed += 1
                continue
            assert poly_mul(a, inv) == BitPolynomial.one(p)
            assert gf2_rank(circulant_dense(a.coeffs())) == p
            inverted += 1
        assert inverted > 10 and failed > 10


class TestInverseOracle:
    """poly_inverse by exponentiation equals the extended Euclidean algorithm."""

    @staticmethod
    def outcome(inverse, a):
        try:
            return inverse(a)
        except NotInvertibleError as exc:
            return str(exc)

    @pytest.mark.parametrize("p", sorted({1, 2, 3, 7, 257, 6272, *DEFAULT_P_GRID}))
    def test_equals_euclid(self, p):
        rng = SeedStream(24, f"inv-euclid-{p}")
        for a in (random_poly(p, rng), random_poly(p, rng, weight=min(p, 15))):
            assert self.outcome(poly_inverse, a) == self.outcome(euclid_inverse, a)
        for factor, order in (((0, 1, 2), 3), ((0, 1, 3), 7)):
            if p % order == 0:  # factor divides x^order - 1, hence x^p - 1
                c = random_poly(p, rng, weight=2 * rng.below(max(p // 4, 1)) + 1)
                a = poly_mul(BitPolynomial.from_support(p, factor), c)
                assert a.weight % 2 == 1  # gets past the even-weight reject
                assert self.outcome(poly_inverse, a) == self.outcome(euclid_inverse, a) \
                    == "gcd with x^p - 1 is nontrivial"

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_is_unit_equals_euclid(self, p):
        rng = SeedStream(27, f"is-unit-{p}")
        draws = [random_poly(p, rng) for _ in range(6)] + [BitPolynomial(p, 1 << rng.below(p))]
        draws += [random_poly(p, rng, weight=2 * rng.below(p // 2 + 1)) for _ in range(2)]
        outcomes = [is_unit(a) for a in draws]
        assert outcomes == [not isinstance(self.outcome(euclid_inverse, a), str) for a in draws]
        assert outcomes[-3] and not any(outcomes[-2:])  # a monomial is a unit, even weight never


class TestQcIsInvertible:
    """qc_is_invertible against the full GF(2) rank of the expanded matrix."""

    @staticmethod
    def mixed_qc(n, p, rng):
        """Zero, weight-1 or 3 and uniform blocks, so that units and non-units mix."""
        def block():
            kind = rng.below(4)
            if kind == 0:
                return BitPolynomial.zero(p)
            return random_poly(p, rng, 1 + 2 * rng.below(2) if kind == 1 else None)
        return QcMatrix([[block() for _ in range(n)] for _ in range(n)])

    def test_agrees_with_dense_rank(self):
        rng = SeedStream(22, "qc-det-oracle")
        seen = {True: 0, False: 0}
        pivot_rejected = 0  # invertible, but elimination finds no unit pivot
        for p, n, trials in ((7, 2, 40), (7, 3, 20), (16, 2, 30), (16, 3, 20),
                             (21, 2, 60), (21, 3, 40), (105, 2, 12), (105, 3, 6)):
            for _ in range(trials):
                a = self.mixed_qc(n, p, rng)
                invertible = gf2_rank(a.expand()) == n * p
                assert qc_is_invertible(a) == invertible, (p, a)
                seen[invertible] += 1
                if not invertible:
                    with pytest.raises(SingularMatrixError):
                        qc_invert(a)
                    continue
                assert np.array_equal(qc_invert(a).expand(), gf2_inv(a.expand())), (p, a)
                try:
                    elimination_invert(a)
                except SingularMatrixError:
                    pivot_rejected += 1
        assert min(seen.values()) >= 40 and pivot_rejected >= 3, (seen, pivot_rejected)

    def test_dense_blocks_at_odd_p(self):
        # q = p = 257 > FFT_CROSSOVER: the minors are products of spectra
        rng = SeedStream(23, "qc-det-dense")
        a, b, c = (dense_poly(257, rng) for _ in range(3))
        singular = QcMatrix([[a, b], [poly_mul(c, a), poly_mul(c, b)]])
        for m in (singular, QcMatrix([[a, b], [c, dense_poly(257, rng)]]),
                  random_qc(2, 2, 257, rng)):
            assert qc_is_invertible(m) == (gf2_rank(m.expand()) == 2 * 257)
        assert not qc_is_invertible(singular)

    def test_power_of_two_p_is_the_parity_determinant(self):
        rng = SeedStream(24, "qc-det-parity")
        for _ in range(50):
            a = self.mixed_qc(3, 4096, rng)
            parity = [[blk.weight & 1 for blk in row] for row in a.blocks]
            assert qc_is_invertible(a) == bool(pattern_det_gf2(parity))

    def test_edges(self):
        assert qc_is_invertible(QcMatrix.identity(8, 4801))
        assert not qc_is_invertible(QcMatrix([[BitPolynomial.zero(7)]]))
        with pytest.raises(ParameterError):
            qc_is_invertible(random_qc(2, 3, 8, SeedStream(25, "qc-det-shape")))


class TestBlockInverseOracle:
    """qc_invert against block Gauss-Jordan elimination on keygen-shaped matrices."""

    @pytest.mark.parametrize("p", [4096, 4801, 6272])
    def test_agrees_with_elimination(self, p):
        # dense 3 x 3 S, whose minors are products of spectra, and sparse 4 x 4 Q
        # with the (4, 15, 40, sigma_w = 15) weight pattern, drawn until two of
        # each are invertible
        rng = SeedStream(26, f"qc-inv-oracle-{p}")
        weights = SystemParams.make(4, p, 15, 40, sigma_w=15).W
        shapes = (lambda: random_qc(3, 3, p, rng),
                  lambda: QcMatrix([[random_poly(p, rng, w) for w in row] for row in weights]))
        agreed = 0
        for draw in shapes:
            inverted = 0
            for _ in range(30):
                a = draw()
                if not qc_is_invertible(a):
                    with pytest.raises(SingularMatrixError):
                        qc_invert(a)
                    continue
                inv = qc_invert(a)
                assert qc_mul(a, inv) == QcMatrix.identity(a.rows0, p)
                try:
                    assert inv == elimination_invert(a)
                    agreed += 1
                except SingularMatrixError:
                    pass
                if (inverted := inverted + 1) == 2:
                    break
            assert inverted == 2
        assert agreed >= 3, agreed


class TestSerialization:
    def test_bit_order(self):
        # coefficient of x^i sits in bit i mod 8 of byte i // 8
        poly = BitPolynomial.from_support(16, [0, 9])
        assert poly.to_bytes() == b"\x01\x02"
        assert poly.to_hex() == "0102"
        assert BitPolynomial.from_hex(16, "0102") == poly

    def test_roundtrip(self):
        rng = SeedStream(5, "hex")
        for _ in range(40):
            p = 1 + rng.below(200)
            a = random_poly(p, rng)
            assert BitPolynomial.from_hex(p, a.to_hex()) == a

    def test_stray_bits_rejected(self):
        with pytest.raises(ParameterError):
            BitPolynomial.from_hex(4, "ff")
        with pytest.raises(ParameterError):
            BitPolynomial.from_hex(16, "01")

    def test_array_packing(self):
        rng = SeedStream(6, "pack")
        for _ in range(20):
            p = 1 + rng.below(100)
            bits = rng.take_bits(p)
            assert bits_to_int(int_to_bits(bits, p)) == bits


class TestSparseSupport:
    def test_bijection(self):
        rng = SeedStream(7, "sparse")
        for _ in range(30):
            p = 5 + rng.below(60)
            poly = random_poly(p, rng, weight=min(p, 4))
            sup = SparseSupport.from_poly(poly)
            assert sup.to_poly() == poly
            assert sup.weight == poly.weight

    def test_validation(self):
        with pytest.raises(ParameterError):
            SparseSupport(8, (3, 3))
        with pytest.raises(ParameterError):
            SparseSupport(8, (5, 2))
        with pytest.raises(ParameterError):
            SparseSupport(8, (8,))


class TestQcOps:
    def test_shape_is_the_grids(self):
        a, b = BitPolynomial.one(5), BitPolynomial.one(7)
        m = QcMatrix([[a, a, a], [a, a, a]])
        assert (m.rows0, m.cols0, m.p) == (2, 3, 5)
        assert [field.name for field in dataclasses.fields(QcMatrix)] == ["blocks"]
        for blocks in ([], [[]], [[], []], [[a], []], [[a, a], [a]]):
            with pytest.raises(ParameterError, match="block grid shape mismatch"):
                QcMatrix(blocks)
        for blocks in ([[a, b]], [[a], [b]]):
            with pytest.raises(ParameterError, match="all blocks must share the same p"):
                QcMatrix(blocks)

    def test_mul_identity(self):
        rng = SeedStream(8, "qc-id")
        a = random_qc(2, 3, 16, rng)
        assert qc_mul(a, QcMatrix.identity(3, 16)) == a
        assert qc_mul(QcMatrix.identity(2, 16), a) == a

    def test_1x1_reduces_to_poly_mul(self):
        rng = SeedStream(9, "qc-1x1")
        a, b = random_poly(13, rng), random_poly(13, rng)
        prod = qc_mul(QcMatrix([[a]]), QcMatrix([[b]]))
        assert prod.blocks[0][0] == poly_mul(a, b)

    def test_mul_matches_dense(self):
        rng = SeedStream(10, "qc-dense")
        for _ in range(40):
            p = 2 + rng.below(15)
            a, b = random_qc(2, 2, p, rng), random_qc(2, 2, p, rng)
            assert np.array_equal(qc_mul(a, b).expand(),
                                  gf2_matmul(a.expand(), b.expand()))

    def test_mul_shape_mismatch(self):
        rng = SeedStream(11, "qc-shape")
        with pytest.raises(ParameterError):
            qc_mul(random_qc(2, 3, 8, rng), random_qc(2, 2, 8, rng))

    def test_transpose_involution_and_dense(self):
        rng = SeedStream(12, "qc-trans")
        for _ in range(30):
            p = 2 + rng.below(15)
            a = random_qc(2, 3, p, rng)
            assert qc_transpose(qc_transpose(a)) == a
            assert np.array_equal(qc_transpose(a).expand(), a.expand().T)

    def test_transpose_examples(self):
        one = BitPolynomial.one(5)
        assert one.transpose() == one
        a = BitPolynomial.from_support(5, [1, 3])
        assert a.transpose().support() == (2, 4)

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 64, 4096, 4801])
    def test_transpose_matches_negated_support(self, p):
        rng = SeedStream(21, f"poly-trans-{p}")
        polys = [BitPolynomial.zero(p), BitPolynomial.one(p), BitPolynomial(p, (1 << p) - 1)]
        polys += [random_poly(p, rng) for _ in range(5)]
        polys += [random_poly(p, rng, min(w, p)) for w in (1, 2, 15)]
        for a in polys:
            assert a.transpose() == BitPolynomial.from_support(
                p, [(-i) % p for i in a.support()])

    def test_invert_identity_and_1x1(self):
        assert qc_invert(QcMatrix.identity(3, 8)) == QcMatrix.identity(3, 8)
        a = BitPolynomial.from_support(9, [0, 1, 3])
        inv = qc_invert(QcMatrix([[a]]))
        assert inv.blocks[0][0] == poly_inverse(a)

    def test_invert_random_3x3(self):
        rng = SeedStream(13, "qc-inv")
        done = 0
        while done < 10:
            a = random_qc(3, 3, 8, rng)
            try:
                inv = qc_invert(a)
            except SingularMatrixError:
                continue
            assert qc_mul(a, inv) == QcMatrix.identity(3, 8)
            dense_inv = gf2_inv(a.expand())
            assert dense_inv is not None
            assert np.array_equal(inv.expand(), dense_inv)
            done += 1

    def test_invert_requires_square(self):
        rng = SeedStream(14, "qc-sq")
        with pytest.raises(ParameterError):
            qc_invert(random_qc(2, 3, 8, rng))

    def test_invert_rejects_invertible_without_unit_pivot(self):
        # (1 + x) and (1 + x + x^2) both divide x^p - 1 when 3 | p, so no block
        # of column 0 is a unit, yet the determinant (1 + x) + (1 + x + x^2) = x^2 is:
        # elimination rejects the matrix, the adjugate inverts it
        for p in (21, 105):
            a = QcMatrix([
                [BitPolynomial.from_support(p, [0, 1]), BitPolynomial.one(p)],
                [BitPolynomial.from_support(p, [0, 1, 2]), BitPolynomial.one(p)],
            ])
            assert gf2_rank(a.expand()) == 2 * p
            assert qc_is_invertible(a)
            assert np.array_equal(qc_invert(a).expand(), gf2_inv(a.expand()))
            with pytest.raises(SingularMatrixError):
                elimination_invert(a)

    def test_vec_mul_trivial_and_dense(self):
        rng = SeedStream(15, "qc-vec")
        a = random_qc(2, 3, 8, rng)
        zero = np.zeros(16, dtype=np.uint8)
        assert not qc_vec_mul(zero, a).any()
        ident = QcMatrix.identity(2, 8)
        v = int_to_bits(rng.take_bits(16), 16)
        assert np.array_equal(qc_vec_mul(v, ident), v)
        for _ in range(40):
            p = 2 + rng.below(15)
            m = random_qc(2, 3, p, rng)
            v = int_to_bits(rng.take_bits(2 * p), 2 * p)
            assert np.array_equal(qc_vec_mul(v, m),
                                  gf2_matmul(v[None, :], m.expand())[0])

    def test_vec_mul_length_check(self):
        rng = SeedStream(16, "qc-vlen")
        with pytest.raises(ParameterError):
            qc_vec_mul(np.zeros(9, dtype=np.uint8), random_qc(2, 2, 8, rng))

    @pytest.mark.parametrize("p", [300, 457, 600])
    def test_vec_mul_fft_branch_matches_dense(self, p):
        # Chunks and blocks of weight above FFT_CROSSOVER take poly_mul's FFT
        # branch, as c S and the re-encoding in decrypt do; a weight-3 block
        # takes the shift-xor branch, and a zero block and a zero chunk are skipped.
        rng = SeedStream(19, f"qc-vec-fft-{p}")

        def dense():
            return random_poly(p, rng, FFT_CROSSOVER + 1 + rng.below(p - FFT_CROSSOVER - 1))

        a = QcMatrix([
            [dense(), BitPolynomial.zero(p), dense()],
            [dense(), dense(), random_poly(p, rng, 3)],
            [dense(), dense(), dense()],
        ])
        v = np.concatenate([dense().coeffs(), dense().coeffs(), np.zeros(p, dtype=np.uint8)])
        assert min(int(v[:p].sum()), int(v[p:2 * p].sum())) > FFT_CROSSOVER
        assert np.array_equal(qc_vec_mul(v, a), gf2_matmul(v[None, :], a.expand())[0])

    def test_expansion_weight_bookkeeping(self):
        rng = SeedStream(17, "qc-weight")
        for _ in range(20):
            p = 2 + rng.below(20)
            a = random_qc(2, 2, p, rng)
            assert a.expand().sum() == p * a.total_weight

    def test_associative_distributive(self):
        rng = SeedStream(18, "qc-assoc")
        for _ in range(15):
            p = 2 + rng.below(10)
            a, b, c = (random_qc(2, 2, p, rng) for _ in range(3))
            assert qc_mul(qc_mul(a, b), c) == qc_mul(a, qc_mul(b, c))
            assert qc_mul(a, qc_add(b, c)) == qc_add(qc_mul(a, b), qc_mul(a, c))
