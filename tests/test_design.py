"""Parity-check sampling, difference families, generator construction."""

import hashlib

import numpy as np
import pytest

from oracles import gf2_matmul, has_distinct_differences
from qcmc.design import (ParityCheck, SystemParams, cyclic_differences, pattern_det_gf2,
                         realizable_sigma, sample_h_random, sample_h_rdf, systematic_form,
                         systematic_generator, weight_matrix)
from qcmc.errors import DesignFailure, NotInvertibleError, ParameterError, SingularMatrixError
from qcmc.gf2 import (BitPolynomial, QcMatrix, SparseSupport, is_unit, poly_inverse, poly_mul,
                      qc_transpose)
from qcmc.prng import SeedStream


class TestSystemParams:
    def test_derived_quantities(self):
        params = SystemParams.make(4, 4096, 13, 40, sigma_w=15)
        assert params.n == 16384 and params.k == 12288 and params.r == 4096
        assert params.k0 == 3 and params.d_c == 52
        assert float(params.m) == 3.75
        assert params.t_prime == 150
        assert float(params.d_v_prime) == 48.75
        assert float(params.n0 * params.d_v_prime) == 195.0

    def test_w_validation(self):
        with pytest.raises(ParameterError):
            SystemParams(2, 8, 3, ((1, 0), (1, 0)), 1)  # zero column sum
        with pytest.raises(ParameterError):
            SystemParams(2, 8, 3, ((1, -1), (0, 1)), 1)
        with pytest.raises(ParameterError):
            SystemParams(2, 8, 9, ((1, 0), (0, 1)), 1)  # d_v > p

    def test_w_entry_above_p_rejected(self):
        SystemParams(2, 2, 1, ((2, 0), (0, 1)), 1)
        with pytest.raises(ParameterError):
            SystemParams(2, 2, 1, ((3, 0), (0, 1)), 1)  # a weight-3 circulant needs p >= 3

    def test_block_weight_enforced(self):
        params = SystemParams.make(2, 16, 3, 1)
        good = SparseSupport(16, (0, 3, 7))
        bad = SparseSupport(16, (0, 3))
        ParityCheck(params, (good, good))
        with pytest.raises(ParameterError):
            ParityCheck(params, (good, bad))


class TestWeightMatrix:
    def test_permutation_pattern(self):
        assert weight_matrix(4, 4) == tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4))

    def test_even_integer_m_impossible(self):
        for n0, sigma in ((2, 4), (4, 8), (4, 16)):
            with pytest.raises(ParameterError):
                weight_matrix(n0, sigma)
            assert not realizable_sigma(n0, sigma)

    def test_n0_below_one_rejected(self):
        for n0 in (0, -1):
            with pytest.raises(ParameterError):
                weight_matrix(n0, 0)

    def test_below_n0_impossible(self):
        with pytest.raises(ParameterError):
            weight_matrix(4, 3)

    def test_patterns_balanced_and_nonsingular(self):
        for n0 in (2, 3, 4):
            for sigma in range(n0, 8 * n0):
                if not realizable_sigma(n0, sigma):
                    continue
                w = weight_matrix(n0, sigma)
                assert sum(sum(row) for row in w) == sigma
                rows = [sum(row) for row in w]
                cols = [sum(r[j] for r in w) for j in range(n0)]
                assert min(rows) >= 1 and min(cols) >= 1
                assert max(rows) - min(rows) <= 1
                assert max(cols) - min(cols) <= 1
                assert pattern_det_gf2(w) == 1

    def test_patterns_are_pinned(self):
        # every realizable sigma in [n0, 10 n0) for n0 = 1..8: 292 patterns, the
        # odd-q diagonal-plus-band ones and the seeded search's alike
        rows = [(n0, sigma, weight_matrix(n0, sigma)) for n0 in range(1, 9)
                for sigma in range(n0, 10 * n0) if realizable_sigma(n0, sigma)]
        assert len(rows) == 292
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
            "c4ad43d8d36935166bbf2410160a7175f16c40ab9debe0336750f41872a14277"


class TestSampleRandom:
    def test_deterministic(self):
        params = SystemParams.make(4, 512, 13, 10)
        h1 = sample_h_random(params, SeedStream(9, "h"))
        h2 = sample_h_random(params, SeedStream(9, "h"))
        assert h1 == h2
        assert sample_h_random(params, SeedStream(10, "h")) != h1

    def test_block_weights(self):
        params = SystemParams.make(4, 4096, 13, 40)
        h = sample_h_random(params, SeedStream(11, "h"))
        assert all(blk.weight == 13 for blk in h.blocks)
        assert all(blk.p == 4096 for blk in h.blocks)

    def test_column_and_row_weights_of_expansion(self):
        params = SystemParams.make(3, 32, 5, 2, sigma_w=3)
        h = sample_h_random(params, SeedStream(12, "h"))
        dense = h.to_qc_matrix().expand()
        assert (dense.sum(axis=0) == 5).all()
        assert (dense.sum(axis=1) == 15).all()

    def test_degenerate_all_ones_fails(self):
        # d_v = p: the all-ones block is a zero divisor for every p > 1
        for p in (7, 8):
            params = SystemParams.make(2, p, p, 1)
            with pytest.raises(DesignFailure):
                sample_h_random(params, SeedStream(13, "h"))


def _has_inverse(s: SparseSupport) -> bool:
    try:
        poly_inverse(s.to_poly())
    except NotInvertibleError:
        return False
    return True


class TestIsInvertible:
    # p = 2^e q covers q = 1, small q with many factors of x^q - 1, the prime
    # 4801 and the key sizes 4096, 6272 and 7168
    PS = (7, 8, 9, 15, 21, 31, 45, 63, 73, 96, 127, 255, 341, 1023, 1024, 1536,
          4096, 4801, 6272, 7168)

    def test_agrees_with_poly_inverse(self):
        rng = SeedStream(18, "unit-oracle")
        units = odd_non_units = 0
        for p in self.PS:
            q = p >> ((p & -p).bit_length() - 1)
            odd_divisors = [r for r in range(3, q + 1, 2) if q % r == 0]
            for w in (1, 2, 3, 5, 15, 25, 85):
                s = SparseSupport(p, tuple(sorted(rng.sample_distinct(p, min(w, p)))))
                if odd_divisors and rng.below(2):
                    # times the odd-weight factor (x^p - 1)/(x^(p/r) - 1): a
                    # non-unit whose weight stays odd
                    r = odd_divisors[rng.below(len(odd_divisors))]
                    g = BitPolynomial.from_support(p, [j * (p // r) for j in range(r)])
                    s = SparseSupport.from_poly(poly_mul(s.to_poly(), g))
                unit = _has_inverse(s)
                assert is_unit(s.to_poly()) == unit, (p, s.support)
                units += unit
                odd_non_units += not unit and s.weight % 2 == 1
        assert units >= 40 and odd_non_units >= 20

    def test_edges(self):
        for p in (1, 2, 3, 4096, 4801):
            one = SparseSupport(p, (0,))
            every = SparseSupport(p, tuple(range(p)))
            assert is_unit(one.to_poly()) and _has_inverse(one)
            assert is_unit(every.to_poly()) == _has_inverse(every) == (p == 1)


class TestRdf:
    def test_hand_checked_difference_sets(self):
        assert sorted(cyclic_differences(13, (0, 1, 4))) == [1, 3, 4, 9, 10, 12]
        assert has_distinct_differences(13, [(0, 1, 4)])
        assert not has_distinct_differences(13, [(0, 1, 2)])  # 1 repeats
        # pooled across blocks: {0,1} and {0,2} are fine alone, clash via 1 vs 1? no,
        # {0,1}->{1,12}, {0,2}->{2,11}: distinct; {0,1} twice clashes
        assert has_distinct_differences(13, [(0, 1), (0, 2)])
        assert not has_distinct_differences(13, [(0, 1), (3, 4)])

    def test_precondition(self):
        params = SystemParams.make(4, 64, 5, 1)  # 4*5*4 = 80 >= 64
        with pytest.raises(ParameterError):
            sample_h_rdf(params, SeedStream(14, "h"))

    def test_sampled_family_is_pooled_distinct(self, rdf_params, rdf_h):
        assert has_distinct_differences(
            rdf_params.p, [blk.support for blk in rdf_h.blocks])

    def test_no_4_cycles_exhaustive(self):
        # p <= 64: any two expanded columns share at most one check row
        params = SystemParams.make(2, 61, 3, 1)
        h = sample_h_rdf(params, SeedStream(15, "h"))
        dense = h.to_qc_matrix().expand().astype(np.int64)
        gram = dense.T @ dense
        np.fill_diagonal(gram, 0)
        assert gram.max() <= 1

    def test_determinism(self):
        params = SystemParams.make(2, 61, 3, 1)
        assert sample_h_rdf(params, SeedStream(16, "h")) == \
            sample_h_rdf(params, SeedStream(16, "h"))


class TestSystematicGenerator:
    def test_defining_identity(self, toy_h):
        g = systematic_generator(toy_h)
        zero = qc_mul_zero_check(g, toy_h)
        assert zero

    def test_shape(self, toy_params, toy_h):
        g = systematic_generator(toy_h)
        dense = g.expand()
        assert dense.shape == (toy_params.k, toy_params.n)

    def test_equal_blocks_give_identity_parity_part(self):
        params = SystemParams.make(2, 16, 3, 1)
        sup = SparseSupport(16, (0, 1, 5))
        h = ParityCheck(params, (sup, sup))
        g = systematic_generator(h)
        assert g.blocks[0][1].support() == (0,)  # identity block

    def test_systematic_form(self):
        rng = SeedStream(19, "systematic-form")
        column = [BitPolynomial(21, rng.take_bits(21)) for _ in range(3)]
        g = systematic_form(column)
        assert g == QcMatrix([[blk if j == 3 else BitPolynomial(21, int(i == j))
                               for j in range(4)] for i, blk in enumerate(column)])
        assert [row[-1] for row in g.blocks] == column

    def test_dense_oracle(self):
        params = SystemParams.make(2, 8, 3, 1)
        h = sample_h_random(params, SeedStream(17, "h"))
        g = systematic_generator(h)
        prod = gf2_matmul(g.expand(), h.to_qc_matrix().expand().T)
        assert not prod.any()

    def test_singular_last_block(self):
        params = SystemParams.make(2, 8, 2, 1)  # even weight: never invertible
        sup = SparseSupport(8, (0, 1))
        h = ParityCheck(params, (sup, sup))
        with pytest.raises(SingularMatrixError):
            systematic_generator(h)


def qc_mul_zero_check(g, h):
    from qcmc.gf2 import qc_mul
    prod = qc_mul(g, qc_transpose(h.to_qc_matrix()))
    return all(blk.bits == 0 for row in prod.blocks for blk in row)
