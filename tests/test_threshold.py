"""Decoding-threshold recursion: fixed points, bounds, monotonicity, anchors."""

import io

import pytest

from oracles import per_b_threshold
from qcmc.errors import ParameterError
from qcmc.optimize import DEFAULT_CANDIDATES, DEFAULT_P_GRID
from qcmc.threshold import (ThresholdQuery, bf_threshold, bf_threshold_detail,
                            binomial_tail, evolution_step, threshold_table,
                            write_threshold_csv)


class TestRecursionStep:
    def test_zero_errors_fixed_point(self):
        for d_v in (5, 13, 45):
            assert evolution_step(4 * d_v, d_v, d_v // 2 + 1, 0.0, 0.0) == 0.0

    def test_probabilities_in_unit_interval(self):
        for d_v in (5, 13, 85):
            d_c = 4 * d_v
            for b in range(1, d_v + 1):
                q = 0.0
                p0 = 0.01
                for _ in range(30):
                    q = evolution_step(d_c, d_v, b, p0, q)
                    assert 0.0 <= q <= 1.0

    def test_binomial_tail_edges(self):
        assert binomial_tail(10, 0, 0.3) == 1.0
        assert binomial_tail(10, 11, 0.3) == 0.0
        assert abs(binomial_tail(4, 2, 0.5) - 11 / 16) < 1e-12


class TestThreshold:
    def test_query_validation(self):
        with pytest.raises(ParameterError):
            ThresholdQuery(100, 4, 30)  # d_c >= n
        with pytest.raises(ParameterError):
            ThresholdQuery(1000, 4, 0)

    def test_monotone_in_n(self):
        values = [bf_threshold(ThresholdQuery(n, 4, 13))
                  for n in (8192, 12288, 16384, 24576, 32768)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]

    def test_optimizing_b_within_bounds(self):
        for d_v in (13, 15, 59):
            t_max, b_opt = bf_threshold_detail(ThresholdQuery(16384, 4, d_v))
            assert (d_v + 1) // 2 <= b_opt <= d_v
            assert t_max > 0

    def test_reported_b_attains_maximum(self):
        # re-run the recursion at the reported b and at neighbors
        from oracles import t_max_for_b
        q = ThresholdQuery(16384, 4, 13)
        t_max, b_opt = bf_threshold_detail(q)
        assert t_max_for_b(q.n, q.n0 * q.d_v, q.d_v, b_opt, 100) == t_max
        for b in range(7, 14):
            assert t_max_for_b(q.n, q.n0 * q.d_v, q.d_v, b, 100) <= t_max

    def test_reference_anchor_fast(self):
        # full six-anchor sweep lives in the acceptance suite
        assert abs(bf_threshold(ThresholdQuery(16384, 4, 13)) - 181) <= 181 * 0.05


ANCHORS = [(16384, 4, 13), (16384, 4, 15), (28672, 4, 15),
           (16384, 4, 59), (28672, 4, 77), (25088, 4, 85)]
SMALL_CODES = [(n0 * p, n0, d_v) for n0 in (2, 3) for p in (64, 256, 1024, 4096, 8192)
               for d_v in (3, 5, 9, 13, 15, 25, 45) if d_v < p]
SMALL_CODES += [(128, 2, 63), (20, 2, 9), (12, 3, 3)]  # t_max = 1, 0, 0


class TestPerBOracle:
    """One t search over all b gives the (t_max, b) of one search per b."""

    def check(self, cases):
        for n, n0, d_v in cases:
            assert bf_threshold_detail(ThresholdQuery(n, n0, d_v)) == \
                per_b_threshold(n, n0, d_v), (n, n0, d_v)

    def test_anchors_and_small_codes(self):
        self.check(ANCHORS + SMALL_CODES)

    @pytest.mark.nightly
    def test_design_grid(self):
        self.check([(4 * p, 4, d_v) for p in DEFAULT_P_GRID for d_v in DEFAULT_CANDIDATES])


class TestCsv:
    def test_table_and_emitter(self):
        rows = threshold_table(4, [13], [8192, 16384])
        assert [r["n"] for r in rows] == [8192, 16384]
        buf = io.StringIO()
        write_threshold_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,d_v,b_opt,t_max"
        assert len(lines) == 3
