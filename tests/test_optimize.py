"""Complexity metric, security targets, and the density-optimization search."""

import hashlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import security_targets_by_minimum
from qcmc import attacks, threshold
from qcmc.attacks import dca_wf_at, isda_wf_at
from qcmc.cli import main
from qcmc.errors import ParameterError
from qcmc.optimize import (OptimizerConfig, complexity_c, m_star, optimize_design,
                           security_targets)
from qcmc.threshold import threshold_table, write_threshold_csv


class TestComplexity:
    def test_reference_anchors_two_decimals(self):
        # the published anchors evaluate C at the printed decimal m values
        assert round(math.log2(complexity_c(16384, 59, 1, 10)), 2) == 23.21
        assert round(math.log2(complexity_c(16384, 59, Fraction(393, 100), 10)), 2) == 21.27
        assert round(math.log2(complexity_c(28672, 77, 1, 10)), 2) == 24.40
        assert round(math.log2(complexity_c(28672, 77, Fraction(513, 100), 10)), 2) == 22.09

    def test_m_below_one_rejected(self):
        with pytest.raises(ParameterError):
            complexity_c(1000, 50, 0.5, 10)

    def test_alpha_scales_decoding_term(self):
        base = complexity_c(1000, 50, 2, 10, alpha=1)
        doubled = complexity_c(1000, 50, 2, 10, alpha=2)
        assert doubled - base == 1000 * (50 / 2) * 10

    def test_convex_with_unique_minimum_at_m_star(self):
        n, dvp, I = 16384, 59, 10.0
        ms = [1 + 0.05 * i for i in range(800)]
        vals = [complexity_c(n, dvp, m, I) for m in ms]
        second = [vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, len(vals) - 1)]
        assert all(d > -1e-6 for d in second)
        argmin = ms[vals.index(min(vals))]
        assert abs(argmin - m_star(dvp, I)) <= 0.05 + 1e-9


class TestMStar:
    def test_values(self):
        assert abs(m_star(59, 10) - 24.29) < 0.005
        assert m_star(1, 1) == 1.0

    def test_stationarity(self):
        n, dvp, I = 8192, 40, 10.0
        ms = m_star(dvp, I)
        at = complexity_c(n, dvp, ms, I)
        assert at <= complexity_c(n, dvp, ms - 1e-4, I)
        assert at <= complexity_c(n, dvp, ms + 1e-4, I)

    def test_positive_arguments(self):
        with pytest.raises(ParameterError):
            m_star(0, 10)


class TestSecurityTargets:
    def test_minimality_postcondition(self):
        dvp, t = security_targets(100, 4, 4096)
        assert dca_wf_at(4, 4096, dvp).log2_wf >= 100
        assert dca_wf_at(4, 4096, dvp - 1).log2_wf < 100
        assert isda_wf_at(4, 4096, t).log2_wf >= 100
        assert isda_wf_at(4, 4096, t - 1).log2_wf < 100

    def test_close_to_published_designs(self):
        # the cost model is a declared simplification with a +-4 bit anchor
        # tolerance; at ~1.6 bits per unit that is ~3 units in each parameter
        dvp, t = security_targets(100, 4, 4096)
        assert abs(dvp - 59) <= 3
        assert abs(t - 47) <= 3
        dvp2, t2 = security_targets(128, 4, 4096)
        assert abs(dvp2 - 77) <= 3
        assert abs(t2 - 62) <= 3

    def test_trivial_target(self):
        # boundary sanity: the smallest weights where the split model applies
        dvp, t = security_targets(1, 4, 1024)
        assert dvp == 1
        assert t == 2  # w = 1 admits no p_s >= 1 split, so 2 is minimal

    def test_unreachable(self):
        with pytest.raises(ParameterError):
            security_targets(100000, 4, 4096)

    @pytest.mark.parametrize("n0", [-3, 0, 1])
    def test_fewer_than_two_blocks_rejected(self, n0):
        with pytest.raises(ParameterError, match="need n0 >= 2 circulant blocks"):
            security_targets(100, n0, 4096)

    def test_security_targets_scans_few_shift_counts(self, monkeypatch):
        calls = []
        original = attacks.isd_wf

        def counting(inst, *args):
            calls.append(inst.n_targets)
            return original(inst, *args)

        attacks._isda_cached.cache_clear()
        monkeypatch.setattr(attacks, "isd_wf", counting)
        assert security_targets(100, 4, 4096) == (58, 47)
        assert len(calls) <= 100


def _targets_or_error(fn, lam, n0, p_ref):
    try:
        return fn(lam, n0, p_ref)
    except ParameterError as exc:
        return str(exc)


# At lam = 1 the reference minimizes the ISDA work factor at t <= 10, where the
# minimum sits at s near p; best-bound-first order reaches it in a few dozen
# isd_wf calls, so the six cases at p_ref >= 4096 take under 1 s each.
TARGET_CASES = [(lam, n0, p_ref)
                for lam in (1, 60, 80, 100, 128, 160, 100000)
                for n0 in (2, 3, 4)
                for p_ref in (32, 1024, 4096, 7168)]


class TestSecurityTargetsOracle:
    @pytest.mark.parametrize("lam,n0,p_ref", TARGET_CASES)
    def test_decision_equals_minimum(self, lam, n0, p_ref):
        expected = _targets_or_error(security_targets_by_minimum, lam, n0, p_ref)
        assert _targets_or_error(security_targets, lam, n0, p_ref) == expected


class TestOptimizerConfig:
    def test_basic_validation(self):
        with pytest.raises(ParameterError):
            OptimizerConfig(0)
        with pytest.raises(ParameterError):
            OptimizerConfig(100, I=0.5)

    @pytest.mark.parametrize("n0", [-3, 0, 1])
    def test_fewer_than_two_blocks_rejected(self, n0):
        with pytest.raises(ParameterError, match="need n0 >= 2 circulant blocks"):
            OptimizerConfig(100, n0=n0)

    def test_even_candidates_rejected(self):
        # even column weights give even-weight circulants, which are never
        # ring-invertible, so no key could ever be generated
        with pytest.raises(ParameterError):
            OptimizerConfig(100, d_v_candidates=(14, 15))


def test_cold_design_search_reads_lgamma_from_one_table(monkeypatch):
    # every binomial of the default search is an integer below the table cap,
    # so a cold search calls gammaln only to build and grow the lgamma table
    calls = []
    real = attacks.gammaln

    def counting(x):
        calls.append(np.size(x))
        return real(x)

    attacks._log2_comb(5, 2)  # bind scipy before counting
    monkeypatch.setattr(attacks, "gammaln", counting)
    monkeypatch.setattr(attacks, "_lgamma_table", np.empty(0))
    for cache in (attacks._log2_comb_scalar, attacks._grid_axes, attacks._isda_cached,
                  threshold._threshold_cached):
        cache.cache_clear()
    report = optimize_design(OptimizerConfig(100))
    assert [d.params.d_v for d in report.designs] == [15, 19, 25, 35, 45, 59, 77]
    assert 1 <= len(calls) <= 4, calls
    assert attacks._lgamma_table.size <= attacks.LGAMMA_TABLE_MAX


def test_import_builds_no_table_or_row(fresh_python):
    code = ("import qcmc; from qcmc import attacks, threshold; "
            "print(attacks._lgamma_table.size, attacks._grid_axes.cache_info().currsize, "
            "attacks._weight_column.cache_info().currsize, "
            "threshold._binomial_row.cache_info().currsize)")
    assert fresh_python(code) == ["0 0 0 0"]


# sha256 of the design search's outputs, recorded before its DE probes stopped
# at certified fixed points and its Stern grids dropped the rows with 2 p_s > w
DESIGN_DIGESTS = {
    "100": "d2da0a1db5d33d2bf5c62345326ce7937c07b5f08aa63d78ca3a678f5a192d07",
    "128": "72658b5726302df1496de94f09d7aa8ab3299e2bbcc7b088ce4cd9bf68a49241",
}
THRESHOLD_DIGEST = "738434a00f1aa1275b729b7bd609ee0e7d0c3dc80b2a931cb80d3f1e81cd7947"


def test_design_search_outputs_are_pinned(tmp_path):
    attacks._isda_cached.cache_clear()
    threshold._threshold_cached.cache_clear()
    for security, digest in DESIGN_DIGESTS.items():
        csv_path = tmp_path / f"designs{security}.csv"
        assert main(["optimize", "--security", security, "--csv", str(csv_path)]) == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest, security
    buf = io.StringIO()
    write_threshold_csv(threshold_table(4, [15, 19, 25, 35, 45, 59, 77], [16384, 20480]), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == THRESHOLD_DIGEST


# sha256 of two qcmc wf tables, recorded before the Stern grid read the lgamma
# table unmasked where scalar bounds prove every cell defined and feasible; the
# ISDA table's t = 2 rows bound intervals that still take the masked path
WF_DIGESTS = {
    ("dca", "--p", "1024:16385:1024", "--dvp", "10:121:10"):
        "c27dc2a8b876e68e624054ab79281cf516e96d6d6c9ff6706f2e282be13e7cff",
    ("isda", "--p", "1024,4096,7168,16384", "--t", "2:130:8"):
        "1143225212c6dfee792792ab2c1f4f14570efea3d43bccde8c64b87e2c24945f",
}


def test_wf_tables_are_pinned(tmp_path):
    attacks._isda_cached.cache_clear()
    for args, digest in WF_DIGESTS.items():
        csv_path = tmp_path / f"wf-{args[0]}.csv"
        assert main(["wf", "--attack", *args, "--out", str(csv_path)]) == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest, args


def test_cold_design_search_takes_no_masked_grid(monkeypatch, array_comb_calls):
    # scalar bounds prove every cell of every Stern grid in the default search
    # defined and feasible, so each grid is read from the lgamma table unmasked,
    # with none of the two masked _log2_comb calls
    grids, grid_eval = [], attacks._grid_eval

    def recording(n, k_lo, k_hi, w, ps_max, ell_max):
        before = len(array_comb_calls)
        out = grid_eval(n, k_lo, k_hi, w, ps_max, ell_max)
        grids.append(len(array_comb_calls) == before)
        return out

    monkeypatch.setattr(attacks, "_grid_eval", recording)
    monkeypatch.setattr(attacks, "_lgamma_table", np.empty(0))
    for cache in (attacks._log2_comb_scalar, attacks._isda_cached, threshold._threshold_cached):
        cache.cache_clear()
    optimize_design(OptimizerConfig(100))
    assert (grids.count(False), len(grids)) == (0, 374)


@pytest.fixture(scope="module")
def report100():
    return optimize_design(OptimizerConfig(100))


class TestOptimizeDesign:
    def test_sparse_and_dense_rows_present(self, report100):
        by_dv = {d.params.d_v: d for d in report100.designs}
        assert 15 in by_dv, report100.rejections
        dense = [d for d in report100.designs if d.params.m == 1]
        assert dense, "no m=1 design emitted"
        sparse = by_dv[15]
        assert sparse.params.m > 1
        assert all(sparse.C_log2 < d.C_log2 for d in dense)

    def test_sorted_by_cost(self, report100):
        costs = [d.C_log2 for d in report100.designs]
        assert costs == sorted(costs)

    def test_every_row_reverifies(self, report100):
        from qcmc.attacks import h_enumeration_wf
        from qcmc.threshold import ThresholdQuery, bf_threshold
        for d in report100.designs:
            pr = d.params
            assert d.bf_margin >= 0
            assert d.dca_bits >= 100 and d.isda_bits >= 100 and d.h_enum_bits >= 100
            assert dca_wf_at(pr.n0, pr.p, pr.d_v_prime).log2_wf == pytest.approx(d.dca_bits)
            assert isda_wf_at(pr.n0, pr.p, d.t).log2_wf == pytest.approx(d.isda_bits)
            assert h_enumeration_wf(pr.p, pr.d_v) == pytest.approx(d.h_enum_bits)
            thr = bf_threshold(ThresholdQuery(pr.n, pr.n0, pr.d_v))
            assert thr - pr.t_prime == d.bf_margin
            assert 1 <= pr.m <= m_star(d.d_v_prime, 10.0) + 1e-9

    def test_sparser_cheaper_conclusion(self, report100):
        dense_cost = min(d.C_log2 for d in report100.designs if d.params.m == 1)
        for d in report100.designs:
            if d.params.m > 1:
                assert d.C_log2 < dense_cost

    def test_forced_single_mdpc_row(self):
        dvp, _ = security_targets(100, 4, 4096)
        dvp += 1 - dvp % 2  # candidates must be odd (invertibility)
        cfg = OptimizerConfig(100, d_v_candidates=(dvp,))
        report = optimize_design(cfg)
        assert len(report.designs) == 1
        row = report.designs[0]
        assert row.params.m == 1
        expected = complexity_c(row.params.n, row.d_v_prime, 1, 10)
        assert row.C_log2 == pytest.approx(math.log2(expected))

    def test_rejections_reported(self):
        # d_v too small: enumeration bound cannot reach the target
        cfg = OptimizerConfig(100, d_v_candidates=(3,))
        report = optimize_design(cfg)
        assert not report.designs
        assert report.rejections and report.rejections[0][0] == 3
