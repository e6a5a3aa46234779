"""Work-factor model: closed forms, toy-attack oracle, monotonicity."""

import math
import random

import numpy as np
import pytest
from scipy.special import gammaln

from oracles import (count_weight_w_codewords, grid_eval_per_term, isda_full_scan,
                     left_first_isda_search, log2_comb_masked, log2_success_masked,
                     meshgrid_isd_wf, meshgrid_isda_bound, stern_search_iterations)
from qcmc import attacks
from qcmc.attacks import (IsdInstance, dca_wf_at, dca_table, h_enumeration_wf,
                          isd_success_probability, isd_wf, isda_secure, isda_wf_at, isda_table,
                          q_space_size)
from qcmc.errors import ParameterError


def test_first_work_factor_binds_scipy_gammaln(fresh_python):
    # the lazily bound gammaln gives the same bits as in this process, and
    # after the first call the module name is scipy's ufunc itself
    inst = IsdInstance(n=8192, k=4096, w=94, n_targets=4096)
    code = ("import sys; from qcmc import attacks; print('scipy' in sys.modules); "
            f"print(repr(attacks.isd_wf(attacks.{inst!r}))); import scipy.special; "
            "print(attacks.gammaln is scipy.special.gammaln)")
    assert fresh_python(code) == ["False", repr(isd_wf(inst)), "True"]


class TestQSpaceSize:
    def test_reference_counts_two_decimals(self):
        assert round(q_space_size(4800, 2), 2) == 25.46
        assert round(q_space_size(3584, 3), 2) == 38.01

    def test_trivial(self):
        assert q_space_size(1, 1) == 0.0

    def test_formula_vs_the_anomalous_count(self):
        # the formula gives 50.92 for (3072, 4); the cited 37.34 does not
        # match p^n0 * n0! and is excluded from acceptance
        assert round(q_space_size(3072, 4), 2) == 50.92


class TestHEnumeration:
    def test_edges(self):
        assert h_enumeration_wf(4096, 0) == 0.0
        assert h_enumeration_wf(4096, 1) == math.log2(4096)

    def test_exact_binomial(self):
        # independent product-form oracle for log2 C(4096, 13)
        oracle = sum(math.log2((4096 - i) / (i + 1)) for i in range(13))
        got = h_enumeration_wf(4096, 13)
        assert abs(got - oracle) < 1e-9
        assert round(got, 2) == 123.44

    def test_range_check(self):
        with pytest.raises(ParameterError):
            h_enumeration_wf(10, 11)


class TestIsdInstance:
    def test_validation(self):
        with pytest.raises(ParameterError):
            IsdInstance(10, 0, 3)
        with pytest.raises(ParameterError):
            IsdInstance(10, 5, 10)
        with pytest.raises(ParameterError):
            IsdInstance(10, 5, 3, 0)


class TestIsdWf:
    def test_reported_optimum_attained(self):
        inst = IsdInstance(16384, 4096, 236, 4096)
        rep = isd_wf(inst)
        # re-evaluate the whole grid and compare
        best = min(
            _wf_single(inst, ps, ell)
            for ps in range(1, 11) for ell in range(1, 61)
            if 2 * ps <= inst.w and inst.w - 2 * ps <= inst.n - inst.k - ell
        )
        assert abs(rep.log2_wf - best) < 1e-6
        assert abs(_wf_single(inst, rep.p_s, rep.ell) - rep.log2_wf) < 1e-9

    def test_monotone_in_targets(self):
        wfs = [isd_wf(IsdInstance(2048, 512, 60, T)).log2_wf
               for T in (1, 2, 4, 16, 64, 512)]
        assert all(a >= b for a, b in zip(wfs, wfs[1:]))

    def test_monotone_in_weight(self):
        wfs = [isd_wf(IsdInstance(2048, 512, w, 1)).log2_wf
               for w in range(20, 200, 20)]
        assert all(a <= b for a, b in zip(wfs, wfs[1:]))

    def test_dimension_one_grid_is_infeasible(self):
        # k = 1 leaves floor(k/2) = 0, so no split weight p_s >= 1 fits and
        # the whole (p_s, l) grid is rejected
        with pytest.raises(ParameterError):
            isd_wf(IsdInstance(24, 1, 23, 1))

    def test_full_weight_instance_rejected_by_type(self):
        # the all-ones word (w = n) is outside the searchable domain entirely
        with pytest.raises(ParameterError):
            IsdInstance(24, 1, 24, 1)

    def test_degenerate_elimination_dominated(self):
        # near-full weight with tiny k: success is near-certain per iteration,
        # cost collapses to little more than the elimination term
        inst = IsdInstance(24, 2, 20, 1)
        rep = isd_wf(inst)
        elim = math.log2((24 - 2) ** 2 * (24 + 2) / 2)
        assert rep.log2_wf < elim + 4

    def test_toy_stern_oracle(self):
        # model iteration count within 2x of a real randomized Stern search
        rng = np.random.RandomState(7)
        n, k, w, ell = 24, 12, 4, 2
        while True:
            G = np.concatenate([np.eye(k, dtype=np.uint8),
                                rng.randint(0, 2, (k, n - k)).astype(np.uint8)], axis=1)
            n_targets = count_weight_w_codewords(G, w)
            if n_targets >= 1:
                break
        pi = isd_success_probability(IsdInstance(n, k, w, n_targets), 1, ell)
        runs = 400
        total = sum(stern_search_iterations(G, w, ell, np.random.RandomState(1000 + i))
                    for i in range(runs))
        empirical = total / runs
        model = 1.0 / pi
        assert model / 2 <= empirical <= model * 2

    @pytest.mark.parametrize("w, p_s, ell", [
        (20, 6, 1),  # p_s > k//2 = 5
        (8, 5, 1),  # 2 p_s > w
        (8, 1, 25),  # w - 2 p_s > n - k - l
        (8, -1, 1),  # p_s < 0
    ])
    def test_success_probability_is_zero_at_an_infeasible_split(self, w, p_s, ell):
        # each case breaks one condition only: an undefined binomial gives 0.0
        inst = IsdInstance(40, 10, w, 3)
        assert isd_success_probability(inst, p_s, ell) == 0.0
        assert isd_success_probability(inst, 1, 1) > 0.0


def _wf_single(inst, ps, ell):
    pi = isd_success_probability(inst, ps, ell)
    if pi == 0.0:
        return float("inf")
    half = math.comb(inst.k - inst.k // 2, ps)
    cost = ((inst.n - inst.k) ** 2 * (inst.n + inst.k) / 2
            + 2 * ell * ps * half
            + 2 * ps * (inst.n - inst.k) * half ** 2 / 2 ** ell)
    return math.log2(cost) - math.log2(pi)


def _kernel_cases(count: int = 2400, seed: int = 1989) -> list[tuple[int, int, int, int]]:
    """(n, k, w, n_targets): DCA and ISDA shapes, tiny p, t in {0, 1}, n <= 4 * 32768."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n0 = rng.choice((2, 3, 4))
        kind = i % 4
        if kind == 0:  # DCA: the dual code searched for weight-n0 d_v' rows
            p = rng.choice((rng.randint(2, 64), rng.randint(65, 32768)))
            cases.append((n0 * p, p, n0 * rng.randint(1, min(300, p - 1)), p))
            continue
        p = rng.randint(1, 12) if kind == 1 else rng.choice((rng.randint(2, 700),
                                                             rng.randint(701, 32768)))
        s = rng.randint(1, max(1, p - 1))
        t = (rng.choice((0, 1)) if kind == 2 else
             rng.choice((rng.randint(0, 20), rng.randint(21, 120), rng.randint(121, 700))))
        cases.append((n0 * p, (n0 - 1) * p + s, min(t, n0 * p - 1), s))
    return cases


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ParameterError as exc:
        return str(exc)


class TestGridOracle:
    def test_equals_meshgrid(self):
        # the broadcast grid must give every cell the meshgrid's value, so the
        # reported optimum and the interval bound agree bit for bit
        rng = random.Random(2)
        compared = 0
        for n, k, w, targets in _kernel_cases():
            try:
                inst = IsdInstance(n, k, w, targets)
            except ParameterError:
                inst = None
            if inst is not None:
                assert _outcome(isd_wf, inst) == _outcome(meshgrid_isd_wf, inst), inst
                compared += 1
            s_lo = targets
            s_hi = s_lo + rng.randint(0, max(0, n - k - 1))
            args = (n, k - s_lo, w, s_lo, s_hi, attacks.PS_MAX, attacks.ELL_MAX)
            assert attacks._isda_bound(*args) == meshgrid_isda_bound(*args), args
        assert compared >= 2000


class TestTrimmedRows:
    """isd_wf and _isda_bound evaluate only the p_s rows with 2 p_s <= w (one at
    w <= 1) and still give the meshgrid oracles' results over all PS_MAX rows."""

    def test_small_weights_equal_meshgrid(self, monkeypatch):
        rows, grid_eval = [], attacks._grid_eval

        def recording(n, k_lo, k_hi, w, ps_max, ell_max):
            rows.append((w, ps_max))
            return grid_eval(n, k_lo, k_hi, w, ps_max, ell_max)

        monkeypatch.setattr(attacks, "_grid_eval", recording)
        rng = random.Random(25)
        for t in range(1, 26):
            for _ in range(6):
                n0, p = rng.choice((2, 3, 4)), rng.choice((rng.randint(2, 40), rng.randint(41, 5000)))
                n, k0 = n0 * p, (n0 - 1) * p
                s_lo = rng.randint(1, p - 1)
                s_hi = rng.randint(s_lo, p - 1)
                if t < n:
                    inst = IsdInstance(n, k0 + s_lo, t, s_lo)
                    assert _outcome(isd_wf, inst) == _outcome(meshgrid_isd_wf, inst), inst
                args = (n, k0, t, s_lo, s_hi, attacks.PS_MAX, attacks.ELL_MAX)
                assert attacks._isda_bound(*args) == meshgrid_isda_bound(*args), args
        assert {w for w, _ in rows} == set(range(1, 26))
        assert all(ps_max == max(1, min(attacks.PS_MAX, w // 2)) for w, ps_max in rows)
        assert _outcome(isd_wf, IsdInstance(4096, 3072, 1, 1)) == \
            "no feasible (p_s, l) pair for this instance"


def _same_bits(got, ref) -> bool:
    return (type(got) is type(ref) and got.dtype == ref.dtype and got.shape == ref.shape
            and got.tobytes() == ref.tobytes())


class TestUnmaskedStackedOracle:
    """_log2_comb skips its mask where every cell is defined, and _grid_eval takes
    its three p_s columns from one stacked call: both give the masked per-term bits."""

    def test_log2_comb_bitwise(self):
        rng = np.random.RandomState(1989)
        psg = np.arange(1, attacks.PS_MAX + 1)[:, None]
        cases = [(10, 3), (10, 0), (10, 10), (10, 11), (10, -1), (0, 0), (-3, 1),
                 (7.0, 2.0), (131072, 600), (np.int64(5), -0.0)]
        cases += [(a, psg) for a in (0, 4, 9, 10, 2047, 65536)]
        cases += [(np.array([[[5]], [[2]], [[40]]]), psg), (np.array([[[50]], [[21]], [[21]]]), psg)]
        cases += [(rng.randint(-5, 3000, (1, 60)), rng.randint(-5, 40, (10, 1))),
                  (rng.randint(40, 3000, (1, 60)), rng.randint(0, 40, (10, 1))),
                  (rng.randint(0, 50, (7, 9)), rng.randint(0, 50, (7, 9)))]
        undefined = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, b in cases:
                ref = log2_comb_masked(a, b)
                assert _same_bits(attacks._log2_comb(a, b), ref), (a, b)
                undefined += int(np.isneginf(ref).sum())
        assert undefined >= 100

    def test_grid_eval_bitwise(self):
        rng = random.Random(3)
        for n, k, w, _ in _kernel_cases():
            for k_lo, k_hi in ((k, k), (k, k + rng.randint(0, max(0, n - k - 1)))):
                args = (n, k_lo, k_hi, w, attacks.PS_MAX, attacks.ELL_MAX)
                got, (feasible, *ref) = attacks._grid_eval(*args), grid_eval_per_term(*args)
                for arr, r in zip(got, ref, strict=True):
                    assert _same_bits(arr, r), args
                assert np.array_equal(np.isneginf(got[0]), ~feasible), args

    def test_log2_pi_one_is_neginf_exactly_at_infeasible_cells(self):
        # the grid keeps no feasibility mask: for 0 <= w <= n a cell is
        # infeasible exactly where one of its binomials is undefined, which
        # makes log2 pi_one -inf there and nowhere else, with a finite cost
        rng = random.Random(29)
        infeasible = 0
        for i, (n, k, w, _) in enumerate(_kernel_cases()):
            w, k = (n if i % 8 == 7 else w), min(k, n - 1)  # every caller has k_hi < n
            k_lo, k_hi = rng.randint(1, k), rng.randint(k, n - 1)
            for ps_max in (attacks.PS_MAX, max(1, min(attacks.PS_MAX, w // 2))):
                args = (n, k_lo, k_hi, w, ps_max, attacks.ELL_MAX)
                log2_pi_one, cost, _, _ = attacks._grid_eval(*args)
                feasible = grid_eval_per_term(*args)[0]
                assert not np.isnan(log2_pi_one).any(), args
                assert np.array_equal(np.isneginf(log2_pi_one), ~feasible), args
                assert np.isfinite(cost).all() and (cost > 0).all(), args
                infeasible += int((~feasible).sum())
        assert infeasible >= 100_000


class TestLgammaTableOracle:
    """_log2_comb reads integer arguments below LGAMMA_TABLE_MAX from one lgamma
    table and sends everything else through gammaln in float64: both paths give
    the masked per-term bits."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = attacks.gammaln

        def counting(x):
            calls.append(np.size(x))
            return real(x)

        attacks._log2_comb(5, 2)  # bind scipy before counting
        monkeypatch.setattr(attacks, "gammaln", counting)
        return calls

    def _check(self, a, b, from_table, calls):
        before = len(calls)
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = log2_comb_masked(a, b)
            got = attacks._log2_comb(a, b)
        assert _same_bits(got, ref), (a, b)
        if from_table:
            assert len(calls) - before <= 1, (a, b)  # at most one table build
        else:
            assert len(calls) - before == 3, (a, b)  # three gammaln terms
        return int(np.isneginf(ref).sum())

    def test_int_inputs_bitwise(self, monkeypatch):
        calls = self._counted(monkeypatch)
        monkeypatch.setattr(attacks, "_lgamma_table", np.empty(0))
        rng = np.random.RandomState(1963)
        cases = [(0, 0), (0, 1), (5, 0), (5, 5), (5, 6), (-1, 0), (-3, -1), (-3, 1),
                 (10, -1), (np.int64(40), np.int32(7)), (np.int16(9), np.int64(12)),
                 (np.int64(-2), 0), (-10**6, 3), (np.array([-70000, 5]), 2),
                 (np.array([0, 3, 7]), np.array([[0], [4], [-2]]))]
        cases += [(rng.randint(-50, 70000, (n, 9)), rng.randint(-20, 600, (n, 1)))
                  for n in (1, 4, 10)]
        cases += [(rng.randint(0, 3000, (3, 1, 1)), rng.randint(0, 11, (10, 1))),
                  (rng.randint(0, 2**17, (10, 60)), rng.randint(0, 2**17, (10, 60)))]
        undefined = sum(self._check(a, b, True, calls) for a, b in cases)
        assert undefined >= 100
        assert attacks._lgamma_table.size <= 2**17

    def test_other_inputs_take_the_float_path(self, monkeypatch):
        calls = self._counted(monkeypatch)
        cases = [(7.0, 2.0), (np.int64(5), -0.0), (10, 3.0), (np.float32(9), 4),
                 (np.array([4, 9], dtype=np.uint16), np.array([2, 3], dtype=np.uint16)),
                 (np.array([True, False]), 0), (10**20, 3), (2**63, 2),
                 (np.array([], dtype=np.int64), 3), (5, np.array([], dtype=np.int64))]
        for a, b in cases:
            self._check(a, b, False, calls)

    def test_cap(self, monkeypatch):
        calls = self._counted(monkeypatch)
        monkeypatch.setattr(attacks, "_lgamma_table", np.empty(0))
        cap = attacks.LGAMMA_TABLE_MAX
        self._check(10**9, 3, False, calls)
        assert attacks._lgamma_table.size == 0
        self._check(cap - 1, 700, True, calls)
        self._check(np.array([[cap - 1], [3]]), np.array([2, 9, cap]), True, calls)
        assert attacks._lgamma_table.size == cap
        for a in (cap, cap + 1, np.array([3, cap])):
            self._check(a, 700, False, calls)
        self._check(10**9, 3, False, calls)
        assert attacks._lgamma_table.size == cap
        assert not attacks._lgamma_table.flags.writeable

    def test_dca_at_ten_million_stays_below_the_cap(self, monkeypatch):
        monkeypatch.setattr(attacks, "_lgamma_table", np.empty(0))
        rep = dca_wf_at(4, 10**7, 60)  # qcmc wf --attack dca --p 10000000 --dvp 60
        assert (round(rep.log2_wf, 2), rep.p_s, rep.ell) == (131.36, 2, 56)
        assert attacks._lgamma_table.size <= attacks.LGAMMA_TABLE_MAX


class TestFullyDefinedGrid:
    """_grid_eval reads the lgamma table unmasked, with no masked _log2_comb call,
    exactly when 2 ps_max <= w, ps_max <= min(k_lo - k_lo//2, k_hi//2),
    w - 2 <= n - k_lo - ell_max and n < _lgamma_table.size.  On each condition and
    one step past it, the four outputs keep the masked per-term bits, log2 pi_one
    is -inf exactly at the oracle's infeasible cells, and isd_wf and _isda_bound
    keep the meshgrid oracles' results."""

    # (n, k_lo, k_hi, w, ps_max, ell_max, lgamma table size, unmasked)
    CASES = [
        (97, 19, 20, 20, 10, 60, 98, True),  # every condition holds with equality
        (97, 19, 20, 19, 10, 60, 98, False),  # 2 ps_max = w + 1
        (97, 18, 20, 20, 10, 60, 98, False),  # k_lo - k_lo//2 = ps_max - 1
        (97, 19, 19, 20, 10, 60, 98, False),  # k_hi//2 = ps_max - 1
        (96, 19, 20, 20, 10, 60, 97, False),  # n - k_lo - ell_max = w - 3
        (97, 19, 20, 20, 10, 60, 97, False),  # table size = n
        (97, 19, 20, 20, 10, 60, 0, False),  # empty table
        (98, 20, 20, 20, 10, 60, 99, True),  # isd_wf's grid at k = 20
        (97, 20, 20, 20, 10, 60, 98, False),  # and one step past each condition
        (98, 19, 19, 20, 10, 60, 99, False),
        (98, 20, 20, 20, 10, 60, 98, False),
        (9, 2, 2, 2, 1, 7, 10, True),  # one row: p_s = 1 at w = 2
        (9, 2, 2, 1, 1, 7, 10, False),  # w = 1: no feasible cell
        (8, 2, 2, 2, 1, 7, 9, False),
        (16384, 12289, 16000, 47, 10, 60, 16385, True),  # an ISDA interval bound
        (16384, 16279, 16300, 47, 10, 60, 16385, True),
        (16384, 16280, 16300, 47, 10, 60, 16385, False),
        (16384, 12289, 16000, 47, 10, 60, 16384, False),
    ]

    @pytest.mark.parametrize("n, k_lo, k_hi, w, ps_max, ell_max, size, unmasked", CASES)
    def test_both_sides_of_each_condition(self, monkeypatch, array_comb_calls, n, k_lo, k_hi,
                                          w, ps_max, ell_max, size, unmasked):
        table = gammaln(np.arange(size) + 1.0)
        table.flags.writeable = False
        attacks._log2_comb_scalar(n, w)  # memoized, so the grid below grows no table
        monkeypatch.setattr(attacks, "_lgamma_table", table)
        args = (n, k_lo, k_hi, w, ps_max, ell_max)
        got = attacks._grid_eval(*args)
        assert len(array_comb_calls) == (0 if unmasked else 2), args
        feasible, *ref = grid_eval_per_term(*args)
        for arr, r in zip(got, ref, strict=True):
            assert _same_bits(arr, r), args
        assert np.array_equal(np.isneginf(got[0]), ~feasible), args

        monkeypatch.setattr(attacks, "_lgamma_table", table)
        bound_args = (n, k_lo - 1, w, 1, k_hi - k_lo + 1, ps_max, ell_max)
        assert attacks._isda_bound(*bound_args) == meshgrid_isda_bound(*bound_args)
        for targets in (1, 3, k_lo):
            monkeypatch.setattr(attacks, "_lgamma_table", table)
            inst = IsdInstance(n, k_lo, w, targets)
            assert _outcome(isd_wf, inst) == _outcome(meshgrid_isd_wf, inst), inst

    def test_log2_success_in_place_bitwise(self):
        # ln pi = -500 exactly takes the in-place chain, one ulp below the masked one
        at = -500.0 / attacks.LN2
        below = np.nextafter(at, -np.inf)
        assert at * attacks.LN2 == -500.0 and below * attacks.LN2 == np.nextafter(-500.0, -np.inf)
        rng = np.random.RandomState(500)
        grid = np.concatenate([-rng.exponential(60.0, 58), [0.0, 1e-300]])
        cases = [at, below, -np.inf, 0.0, np.float64(-3.5), np.array(at), np.array(-np.inf),
                 np.array([], dtype=np.float64), np.array([at, -1.0]), np.array([below, -1.0]),
                 np.array([-1.0, -np.inf]), np.array([[-2.0, np.nan]]), grid,
                 np.where(np.arange(60) % 7, grid, -np.inf), np.append(grid, below),
                 np.linspace(-722.5, below, 50)]  # ln pi in (-501, -500)
        for log2_pi_one in cases:
            before = np.array(log2_pi_one, copy=True)
            for targets in (1, 2, 47, 4095, 2**40):
                got = attacks._log2_success(log2_pi_one, targets)
                ref = log2_success_masked(log2_pi_one, targets)
                assert _same_bits(got, ref), (log2_pi_one, targets)
            assert np.array_equal(log2_pi_one, before, equal_nan=True)


class TestAttackCurves:
    def test_dca_anchor_100(self):
        rep = dca_wf_at(4, 4096, 59)
        assert abs(rep.log2_wf - 100) <= 4

    def test_isda_reports_optimal_shift_count(self):
        rep = isda_wf_at(4, 1024, 30)
        assert rep.s >= 1
        # spot-check a few neighboring shift counts do not beat the reported one
        for s in (max(1, rep.s - 7), rep.s + 7, 1, 2):
            alt = isd_wf(IsdInstance(4096, 3072 + s, 30, s))
            assert alt.log2_wf >= rep.log2_wf - 1e-9

    def test_isda_linear_in_t(self):
        wfs = [isda_wf_at(4, 1024, t).log2_wf for t in range(30, 81, 10)]
        diffs = [b - a for a, b in zip(wfs, wfs[1:])]
        assert all(d > 0 for d in diffs)
        assert max(diffs) - min(diffs) < 0.2 * (sum(diffs) / len(diffs))

    def test_tables_and_csv(self):
        rows = dca_table(4, [1024], [20, 30])
        assert rows[0]["log2_wf"] < rows[1]["log2_wf"]
        assert ",".join(rows[0]) == "p,d_v_prime,log2_wf,p_s,ell"  # the CSV columns
        rows2 = isda_table(4, [1024], [25])
        assert rows2[0]["s"] >= 1


def _random_isda_points(count: int, seed: int = 20130101) -> list[tuple[int, int, int]]:
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        n0 = rng.choice((2, 3, 4))
        p = rng.choice((rng.randint(2, 40), rng.randint(41, 700)))
        t = rng.choice((rng.randint(0, 6), rng.randint(7, 30), rng.randint(31, 120)))
        points.append((n0, p, t))
    return points


ISDA_POINTS = ([(4, 4096, 47), (4, 7168, 62), (4, 16384, 47), (4, 16384, 60),
                (4, 4096, 10)]
               + [(4, 1024, t) for t in range(30, 81, 10)]
               + _random_isda_points(50))


class TestIsdaSearch:
    @pytest.mark.parametrize("n0,p,t", ISDA_POINTS)
    def test_equals_full_scan(self, n0, p, t):
        try:
            expected = isda_full_scan(n0, p, t)
        except ParameterError:
            with pytest.raises(ParameterError):
                isda_wf_at(n0, p, t)
            return
        assert isda_wf_at(n0, p, t) == expected

    @pytest.mark.parametrize("t", [0, 1])
    def test_infeasible_error_counts_raise(self, t):
        # no split weight p_s >= 1 fits 2 p_s <= t
        with pytest.raises(ParameterError):
            isda_full_scan(4, 1024, t)
        with pytest.raises(ParameterError):
            isda_wf_at(4, 1024, t)

    def test_interval_bound_is_sound(self):
        # the pruning bound never exceeds the work factor of any s it covers
        rng = random.Random(7)
        cases = [(4, 4096, 47, 1, 200), (4, 4096, 47, 90, 110), (4, 4096, 47, 2000, 2100),
                 (2, 4096, 40, 100, 160), (4, 16384, 60, 290, 310)]
        for n0, p, t in _random_isda_points(40, seed=11):
            if p >= 3:
                s_lo = rng.randint(1, p - 2)
                cases.append((n0, p, t, s_lo, rng.randint(s_lo + 1, min(p - 1, s_lo + 200))))
        for n0, p, t, s_lo, s_hi in cases:
            bound = attacks._isda_bound(n0 * p, (n0 - 1) * p, t, s_lo, s_hi,
                                        attacks.PS_MAX, attacks.ELL_MAX)
            for s in range(s_lo, s_hi + 1):
                try:
                    wf = isd_wf(IsdInstance(n0 * p, (n0 - 1) * p + s, t, s)).log2_wf
                except ParameterError:
                    continue
                assert bound <= wf + attacks.PRUNE_MARGIN, (n0, p, t, s_lo, s_hi, s)

    def test_scans_few_shift_counts(self, monkeypatch):
        calls = []
        original = attacks.isd_wf

        def counting(inst, *args):
            calls.append(inst.n_targets)
            return original(inst, *args)

        attacks._isda_cached.cache_clear()
        monkeypatch.setattr(attacks, "isd_wf", counting)
        rep = isda_wf_at(4, 4096, 47)
        assert rep.s == 98
        assert rep.s in calls
        assert len(calls) <= 0.05 * 4095

    def test_decision_bounds_the_root_once(self, monkeypatch):
        intervals = []
        original = attacks._isda_bound

        def counting(n, k0, t, s_lo, s_hi, *args):
            intervals.append((s_lo, s_hi))
            return original(n, k0, t, s_lo, s_hi, *args)

        monkeypatch.setattr(attacks, "_isda_bound", counting)
        assert isda_secure(4, 4096, 47, 100)
        assert intervals.count((1, 4095)) == 1

    @pytest.mark.parametrize("n0,p,t", ISDA_POINTS)
    def test_decision_equals_full_scan(self, n0, p, t):
        try:
            m = isda_full_scan(n0, p, t).log2_wf
        except ParameterError:
            assert not isda_secure(n0, p, t, 50)
            assert not isda_secure(n0, p, t, 100)
            return
        for target in (m, math.nextafter(m, -math.inf), math.nextafter(m, math.inf),
                       m - 5, m + 5):
            assert isda_secure(n0, p, t, target) == (m >= target), target

    def test_decision_tolerates_bound_rounding(self, monkeypatch):
        # a bound that overshoots the exact minimum of its interval by less
        # than PRUNE_MARGIN, as lgamma rounding may, must not prune that minimum
        def tight_bound(n, k0, t, s_lo, s_hi, ps_max, ell_max):
            wfs = [_outcome(isd_wf, IsdInstance(n, k0 + s, t, s)) for s in range(s_lo, s_hi + 1)]
            return min((r.log2_wf for r in wfs if isinstance(r, attacks.WfReport)),
                       default=math.inf) + attacks.PRUNE_MARGIN / 2

        monkeypatch.setattr(attacks, "_isda_bound", tight_bound)
        for n0, p, t in [(2, 97, 32), (3, 231, 65), (2, 336, 105)]:
            m = isda_full_scan(n0, p, t).log2_wf
            assert isda_secure(n0, p, t, m)
            assert not isda_secure(n0, p, t, math.nextafter(m, math.inf))

    @pytest.mark.parametrize("n0,p,t", [(3, 7168, 2), (4, 7168, 3)])
    def test_small_t_equals_full_scan(self, n0, p, t):
        # the minimum sits at s near p here, far right of where the search starts
        assert isda_wf_at(n0, p, t) == isda_full_scan(n0, p, t)

    def test_ties_go_to_the_smallest_s(self, monkeypatch):
        # whole-bit work factors tie across many s, and rounding up keeps every
        # bound below them, so the search must still report the smallest s
        original = attacks.isd_wf

        def whole_bits(inst):
            rep = original(inst)
            return attacks.WfReport(float(math.ceil(rep.log2_wf)), rep.p_s, rep.ell)

        monkeypatch.setattr(attacks, "isd_wf", whole_bits)
        for n0, p, t in [(4, 1024, 30), (3, 231, 65), (3, 1024, 3), (2, 700, 40)]:
            reps = [(_outcome(whole_bits, IsdInstance(n0 * p, (n0 - 1) * p + s, t, s)), s)
                    for s in range(1, p)]
            wfs = sorted((rep.log2_wf, s) for rep, s in reps if not isinstance(rep, str))
            assert wfs[1][0] == wfs[0][0]
            rep = _last(attacks._isda_search(n0, p, t, math.inf))
            assert (rep.log2_wf, rep.s) == wfs[0], (n0, p, t)

    def test_small_t_scans_few_shift_counts(self, monkeypatch):
        calls = []
        original = attacks.isd_wf

        def counting(inst, *args):
            calls.append(inst.n_targets)
            return original(inst, *args)

        attacks._isda_cached.cache_clear()
        monkeypatch.setattr(attacks, "isd_wf", counting)
        rep = isda_wf_at(3, 7168, 2)
        assert rep.s in calls
        assert len(calls) <= 50

    @pytest.mark.parametrize("n0", [-1, 0, 1])
    def test_fewer_than_two_blocks_rejected(self, n0):
        with pytest.raises(ParameterError):
            isda_wf_at(n0, 1024, 30)
        with pytest.raises(ParameterError):
            isda_secure(n0, 1024, 30, 100)
        with pytest.raises(ParameterError):
            dca_wf_at(n0, 1024, 20)


class TestWeightOutsideTheCode:
    """At t < 0 or t > n no shift count is feasible, and _isda_bound is inf with
    no grid.  A grid there would give log2 pi_one = -inf - (-inf) = NaN, and a
    NaN bound neither equals inf nor exceeds the incumbent, so it never prunes."""

    @pytest.mark.parametrize("n0", [2, 3, 4])
    def test_isda_bound_is_inf(self, n0):
        for p in range(2, 9):
            n, k0 = n0 * p, (n0 - 1) * p
            for t in (-3, -1, n + 1, 2 * n):
                for s_lo in range(1, p):
                    for s_hi in range(s_lo, p):
                        args = (n, k0, t, s_lo, s_hi, attacks.PS_MAX, attacks.ELL_MAX)
                        assert attacks._isda_bound(*args) == math.inf, args
                        # the oracle's mask takes p_s <= floor(k_hi/2) and
                        # t - 2 p_s <= n - k_lo - l, so at t = n + 1 a wide
                        # interval can pass it with log2 pi_one = +inf
                        if t != n + 1 or s_lo == s_hi:
                            assert meshgrid_isda_bound(*args) == math.inf, args
                assert not isda_secure(n0, p, t, 50), (p, t)

    @pytest.mark.parametrize("n0,p,t", [(2, 3, 9), (2, 5, -1)])
    def test_isda_wf_at_raises(self, n0, p, t):
        with pytest.raises(ParameterError, match="^no feasible shift count for this instance$"):
            isda_wf_at(n0, p, t)


def _last(search):
    best = None
    for best in search:
        pass
    return best


class TestLeftFirstOracle:
    """Best-bound-first order finds the minimum and the decision of the search
    that always went into the lower half first."""

    @pytest.mark.parametrize("n0,p,t", ISDA_POINTS)
    def test_minimum_and_decision(self, n0, p, t):
        expected = _last(left_first_isda_search(n0, p, t, math.inf))
        assert _last(attacks._isda_search(n0, p, t, math.inf)) == expected
        if expected is None:
            targets = [50, 100]
        else:
            m = expected.log2_wf
            targets = [m, math.nextafter(m, -math.inf), math.nextafter(m, math.inf),
                       m - 5, m + 5]
        for target in targets:
            decide = [any(rep.log2_wf < target for rep in search(n0, p, t, target))
                      for search in (attacks._isda_search, left_first_isda_search)]
            assert decide[0] == decide[1], target
