"""Decoder correctness: syndromes, provable BF cases, SPA behavior, purity,
the rotation kernel against index-table gathers, the scatter/recount crossovers,
the SPA tiny-tanh guard and inert artanh clip, SPA's closed-form first two rounds, outcomes
equal to the reference decoder, pinned outcomes."""

import hashlib
import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from oracles import TannerGather, gf2_matmul, reference_decode
from qcmc import decoder
from qcmc.decoder import (LLR_CLAMP, Algorithm, DecoderConfig, _accumulate, _check_update,
                          _count_unsatisfied, _index_for, _spa_totals, _spread, decode,
                          syndrome)
from qcmc.design import SystemParams, sample_h_random, systematic_generator
from qcmc.errors import ParameterError
from qcmc.gf2 import qc_vec_mul
from qcmc.prng import SeedStream


def weight_t_error(n, t, seed):
    e = np.zeros(n, dtype=np.uint8)
    if t:
        e[np.random.RandomState(seed).choice(n, t, replace=False)] = 1
    return e


class TestSyndrome:
    def test_zero_word(self, toy_h, toy_params):
        assert not syndrome(toy_h, np.zeros(toy_params.n, dtype=np.uint8)).any()

    def test_codewords_have_zero_syndrome(self, toy_h, toy_params):
        g = systematic_generator(toy_h)
        rng = SeedStream(3, "cw")
        for _ in range(10):
            u = np.frombuffer(rng.take_bytes(toy_params.k), dtype=np.uint8) & 1
            assert not syndrome(toy_h, qc_vec_mul(u, g)).any()

    def test_dense_oracle(self):
        params = SystemParams.make(2, 8, 3, 1)
        h = sample_h_random(params, SeedStream(4, "h"))
        dense = h.to_qc_matrix().expand()
        for seed in range(50):
            v = np.random.RandomState(seed).randint(0, 2, params.n).astype(np.uint8)
            assert np.array_equal(syndrome(h, v), gf2_matmul(dense, v[:, None])[:, 0])

    def test_length_check(self, toy_h):
        with pytest.raises(ParameterError):
            syndrome(toy_h, np.zeros(5, dtype=np.uint8))

    @pytest.mark.parametrize("bad", [2, 255, 256, -1])
    def test_entries_other_than_0_and_1_rejected(self, toy_h, toy_params, bad):
        # checked on the word as given: a uint8 cast would turn 256 into 0 and -1 into 255
        dtypes = [np.int16, np.int64] + ([np.uint8] if bad in (2, 255) else [])
        for dtype in dtypes:
            word = np.zeros(toy_params.n, dtype=dtype)
            word[[3, 7]] = (1, bad)
            for candidate in (word, word.tolist()):
                with pytest.raises(ParameterError, match="word entries must be 0 or 1"):
                    syndrome(toy_h, candidate)
                for alg in Algorithm:
                    with pytest.raises(ParameterError, match="word entries must be 0 or 1"):
                        decode(toy_h, candidate, DecoderConfig(alg))

    def test_bool_and_int_words_accepted(self, toy_h, toy_params):
        word = np.zeros(toy_params.n, dtype=np.uint8)
        word[[3, 7, 100]] = 1
        expect = syndrome(toy_h, word)
        for candidate in (word.astype(np.bool_), word.astype(np.int64), word.tolist()):
            assert np.array_equal(syndrome(toy_h, candidate), expect)
            out = decode(toy_h, candidate, DecoderConfig(Algorithm.BF_VARIABLE))
            assert outcome_key(out) == outcome_key(
                decode(toy_h, word, DecoderConfig(Algorithm.BF_VARIABLE)))


def outcome_key(out):
    return out.success, out.error_estimate.tobytes(), out.iterations_used


class TestConfigValidation:
    def test_bf_fixed_default_b_is_d_v(self, toy_h, toy_params):
        words = [weight_t_error(toy_params.n, 30, seed) for seed in range(8)]

        def outcomes(b):
            cfg = DecoderConfig(Algorithm.BF_FIXED, max_iterations=10, b=b)
            return [outcome_key(decode(toy_h, e, cfg)) for e in words]

        assert outcomes(None) == outcomes(toy_params.d_v)
        assert outcomes(None) != outcomes(toy_params.d_v - 1)

    def test_b_range_checked_at_decode(self, rdf_h, rdf_params):
        cfg = DecoderConfig(Algorithm.BF_FIXED, b=2)  # below ceil(5/2)
        with pytest.raises(ParameterError):
            decode(rdf_h, np.zeros(rdf_params.n, dtype=np.uint8), cfg)

    def test_spa_default_p0_range_checked_at_decode(self):
        params = SystemParams.make(2, 16, 3, 16)  # t'/n = 16/32: no valid SPA prior
        h = sample_h_random(params, SeedStream(5, "h"))
        with pytest.raises(ParameterError):
            decode(h, np.zeros(params.n, dtype=np.uint8), DecoderConfig(Algorithm.SPA))

    def test_spa_default_p0_error_names_t_prime_and_n(self):
        params = SystemParams.make(2, 16, 3, 16)
        h = sample_h_random(params, SeedStream(5, "h"))
        with pytest.raises(ParameterError, match=r"\(t'=16, n=32\) must lie in \(0, 0.5\)"):
            decode(h, np.zeros(params.n, dtype=np.uint8), DecoderConfig(Algorithm.SPA))

    def test_spa_p0_range(self):
        with pytest.raises(ParameterError):
            DecoderConfig(Algorithm.SPA, p0=0.5)
        with pytest.raises(ParameterError):
            DecoderConfig(Algorithm.SPA, p0=0.0)

    def test_spa_default_p0_is_error_fraction(self, toy_h, toy_params):
        words = [weight_t_error(toy_params.n, 40, seed) for seed in range(8)]

        def outcomes(p0):
            cfg = DecoderConfig(Algorithm.SPA, max_iterations=10, p0=p0)
            return [outcome_key(decode(toy_h, e, cfg)) for e in words]

        assert outcomes(None) == outcomes(toy_params.error_fraction)
        assert outcomes(None) != outcomes(0.08)


class TestBitFlipping:
    def test_zero_errors_zero_iterations(self, rdf_h, rdf_params):
        out = decode(rdf_h, np.zeros(rdf_params.n, dtype=np.uint8),
                     DecoderConfig(Algorithm.BF_VARIABLE))
        assert out.success and out.iterations_used == 0
        assert not out.error_estimate.any()

    def test_single_error_unanimous_threshold(self, rdf_h, rdf_params):
        # girth >= 6 and b = d_v: exactly the errored bit flips, iteration 1
        cfg = DecoderConfig(Algorithm.BF_FIXED, b=rdf_params.d_v)
        for j in (0, 1, rdf_params.p - 1, rdf_params.p, rdf_params.n - 1):
            e = np.zeros(rdf_params.n, dtype=np.uint8)
            e[j] = 1
            out = decode(rdf_h, e, cfg)
            assert out.success and out.iterations_used == 1
            assert np.array_equal(out.error_estimate, e)

    def test_single_error_all_positions_small_code(self):
        from qcmc.design import sample_h_rdf
        params = SystemParams.make(4, 29, 3, 1)
        h = sample_h_rdf(params, SeedStream(6, "h"))
        cfg = DecoderConfig(Algorithm.BF_FIXED, b=3)
        for j in range(params.n):
            e = np.zeros(params.n, dtype=np.uint8)
            e[j] = 1
            out = decode(h, e, cfg)
            assert out.success and np.array_equal(out.error_estimate, e)

    def test_success_implies_zero_syndrome(self, rdf_h, rdf_params):
        cfg = DecoderConfig(Algorithm.BF_VARIABLE)
        for seed in range(30):
            e = weight_t_error(rdf_params.n, 12, seed)
            out = decode(rdf_h, e, cfg)
            if out.success:
                assert not syndrome(rdf_h, e ^ out.error_estimate).any()

    def test_inputs_not_modified_and_deterministic(self, rdf_h, rdf_params):
        e = weight_t_error(rdf_params.n, 10, 7)
        snapshot = e.copy()
        cfg = DecoderConfig(Algorithm.BF_VARIABLE)
        out1 = decode(rdf_h, e, cfg)
        assert np.array_equal(e, snapshot)
        out2 = decode(rdf_h, e, cfg)
        assert out1.success == out2.success
        assert np.array_equal(out1.error_estimate, out2.error_estimate)
        assert out1.iterations_used == out2.iterations_used

    def test_iteration_budget_respected(self, toy_h, toy_params):
        cfg = DecoderConfig(Algorithm.BF_FIXED, b=5, max_iterations=3)
        for seed in range(20):
            out = decode(toy_h, weight_t_error(toy_params.n, 40, seed), cfg)
            assert out.iterations_used <= 3

    def test_failure_is_outcome_not_exception(self, toy_h, toy_params):
        # saturate with errors: must report failure, not raise
        heavy = weight_t_error(toy_params.n, toy_params.n // 2, 1)
        out = decode(toy_h, heavy, DecoderConfig(Algorithm.BF_VARIABLE, max_iterations=5))
        assert not out.success


class TestSumProduct:
    def test_zero_errors_immediate(self, rdf_h, rdf_params):
        out = decode(rdf_h, np.zeros(rdf_params.n, dtype=np.uint8),
                     DecoderConfig(Algorithm.SPA, p0=0.01))
        assert out.success and out.iterations_used == 0

    def test_corrects_moderate_errors(self, rdf_h, rdf_params):
        for t_err in (5, 10, 15):
            cfg = DecoderConfig(Algorithm.SPA, p0=t_err / rdf_params.n)
            for seed in range(5):
                e = weight_t_error(rdf_params.n, t_err, 100 * t_err + seed)
                out = decode(rdf_h, e, cfg)
                assert out.success
                assert np.array_equal(out.error_estimate, e)

    def test_deterministic(self, rdf_h, rdf_params):
        e = weight_t_error(rdf_params.n, 14, 9)
        cfg = DecoderConfig(Algorithm.SPA, p0=14 / rdf_params.n)
        out1, out2 = decode(rdf_h, e, cfg), decode(rdf_h, e, cfg)
        assert np.array_equal(out1.error_estimate, out2.error_estimate)
        assert out1.iterations_used == out2.iterations_used

    def test_success_zero_syndrome(self, rdf_h, rdf_params):
        cfg = DecoderConfig(Algorithm.SPA, p0=0.05)
        for seed in range(20):
            e = weight_t_error(rdf_params.n, 16, seed)
            out = decode(rdf_h, e, cfg)
            if out.success:
                assert not syndrome(rdf_h, e ^ out.error_estimate).any()


class TestDispatch:
    def test_decode_routes(self, rdf_h, rdf_params):
        e = weight_t_error(rdf_params.n, 3, 2)
        spa = decode(rdf_h, e, DecoderConfig(Algorithm.SPA, p0=0.01))
        bfv = decode(rdf_h, e, DecoderConfig(Algorithm.BF_VARIABLE))
        assert spa.success and bfv.success


@pytest.fixture(scope="module")
def qc_h():
    """A random (n0, p, d_v) = (4, 4096, 15) code, the shape of the 100-bit design."""
    return sample_h_random(SystemParams.make(4, 4096, 15, 47), SeedStream(0x41, "pinned-h"))


class TestRotationKernel:
    """Every edge pass the decoders make equals the index-table gather exactly."""

    @pytest.fixture(scope="class", params=["toy_h", "rdf_h", "qc_h", "mdpc_h"])
    def code(self, request):
        h = request.getfixturevalue(request.param)
        return h, _index_for(h), TannerGather(h)

    def test_syndrome(self, code):
        h, _, gather = code
        rng = np.random.RandomState(11)
        words = [rng.randint(0, 2, h.params.n).astype(np.uint8) for _ in range(3)]
        words += [weight_t_error(h.params.n, t, t) for t in (1, 2, h.params.p // 64)]
        for v in words:
            expected = gather.syndrome(v.reshape(h.params.n0, h.params.p))
            assert np.array_equal(syndrome(h, v), expected)

    def test_unsatisfied_counts(self, code):
        h, index, gather = code
        pr = h.params
        synd = np.random.RandomState(12).randint(0, 2, pr.p).astype(np.uint8)
        upc = _accumulate(np.add, np.zeros((pr.n0, pr.p), np.int64), synd, index[1])
        expected = gather.unsatisfied_counts(synd)
        assert upc.dtype == expected.dtype and np.array_equal(upc, expected)

    def test_unsatisfied_count_updates(self, code):
        h, index, gather = code
        pr = h.params
        rng = np.random.RandomState(15)
        synd = rng.randint(0, 2, pr.p).astype(bool)
        upc = gather.unsatisfied_counts(synd).astype(np.min_scalar_type(pr.d_v))
        for n_toggled in (1, 3, pr.p // 64, pr.p // 2):  # scattered, then recounted
            toggled = np.zeros(pr.p, bool)
            toggled[rng.choice(pr.p, n_toggled, replace=False)] = True
            synd = synd ^ toggled
            upc = _count_unsatisfied(index, upc, synd, toggled)
            assert np.array_equal(upc, gather.unsatisfied_counts(synd))

    def test_spread_to_edges(self, code):
        h, (to_check, _), gather = code
        pr = h.params
        rng = np.random.RandomState(13)
        var_blocks = rng.standard_normal((pr.n0, pr.p))
        minus = rng.standard_normal((pr.n0, pr.d_v, pr.p))
        assert np.array_equal(_spread(np.zeros(minus.shape), var_blocks, to_check),
                              gather.spread_to_edges(var_blocks))
        assert np.array_equal(_spread(minus.copy(), var_blocks, to_check),
                              gather.spread_to_edges(var_blocks) - minus)

    def test_collect_at_vars(self, code):
        h, (_, to_var), gather = code
        pr = h.params
        edge_vals = np.random.RandomState(14).standard_normal((pr.n0, pr.d_v, pr.p))
        assert np.array_equal(_accumulate(np.add, np.zeros((pr.n0, pr.p)), edge_vals, to_var),
                              gather.collect_at_vars(edge_vals))

    def test_shared_rows_one_slice_per_rotation(self, code):
        """A row shared by a block's edges (one 1-D row, or (n0, 1, p) blocks) costs one op
        call a rotation and an edge row two, and each output equals np.roll's in edge order."""
        h, (to_check, _), _ = code
        n0, d_v, p = h.params.n0, h.params.d_v, h.params.p
        shifts = to_check.copy()
        shifts[0, 0], shifts[-1, -1] = 0, p - 1
        rng = np.random.RandomState(16)
        for ufunc, dtype in ((np.logical_xor, np.bool_), (np.add, np.uint8), (np.add, np.int64),
                             (np.add, np.float64)):
            draw = (lambda *shape: rng.standard_normal(shape) if dtype is np.float64
                    else rng.randint(0, 2 if dtype is np.bool_ else 256, shape).astype(dtype))
            for rows, calls in ((draw(p), n0 * d_v), (draw(n0, 1, p), n0 * d_v),
                                (draw(n0, d_v, p), 2 * n0 * d_v)):
                start = draw(n0, p)
                expected = start.copy()
                full = np.broadcast_to(rows, (n0, d_v, p))
                for i, l in np.ndindex(n0, d_v):
                    expected[i] = ufunc(expected[i], np.roll(full[i, l], -shifts[i, l]))
                counted = Counter()

                def op(*args, **kwargs):
                    counted["calls"] += 1
                    return ufunc(*args, **kwargs)

                out = _accumulate(op, start.copy(), rows, shifts)
                assert counted["calls"] == calls, (ufunc, dtype, rows.shape)
                assert out.dtype == dtype and np.array_equal(out, expected), (dtype, rows.shape)


class BranchLog:
    """Counts which branch _syndrome and _count_unsatisfied take: a call that
    reaches the rotation kernel recounts densely, any other call scatters."""

    def __init__(self, monkeypatch):
        self.taken = Counter()
        self.dense = False
        accumulate = decoder._accumulate

        def spy(*args):
            self.dense = True
            return accumulate(*args)

        monkeypatch.setattr(decoder, "_accumulate", spy)
        for name in ("_syndrome", "_count_unsatisfied"):
            monkeypatch.setattr(decoder, name, self._wrap(name, getattr(decoder, name)))

    def _wrap(self, name, fn):
        def wrapped(*args):
            self.dense = False
            out = fn(*args)
            # a bool word is a flip round's flips; toggled is synd only on the first count
            if name == "_syndrome":
                kind = "flips" if args[1].dtype == np.bool_ else "word"
            else:
                kind = "first" if args[3] is args[2] else "update"
            self.taken[name, kind, "dense" if self.dense else "scatter"] += 1
            return out
        return wrapped


class TestCrossover:
    """Sparse inputs scatter and dense ones take the rotation kernel."""

    def test_syndrome_branches(self, qc_h, monkeypatch):
        log = BranchLog(monkeypatch)
        n0, p = qc_h.params.n0, qc_h.params.p
        for weight, branch in ((1, "scatter"), (2 * p, "dense")):
            log.taken.clear()
            word = weight_t_error(n0 * p, weight, 3).reshape(n0, p)
            decoder._syndrome(_index_for(qc_h), word)
            assert log.taken == Counter({("_syndrome", "word", branch): 1})

    def test_count_branches(self, qc_h, monkeypatch):
        log = BranchLog(monkeypatch)
        n0, p = qc_h.params.n0, qc_h.params.p
        synd = np.zeros(p, bool)
        for n_toggled, branch in ((1, "scatter"), (p // 2, "dense")):
            log.taken.clear()
            toggled = weight_t_error(p, n_toggled, 4).astype(bool)
            synd = synd ^ toggled
            decoder._count_unsatisfied(_index_for(qc_h), np.zeros((n0, p), np.uint8),
                                       synd, toggled)
            assert log.taken == Counter({("_count_unsatisfied", "update", branch): 1})


# (code, word weight or "dense", SPA max_iterations, BF max_iterations).  Each word
# is decoded by SPA, BF_VARIABLE, BF_FIXED with the default b and with b = ceil(d_v/2) + 1.
ORACLE_WORDS = [
    ("toy_h", 2, 20, 40), ("toy_h", 40, 20, 40), ("toy_h", "dense", 20, 40),
    ("qc_h", 100, 10, 30), ("qc_h", 230, 6, 30), ("qc_h", "dense", 4, 30),
    ("mdpc_h", 40, 3, 12), ("mdpc_h", 90, 2, 12), ("mdpc_h", "dense", 1, 6),
]


def test_outcomes_equal_reference_decoder(request, monkeypatch):
    """decode equals tests/oracles.py::reference_decode on converging, non-converging
    and dense words, and bit flipping takes both sides of each crossover."""
    log = BranchLog(monkeypatch)
    converged, bf_taken = Counter(), Counter()
    for code, weight, spa_cap, bf_cap in ORACLE_WORDS:
        h = request.getfixturevalue(code)
        pr = h.params
        e = (np.random.RandomState(pr.p).randint(0, 2, pr.n).astype(np.uint8)
             if weight == "dense" else weight_t_error(pr.n, weight, weight))
        for cfg in (DecoderConfig(Algorithm.SPA, max_iterations=spa_cap),
                    DecoderConfig(Algorithm.BF_VARIABLE, max_iterations=bf_cap),
                    DecoderConfig(Algorithm.BF_FIXED, max_iterations=bf_cap),
                    DecoderConfig(Algorithm.BF_FIXED, max_iterations=bf_cap,
                                  b=math.ceil(pr.d_v / 2) + 1)):
            log.taken.clear()
            out, ref = decode(h, e, cfg), reference_decode(h, e, cfg)
            if cfg.algorithm is not Algorithm.SPA:
                bf_taken += log.taken
            assert (out.success, out.iterations_used) == (ref.success, ref.iterations_used)
            assert np.array_equal(out.error_estimate, ref.error_estimate), (code, weight, cfg)
            assert out.error_estimate.dtype == ref.error_estimate.dtype
            converged[out.success] += 1
    assert converged[True] and converged[False]
    for name, kind in (("_syndrome", "flips"), ("_count_unsatisfied", "update")):
        for branch in ("scatter", "dense"):
            assert bf_taken[name, kind, branch], (name, kind, branch)


def reference_check_update(tnh):
    """The check-node update the decoder used before the guard became a fix-up."""
    p = tnh.shape[-1]
    prod = tnh.reshape(-1, p).prod(axis=0)
    safe = np.where(np.abs(tnh) < 1e-30, np.copysign(1e-30, tnh), tnh)
    ratio = np.clip(prod[None, None, :] / safe, -1.0 + 1e-14, 1.0 - 1e-14)
    return np.clip(2.0 * np.arctanh(ratio), -LLR_CLAMP, LLR_CLAMP)


def test_check_update_tiny_tanh_guard():
    """Exact zeros of either sign, +/-1e-31 factors and a product that underflows
    without any tiny factor all give the old np.where formula's LLRs, bit for bit."""
    rng = np.random.RandomState(21)
    tnh = rng.uniform(-0.999, 0.999, (2, 40, 9))
    tnh[0, 3, 0] = 0.0
    tnh[1, 7, 1] = -0.0
    tnh[..., 2:4] = rng.choice([-0.95, 0.95], (2, 40, 2))  # |prod| ~ 1e-33 with the 1e-31
    tnh[0, 0, 2] = 1e-31
    tnh[1, 39, 3] = -1e-31
    tnh[0, 5, 4], tnh[1, 5, 4] = 0.0, -0.0
    tnh[..., 5] = 1e-9  # the product underflows to 0 with every factor above 1e-30
    tnh[..., 6] = rng.choice([-0.9, 0.9], (2, 40))  # |prod| ~ 2e-4: no guard at all
    tnh[0, :, 7] = 1e-31  # several tiny factors in one column
    expected = reference_check_update(tnh)
    guarded = set(np.flatnonzero(np.abs(tnh.reshape(-1, 9).prod(axis=0)) < 1e-30))
    assert guarded >= {0, 1, 2, 3, 4, 5, 7} and 6 not in guarded
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        halved = _check_update(tnh.copy())
    assert not np.isnan(halved).any()
    assert (2.0 * halved).tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def small_h():
    return sample_h_random(SystemParams.make(2, 64, 5, 2), SeedStream(0x40, "small-h"))


@pytest.fixture(scope="module")
def mid_h():
    return sample_h_random(SystemParams.make(4, 512, 9, 10), SeedStream(0x200, "mid-h"))


NEAR_HALF = float(np.nextafter(0.5, 0.0))  # tanh(L/2) ~ 1.1e-16: every column takes the 1e-30 guard


def first_round_p0s(params):
    return [1e-300, 1e-6, params.t / params.n, 0.01, 0.3, 0.45, NEAR_HALF]


def general_first_two_rounds(index, blocks, llr):
    """Round one's edges and totals, then round two's tanh'ed edges and totals, as every later
    round runs: spread, tanh, check update (round one's messages clipped, as tanh(llr / 2)
    can be 1), collect; then spread, clip, tanh, check update, collect."""
    channel = llr * (1.0 - 2.0 * blocks.astype(np.float64))

    def collect(edges):
        return channel + 2.0 * _accumulate(np.add, np.zeros_like(channel), edges, index[1])

    first = np.clip(_check_update(np.tanh(_spread(np.zeros(index[0].shape + blocks.shape[-1:]),
                                                  0.5 * channel, index[0]))),
                    -LLR_CLAMP / 2, LLR_CLAMP / 2)
    total = collect(first)
    second = np.tanh(np.clip(_spread(first.copy(), 0.5 * total, index[0]),
                             -LLR_CLAMP / 2, LLR_CLAMP / 2))
    return first, total, second, collect(_check_update(second.copy()))


@pytest.mark.parametrize("code", ["small_h", "mid_h", "qc_h", "mdpc_h"])
def test_first_round_closed_form_is_bitwise_exact(request, monkeypatch, code):
    """_spa_totals' round-one totals, round-two edges (what its second check update takes)
    and round-two totals are the very bits of the general rounds', signed zeros included,
    for every p0 on the grid and words from weight 1 to all ones."""
    h = request.getfixturevalue(code)
    pr, index = h.params, _index_for(h)
    taken = []

    def recording(tnh):
        taken.append(tnh.copy())
        return _check_update(tnh)

    monkeypatch.setattr(decoder, "_check_update", recording)
    words = [weight_t_error(pr.n, w, w) for w in (1, pr.t, pr.n // 3, pr.n // 2)]
    for e in words + [np.ones(pr.n, np.uint8)]:
        blocks = e.reshape(pr.n0, pr.p)
        synd = decoder._syndrome(index, blocks)
        for p0 in first_round_p0s(pr):
            general = general_first_two_rounds(index, blocks, math.log((1.0 - p0) / p0))
            taken.clear()
            rounds = _spa_totals(index, blocks, synd, p0)
            closed = next(rounds), next(rounds)
            assert len(taken) == 2  # m's check update, then round two's
            for got, want in zip((closed[0], taken[1], closed[1]), general[1:]):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
                    code, p0, int(e.sum()))
            if p0 == NEAR_HALF and pr.n0 * pr.d_v >= 36:  # the product underflows to +/-0
                assert not general[0].any() and np.signbit(general[0]).any()


def test_tanh_and_artanh_are_odd_and_lane_independent():
    """What the closed forms rest on, on a dense p0 grid.  Round one: tanh at the halved
    channel LLRs and at the messages m, and artanh at the clipped check ratios that give m,
    return exactly negated values for negated inputs and the same value in any SIMD lane.
    Round two runs tanh on the (n0, p) arrays of clipped total / 2 -/+ m, the general round
    on rotated edge rows: tanh there is also the same in any lane (and odd)."""
    p0 = np.concatenate([np.geomspace(1e-300, 0.45, 20000),
                         0.5 - np.geomspace(2.0 ** -54, 0.05, 5000)])
    half_llr = np.array([0.5 * math.log((1.0 - q) / q) for q in p0])
    tnh = np.tanh(half_llr)
    d_vs = (5, 18, 30, 170)  # d_c = 2 d_v
    ratios = np.concatenate([np.clip(np.broadcast_to(tnh, (2 * d_v, tnh.size)).prod(axis=0) / tnh,
                                     -1.0 + 1e-14, 1.0 - 1e-14) for d_v in d_vs])
    m = np.clip(np.arctanh(ratios), -LLR_CLAMP / 2, LLR_CLAMP / 2)
    llr, d_v = np.tile(2.0 * half_llr, len(d_vs)), np.repeat(d_vs, half_llr.size)
    second = [np.clip(0.5 * (sign * llr + 2.0 * k * m) - pm * m, -LLR_CLAMP / 2, LLR_CLAMP / 2)
              for sign in (1.0, -1.0) for k in (-d_v, -1, 0, 1, d_v) for pm in (1.0, -1.0)]
    for f, x in ((np.tanh, np.concatenate([half_llr, m, *second])), (np.arctanh, ratios)):
        assert np.array_equal(f(-x).view(np.uint64), (-f(x)).view(np.uint64))
        for shift in range(1, 8):
            assert np.array_equal(f(x[shift:]).view(np.uint64), f(x)[shift:].view(np.uint64))


@pytest.mark.parametrize("d_c", [1, 2, 3, 4, 340])
def test_check_update_clip_is_inert_from_three_checks(d_c):
    """_check_update equals the clipped reference bit for bit on its worst factors, each
    +/-fl(tanh 12.5) as a clipped message gives, with exact +/-0 and +/-1e-31 among them.
    From d_c = 3 no output reaches the clamp, so the clip it skips there would change nothing.
    At d_c = 1 and 2 factors of +/-1 (round one's at p0 = 1e-300) give a ratio of 1: clipped."""
    top = np.tanh(LLR_CLAMP / 2)
    signs = (np.array(list(itertools.product((1.0, -1.0), repeat=d_c))) if d_c <= 4
             else np.random.RandomState(d_c).choice([-1.0, 1.0], (16, d_c)))
    cols = [signs * top]
    for special in (0.0, -0.0, 1e-31, -1e-31):
        col = signs * top
        col[:, -1] = special
        cols.append(col)
    if d_c < 3:
        cols.append(signs)
    tnh = np.concatenate(cols).T.reshape(d_c, 1, -1)
    out = _check_update(tnh.copy())
    assert (2.0 * out).tobytes() == reference_check_update(tnh).tobytes()
    if d_c >= 3:
        assert np.abs(out).max() < 12.2
    else:
        assert np.abs(out).max() == LLR_CLAMP / 2


def test_spa_runs_tanh_on_two_values_per_variable_in_round_two(mdpc_h, monkeypatch):
    """One SPA decode on the MDPC code: tanh runs on n0 d_v values for m, on 2 n0 p for
    round two and on all n0 d_v p edges in every later round."""
    sizes, tanh = [], np.tanh

    def recording(x, *args, **kwargs):
        sizes.append(np.size(x))
        return tanh(x, *args, **kwargs)

    monkeypatch.setattr(np, "tanh", recording)
    pr = mdpc_h.params
    out = decode(mdpc_h, weight_t_error(pr.n, 90, 90),
                 DecoderConfig(Algorithm.SPA, max_iterations=4, p0=90 / pr.n))
    assert not out.success and out.iterations_used == 4
    assert sizes == [pr.n0 * pr.d_v, 2 * pr.n0 * pr.p] + [pr.n0 * pr.d_v * pr.p] * 2


def test_artanh_near_one_needs_no_clip():
    """On each of the 91 doubles in [1 - 1e-14, 1], artanh is nondecreasing and odd and
    at least LLR_CLAMP / 2, so clipping the check ratio to +/-(1 - 1e-14) before artanh
    changes no clamped message."""
    x = [1.0 - 1e-14]
    while x[-1] < 1.0:
        x.append(math.nextafter(x[-1], 2.0))
    x = np.array(x)
    with np.errstate(divide="ignore"):
        y, y_neg = np.arctanh(x), np.arctanh(-x)
    assert x.size == 91 and y[-1] == math.inf
    assert (np.diff(y) >= 0.0).all()
    assert np.array_equal(y_neg.view(np.uint64), (-y).view(np.uint64))
    assert y[0] >= LLR_CLAMP / 2


def test_check_ratios_stay_within_one(request, monkeypatch):
    """|prod / tnh| <= 1 on every edge of every SPA decode of the oracle words, and at
    p0 = 1e-300 the first round reaches exactly 1, where artanh gives inf."""
    magnitudes, arctanh = [], np.arctanh

    def recording(x, *args, **kwargs):
        magnitudes.append(float(np.abs(x).max()))
        return arctanh(x, *args, **kwargs)

    monkeypatch.setattr(np, "arctanh", recording)
    words = [(code, weight, cap, None) for code, weight, cap, _ in ORACLE_WORDS]
    words += [("small_h", 12, 20, p0) for p0 in (1e-300, NEAR_HALF)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for code, weight, cap, p0 in words:
            h = request.getfixturevalue(code)
            pr = h.params
            e = (np.random.RandomState(pr.p).randint(0, 2, pr.n).astype(np.uint8)
                 if weight == "dense" else weight_t_error(pr.n, weight, weight))
            decode(h, e, DecoderConfig(Algorithm.SPA, max_iterations=cap, p0=p0))
    assert len(magnitudes) > len(words) and 1.0 in magnitudes
    assert all(m <= 1.0 for m in magnitudes)  # also false for NaN


@pytest.mark.parametrize("p0", [1e-300, 1e-6, 0.45, NEAR_HALF])
def test_spa_outcomes_equal_reference_at_extreme_p0(request, p0):
    """From saturated messages (p0 = 1e-300) to every column guarded (NEAR_HALF)."""
    for code, weight, cap in (("small_h", 2, 20), ("small_h", 12, 20), ("mid_h", 10, 10),
                              ("mid_h", "dense", 3), ("qc_h", 100, 4)):
        h = request.getfixturevalue(code)
        pr = h.params
        e = (np.random.RandomState(pr.p).randint(0, 2, pr.n).astype(np.uint8)
             if weight == "dense" else weight_t_error(pr.n, weight, weight))
        cfg = DecoderConfig(Algorithm.SPA, max_iterations=cap, p0=p0)
        out, ref = decode(h, e, cfg), reference_decode(h, e, cfg)
        assert outcome_key(out) == outcome_key(ref), (code, weight)


# (code, algorithm, t, max_iterations, success, iterations_used, sha256 of error_estimate)
# for the word weight_t_error(n, t, t), recorded with the index-table gather decoder.
# BF_FIXED uses b = 11 on qc_h and b = 50 on mdpc_h; SPA uses p0 = t / n.
PINNED = [
    ("qc_h", "spa", 200, 20, True, 6,
     "23e85a9e2dfc38555ecd888788b04fe3e608311a4fb9150957fd9bf1a561bb32"),
    ("qc_h", "spa", 230, 20, False, 20,
     "39fbce05838ac7628a1c04c76e13621740cdae0c1f1886304311753d33960f8a"),
    ("qc_h", "bf", 100, 20, True, 3,
     "13174e5f457f094526771a3fa45afbe9abd171ccbc6721bfedab862fb5c08be0"),
    ("qc_h", "bf", 200, 20, False, 4,
     "ef0e236a04fe6f56dde254ea342d9ca882333b0437982abf33d2cb4801aee4aa"),
    ("qc_h", "bfv", 100, 40, True, 26,
     "13174e5f457f094526771a3fa45afbe9abd171ccbc6721bfedab862fb5c08be0"),
    ("qc_h", "bfv", 160, 12, False, 12,
     "100b6c8f932f15f52b193d6cecf5a7a0bc66c52537a1032de54079ac502357d9"),
    ("mdpc_h", "spa", 68, 12, True, 3,
     "852e373715b320b4a3c7635ea5e34fe129ed7d1efa546c9c274d4927f3a76892"),
    ("mdpc_h", "spa", 90, 8, False, 8,
     "afc3f77e19dc0bd3fd9f1e58a4eca7812772c74367262f82ce8aeaba77cd1fc7"),
    ("mdpc_h", "bf", 40, 12, True, 2,
     "eb267628a130a573f3d4bb19a1e3f0de73c17f288ba268ac95c31791a71e159c"),
    ("mdpc_h", "bf", 100, 12, False, 12,
     "9ddaa8ac10c821c554795e7efb0a7f4a774c2682c3272934bf4e23ad22ab58ce"),
    ("mdpc_h", "bfv", 10, 12, True, 8,
     "17065631dcd385701053d6d533ec1714e80c5f370bbb8df7e2a5d17dd957e2d0"),
    ("mdpc_h", "bfv", 30, 12, False, 12,
     "887ad7b9b89ee82d3cfeace9656c423c7ed64b4c439e8e1322e856f8a99e3dd0"),
]


@pytest.mark.parametrize("code, alg, t, cap, success, iterations, digest", PINNED,
                         ids=[f"{c[:-2]}-{a}-t{t}" for c, a, t, *_ in PINNED])
def test_pinned_outcomes(request, code, alg, t, cap, success, iterations, digest):
    h = request.getfixturevalue(code)
    n = h.params.n
    algorithm = Algorithm(alg)
    b = {"qc_h": 11, "mdpc_h": 50}[code] if algorithm is Algorithm.BF_FIXED else None
    cfg = DecoderConfig(algorithm, max_iterations=cap, b=b,
                        p0=t / n if algorithm is Algorithm.SPA else None)
    out = decode(h, weight_t_error(n, t, t), cfg)
    assert (out.success, hashlib.sha256(out.error_estimate.tobytes()).hexdigest(),
            out.iterations_used) == (success, digest, iterations)
