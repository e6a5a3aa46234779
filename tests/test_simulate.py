"""Monte Carlo harness: determinism, codeword modes, confidence intervals."""

import concurrent.futures
import csv
import os
import signal
import threading

import numpy as np
import pytest

from oracles import random_codeword_lot
from qcmc import simulate
from qcmc.cli import main
from qcmc.decoder import Algorithm, DecoderConfig
from qcmc.errors import ParameterError
from qcmc.prng import normalize_seed
from qcmc.simulate import MAX_TRIALS, run_trials, wilson_interval


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(3, 100)
        assert lo < 0.03 < hi

    def test_zero_and_full(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and 0.0 < hi < 0.1
        lo, hi = wilson_interval(50, 50)
        assert 0.9 < lo < 1.0 and hi == 1.0


class TestRunTrials:
    def test_zero_errors(self, toy_h):
        rep = run_trials(toy_h, DecoderConfig(Algorithm.BF_VARIABLE), 0, 20, 1)
        assert rep.cer == 0.0 and rep.ber == 0.0 and rep.avg_iterations == 0.0

    def test_deterministic_and_jobs_invariant(self, toy_h):
        cfg = DecoderConfig(Algorithm.BF_VARIABLE)
        a = run_trials(toy_h, cfg, 6, 130, 99, jobs=1)
        b = run_trials(toy_h, cfg, 6, 130, 99, jobs=1)
        assert a == b
        c = run_trials(toy_h, cfg, 6, 130, 99, jobs=2)
        assert a == c  # lot-based seeding: worker count cannot change results

    def test_counts_are_consistent(self, toy_h, toy_params):
        rep = run_trials(toy_h, DecoderConfig(Algorithm.BF_VARIABLE), 30, 60, 5)
        assert 0 <= rep.codeword_errors <= rep.trials
        assert rep.cer == rep.codeword_errors / rep.trials
        assert rep.ber == rep.bit_errors / (rep.trials * toy_params.n)
        assert rep.ci_low <= rep.cer <= rep.ci_high

    def test_cer_monotone_in_errors_on_average(self, toy_h):
        cfg = DecoderConfig(Algorithm.BF_VARIABLE)
        reps = [run_trials(toy_h, cfg, t, 120, 7) for t in (4, 18, 42)]
        # allow Monte Carlo slack via interval overlap: each step must not
        # decrease beyond the confidence bands
        for lo_rep, hi_rep in zip(reps, reps[1:]):
            assert hi_rep.ci_high >= lo_rep.ci_low
        assert reps[-1].cer >= reps[0].cer

    def test_zero_vs_random_codeword_within_3_sigma(self, toy_h, monkeypatch):
        cfg = DecoderConfig(Algorithm.BF_VARIABLE)
        t_err = 14
        n_tr = 400
        zero = run_trials(toy_h, cfg, t_err, n_tr, 3)
        monkeypatch.setattr(simulate, "_run_lot", random_codeword_lot)
        rand = run_trials(toy_h, cfg, t_err, n_tr, 3)
        p_pool = (zero.codeword_errors + rand.codeword_errors) / (2 * n_tr)
        sigma = np.sqrt(max(2 * p_pool * (1 - p_pool) / n_tr, 1e-12))
        assert abs(zero.cer - rand.cer) <= max(3 * sigma, 3 / n_tr)

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_records_equal_random_codeword_oracle(self, toy_h, rdf_h, algorithm):
        # bit flipping reads only the syndrome, and every SPA step is odd in the
        # received word, so a codeword under e decodes to the same record as e alone
        cfg, seed = DecoderConfig(algorithm), normalize_seed(17)
        converged = residual = 0
        for h, t_err in ((toy_h, 4), (toy_h, 20), (toy_h, 30), (toy_h, 45),
                         (rdf_h, 10), (rdf_h, 20)):
            record = simulate._run_lot(h, cfg, t_err, 24, seed, t_err)
            assert record.dtype == simulate.TRIAL_RECORD
            assert np.array_equal(record, random_codeword_lot(h, cfg, t_err, 24, seed, t_err))
            converged += int(record["converged"].sum())
            residual += int(np.count_nonzero(record["residual"]))
        assert 0 < converged < 6 * 24 and residual > 0  # both outcomes are compared

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_report_holds_python_scalars(self, toy_h, jobs):
        rep = run_trials(toy_h, DecoderConfig(Algorithm.BF_VARIABLE), 20, 130, 8, jobs=jobs)
        assert rep.codeword_errors > 0
        for name in ("trials", "codeword_errors", "bit_errors"):
            assert type(getattr(rep, name)) is int, name
        for name in ("cer", "ber", "avg_iterations"):
            assert type(getattr(rep, name)) is float, name

    def test_workers_bounded_by_lots_and_cpus(self, toy_h, monkeypatch):
        cfg = DecoderConfig(Algorithm.BF_VARIABLE)
        serial = run_trials(toy_h, cfg, 20, 130, 4, jobs=1)
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert run_trials(toy_h, cfg, 20, 130, 4, jobs=10**6) == serial
        assert started == [3]  # 130 trials make 3 lots
        assert run_trials(toy_h, cfg, 20, 64, 4, jobs=10**6) \
            == run_trials(toy_h, cfg, 20, 64, 4, jobs=1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert run_trials(toy_h, cfg, 20, 130, 4, jobs=8) == serial
        assert started == [3]  # one lot, or an unknown CPU count, runs serially

    def test_validation(self, toy_h, toy_params, monkeypatch):
        monkeypatch.setattr(simulate, "_run_lot", None)  # a missed check fails at once
        with pytest.raises(ParameterError):
            run_trials(toy_h, DecoderConfig(Algorithm.BF_VARIABLE),
                       toy_params.n + 1, 5, 0)
        with pytest.raises(ParameterError):
            run_trials(toy_h, DecoderConfig(Algorithm.BF_VARIABLE), 1, 0, 0)
        with pytest.raises(ParameterError, match="MAX_TRIALS"):
            run_trials(toy_h, DecoderConfig(Algorithm.BF_VARIABLE), 1, MAX_TRIALS + 1, 0)


class TestSweep:
    def test_rows_and_csv(self, tmp_path):
        key, out = tmp_path / "toy", tmp_path / "sim.csv"
        assert main(["keygen", "--n0", "2", "--p", "256", "--dv", "5", "--t", "2", "--m", "3",
                     "--seed", "01", "--out", str(key)]) == 0
        assert main(["simulate", "--key", f"{key}.sk", "--t", "2,6", "--trials", "30",
                     "--decoder", "bfv", "--seed", "11", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["t_err"] for r in rows] == ["2", "6"]
        header = ",".join(rows[0])  # the CSV columns
        assert header == "t_err,trials,cer,ber,avg_iters,ci_low,ci_high"


class TestDecoderIterationBudgetAssumption:
    def test_avg_iterations_near_ten_for_sparse_design(self):
        # the complexity metric assumes I ~ 10 decoding iterations; measured
        # iteration counts for a sparse design near its threshold must stay
        # within a factor of two of that
        from qcmc.design import SystemParams, sample_h_random
        from qcmc.prng import SeedStream
        params = SystemParams.make(4, 4096, 15, 47, sigma_w=15)
        h = sample_h_random(params, SeedStream(77, "iters"))
        rep = run_trials(h, DecoderConfig(Algorithm.SPA, p0=190 / params.n),
                         190, 60, 5)
        assert 5.0 <= rep.avg_iterations <= 20.0


class TestDesignFamilyComparison:
    def test_random_and_rdf_error_rates_overlap(self):
        # scaled-down family comparison: near the threshold of the
        # (n=2048, d_v=9) family, fully random and difference-family designs
        # give statistically indistinguishable codeword error rates
        from qcmc.design import SystemParams, sample_h_random, sample_h_rdf
        from qcmc.prng import SeedStream
        params = SystemParams.make(4, 512, 5, 9)
        t_err = 50
        cfg = DecoderConfig(Algorithm.SPA, p0=t_err / params.n)
        h_rand = sample_h_random(params, SeedStream(21, "rand"))
        h_rdf = sample_h_rdf(params, SeedStream(22, "rdf"))
        rep_rand = run_trials(h_rand, cfg, t_err, 200, 9)
        rep_rdf = run_trials(h_rdf, cfg, t_err, 200, 9)
        assert rep_rand.ci_low <= rep_rdf.ci_high
        assert rep_rdf.ci_low <= rep_rand.ci_high


def test_trials_leave_signals_timers_and_threads_alone(mdpc_h):
    """The decoders install no signal handler, touch no interval timer and start no
    thread or process at jobs=1: a 1 ms re-arming SIGALRM timer, like a sampling
    profiler's, keeps ticking through SPA and BFV trials and changes no report."""
    cfgs = (DecoderConfig(Algorithm.SPA), DecoderConfig(Algorithm.BF_VARIABLE))
    untimed = [run_trials(mdpc_h, cfg, 68, 2, 11) for cfg in cfgs]
    ticks = []

    def tick(signum, frame):
        ticks.append(signum)
        signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)

    threads = threading.active_count()
    previous = signal.signal(signal.SIGALRM, tick)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
        timed = [run_trials(mdpc_h, cfg, 68, 2, 11) for cfg in cfgs]
        handler = signal.getsignal(signal.SIGALRM)
        interval = signal.getitimer(signal.ITIMER_REAL)[1]  # a periodic timer reads as set
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # a tick pending now cannot re-arm
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert timed == untimed
    assert handler is tick and interval == pytest.approx(0.001)
    assert threading.active_count() == threads
    assert len(ticks) >= 10
