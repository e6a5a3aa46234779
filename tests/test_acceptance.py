"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 8 (MDPC residual error rates over >= 20000 trials; the
whole nightly suite took 15 min on 2 cores) carries the `nightly` marker;
everything else runs in the default suite within minutes.
"""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles import circulant_dense, gf2_inv, gf2_matmul, gf2_rank
from qcmc.attacks import dca_wf_at, isd_wf, isda_wf_at, IsdInstance, q_space_size
from qcmc.crypto import decrypt, encrypt, keygen, save_private_key
from qcmc.decoder import Algorithm, DecoderConfig, syndrome
from qcmc.design import (SystemParams, sample_h_random, sample_h_rdf,
                         systematic_generator)
from qcmc.errors import NotInvertibleError, SingularMatrixError
from qcmc.gf2 import (BitPolynomial, QcMatrix, int_to_bits, poly_inverse, poly_mul,
                      qc_invert, qc_mul, qc_transpose, qc_vec_mul)
from qcmc.optimize import OptimizerConfig, complexity_c, m_star, optimize_design
from qcmc.prng import SeedStream
from qcmc.simulate import run_trials
from qcmc.threshold import ThresholdQuery, bf_threshold


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


class TestCriterion1DecryptionComplexityAnchors:
    def test_eq_anchors_exact(self):
        anchors = [
            (16384, 59, Fraction(1), 23.21),
            (16384, 59, Fraction(393, 100), 21.27),
            (28672, 77, Fraction(1), 24.40),
            (28672, 77, Fraction(513, 100), 22.09),
        ]
        for n, dvp, m, expect in anchors:
            got = math.log2(complexity_c(n, dvp, m, 10))
            assert round(got, 2) == expect, (n, dvp, m, got)
        report("1 complexity anchors",
               "C(1), C(3.93), C(5.13) match to two decimals in log2")


class TestCriterion2BfThresholds:
    def test_six_anchors_within_5_percent(self):
        anchors = [(16384, 13, 181), (16384, 15, 187), (28672, 15, 327),
                   (16384, 59, 68), (28672, 77, 98), (25088, 85, 77)]
        results = []
        for n, d_v, expect in anchors:
            got = bf_threshold(ThresholdQuery(n, 4, d_v))
            assert abs(got - expect) <= 0.05 * expect, (n, d_v, got, expect)
            results.append(f"({n},{d_v})->{got}")
        report("2 BF thresholds", "; ".join(results))


class TestCriterion3WorkFactors:
    def test_security_anchors_within_4_bits(self):
        d100 = dca_wf_at(4, 4096, 59).log2_wf
        i100 = isda_wf_at(4, 4096, 47).log2_wf
        d128 = dca_wf_at(4, 7168, 77).log2_wf
        i128 = isda_wf_at(4, 7168, 62).log2_wf
        assert abs(d100 - 100) <= 4 and abs(i100 - 100) <= 4
        assert abs(d128 - 128) <= 4 and abs(i128 - 128) <= 4
        report("3 work-factor anchors",
               f"dca100={d100:.2f} isda100={i100:.2f} "
               f"dca128={d128:.2f} isda128={i128:.2f}")

    def test_weak_length_dependence(self):
        gap_dca = abs(dca_wf_at(4, 16384, 59).log2_wf - dca_wf_at(4, 4096, 59).log2_wf)
        gap_isda = abs(isda_wf_at(4, 16384, 47).log2_wf - isda_wf_at(4, 4096, 47).log2_wf)
        assert gap_dca <= 4 and gap_isda <= 4
        report("3 weak length dependence",
               f"dca gap={gap_dca:.2f} bits, isda gap={gap_isda:.2f} bits")


class TestCriterion4QSpaceCounts:
    def test_two_published_counts_exact(self):
        a = q_space_size(4800, 2)
        b = q_space_size(3584, 3)
        assert round(a, 2) == 25.46 and round(b, 2) == 38.01
        # the published n0=4 count does not satisfy p^n0 * n0! and is excluded:
        # the formula gives 50.92, not 37.34
        c = q_space_size(3072, 4)
        assert round(c, 2) == 50.92
        report("4 Q-space counts", f"2^{a:.2f}, 2^{b:.2f}; n0=4 documented discrepant")


class TestCriterion5OptimizerConclusion:
    @pytest.mark.parametrize("lam", [100, 128])
    def test_sparse_beats_dense(self, lam):
        rep = optimize_design(OptimizerConfig(lam))
        by_dv = {d.params.d_v: d for d in rep.designs}
        assert 15 in by_dv, f"no d_v=15 row at lambda={lam}: {rep.rejections}"
        sparse = by_dv[15]
        assert sparse.params.m > 1
        dense = [d for d in rep.designs if d.params.m == 1]
        assert dense, f"no m=1 row at lambda={lam}"
        best_dense = min(d.C_log2 for d in dense)
        assert sparse.C_log2 < best_dense
        report(f"5 optimizer lambda={lam}",
               f"sparse d_v=15 C=2^{sparse.C_log2:.2f} < dense C=2^{best_dense:.2f}")


class TestCriterion6CryptosystemRoundtrip:
    def test_hundred_seeded_roundtrips(self):
        # 100-bit design point: p=4096, d_v=15, m snapped to the realizable
        # grid (59/15 -> 3.75), t=47, so t' = 177 <= threshold 187
        params = SystemParams.make(4, 4096, 15, 47, sigma_w=15)
        assert params.t_prime <= 187
        sk, pk = keygen(params, 0xACCE97)
        successes = 0
        for i in range(100):
            u = int_to_bits(SeedStream(i, "acc6-msg").take_bits(params.k), params.k)
            c = encrypt(pk, u, SeedStream(i, "acc6-err"))
            try:
                out = decrypt(sk, c)
            except Exception:
                continue
            assert np.array_equal(out, u), f"wrong plaintext accepted at trial {i}"
            successes += 1
        assert successes >= 99
        report("6 cryptosystem roundtrip",
               f"{successes}/100 roundtrips, exact recovery on every success")


class TestCriterion7OracleEquivalence:
    def test_thousand_randomized_dense_checks(self):
        rng = SeedStream(0xC7, "acc7")
        cases = 0

        for _ in range(260):  # poly_mul
            p = 2 + rng.below(31)
            a = BitPolynomial(p, rng.take_bits(p))
            b = BitPolynomial(p, rng.take_bits(p))
            dense = gf2_matmul(circulant_dense(a.coeffs()), circulant_dense(b.coeffs()))
            assert np.array_equal(circulant_dense(poly_mul(a, b).coeffs()), dense)
            cases += 1

        for _ in range(200):  # poly_inverse against dense rank/inverse
            p = 2 + rng.below(31)
            a = BitPolynomial(p, rng.take_bits(p))
            dense = circulant_dense(a.coeffs())
            try:
                inv = poly_inverse(a)
                assert gf2_rank(dense) == p
                assert np.array_equal(circulant_dense(inv.coeffs()), gf2_inv(dense))
            except NotInvertibleError:
                assert gf2_rank(dense) < p
            cases += 1

        for _ in range(150):  # qc_mul
            p = 2 + rng.below(15)
            a = _random_qc(rng, 2, 3, p)
            b = _random_qc(rng, 3, 2, p)
            assert np.array_equal(qc_mul(a, b).expand(), gf2_matmul(a.expand(), b.expand()))
            cases += 1

        for _ in range(150):  # qc_transpose
            p = 2 + rng.below(31)
            a = _random_qc(rng, 2, 2, p)
            assert np.array_equal(qc_transpose(a).expand(), a.expand().T)
            cases += 1

        inverted = 0
        while inverted < 60:  # qc_invert
            p = 2 + rng.below(15)
            a = _random_qc(rng, 2, 2, p)
            try:
                inv = qc_invert(a)
            except SingularMatrixError:
                continue
            assert np.array_equal(inv.expand(), gf2_inv(a.expand()))
            inverted += 1
            cases += 1

        for _ in range(150):  # qc_vec_mul
            p = 2 + rng.below(15)
            a = _random_qc(rng, 2, 3, p)
            v = int_to_bits(rng.take_bits(2 * p), 2 * p)
            assert np.array_equal(qc_vec_mul(v, a), gf2_matmul(v[None, :], a.expand())[0])
            cases += 1

        for _ in range(60):  # syndrome
            params = SystemParams.make(2, 8 + 8 * rng.below(4), 3, 1)
            h = sample_h_random(params, rng.child(f"h{cases}"))
            dense = h.to_qc_matrix().expand()
            v = int_to_bits(rng.take_bits(params.n), params.n)
            assert np.array_equal(syndrome(h, v), gf2_matmul(dense, v[:, None])[:, 0])
            cases += 1

        for i in range(12):  # keygen pipeline, classic + systematic
            params = SystemParams.make(2, 16, 3, 1, sigma_w=3 if i % 2 else 2)
            from qcmc.crypto import KeyMode, public_parity_check
            mode = KeyMode.CLASSIC if i % 3 else KeyMode.SYSTEMATIC
            sk, pk = keygen(params, 9000 + i, mode)
            hp = public_parity_check(sk)
            prod = gf2_matmul(pk.Gp.expand(), hp.expand().T)
            assert not prod.any()
            g = systematic_generator(sk.h)
            assert not gf2_matmul(g.expand(), sk.h.to_qc_matrix().expand().T).any()
            cases += 1

        assert cases >= 1000
        report("7 oracle equivalence", f"{cases} randomized dense-oracle cases")


def _random_qc(rng, rows0, cols0, p):
    return QcMatrix(
        [[BitPolynomial(p, rng.take_bits(p)) for _ in range(cols0)]
         for _ in range(rows0)])


@pytest.mark.nightly
class TestCriterion8MdpcDecoderObservation:
    """SPA vs variable-threshold BF on the d_v=85 code (nightly suite: 15 min on 2 cores)."""

    def test_spa_cer_and_bf_improvement(self):
        params = SystemParams.make(4, 6272, 85, 68)
        h = sample_h_random(params, SeedStream(0x8D, "mdpc"))
        trials = 20000
        jobs = 4  # lot-seeded: the worker count cannot change the counts
        spa = run_trials(h, DecoderConfig(Algorithm.SPA, p0=68 / params.n),
                         68, trials, 0xACC8, jobs=jobs)
        assert 4e-3 / 3 <= spa.cer <= 4e-3 * 3, spa
        bfv = run_trials(h, DecoderConfig(Algorithm.BF_VARIABLE), 68, trials,
                         0xACC8, jobs=jobs)
        assert bfv.cer < spa.cer
        # the 1.5e-5 hard-decision point needs ~1e6 trials; reported, not gated
        report("8 MDPC decoder observation",
               f"SPA cer={spa.cer:.2e} (target 4e-3 within x3); "
               f"BF_VARIABLE cer={bfv.cer:.2e} < SPA")


@pytest.mark.nightly
class TestSparseFamilyErrorRates:
    """Full-scale sparse-code observations (minutes; bundled with the nightly)."""

    def test_sparse_code_error_rate_near_threshold(self):
        # (n0=4, p=4096, d_v=13) decodes near its 181-error threshold with
        # CER below 1e-2, falling steeply as the load decreases
        params = SystemParams.make(4, 4096, 13, 45)
        cfg_at = DecoderConfig(Algorithm.SPA, p0=190 / params.n)
        h = sample_h_random(params, SeedStream(0xF2, "sparse"))
        at = run_trials(h, cfg_at, 190, 1000, 0xF2A)
        assert at.ci_high < 1e-2, at
        below = run_trials(h, DecoderConfig(Algorithm.SPA, p0=170 / params.n),
                           170, 1000, 0xF2B)
        assert below.cer <= at.cer
        report("8+ sparse near-threshold", f"cer@190={at.cer:.2e} cer@170={below.cer:.2e}")

    def test_random_vs_rdf_families_overlap_at_scale(self):
        params = SystemParams.make(4, 4096, 13, 45)
        t_err = 195
        cfg = DecoderConfig(Algorithm.SPA, p0=t_err / params.n)
        reps = []
        for maker, tag in ((sample_h_random, "rand"), (sample_h_rdf, "rdf")):
            h = maker(params, SeedStream(0xFA, tag))
            reps.append(run_trials(h, cfg, t_err, 1000, 0xF2C))
        assert reps[0].ci_low <= reps[1].ci_high
        assert reps[1].ci_low <= reps[0].ci_high
        report("8+ random vs RDF", f"cer {reps[0].cer:.2e} vs {reps[1].cer:.2e}")


class TestCriterion9PropertySuites:
    def test_rdf_four_cycle_freedom_exhaustive(self):
        checked = 0
        for n0, p, d_v in ((2, 61, 3), (2, 64, 3), (3, 53, 3), (4, 53, 3)):
            for seed in range(3):
                params = SystemParams.make(n0, p, d_v, 1)
                h = sample_h_rdf(params, SeedStream(seed, f"rdf{n0}-{p}"))
                dense = h.to_qc_matrix().expand().astype(np.int64)
                gram = dense.T @ dense
                np.fill_diagonal(gram, 0)
                assert gram.max() <= 1, (n0, p, d_v, seed)
                checked += 1
        report("9 RDF 4-cycle freedom", f"{checked} expanded codes, p <= 64")

    def test_complexity_convex_minimum_at_m_star(self):
        for dvp, I in ((59, 10.0), (77, 10.0), (30, 5.0)):
            ms = [1 + 0.02 * i for i in range(2500)]
            vals = [complexity_c(10000, dvp, m, I) for m in ms]
            second = [vals[i - 1] - 2 * vals[i] + vals[i + 1]
                      for i in range(1, len(vals) - 1)]
            assert all(d > -1e-5 for d in second)
            argmin = ms[vals.index(min(vals))]
            assert abs(argmin - m_star(dvp, I)) <= 0.02 + 1e-9
        report("9 C(m) convexity", "convex on grid, minimum at sqrt(d_v' I)")

    def test_isd_monotonicity(self):
        wf_targets = [isd_wf(IsdInstance(2048, 512, 60, T)).log2_wf
                      for T in (1, 2, 4, 8, 32, 128, 512)]
        assert all(a >= b for a, b in zip(wf_targets, wf_targets[1:]))
        wf_weight = [isd_wf(IsdInstance(2048, 512, w, 4)).log2_wf
                     for w in range(24, 240, 24)]
        assert all(a <= b for a, b in zip(wf_weight, wf_weight[1:]))
        report("9 ISD monotonicity",
               "nonincreasing in multiplicity, nondecreasing in weight")

    def test_seeded_commands_bit_identical(self, tmp_path, child_env):
        from qcmc.crypto import save_ciphertext
        params = SystemParams.make(2, 256, 5, 2, sigma_w=6)
        for name in ("one", "two"):
            sk, pk = keygen(params, 0xD5EED)
            save_private_key(sk, tmp_path / f"{name}.sk")
            u = int_to_bits(SeedStream(1, "acc9-msg").take_bits(params.k), params.k)
            save_ciphertext(encrypt(pk, u, SeedStream(2, "acc9-enc")),
                            tmp_path / f"{name}.ct")
        assert (tmp_path / "one.sk").read_bytes() == (tmp_path / "two.sk").read_bytes()
        assert (tmp_path / "one.ct").read_bytes() == (tmp_path / "two.ct").read_bytes()

        cmd = [sys.executable, "-m", "qcmc.cli", "threshold", "--n0", "4",
               "--dv", "13", "--p-range", "12288"]
        runs = [subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path,
                               env=child_env)
                for _ in range(2)]
        for run in runs:
            assert run.returncode == 0, run.stderr
        assert runs[0].stdout.startswith("n,d_v,b_opt,t_max\n"), runs[0].stdout
        assert runs[0].stdout == runs[1].stdout
        report("9 determinism",
               "key files, ciphertexts, and CLI output byte-identical on rerun")
