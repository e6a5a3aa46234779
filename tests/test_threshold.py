"""Decoding-threshold recursion: fixed points, bounds, monotonicity, anchors."""

import math
import random
from fractions import Fraction

import pytest

from oracles import binomial_tail_per_term, per_b_threshold, plain_converges, reprobing_threshold
from qcmc import threshold
from qcmc.cli import main
from qcmc.errors import ParameterError
from qcmc.optimize import DEFAULT_CANDIDATES, DEFAULT_P_GRID
from qcmc.threshold import (ThresholdQuery, bf_threshold, bf_threshold_detail,
                            binomial_tail, evolution_step)


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
        # C(1030, 515) overflows a float, so d_v - 1 stops at 1029
        with pytest.raises(ParameterError, match="1030"):
            ThresholdQuery(20000, 4, 1031)
        ThresholdQuery(20000, 4, 1030)

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


def _tail_or_error(fn, d, b, x):
    try:
        return fn(d, b, x).hex()
    except OverflowError:
        return "OverflowError"


# the nine codes optimize --security 100 asks for a threshold
DESIGN_100_CODES = [(16384, 4, d_v) for d_v in (15, 19, 25, 35, 45, 59, 77)]
DESIGN_100_CODES += [(20480, 4, 15), (20480, 4, 19)]


class TestCachedRowOracle:
    """binomial_tail over a cached float row of C(d, j) returns the bits of the
    per-term math.comb sum, so every evolution step and threshold is unchanged."""

    def test_binomial_tail_bitwise(self):
        rng = random.Random(1963)
        xs = [0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0 ** -53]
        cases = [(d, b) for d in range(41) for b in range(-1, d + 2)]
        cases += [(d, rng.randint(-1, d + 1)) for d in (rng.randint(41, 300) for _ in range(600))]
        cases += [(300, b) for b in (-1, 0, 1, 2, 150, 299, 300, 301)]
        for d, b in cases:
            for x in xs + [rng.random(), rng.random() * 1e-3]:
                assert _tail_or_error(binomial_tail, d, b, x) == \
                    _tail_or_error(binomial_tail_per_term, d, b, x), (d, b, x)
        # C(1030, 515) overflows a float: both raise, a row far from the middle does not
        for b, x in ((1, 0.5), (500, 0.3), (1020, 0.99)):
            assert _tail_or_error(binomial_tail, 1030, b, x) == \
                _tail_or_error(binomial_tail_per_term, 1030, b, x)
        assert _tail_or_error(binomial_tail, 1030, 1, 0.5) == "OverflowError"
        assert _tail_or_error(binomial_tail, 1030, 1020, 0.99) != "OverflowError"

    def test_thresholds_and_every_step_bitwise(self, monkeypatch):
        step, steps = threshold.evolution_step, []

        def recording(*args):
            q = step(*args)
            steps.append(q.hex())
            return q

        def run(tail):
            steps.clear()
            with monkeypatch.context() as m:
                m.setattr(threshold, "binomial_tail", tail)
                m.setattr(threshold, "evolution_step", recording)
                return threshold._threshold_cached.__wrapped__(n, n0, d_v), list(steps)

        for n, n0, d_v in DESIGN_100_CODES + ANCHORS + SMALL_CODES:
            assert run(binomial_tail) == run(binomial_tail_per_term), (n, n0, d_v)


def _random_codes(count: int = 150, seed: int = 1960) -> list[tuple[int, int, int]]:
    """(n, n0, d_v) with d_v < p, so every one is a valid ThresholdQuery."""
    rng = random.Random(seed)
    codes = []
    for _ in range(count):
        n0 = rng.choice((2, 3, 4))
        p = rng.choice((rng.randint(2, 300), rng.randint(301, 8192)))
        codes.append((n0 * p, n0, rng.randint(1, min(99, p - 1))))
    return codes


class TestKeptBOracle:
    """Keeping the b of the last converging probe reports the (t_max, b) of the
    search that probed t_max once more, in fewer evolution steps."""

    def test_same_threshold_fewer_steps(self, monkeypatch):
        step, steps = threshold.evolution_step, [0]

        def counting(*args):
            steps[0] += 1
            return step(*args)

        monkeypatch.setattr(threshold, "evolution_step", counting)
        counts = []
        for search in (threshold._threshold_cached.__wrapped__, reprobing_threshold):
            steps[0] = 0
            for n, n0, d_v in DESIGN_100_CODES:
                search(n, n0, d_v)
            counts.append(steps[0])
        assert counts[0] < counts[1]
        for n, n0, d_v in DESIGN_100_CODES + ANCHORS + SMALL_CODES + _random_codes():
            assert threshold._threshold_cached.__wrapped__(n, n0, d_v) == \
                reprobing_threshold(n, n0, d_v), (n, n0, d_v)


def _margin(d_c: int, d_v: int) -> float:
    """D of the threshold module docstring."""
    return (d_v + 1) * (d_c + 12) * 2.0**-52


def _exact_step(d_c: int, d_v: int, b: int, p0: float, q: float) -> Fraction:
    """evolution_step in exact rational arithmetic on the same float inputs."""
    d, q, p0 = d_v - 1, Fraction(q), Fraction(p0)
    r = (1 - (1 - 2 * q) ** (d_c - 1)) / 2

    def tail(x):
        return sum((math.comb(d, j) * x**j * (1 - x) ** (d - j) for j in range(max(b, 0), d + 1)),
                   Fraction(0))

    return p0 * (1 - tail(1 - r)) + (1 - p0) * tail(r)


def _sampled_probes(rng: random.Random, count: int) -> list[tuple[int, int, int, int, int]]:
    """(n, d_c, d_v, b, t) around each sampled code's plain per-b boundary, and
    anywhere in [0, n]: n0 up to 64, d_v up to 1030, n down to d_c + 1, b up to d_v."""
    probes = []
    while len(probes) < count:
        d_v = rng.choice((rng.randint(1, 40), rng.randint(41, 300), rng.randint(1000, 1030)))
        if d_v > 300 and rng.random() < 0.9:
            continue  # a step at d_v near 1030 costs about 1000 terms
        n0 = rng.choice((1, 2, 3, 4, rng.randint(5, 64)))
        d_c = n0 * d_v
        n = rng.choice((d_c + rng.randint(1, 10), d_c + rng.randint(11, 2000),
                        rng.randint(d_c + 1, 70000)))
        b = rng.choice((rng.randint(math.ceil(d_v / 2), d_v), d_v, rng.randint(1, d_v)))
        lo, hi = 0, n + 1  # plain_converges at lo, not at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if plain_converges(n, d_c, d_v, b, mid, 100) else (lo, mid)
        for t in (rng.randint(max(0, lo - 3), min(n, lo + 3)), rng.randint(lo, min(n, 2 * lo + 2)),
                  rng.randint(0, n), rng.randint(n // 2, n)):
            probes.append((n, d_c, d_v, b, t))
    return probes


@pytest.fixture()
def steps(monkeypatch):
    """[count] of threshold.evolution_step calls, reset by the test."""
    step, count = threshold.evolution_step, [0]

    def counting(*args):
        count[0] += 1
        return step(*args)

    monkeypatch.setattr(threshold, "evolution_step", counting)
    return count


class TestCertifiedExitOracle:
    """A probe that stops at a certified fixed point decides as the loop that
    steps until it stalls, in fewer evolution steps."""

    def test_decisions_equal_the_plain_loop(self, steps):
        shortened = 0
        for probe in _sampled_probes(random.Random(1963), 6000):
            counts = []
            for converges in (threshold._converges, plain_converges):
                steps[0] = 0
                counts.append((converges(*probe, 100), steps[0]))
            assert counts[0][0] == counts[1][0], probe
            shortened += counts[0][1] < counts[1][1]
        assert shortened >= 300  # 343 of the 6,000

    def test_same_thresholds_in_fewer_steps(self, monkeypatch, steps):
        def run(converges, codes):
            steps[0] = 0
            with monkeypatch.context() as m:
                m.setattr(threshold, "_converges", converges)
                return [threshold._threshold_cached.__wrapped__(*code) for code in codes], steps[0]

        certified, plain = (run(fn, DESIGN_100_CODES) for fn in (threshold._converges, plain_converges))
        assert certified[0] == plain[0]
        assert certified[1] <= 0.6 * plain[1]  # 2,661 against 5,171 steps
        codes = ANCHORS + _random_codes(30, seed=2001)
        assert run(threshold._converges, codes)[0] == run(plain_converges, codes)[0]

    def test_margin_covers_twice_the_rounding_error(self):
        # the exact rational step at the same float inputs, on codes small
        # enough for Fraction arithmetic; odd and even d_c, p0 on both sides of 1/2
        rng = random.Random(53)
        worst = 0.0
        for d_c, d_v in ((3, 3), (8, 4), (9, 3), (26, 13), (30, 15), (45, 15)):
            for _ in range(16):
                b = rng.randint(1, d_v)
                p0 = rng.choice((rng.random(), rng.random() * 1e-2))
                q = rng.choice((rng.random() / 2, rng.random() * 1e-3, 0.5))
                err = abs(Fraction(evolution_step(d_c, d_v, b, p0, q))
                          - _exact_step(d_c, d_v, b, p0, q))
                assert err <= _margin(d_c, d_v) / 2, (d_c, d_v, b, p0, q)
                worst = max(worst, float(err) / _margin(d_c, d_v))
        assert worst > 0.0

    @pytest.mark.parametrize("centre,lift", [(0.3, None), (0.7, 0.25)],
                             ids=["within-rounding", "above-one-half"])
    def test_no_certificate_from_rounding_or_above_one_half(self, monkeypatch, centre, lift):
        # a step map that falls geometrically towards centre, drops to 0 on
        # [centre, centre + 1e-3], where the iterates land, and lifts q below
        # centre: by D/2, as rounding may, or anywhere above 1/2, where no
        # monotonicity is claimed.  Neither lift may stop the probe early.
        d_c, d_v = 8, 4
        lift = _margin(d_c, d_v) / 2 if lift is None else lift

        def step(*args):
            q = args[-1]
            if q < centre:
                return q + lift
            return 0.0 if q <= centre + 1e-3 else centre + 0.5 * (q - centre)

        monkeypatch.setattr(threshold, "evolution_step", step)
        probe = (1000, d_c, d_v, 2, round(1000 * (centre + 0.1)), 100)
        assert plain_converges(*probe)
        assert threshold._converges(*probe)


class TestCsv:
    def test_table_and_emitter(self, capsys):
        rows = [(n, 13, *reversed(bf_threshold_detail(ThresholdQuery(n, 4, 13))))
                for n in (8192, 16384)]
        assert main(["threshold", "--n0", "4", "--dv", "13", "--p-range", "8192,16384"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["8192", "16384"]
        assert lines[0] == "n,d_v,b_opt,t_max"
        assert len(lines) == 3
        assert lines[1:] == [",".join(str(v) for v in row) for row in rows]
