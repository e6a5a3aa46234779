"""Closed-loop measurement, the output-equality gate and the traced repeat.

One run: set the workload up several times, each after a fresh import (see
run_workload for ``setup_s``), run its operation in a closed loop with one
caller until the time budget is spent, check every output, and compare the
digest of the set-up and of the first ``min_ops`` operations with the one
recorded in ``reference.json``.
Those first operations take their inputs from ``GATE_SEED`` whatever the
run seed, so every run is gated; the later ones take them from the run
seed.  In a traced run each operation runs twice back to back, untraced and
then traced on the same inputs, so the difference of the two sums is the
tracing overhead even when the machine's speed drifts during the run.

The machine's speed does drift: on a shared 2-core x86-64 sandbox the same
optimizer call took 17.6 s to 26.1 s within a few minutes, with the process
never descheduled.  So while an operation runs, a timer signal every
``SAMPLE_EVERY_S`` times a short reference kernel that does not touch qcmc
and does the kind of work the workload does (``KERNELS``).  ``op_ref_p50``
gives each operation's time, less the sampler's own time, in units of the
mean kernel time sampled during it.  A change to qcmc moves that ratio
fully; a change in machine speed mostly cancels.  The sampler runs only in
the untraced loop.  Wall-clock figures are kept beside the ratio; the phase
timings inside an operation include the sampler's share, about 1%.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import gammaln

import tracing
from workloads import BenchError, OpResult, cache_counts, clear_caches, tail_ms

SETUP_REPS = 7
SRC = Path(__file__).resolve().parent.parent / "src"
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import qcmc; print(time.perf_counter() - t)")
GATE_SEED = 0  # inputs of the first min_ops operations of every run
SAMPLE_EVERY_S = 0.1
_P = 4096
_WORD = int.from_bytes(hashlib.sha256(b"qcmc-bench-reference").digest() * (_P // 256), "little")
_MASK = (1 << _P) - 1
_VALUES = np.linspace(-3.0, 3.0, 4 * _P).reshape(4, _P)
_ROWS = np.arange(4)[:, None, None]
_INDEX = (np.arange(4 * 5 * _P) * 7919 % _P).reshape(4, 5, _P)  # a d_v=5 Tanner index


def _shift_xor() -> int:
    """Cyclic shift-xor of a dense 4096-bit word, as gf2's ring products do."""
    acc = 0
    for s in range(1, 800):
        acc ^= ((_WORD << s) | (_WORD >> (_P - s))) & _MASK
    return acc


def _gather_tanh() -> float:
    """One gather through a Tanner index with tanh, as the decoders do."""
    return float(np.tanh(_VALUES[_ROWS, _INDEX]).sum())


def _small_scipy() -> float:
    """Many lgamma calls on short arrays, as the attack work factors do."""
    total = 0.0
    for k in range(1, 100):
        total += float(gammaln(np.arange(k, k + 60, dtype=np.float64)).min())
    return total


KERNELS = {"shift_xor": _shift_xor, "gather_tanh": _gather_tanh, "small_scipy": _small_scipy}


class Sampler:
    """Times reference kernels on a timer signal while an operation runs.

    The signal handler runs between bytecodes of the operation, on the same
    thread and core, so the samples see the machine's speed during the
    operation.  ``spent_s`` is the handlers' total time, which the caller
    takes off the operation's time.  Each handler arms the next signal when
    it is done, so handlers never nest.
    """

    def __init__(self, kernels: tuple[str, ...]):
        self.kernels = [KERNELS[name] for name in kernels]
        self.samples: list[float] = []
        self.spent_s = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        self.spent_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def during(self):
        """Sample for the duration of the block, then once more after it."""
        self.samples, self.spent_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()  # so that a short operation has a sample too


@dataclass
class Loop:
    results: list[OpResult] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # seconds; inf where a step failed
    busy_s: float = 0.0  # sum of operation durations
    ref_s: list[float] = field(default_factory=list)  # mean kernel time during each operation
    cache_delta: dict[str, int] = field(  # hits and misses of the qcmc caches
        default_factory=lambda: dict.fromkeys(cache_counts(), 0))

    def run(self, wl, seed: int, i: int, tracer, sampler: Sampler | None = None) -> None:
        clear_caches(wl.cold_caches)
        before = cache_counts()
        with sampler.during() if sampler else contextlib.nullcontext():
            t0 = time.perf_counter()
            with tracer.span("bench.op"):
                res = wl.op(seed, i, tracer)
            dt = time.perf_counter() - t0
        if sampler:
            dt -= sampler.spent_s
            self.ref_s.append(statistics.fmean(sampler.samples))
        for key, value in cache_counts().items():
            self.cache_delta[key] += value - before[key]
        self.results.append(res)
        self.latencies.append(dt if res.ok else math.inf)
        self.busy_s += dt


def run_ops(wl, seed: int, budget_s: float,
            tracer: tracing.Tracer | None = None) -> tuple[Loop, Loop | None]:
    """Run operations 0, 1, ... back to back until the budget is spent.

    At least wl.min_ops run, and the loop stops before an operation that
    would, at the median duration so far, end past the budget.  With a
    tracer, every operation is repeated with tracing installed.  The caches
    named by wl.cold_caches are emptied before every operation.
    """
    plain, traced = Loop(), (Loop() if tracer is not None else None)
    null = tracing.NullTracer()
    sampler = Sampler(wl.reference_kernels)
    rounds = []
    start = time.perf_counter()
    while True:
        i = len(rounds)
        op_seed = GATE_SEED if i < wl.min_ops else seed
        t0 = time.perf_counter()
        plain.run(wl, op_seed, i, null, sampler)
        if tracer is not None:
            tracer.request_id = i
            with tracing.installed(tracer):
                traced.run(wl, op_seed, i, tracer)
        rounds.append(time.perf_counter() - t0)
        if len(rounds) >= wl.min_ops and \
                time.perf_counter() - start + statistics.median(rounds) > budget_s:
            return plain, traced


def import_s() -> float:
    """Time `import qcmc` (numpy and scipy included) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def output_digest(wl, setup_output: list[bytes], results: list[OpResult]) -> str:
    """SHA-256 over the SHA-256 of every set-up and operation output, in order."""
    h = hashlib.sha256()
    items = list(setup_output) + [x for r in results for x in wl.serialize(r.output)]
    for item in items:
        h.update(hashlib.sha256(item).digest())
    return h.hexdigest()


def run_workload(wl, seed: int, seconds: float, trace: bool, expected: str | None,
                 setup_reps: int = SETUP_REPS) -> dict:
    """Measure one workload; raise BenchError on any wrong or unexpected output.

    `expected` is the reference digest; None skips the comparison (for
    recording a new one).  A zero budget runs exactly the min_ops operations
    that the digest covers.

    Each of the `setup_reps` set-ups is what a user pays once per process:
    `import qcmc` in a fresh interpreter, then the workload's set-up with the
    qcmc caches empty.  Imports and set-ups alternate, so that a change in
    machine speed during the run reaches both alike; ``setup_s`` is the
    median of their sums.
    """
    tracing.assert_clean()
    import_runs, setup_runs = [], []
    for _ in range(setup_reps):
        import_runs.append(import_s())
        clear_caches()
        t0 = time.perf_counter()
        setup_output = wl.setup()
        setup_runs.append(time.perf_counter() - t0)

    tracer = tracing.Tracer() if trace else None
    loop, traced = run_ops(wl, seed, seconds, tracer)
    tracing.assert_clean()
    wl.check(loop.results)
    digest = output_digest(wl, setup_output, loop.results[:wl.min_ops])
    if expected is not None and digest != expected:
        raise BenchError(f"{wl.name}: output digest {digest} "
                         f"differs from the reference {expected}")

    completed = [x for x in loop.latencies if math.isfinite(x)]
    result = {
        "attempted": len(loop.results),
        "failed": len(loop.results) - len(completed),
        "end_to_end": {
            "setup_s": (statistics.median(map(sum, zip(import_runs, setup_runs))), "s"),
            "op_ref_p50": (statistics.median(
                x / ref for x, ref in zip(loop.latencies, loop.ref_s)), "ref"),
        },
        "op_ms_p50": statistics.median(loop.latencies) * 1e3,
        "ref_ms_p50": statistics.median(loop.ref_s) * 1e3,
        "ops_per_s": len(completed) / loop.busy_s,
        "details": wl.details(loop.results),
        "op_ms_tail": tail_ms(loop.latencies),
        "import_runs_s": import_runs,
        "setup_runs_s": setup_runs,
        "op_latencies_ms": [x * 1e3 for x in loop.latencies],
        "cache_counts": loop.cache_delta,
        "digest": digest,
    }
    if trace:
        wl.check(traced.results)
        if output_digest(wl, [], traced.results) != output_digest(wl, [], loop.results):
            raise BenchError(f"{wl.name}: traced outputs differ from untraced outputs")
        result["per_layer"] = tracing.per_layer_metrics(tracer, traced.cache_delta,
                                                        loop.busy_s)
        result["spans"] = tracer.dump()
    return result
