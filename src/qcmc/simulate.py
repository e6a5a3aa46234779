"""Monte Carlo estimation of residual error rates and decoder iteration counts.

Trials place a random weight-t error on the all-zero codeword (valid by code
linearity and decoder symmetry), decode, and record one row per trial: the
iterations used, whether the decoder converged, and the residual weight.
Trials are grouped into fixed-size lots with per-lot derived seeds, so results
are bit-identical for any worker count and lots can run in parallel processes.
The lots' records are reduced once, in lot order, into a TrialReport: codeword
errors (decoder failure or miscorrection), residual bit errors and the mean
iteration count.  Codeword error rates carry a Wilson score interval: the
rates of interest span several orders of magnitude.

A run starts min(jobs, lots, CPUs) worker processes, and none when that
number is 1.  The process pool, and with it multiprocessing, is imported only
when a run starts workers, so a single-job run or a bare `import qcmc` does
not pay for it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .crypto import random_error_vector
from .decoder import DecoderConfig, decode
from .design import ParityCheck
from .errors import ParameterError
from .prng import SeedStream, normalize_seed

LOT_SIZE = 64
# the lot list (156,250 tuples) and the 17-byte trial records (170 MB, held twice while
# concatenated) stay well under 1 GiB here, and so many decodes take hours already
MAX_TRIALS = 10**7
TRIAL_RECORD = np.dtype([("iterations", np.int64), ("converged", np.bool_),
                         ("residual", np.int64)])


@dataclass(frozen=True)
class TrialReport:
    trials: int
    codeword_errors: int
    bit_errors: int
    cer: float
    ber: float
    avg_iterations: float
    seed: bytes
    ci_low: float
    ci_high: float


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    z = 1.96  # two-sided 95% normal quantile
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if errors == 0 else max(center - half, 0.0)
    hi = 1.0 if errors == trials else min(center + half, 1.0)
    return lo, hi


def _run_lot(h: ParityCheck, cfg: DecoderConfig, t_err: int, count: int,
             seed: bytes, lot_index: int) -> np.ndarray:
    """One TRIAL_RECORD row per trial of the lot; the zero codeword plus e is e itself."""
    rng = SeedStream(seed, f"sim/lot{lot_index}")
    record = np.empty(count, dtype=TRIAL_RECORD)
    for i in range(count):
        e = random_error_vector(h.params.n, t_err, rng)
        outcome = decode(h, e, cfg)
        record[i] = (outcome.iterations_used, outcome.success,
                     np.count_nonzero(outcome.error_estimate != e))
    return record


def run_trials(h: ParityCheck, cfg: DecoderConfig, t_err: int, trials: int,
               seed, jobs: int = 1) -> TrialReport:
    """Decode `trials` random weight-t_err patterns; deterministic given seed.

    jobs > 1 distributes whole lots over min(jobs, lots, CPUs) worker
    processes; the lot split is independent of the worker count, so any jobs
    value reproduces the same report.
    """
    params = h.params
    if not 0 <= t_err <= params.n:
        raise ParameterError("t_err out of range")
    if not 1 <= trials <= MAX_TRIALS:
        raise ParameterError(f"need between 1 and MAX_TRIALS = {MAX_TRIALS} trials")
    if jobs < 1:
        raise ParameterError("need at least one job")
    seed_bytes = normalize_seed(seed)

    lots = [(h, cfg, t_err, min(LOT_SIZE, trials - start), seed_bytes, index)
            for index, start in enumerate(range(0, trials, LOT_SIZE))]
    workers = min(jobs, len(lots), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_lot, *zip(*lots)))
    else:
        records = [_run_lot(*args) for args in lots]

    record = np.concatenate(records)
    # a nonzero residual is always a codeword error, so the bit errors sum every residual
    cw_errors = int(np.count_nonzero(~record["converged"] | (record["residual"] > 0)))
    bit_errors = int(record["residual"].sum())
    lo, hi = wilson_interval(cw_errors, trials)
    return TrialReport(
        trials=trials,
        codeword_errors=cw_errors,
        bit_errors=bit_errors,
        cer=cw_errors / trials,
        ber=bit_errors / (trials * params.n),
        avg_iterations=int(record["iterations"].sum()) / trials,
        seed=seed_bytes,
        ci_low=lo,
        ci_high=hi,
    )


def sweep_rows(h: ParityCheck, cfg: DecoderConfig, t_err_values: Sequence[int],
               trials: int, seed, jobs: int = 1) -> list[dict]:
    """One report row per error count (the error-rate-curve data)."""
    rows = []
    for t_err in t_err_values:
        rep = run_trials(h, cfg, t_err, trials, seed, jobs)
        rows.append({
            "t_err": t_err, "trials": rep.trials, "cer": rep.cer, "ber": rep.ber,
            "avg_iters": round(rep.avg_iterations, 3),
            "ci_low": round(rep.ci_low, 8), "ci_high": round(rep.ci_high, 8),
        })
    return rows
