"""Iterative decoders for the sparse private code: bit flipping and sum-product.

All decoders work directly on the circulant supports, never on an expanded
matrix.  For a block row H = [H_0 | ... | H_{n0-1}] with supports supp_i,
check s involves variable (i, j) exactly when j = (s + a) mod p for some
a in supp_i.  So each edge class (i, a) is one cyclic rotation of a length-p
row, by a from variables to checks and by (p - a) mod p back.  Syndromes,
unsatisfied-check counts and SPA messages all go through that one rotation.

Decoders are pure: inputs are never modified, and identical
(inputs, config) always produce identical outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .design import ParityCheck
from .errors import ParameterError

LLR_CLAMP = 25.0  # log-domain message magnitude cap


class Algorithm(Enum):
    BF_FIXED = "bf"
    BF_VARIABLE = "bfv"
    SPA = "spa"


@dataclass(frozen=True)
class DecoderConfig:
    """Decoder selection and tuning.

    b is the fixed flip threshold (BF_FIXED only, ceil(d_v/2) <= b <= d_v);
    p0 is the assumed channel error fraction for SPA initialization.  Left
    as None, decode takes both from the code: b = d_v (unanimous-vote flips)
    and p0 = h.params.error_fraction, the t'/n the private decoder sees.
    """

    algorithm: Algorithm
    max_iterations: int = 100
    b: int | None = None
    p0: float | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be positive")
        if self.p0 is not None:
            _check_p0(self.p0)


def _check_p0(p0: float, what: str = "p0") -> float:
    if not 0.0 < p0 < 0.5:
        raise ParameterError(f"{what} must lie in (0, 0.5)")
    return p0


@dataclass(frozen=True)
class DecodeOutcome:
    success: bool
    error_estimate: np.ndarray
    iterations_used: int


def _rotate(rows: np.ndarray, shifts) -> np.ndarray:
    """out[i, l, s] = rows[i, l, (s + shifts[i][l]) % p]; a length-1 axis of rows broadcasts."""
    p = rows.shape[-1]
    shape = (len(shifts), len(shifts[0]))
    doubled = np.broadcast_to(np.concatenate([rows, rows], axis=-1), shape + (2 * p,))
    out = np.empty(shape + (p,), dtype=rows.dtype)
    for i, row_shifts in enumerate(shifts):
        for l, a in enumerate(row_shifts):
            out[i, l] = doubled[i, l, a:a + p]
    return out


@lru_cache(maxsize=8)
def _index_for(h: ParityCheck) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Rotation shifts (to checks, to variables), each of shape (n0, d_v)."""
    p = h.params.p
    to_check = tuple(blk.support for blk in h.blocks)
    return to_check, tuple(tuple((p - a) % p for a in supp) for supp in to_check)


def _syndrome(to_check, v_blocks: np.ndarray) -> np.ndarray:
    edges = _rotate(v_blocks[:, None, :], to_check)
    return (edges.sum(axis=(0, 1), dtype=np.int64) & 1).astype(np.uint8)


def _checked_word(h: ParityCheck, v) -> np.ndarray:
    """v as a uint8 array; ParameterError unless its length is n."""
    v = np.asarray(v, dtype=np.uint8)
    if v.shape != (h.params.n,):
        raise ParameterError(f"word length must be {h.params.n}")
    return v


def syndrome(h: ParityCheck, v: np.ndarray) -> np.ndarray:
    """Syndrome of a length-n word against the sparse private matrix."""
    return _syndrome(_index_for(h)[0], _checked_word(h, v).reshape(h.params.n0, h.params.p))


def _decode_bf(h: ParityCheck, received: np.ndarray, cfg: DecoderConfig) -> DecodeOutcome:
    """Parallel bit flipping with a fixed or per-iteration variable threshold.

    Each iteration: compute the syndrome, count unsatisfied checks per bit,
    flip every bit whose count reaches the threshold (b for BF_FIXED, the
    largest count for BF_VARIABLE), stop on a zero syndrome.
    Non-convergence is an unsuccessful outcome, not an exception.
    """
    params = h.params
    b = None
    if cfg.algorithm is Algorithm.BF_FIXED:
        b = params.d_v if cfg.b is None else cfg.b
        if not math.ceil(params.d_v / 2) <= b <= params.d_v:
            raise ParameterError("b must lie in [ceil(d_v/2), d_v]")
    received = _checked_word(h, received)
    to_check, to_var = _index_for(h)
    v = received.reshape(params.n0, params.p).copy()
    synd = _syndrome(to_check, v)
    if not synd.any():
        return DecodeOutcome(True, np.zeros(params.n, dtype=np.uint8), 0)

    iterations = 0
    success = False
    for iterations in range(1, cfg.max_iterations + 1):
        upc = _rotate(synd[None, None, :], to_var).sum(axis=1, dtype=np.int64)
        threshold = max(int(upc.max()), 1) if b is None else b
        flips = upc >= threshold
        if not flips.any():
            break
        v ^= flips.astype(np.uint8)
        synd = _syndrome(to_check, v)
        if not synd.any():
            success = True
            break
    return DecodeOutcome(success, (v.reshape(-1) ^ received), iterations)


def _decode_spa(h: ParityCheck, received: np.ndarray, cfg: DecoderConfig) -> DecodeOutcome:
    """Log-domain sum-product decoding over the expanded Tanner graph.

    Channel LLRs assume a binary symmetric channel with crossover p0.
    Messages are clamped to +/-LLR_CLAMP; a hard decision is taken every
    iteration and decoding stops on a zero syndrome.
    """
    params = h.params
    p0 = cfg.p0 if cfg.p0 is not None else _check_p0(
        params.error_fraction,
        f"the default p0 = max(t', 1)/n (t'={params.t_prime}, n={params.n})")
    received = _checked_word(h, received)
    to_check, to_var = _index_for(h)
    rec_blocks = received.reshape(params.n0, params.p)
    synd = _syndrome(to_check, rec_blocks)
    if not synd.any():
        return DecodeOutcome(True, np.zeros(params.n, dtype=np.uint8), 0)

    llr0 = math.log((1.0 - p0) / p0)
    channel = llr0 * (1.0 - 2.0 * rec_blocks.astype(np.float64))
    v2c = _rotate(channel[:, None, :], to_check)

    success = False
    iterations = 0
    hard = rec_blocks
    for iterations in range(1, cfg.max_iterations + 1):
        tnh = np.tanh(0.5 * v2c)
        prod = tnh.reshape(-1, params.p).prod(axis=0)
        safe = np.where(np.abs(tnh) < 1e-30, np.copysign(1e-30, tnh), tnh)
        ratio = np.clip(prod[None, None, :] / safe, -1.0 + 1e-14, 1.0 - 1e-14)
        c2v = np.clip(2.0 * np.arctanh(ratio), -LLR_CLAMP, LLR_CLAMP)
        total = channel + _rotate(c2v, to_var).sum(axis=1)
        hard = (total < 0.0).astype(np.uint8)
        synd = _syndrome(to_check, hard)
        if not synd.any():
            success = True
            break
        v2c = np.clip(_rotate(total[:, None, :], to_check) - c2v, -LLR_CLAMP, LLR_CLAMP)
    return DecodeOutcome(success, (hard.reshape(-1) ^ received), iterations)


def decode(h: ParityCheck, received: np.ndarray, cfg: DecoderConfig) -> DecodeOutcome:
    """Decode a length-n word with cfg.algorithm; b and p0 left as None come from h."""
    if cfg.algorithm is Algorithm.SPA:
        return _decode_spa(h, received, cfg)
    return _decode_bf(h, received, cfg)
