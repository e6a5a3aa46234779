"""Iterative decoders for the sparse private code: bit flipping and sum-product.

All decoders work directly on the circulant supports, never on an expanded
matrix.  For a block row H = [H_0 | ... | H_{n0-1}] with supports supp_i, check
s involves variable (i, j) exactly when j = (s + a) mod p for some a in supp_i.
So each edge class (i, a) is one cyclic rotation of a length-p row, by a from
variables to checks and by (p - a) mod p back.  Dense passes accumulate those rotations
in place, in edge order, reading a row that a block's edges share from one doubled copy;
sparse ones scatter.  Bit flipping is incremental: flips update the syndrome, toggled
checks the unsatisfied counts.  Sum-product's first round is closed-form (Gallager): each
message is +/-one scalar signed by parities, bitwise equal to the general round's as its
every step is odd.

Each algorithm is a generator of rounds that yields the word and its syndrome.  One loop,
in decode, counts rounds and stops at a zero syndrome, at max_iterations or after a round
that flips nothing.  Decoders are pure and deterministic: inputs are never modified.
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
SCATTER_COST = 16  # one scattered update costs about 16 elements of a rotated slice


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


def _accumulate(op, out: np.ndarray, rows: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """out[i] = op(out[i], r_il) for l = 0, 1, ... in turn, where r_il[s] =
    rows[i, l, (s + shifts[i, l]) % p].  Rows shared along l, one 1-D row or a word's blocks
    (n0, 1, p), are doubled once and read as one slice a rotation; edge rows as two slices."""
    p = out.shape[-1]
    if rows.ndim < 3 or rows.shape[1] == 1:
        twice = np.concatenate([rows, rows], axis=-1).reshape(-1, 2 * p)
        for acc, row, row_shifts in zip(out, np.broadcast_to(twice, (len(out), 2 * p)),
                                        shifts.tolist()):
            for a in row_shifts:
                op(acc, row[a:a + p], out=acc)
        return out
    for acc, block, row_shifts in zip(out, rows, shifts.tolist()):
        for row, a in zip(block, row_shifts):
            head, tail = acc[:p - a], acc[p - a:]
            op(head, row[a:], out=head)
            op(tail, row[:a], out=tail)
    return out


def _spread(edges: np.ndarray, rows: np.ndarray, shifts: np.ndarray, op=np.subtract,
            right: np.ndarray | None = None) -> np.ndarray:
    """edges[i, l, s] = op(rows[i, (s + shifts[i, l]) % p], right[s]) in place; right left as
    None is edges[i, l, s] itself."""
    p = rows.shape[-1]
    doubled = np.concatenate([rows, rows], axis=-1)
    for twice, block, row_shifts in zip(doubled, edges, shifts.tolist()):
        for edge, a in zip(block, row_shifts):
            op(twice[a:a + p], edge if right is None else right, out=edge)
    return edges


@lru_cache(maxsize=8)
def _index_for(h: ParityCheck) -> np.ndarray:
    """Read-only rotation shifts, [0] to checks and [1] to variables, each (n0, d_v)."""
    index = np.array([[blk.support for blk in h.blocks]] * 2, dtype=np.int64)
    index[1] = -index[1] % h.params.p
    index.flags.writeable = False
    return index


def _syndrome(index, bits: np.ndarray) -> np.ndarray:
    """H v^T as bools from the 0/1 blocks (n0, p) of v, scattered from v's support if sparse."""
    n0, p = bits.shape
    bits = bits.view(np.bool_)  # so the dense pass xors bools without a cast
    ones = np.flatnonzero(bits)
    if len(ones) * SCATTER_COST < n0 * p:
        blk, pos = np.divmod(ones, p)
        counts = np.bincount((pos[:, None] + index[1][blk]).ravel(), minlength=2 * p)
        return ((counts[:p] + counts[p:]) & 1).astype(np.bool_)
    acc = _accumulate(np.logical_xor, np.zeros(bits.shape, np.bool_), bits[:, None], index[0])
    return np.logical_xor.reduce(acc)


def _count_unsatisfied(index, upc: np.ndarray, synd: np.ndarray, toggled: np.ndarray):
    """Unsatisfied-check counts upc updated for the checks toggled into synd: each
    moves the count of its variables (i, (s + a) % p) by +1 if now unsatisfied, else -1."""
    n0, p = upc.shape
    changed = np.flatnonzero(toggled)
    if len(changed) * SCATTER_COST >= p:
        return _accumulate(np.add, np.zeros_like(upc), synd.astype(upc.dtype), index[1])
    targets = (index[0] + 2 * p * np.arange(n0)[:, None]).ravel()
    delta = np.zeros((n0, 2 * p), dtype=upc.dtype)  # wraps, exact modulo 2^bits
    for ufunc, checks in ((np.add, changed[synd[changed]]), (np.subtract, changed[~synd[changed]])):
        ufunc.at(delta.reshape(-1), (checks[:, None] + targets).ravel(), upc.dtype.type(1))
    return upc + delta[:, :p] + delta[:, p:]


def _checked_word(h: ParityCheck, v) -> np.ndarray:
    """v as a uint8 array; ParameterError unless it is n entries of 0 or 1."""
    v = np.asarray(v)
    if v.shape != (h.params.n,):
        raise ParameterError(f"word length must be {h.params.n}")
    if not ((v == 0) | (v == 1)).all():
        raise ParameterError("word entries must be 0 or 1")
    return v.astype(np.uint8, copy=False)


def syndrome(h: ParityCheck, v: np.ndarray) -> np.ndarray:
    """Syndrome of a length-n word against the sparse private matrix."""
    return _syndrome(_index_for(h), _checked_word(h, v).reshape(h.params.n0, -1)).view(np.uint8)


def _bf_rounds(index, v: np.ndarray, synd: np.ndarray, b: int | None):
    """Parallel bit flipping, in place in v: each round flips every bit whose unsatisfied-check
    count reaches b (or, for b None, the largest count) and yields (v, synd), until none does."""
    upc, toggled = np.zeros(v.shape, np.min_scalar_type(index.shape[2])), synd  # 0..d_v fit
    while True:
        upc = _count_unsatisfied(index, upc, synd, toggled)
        flips = upc >= (max(int(upc.max()), 1) if b is None else b)
        if not flips.any():
            return
        v ^= flips
        toggled = _syndrome(index, flips)
        synd = synd ^ toggled
        yield v, synd


def _check_update(tnh: np.ndarray) -> np.ndarray:
    """Halved check-to-variable LLRs artanh(prod / tnh), clipped, in place of the edge values tnh:
    prod / tnh is the product over a check's other edges.  A factor below 1e-30 divides
    as +/-1e-30; it forces |prod| < 1e-30, so only those columns need that guard.  Every
    factor has magnitude at most 1 and rounding is monotone, so |ratio| <= 1 needs no clip."""
    p = tnh.shape[-1]
    prod = tnh.reshape(-1, p).prod(axis=0)
    cols = np.flatnonzero(np.abs(prod) < 1e-30)
    tiny = tnh[..., cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(prod, tnh, out=tnh)
    ratio[..., cols] = prod[cols] / np.where(np.abs(tiny) < 1e-30, np.copysign(1e-30, tiny), tiny)
    with np.errstate(divide="ignore"):  # artanh(+/-1) = +/-inf, clipped like any large value
        return np.clip(np.arctanh(ratio, out=ratio), -LLR_CLAMP / 2, LLR_CLAMP / 2, out=ratio)


def _first_round(index, received: np.ndarray, synd: np.ndarray, half_llr: float) -> np.ndarray:
    """The first round's halved check-to-variable messages in closed form.  Every input is
    +/-half_llr and each step of _check_update(tanh(.)) is odd bit for bit, so each output
    is its m for inputs all +half_llr, negated where the received bit and syndrome bit differ,
    written in one pass as the rotated +/-m received row times the +/-1.0 syndrome row, exactly."""
    m = _check_update(np.tanh(np.full(index[0].shape + (1,), half_llr)))[0, 0, 0]
    return _spread(np.empty(index[0].shape + synd.shape), np.where(received, -m, m), index[0],
                   np.multiply, np.where(synd, -1.0, 1.0))


def _spa_rounds(index, received: np.ndarray, synd: np.ndarray, p0: float):
    """Log-domain sum-product decoding on a binary symmetric channel with crossover p0,
    from the received word's syndrome synd; each round yields the hard decision and its syndrome.
    The first round is _first_round's closed form.  Edge messages are halved, as tanh and artanh
    take them; scaling by 2 is exact and |total| is 0 or far above the subnormals, so all sums
    round as they would unhalved.  The edges update only when the next round is asked for."""
    llr = math.log((1.0 - p0) / p0)
    channel = llr * (1.0 - 2.0 * received.astype(np.float64))
    edges = _first_round(index, received, synd, 0.5 * llr)
    while True:
        total = channel + 2.0 * _accumulate(np.add, np.zeros_like(channel), edges, index[1])
        hard = total < 0.0
        yield hard, _syndrome(index, hard)
        np.clip(_spread(edges, 0.5 * total, index[0]), -LLR_CLAMP / 2, LLR_CLAMP / 2, out=edges)
        _check_update(np.tanh(edges, out=edges))


def decode(h: ParityCheck, received: np.ndarray, cfg: DecoderConfig) -> DecodeOutcome:
    """Decode a length-n word with cfg.algorithm; b and p0 left as None come from h.
    Non-convergence is an unsuccessful outcome, not an exception."""
    params, b, p0 = h.params, None, None
    if cfg.algorithm is Algorithm.BF_FIXED:
        b = params.d_v if cfg.b is None else cfg.b
        if not math.ceil(params.d_v / 2) <= b <= params.d_v:
            raise ParameterError("b must lie in [ceil(d_v/2), d_v]")
    if cfg.algorithm is Algorithm.SPA:
        p0 = cfg.p0 if cfg.p0 is not None else _check_p0(params.error_fraction, (
            f"the default p0 = max(t', 1)/n (t'={params.t_prime}, n={params.n})"))
    received = _checked_word(h, received)
    blocks, index = received.reshape(params.n0, params.p), _index_for(h)
    synd = _syndrome(index, blocks)
    rounds = (_bf_rounds(index, blocks.copy(), synd, b) if p0 is None
              else _spa_rounds(index, blocks, synd, p0))
    word, iterations = blocks, 0
    while synd.any() and iterations < cfg.max_iterations:
        iterations += 1
        if (step := next(rounds, None)) is None:  # a bit-flipping round that flips nothing
            break
        word, synd = step
    return DecodeOutcome(not synd.any(), word.reshape(-1) ^ received, iterations)
