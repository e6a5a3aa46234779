"""Iterative decoders for the sparse private code: bit flipping and sum-product.

All decoders work directly on the circulant supports, never on an expanded
matrix.  For a block row H = [H_0 | ... | H_{n0-1}] with supports supp_i, check
s involves variable (i, j) exactly when j = (s + a) mod p for some a in supp_i.
So each edge class (i, a) is one cyclic rotation of a length-p row, by a from
variables to checks and by (p - a) mod p back.  Dense passes accumulate those rotations
in place, in edge order, reading a row that a block's edges share from one doubled copy;
sparse ones scatter.  Bit flipping is incremental: flips update the syndrome, toggled
checks the unsatisfied counts.  Sum-product's first two rounds are closed-form (Gallager):
round one's messages are +/-one scalar signed by parities and round two's one of two values
per variable, so tanh never runs on their edges; both are the general rounds' very bits.

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


def _checked_word(v, length: int, name: str = "word") -> np.ndarray:
    """v as a uint8 array; ParameterError unless it is `length` entries of 0 or 1."""
    v = np.asarray(v)
    if v.shape != (length,):
        raise ParameterError(f"{name} length must be {length} bits")
    if not ((v == 0) | (v == 1)).all():
        raise ParameterError("word entries must be 0 or 1")
    return v.astype(np.uint8, copy=False)


def syndrome(h: ParityCheck, v: np.ndarray) -> np.ndarray:
    """Syndrome of a length-n word against the sparse private matrix."""
    return _syndrome(_index_for(h), _checked_word(v, h.params.n).reshape(h.params.n0, -1)).view(np.uint8)


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
    """Halved check-to-variable LLRs artanh(prod / tnh) in place of the edge values tnh:
    prod / tnh is the product over a check's other edges.  A factor below 1e-30 divides
    as +/-1e-30; it forces |prod| < 1e-30, so only those columns need that guard.  Every
    factor has magnitude at most 1 and rounding is monotone, so |ratio| <= 1 needs no clip.
    The result is clipped to +/-LLR_CLAMP / 2 only at d_c < 3: from d_c - 1 >= 2 factors tanh(x),
    |x| <= 12.5, |ratio| <= fl(tanh 12.5)^2 (1 + (d_c + 1) 2^-53), so artanh stays below 12.2."""
    p = tnh.shape[-1]
    prod = tnh.reshape(-1, p).prod(axis=0)
    cols = np.flatnonzero(np.abs(prod) < 1e-30)
    tiny = tnh[..., cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(prod, tnh, out=tnh)
    ratio[..., cols] = prod[cols] / np.where(np.abs(tiny) < 1e-30, np.copysign(1e-30, tiny), tiny)
    with np.errstate(divide="ignore"):  # artanh(+/-1) = +/-inf
        np.arctanh(ratio, out=ratio)
    return ratio if tnh.size >= 3 * p else np.clip(ratio, -LLR_CLAMP / 2, LLR_CLAMP / 2, out=ratio)


def _spa_totals(index, received: np.ndarray, synd: np.ndarray, p0: float):
    """Log-domain sum-product decoding on a binary symmetric channel with crossover p0, from
    the received word's syndrome synd; yields each round's totals (a-posteriori LLRs).  Round
    one's message on edge (v, s) is rho_v sigma_s m: m the clipped check update of equal inputs,
    rho_v = -1 at received ones, sigma_s = -1 at unsatisfied checks.  Negation commutes with
    rounding, so total_v is channel_v + 2 rho_v (in-order sum of v's rotated sigma m row), and
    round two's message is fl(total_v / 2 - rho_v sigma_s m): clip and tanh run on its two
    values per v, and each edge picks its own bit for bit.  Messages are halved, as tanh and
    artanh take them; scaling by 2 is exact and |total| is 0 or far above the subnormals, so all
    sums round as unhalved.  The edges update only when the next round is asked for."""
    llr = math.log((1.0 - p0) / p0)
    channel = llr * (1.0 - 2.0 * received.astype(np.float64))
    m = np.clip(_check_update(np.tanh(np.full(index[0].shape + (1,), 0.5 * llr)))[0, 0, 0],
                -LLR_CLAMP / 2, LLR_CLAMP / 2)  # at p0 = 1e-300 the ratio is 1 and artanh inf
    rho_m = np.where(received, -m, m)
    sums = _accumulate(np.add, np.zeros(channel.shape), np.where(synd, -m, m), index[1])
    total = channel + 2.0 * np.where(received, -sums, sums)
    yield total
    pair = np.clip(0.5 * total - np.stack([rho_m, -rho_m]), -LLR_CLAMP / 2, LLR_CLAMP / 2)
    tx, ty = np.tanh(pair, out=pair).view(np.uint64)
    edges = _spread(np.empty(index[0].shape + synd.shape, np.uint64), tx ^ ty, index[0],
                    np.bitwise_and, -synd.astype(np.uint64))  # all ones at unsatisfied checks
    edges = _spread(edges, tx, index[0], np.bitwise_xor).view(np.float64)
    while True:
        _check_update(edges)
        total = channel + 2.0 * _accumulate(np.add, np.zeros_like(channel), edges, index[1])
        yield total
        np.clip(_spread(edges, 0.5 * total, index[0]), -LLR_CLAMP / 2, LLR_CLAMP / 2, out=edges)
        np.tanh(edges, out=edges)


def _spa_rounds(index, received: np.ndarray, synd: np.ndarray, p0: float):
    """Each round's hard decision from _spa_totals, and its syndrome."""
    for total in _spa_totals(index, received, synd, p0):
        hard = total < 0.0
        yield hard, _syndrome(index, hard)


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
    received = _checked_word(received, h.params.n)
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
