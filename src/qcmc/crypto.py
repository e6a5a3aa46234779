"""McEliece-style key generation, encryption, and decryption with sparse Q.

Private key: sparse parity check H, dense scrambler S (k0 x k0 blocks), and
sparse transformation Q (n0 x n0 blocks with weight pattern W).  Public key:
G' = S^-1 (G Q^-1) in every mode.  Classic mode samples S at random;
systematic mode takes S = the left k0 x k0 block of G Q^-1, so G' is
row-reduced, and with m = 1 it takes Q = I, so G' is the private systematic
generator itself.  Either way the public code admits the sparse parity check
H' = H Q^T.

Decryption: multiply the ciphertext by Q, decode t' = ceil(m t) errors with
the sparse private code, take the systematic information part, multiply by
S.  The output is validated by re-encoding before it is returned; a decoder
that fails or miscorrects raises DecodingFailure rather than returning a
wrong plaintext.

Key and ciphertext files are plain text: a magic line, a key=value parameter
line, the weight matrix, then one lowercase-hex polynomial per circulant
block in row-major order (little-endian bit packing, see gf2).  A seed=
field in the parameter line is what marks a private key; loading one checks
that S and Q have unit determinants (gf2.qc_is_invertible).  This is a
research toolkit: no constant-time guarantees, no side-channel hardening.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .decoder import Algorithm, DecoderConfig, _checked_word, decode
from .design import (ParityCheck, SystemParams, pattern_det_gf2, sample_h_random,
                     sample_h_rdf, systematic_generator)
from .errors import DecodingFailure, KeygenFailure, ParameterError, SingularMatrixError
from .gf2 import (BitPolynomial, QcMatrix, SparseSupport, bits_to_int, qc_invert,
                  qc_is_invertible, qc_mul, qc_transpose, qc_vec_mul)
from .prng import SeedStream, normalize_seed

KEY_MAGIC = "QCMC1"
CT_MAGIC = "QCCT1"
KEYGEN_BUDGET = 100


class KeyMode(Enum):
    CLASSIC = "classic"
    SYSTEMATIC = "systematic"


@dataclass(frozen=True)
class PublicKey:
    params: SystemParams
    Gp: QcMatrix
    mode: KeyMode

    @property
    def payload_bits(self) -> int:
        """Serialized polynomial payload size in bits."""
        k0, n0, p = self.params.k0, self.params.n0, self.params.p
        return k0 * p if self.mode is KeyMode.SYSTEMATIC else k0 * n0 * p


@dataclass(frozen=True)
class PrivateKey:
    params: SystemParams
    h: ParityCheck
    S: QcMatrix
    Q: QcMatrix
    seed: bytes
    mode: KeyMode


def random_error_vector(n: int, t: int, rng: SeedStream) -> np.ndarray:
    """Uniform weight-t binary vector of length n."""
    e = np.zeros(n, dtype=np.uint8)
    if t:
        e[list(rng.sample_distinct(n, t))] = 1
    return e


def _inverse_or_none(mat: QcMatrix) -> QcMatrix | None:
    """qc_invert(mat), or None if mat is singular; the determinant decides before inverting."""
    return qc_invert(mat) if qc_is_invertible(mat) else None


def _sample_invertible(n: int, p: int, draw, what: str) -> tuple[QcMatrix, QcMatrix]:
    """Invertible n x n block matrix with block (i, j) = draw(i, j), drawn row-major."""
    for _ in range(KEYGEN_BUDGET):
        mat = QcMatrix(n, n, p, tuple(tuple(draw(i, j) for j in range(n)) for i in range(n)))
        if (inv := _inverse_or_none(mat)) is not None:
            return mat, inv
    raise KeygenFailure(f"no invertible {what} within the sampling budget")


def _sample_q(params: SystemParams, rng: SeedStream) -> tuple[QcMatrix, QcMatrix]:
    """Random invertible Q with block (i, j) a weight-W[i][j] circulant, and Q^-1."""
    if not pattern_det_gf2(params.W):
        raise ParameterError(
            "W mod 2 is singular over GF(2): no Q with these block weights "
            "is invertible (weight parity is a ring homomorphism)")
    p = params.p
    return _sample_invertible(
        params.n0, p,
        lambda i, j: BitPolynomial.from_support(p, rng.sample_distinct(p, params.W[i][j])), "Q")


def keygen(params: SystemParams, seed, mode: KeyMode = KeyMode.CLASSIC,
           h_design: str = "random") -> tuple[PrivateKey, PublicKey]:
    """Generate a key pair, deterministically from (params, seed, mode).

    h_design selects the parity-check construction: "random" or "rdf".
    Every mode computes G' = S^-1 (G Q^-1).  Classic mode samples a dense S;
    systematic mode takes S = the left k0 x k0 block of G Q^-1 (drawing a
    new Q while that block is singular), so G' is row-reduced and only its
    k0 non-identity blocks carry information ((n0-1)*p payload bits).
    Systematic mode with m = 1 takes Q = I, so G' is the private G itself.
    """
    seed_bytes = normalize_seed(seed)
    root = SeedStream(seed_bytes, "keygen")
    sampler = {"random": sample_h_random, "rdf": sample_h_rdf}.get(h_design)
    if sampler is None:
        raise ParameterError("h_design must be 'random' or 'rdf'")
    if 2 * params.t_prime >= params.n:
        raise ParameterError(
            f"t={params.t} with m={params.m} gives t'={params.t_prime} >= n/2="
            f"{params.n / 2:g}: the private decoder cannot correct that many errors")

    h = sampler(params, root.child("h"))
    g = systematic_generator(h)
    k0, p = params.k0, params.p
    systematic = mode is KeyMode.SYSTEMATIC
    q_rng, s_rng = root.child("q"), root.child("s")
    for _ in range(KEYGEN_BUDGET):
        if systematic and params.m == 1:
            q = q_inv = QcMatrix.identity(params.n0, p)
        else:
            q, q_inv = _sample_q(params, q_rng)
        m_mat = qc_mul(g, q_inv)
        if not systematic:
            s, s_inv = _sample_invertible(
                k0, p, lambda i, j: BitPolynomial(p, s_rng.take_bits(p)), "S")
            break
        s = QcMatrix(k0, k0, p, tuple(tuple(row[:k0]) for row in m_mat.blocks))
        if (s_inv := _inverse_or_none(s)) is not None:
            break
    else:
        raise KeygenFailure("no systematic form within the sampling budget")

    sk = PrivateKey(params, h, s, q, seed_bytes, mode)
    pk = PublicKey(params, qc_mul(s_inv, m_mat), mode)
    return sk, pk


def encrypt(pk: PublicKey, u: np.ndarray, rng: SeedStream) -> np.ndarray:
    """c = u G' + e with e uniform of weight exactly t."""
    params = pk.params
    u = _checked_word(u, params.k, "message")
    e = random_error_vector(params.n, params.t, rng)
    return qc_vec_mul(u, pk.Gp) ^ e


_generator_for = lru_cache(maxsize=8)(systematic_generator)


def decrypt(sk: PrivateKey, c: np.ndarray,
            cfg: DecoderConfig = DecoderConfig(Algorithm.SPA)) -> np.ndarray:
    """Recover the message: multiply by Q, decode, extract, multiply by S.

    The candidate plaintext is re-encoded through the private pipeline and
    accepted only if it reproduces the decoded codeword within the error
    budget t * max_row_weight(Q); otherwise DecodingFailure is raised.
    """
    params = sk.params
    c = _checked_word(c, params.n, "ciphertext")

    c_priv = qc_vec_mul(c, sk.Q)
    outcome = decode(sk.h, c_priv, cfg)
    if not outcome.success:
        raise DecodingFailure(
            f"decoder did not converge within {cfg.max_iterations} iterations")
    # weight(e Q) <= t * max row weight of Q, which can exceed ceil(m t)
    max_row_weight = max(sum(row) for row in params.W)
    if int(outcome.error_estimate.sum()) > max(params.t_prime, params.t * max_row_weight):
        raise DecodingFailure("decoded word is too far from the received word")

    codeword = c_priv ^ outcome.error_estimate
    info = codeword[:params.k]
    g = _generator_for(sk.h)
    if not np.array_equal(qc_vec_mul(info, g), codeword):
        raise DecodingFailure("re-encoding check failed")
    return qc_vec_mul(info, sk.S)


def public_parity_check(sk: PrivateKey) -> QcMatrix:
    """Sparse parity check H' = H Q^T admitted by the public code."""
    return qc_mul(sk.h.to_qc_matrix(), qc_transpose(sk.Q))


# --- file formats -----------------------------------------------------------

def _params_line(params: SystemParams, seed: bytes | None = None) -> str:
    parts = [f"n0={params.n0}", f"p={params.p}", f"dv={params.d_v}", f"t={params.t}"]
    if seed is not None:
        parts.append(f"seed={seed.hex()}")
    return " ".join(parts)


def _w_line(params: SystemParams) -> str:
    return "W=" + ",".join(str(x) for row in params.W for x in row)


def _grid(items: list, rows: int, cols: int) -> tuple:
    """rows x cols nested tuples from a row-major list."""
    return tuple(tuple(items[i * cols:(i + 1) * cols]) for i in range(rows))


def _parse_header(lines: list[str], magic: str) -> tuple[SystemParams, KeyMode, bytes | None]:
    if not lines or not lines[0].startswith(magic + " "):
        raise ParameterError(f"not a {magic} file")
    if len(lines) < 3 or not lines[2].startswith("W="):
        raise ParameterError("missing parameter or weight matrix line")
    try:
        mode = KeyMode(lines[0].split()[1])
        fields = dict(tok.split("=", 1) for tok in lines[1].split())
        n0, p, d_v, t = (int(fields[key]) for key in ("n0", "p", "dv", "t"))
        seed = bytes.fromhex(fields["seed"]) if "seed" in fields else None
        w_flat = [int(x) for x in lines[2][2:].split(",")]
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"malformed {magic} header: {exc!r}") from exc
    if len(w_flat) != n0 * n0:
        raise ParameterError("weight matrix length mismatch")
    return SystemParams(n0, p, d_v, _grid(w_flat, n0, n0), t), mode, seed


def _write_lines(path: str | os.PathLike, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path: str | os.PathLike) -> list[str]:
    """The file's non-blank lines, stripped; ParameterError if it is not text."""
    try:
        with open(path) as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path} is not a text file") from exc


def save_public_key(pk: PublicKey, path) -> None:
    params = pk.params
    lines = [f"{KEY_MAGIC} {pk.mode.value}", _params_line(params), _w_line(params)]
    if pk.mode is KeyMode.SYSTEMATIC:
        blocks = [pk.Gp.blocks[i][params.n0 - 1] for i in range(params.k0)]
    else:
        blocks = [blk for row in pk.Gp.blocks for blk in row]
    lines += [blk.to_hex() for blk in blocks]
    _write_lines(path, lines)


def save_private_key(sk: PrivateKey, path) -> None:
    params = sk.params
    lines = [f"{KEY_MAGIC} {sk.mode.value}", _params_line(params, sk.seed),
             _w_line(params)]
    lines += [blk.to_poly().to_hex() for blk in sk.h.blocks]
    lines += [blk.to_hex() for row in sk.S.blocks for blk in row]
    lines += [blk.to_hex() for row in sk.Q.blocks for blk in row]
    _write_lines(path, lines)


def _load_key(path, want: type | None) -> PrivateKey | PublicKey:
    """The key in a QCMC1 file, private if its header has seed=; want rejects the other kind."""
    lines = _read_lines(path)
    params, mode, seed = _parse_header(lines, KEY_MAGIC)
    kind = PublicKey if seed is None else PrivateKey
    if want not in (None, kind):
        raise ParameterError(f"{path} holds a {kind.__name__}, not a {want.__name__} "
                             "(a seed= header field marks a private key)")
    polys = [BitPolynomial.from_hex(params.p, ln) for ln in lines[3:]]
    n0, k0, p = params.n0, params.k0, params.p
    expected = (n0 + k0 * k0 + n0 * n0 if kind is PrivateKey
                else k0 if mode is KeyMode.SYSTEMATIC else k0 * n0)
    if len(polys) != expected:
        raise ParameterError(f"expected {expected} blocks, found {len(polys)}")
    if kind is PublicKey:
        if mode is KeyMode.SYSTEMATIC:  # the identity blocks are not stored
            one, zero = BitPolynomial.one(p), BitPolynomial.zero(p)
            polys = [blk for i in range(k0)
                     for blk in [one if j == i else zero for j in range(k0)] + [polys[i]]]
        return PublicKey(params, QcMatrix(k0, n0, p, _grid(polys, k0, n0)), mode)
    h = ParityCheck(params, tuple(SparseSupport.from_poly(poly) for poly in polys[:n0]))
    s = QcMatrix(k0, k0, p, _grid(polys[n0:], k0, k0))
    q = QcMatrix(n0, n0, p, _grid(polys[n0 + k0 * k0:], n0, n0))
    if not (qc_is_invertible(s) and qc_is_invertible(q)):
        raise SingularMatrixError("the private key's S or Q is not invertible")
    return PrivateKey(params, h, s, q, seed, mode)


def load_key(path) -> PrivateKey | PublicKey:
    return _load_key(path, None)


def load_public_key(path) -> PublicKey:
    return _load_key(path, PublicKey)


def load_private_key(path) -> PrivateKey:
    return _load_key(path, PrivateKey)


def save_ciphertext(c: np.ndarray, path) -> None:
    c = np.asarray(c, dtype=np.uint8)
    lines = [CT_MAGIC, f"n={c.size}", BitPolynomial(c.size, bits_to_int(c)).to_hex()]
    _write_lines(path, lines)


def load_ciphertext(path) -> np.ndarray:
    lines = _read_lines(path)
    if not lines or lines[0] != CT_MAGIC:
        raise ParameterError(f"not a {CT_MAGIC} file")
    try:
        n, payload = int(lines[1].split("=", 1)[1]), lines[2]
    except (IndexError, ValueError) as exc:
        raise ParameterError(f"malformed {CT_MAGIC} file: {exc!r}") from exc
    return BitPolynomial.from_hex(n, payload).coeffs()
