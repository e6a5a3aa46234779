"""Deterministic random streams for reproducible key and error sampling.

Every random choice in the toolkit is driven by a SeedStream: SHA-256 in
counter mode over (seed, domain label, block counter).  The construction is
fixed so that a (seed, domain) pair produces the same byte stream on every
platform and library version, which keeps key files and simulation reports
bit-reproducible.

Stream layout: block_i = SHA256(key || i_as_8_bytes_big_endian) where
key = SHA256(seed_bytes || 0x00 || domain_utf8).  Bytes are consumed in
block order; integers are assembled least-significant-byte first.
"""

from __future__ import annotations

import hashlib

from .errors import ParameterError


def normalize_seed(seed) -> bytes:
    """Map an int, bytes, or hex string onto the canonical 32-byte seed; a hex string
    of odd length reads as if it had a leading 0, so 'abc' and '0abc' are one seed."""
    if isinstance(seed, int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        return (seed % (1 << 256)).to_bytes(32, "big")
    if isinstance(seed, str):
        try:
            seed = bytes.fromhex("0" * (len(seed) % 2) + seed)
        except ValueError as exc:
            raise ParameterError(f"seed must be hex, got {seed!r}") from exc
    if isinstance(seed, (bytes, bytearray)):
        seed = bytes(seed)
        if len(seed) == 32:
            return seed
        return hashlib.sha256(seed).digest()
    raise TypeError(f"cannot use {type(seed).__name__} as a seed")


class SeedStream:
    """Deterministic byte/bit source, domain-separated from a 256-bit seed."""

    def __init__(self, seed, domain: str = ""):
        self.seed = normalize_seed(seed)
        self.domain = domain
        self._key = hashlib.sha256(self.seed + b"\x00" + domain.encode()).digest()
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def child(self, label: str) -> "SeedStream":
        """Independent substream (domain-separated, same seed)."""
        return SeedStream(self.seed, self.domain + "/" + label)

    def _next_block(self) -> bytes:
        block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
        self._counter += 1
        return block

    def take_bytes(self, n: int) -> bytes:
        out = bytearray()
        while n > 0:
            if self._pos >= len(self._buf):
                self._buf = self._next_block()
                self._pos = 0
            chunk = self._buf[self._pos : self._pos + n]
            out += chunk
            self._pos += len(chunk)
            n -= len(chunk)
        return bytes(out)

    def take_bits(self, k: int) -> int:
        """k uniform random bits as an integer (low bits first in the stream)."""
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.take_bytes(nbytes), "little")
        return value & ((1 << k) - 1)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        k = (bound - 1).bit_length() if bound > 1 else 1
        while True:
            v = self.take_bits(k)
            if v < bound:
                return v

    def sample_distinct(self, population: int, count: int) -> tuple[int, ...]:
        """Sorted tuple of `count` distinct indices drawn uniformly from [0, population)."""
        if count > population:
            raise ValueError("cannot sample more indices than the population")
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(self.below(population))
        return tuple(sorted(chosen))
