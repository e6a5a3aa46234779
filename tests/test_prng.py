"""Deterministic seed streams: reproducibility, domain separation, sampling."""

import hashlib

import pytest

from qcmc.errors import ParameterError
from qcmc.prng import SeedStream, normalize_seed


def test_seed_normalization():
    assert normalize_seed(0) == b"\x00" * 32
    assert normalize_seed(1)[-1] == 1
    assert normalize_seed("00" * 32) == b"\x00" * 32
    assert len(normalize_seed(b"short")) == 32
    assert normalize_seed(b"\x01" * 32) == b"\x01" * 32
    with pytest.raises(TypeError):
        normalize_seed(1.5)


@pytest.mark.parametrize("odd, padded", [("abc", "0abc"), ("5", "05"), ("f" * 63, "0" + "f" * 63)])
def test_odd_length_hex_seed_reads_with_a_leading_zero(odd, padded):
    assert normalize_seed(odd) == normalize_seed(padded) == normalize_seed(bytes.fromhex(padded))


def test_even_length_hex_seed_keeps_its_bytes():
    assert normalize_seed("0aff") == hashlib.sha256(b"\x0a\xff").digest()
    assert normalize_seed("ab" * 32) == b"\xab" * 32


@pytest.mark.parametrize("bad", ["zz", "abz", "0x5", "g"])
def test_non_hex_seed_rejected(bad):
    with pytest.raises(ParameterError, match="seed must be hex"):
        normalize_seed(bad)


def test_streams_reproducible():
    a = SeedStream(123, "x")
    b = SeedStream(123, "x")
    assert a.take_bytes(100) == b.take_bytes(100)
    assert a.below(1000) == b.below(1000)


def test_domain_separation():
    assert SeedStream(1, "a").take_bytes(32) != SeedStream(1, "b").take_bytes(32)
    root = SeedStream(1, "a")
    assert root.child("x").take_bytes(16) != root.child("y").take_bytes(16)


def test_below_bounds():
    rng = SeedStream(5, "bounds")
    for bound in (1, 2, 3, 17, 1000):
        for _ in range(50):
            assert 0 <= rng.below(bound) < bound
    with pytest.raises(ValueError):
        rng.below(0)


def test_sample_distinct():
    rng = SeedStream(6, "distinct")
    sup = rng.sample_distinct(100, 10)
    assert len(sup) == 10 and len(set(sup)) == 10
    assert list(sup) == sorted(sup)
    assert rng.sample_distinct(5, 5) == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        rng.sample_distinct(4, 5)


def test_rough_uniformity():
    rng = SeedStream(7, "uniform")
    counts = [0] * 8
    for _ in range(4000):
        counts[rng.below(8)] += 1
    assert min(counts) > 350 and max(counts) < 650
