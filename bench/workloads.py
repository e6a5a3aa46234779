"""The benchmark's workloads: closed loops with one caller over the public qcmc API.

Each workload builds an operation's inputs from the seed it is given (the
run seed, or a fixed one for the gated first operations: see measure.py),
times one operation at a time, and returns what the operation produced so
that the harness can check it and digest it.  Parameters are constructor
arguments so the self-tests can run every workload at toy sizes.  Each
workload names the reference kernels (measure.KERNELS) that do its kind of
work; ``op_ref_p50`` is measured in their units.

* ``crypto-100``: the paper's 100-bit design point.  One operation is a key
  session: classic and systematic keygen from the next of a fixed list of
  key seeds, each followed by save and load of both key files, then a few
  encrypt -> decrypt roundtrips of seed-derived plaintexts on the classic key
  built in set-up.  ``gf2`` does most of the
  work; the SPA decoder does about half of each decrypt.
* ``mc-mdpc``: ``run_trials`` with SPA and then BFV on the same seed-derived
  error pattern of the d_v=85 MDPC code.  The decoder does almost all the
  work and ``gf2`` none: the control for ring-arithmetic changes.
* ``design-100``: ``optimize_design(OptimizerConfig(100))`` with the attack
  and threshold caches cleared first, as every ``qcmc optimize`` call pays
  them.  ``attacks`` and ``threshold`` do all the work; the seed is unused.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qcmc import attacks, crypto, decoder, threshold
from qcmc.crypto import (KeyMode, decrypt, encrypt, keygen, load_private_key,
                         load_public_key, save_ciphertext, save_private_key,
                         save_public_key)
from qcmc.decoder import Algorithm, DecoderConfig, syndrome
from qcmc.design import SystemParams, sample_h_random
from qcmc.errors import DecodingFailure
from qcmc.gf2 import int_to_bits
from qcmc.optimize import OptimizerConfig, design_rows, optimize_design
from qcmc.prng import SeedStream
from qcmc.simulate import run_trials

CACHES = {
    "attacks.isda_cache": attacks._isda_cached,
    "threshold.cache": threshold._threshold_cached,
    "decoder.index_cache": decoder._index_for,
    "crypto.generator_cache": crypto._generator_for,
}


class BenchError(Exception):
    """An output is wrong: the run is invalid, not merely slow or failed."""


def clear_caches(names=tuple(CACHES)) -> None:
    for name in names:
        CACHES[name].cache_clear()


def cache_counts() -> dict[str, int]:
    out = {}
    for name, cache in CACHES.items():
        info = cache.cache_info()
        out[name + ".hits"], out[name + ".misses"] = info.hits, info.misses
    return out


@dataclass
class OpResult:
    """One operation: its failed steps, what it produced, and step times."""

    failures: int = 0
    output: list = field(default_factory=list)
    phases: dict[str, list[float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failures == 0


def timed(result: OpResult, phase: str, tracer, span: str, fn, *args, **kwargs):
    """Call fn inside a span and append its wall time to result.phases[phase]."""
    with tracer.span(span):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        result.phases.setdefault(phase, []).append(time.perf_counter() - t0)
    return out


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _phase(results: list[OpResult], phase: str) -> list[float]:
    return [x for r in results for x in r.phases.get(phase, [])]


# Keys are the same in every run; the run seed varies the plaintexts and the
# encryption randomness.  Keygen time depends strongly on the key (a classic
# keygen takes 0.3 s to 1.1 s), which would otherwise swamp the run-to-run
# comparison with the luck of the key draw.
KEY_SEED = "c0ffee"


class CryptoWorkload:
    name = "crypto-100"
    min_ops = 2
    cold_caches = ()
    # ring products and SPA decoding; with small_scipy added, the ratio spread
    # over five seeds fell from 0.073 to 0.060 on a 2-core x86-64 sandbox
    reference_kernels = ("shift_xor", "gather_tanh", "small_scipy")

    def __init__(self, workdir: Path, params: SystemParams | None = None,
                 roundtrips: int = 8):
        self.params = params or SystemParams.make(4, 4096, 15, 47, sigma_w=15)
        self.roundtrips = roundtrips
        self.workdir = workdir

    def describe(self) -> dict:
        pr = self.params
        return {"n0": pr.n0, "p": pr.p, "d_v": pr.d_v, "t": pr.t, "m": str(pr.m),
                "roundtrips_per_op": self.roundtrips, "decoder": "spa (default config)"}

    def setup(self) -> list[bytes]:
        """Roundtrip key and its first decrypt, which fills the decoder caches."""
        self.sk, self.pk = keygen(self.params, KEY_SEED)
        sk_path, pk_path = self.workdir / "setup.sk", self.workdir / "setup.pk"
        save_private_key(self.sk, sk_path)
        save_public_key(self.pk, pk_path)
        rng = SeedStream(KEY_SEED, "bench/setup-message")
        u = int_to_bits(rng.take_bits(self.params.k), self.params.k)
        if not np.array_equal(decrypt(self.sk, encrypt(self.pk, u, rng)), u):
            raise BenchError("setup roundtrip returned a wrong plaintext")
        return [sk_path.read_bytes(), pk_path.read_bytes()]

    def op(self, seed: int, i: int, tracer) -> OpResult:
        res = OpResult()
        rng = SeedStream(seed, f"bench/crypto/{i}")
        key_seed = SeedStream(KEY_SEED, f"bench/crypto-key/{i}").take_bytes(32)
        for mode, label in ((KeyMode.CLASSIC, "keygen_classic"),
                            (KeyMode.SYSTEMATIC, "keygen_systematic")):
            sk, pk = timed(res, label, tracer, "crypto." + label,
                           keygen, self.params, key_seed, mode)
            sk_path, pk_path = self.workdir / "op.sk", self.workdir / "op.pk"
            timed(res, "save", tracer, "crypto.save_private_key", save_private_key, sk, sk_path)
            timed(res, "save", tracer, "crypto.save_public_key", save_public_key, pk, pk_path)
            sk2 = timed(res, "load", tracer, "crypto.load_private_key", load_private_key, sk_path)
            pk2 = timed(res, "load", tracer, "crypto.load_public_key", load_public_key, pk_path)
            if sk2 != sk or pk2 != pk:
                raise BenchError(f"{mode.value} key changed across save and load")
            res.output += [sk_path.read_bytes(), pk_path.read_bytes()]

        k = self.params.k
        for _ in range(self.roundtrips):
            u = int_to_bits(rng.take_bits(k), k)
            c = timed(res, "encrypt", tracer, "crypto.encrypt", encrypt, self.pk, u, rng)
            res.output.append(c)
            try:
                v = timed(res, "decrypt", tracer, "crypto.decrypt", decrypt, self.sk, c)
            except DecodingFailure:
                # a failed decrypt misses any latency limit
                res.phases.setdefault("decrypt", []).append(math.inf)
                tracer.counts["crypto.decrypt.failures"] += 1
                res.failures += 1
                continue
            if not np.array_equal(u, v):
                raise BenchError("decrypt returned a wrong plaintext")
        return res

    def serialize(self, output: list) -> list[bytes]:
        """Key files as saved, ciphertexts as save_ciphertext writes them."""
        out = []
        for item in output:
            if isinstance(item, np.ndarray):
                path = self.workdir / "op.ct"
                save_ciphertext(item, path)
                item = path.read_bytes()
            out.append(item)
        return out

    def check(self, results: list[OpResult]) -> None:
        """Nothing left to check: op() checks keys and plaintexts as it goes."""

    def details(self, results: list[OpResult]) -> dict:
        enc, dec = _phase(results, "encrypt"), _phase(results, "decrypt")
        roundtrip_s = sum(enc) + sum(x for x in dec if math.isfinite(x))
        ok_roundtrips = sum(math.isfinite(x) for x in dec)
        return {
            "keygen_ms_p50": (_p50(_phase(results, "keygen_classic")) * 1e3, "ms"),
            "keygen_sys_ms_p50": (_p50(_phase(results, "keygen_systematic")) * 1e3, "ms"),
            "key_load_ms_p50": (_p50(_pairs(_phase(results, "load"))) * 1e3, "ms"),
            "encrypt_ms_p50": (_p50(enc) * 1e3, "ms"),
            "encrypt_ms_tail": tail_ms(enc),
            "decrypt_ms_p50": (_p50(dec) * 1e3, "ms"),
            "decrypt_ms_tail": tail_ms(dec),
            "roundtrips_per_s": (ok_roundtrips / roundtrip_s if roundtrip_s else 0.0, "1/s"),
            "decrypt_fail_ratio": (sum(r.failures for r in results) / max(len(dec), 1),
                                   "ratio"),
        }


def _pairs(values: list[float]) -> list[float]:
    """Private-key load plus public-key load, per key pair."""
    return [a + b for a, b in zip(values[::2], values[1::2])]


class McWorkload:
    name = "mc-mdpc"
    min_ops = 3
    cold_caches = ()
    reference_kernels = ("gather_tanh",)

    trials = 1  # per decoder and operation

    def __init__(self, params: SystemParams | None = None, t_err: int = 68, h_seed=0x8D):
        self.params = params or SystemParams.make(4, 6272, 85, 68)
        self.t_err = t_err
        self.h_seed = h_seed
        self.configs = (("spa", DecoderConfig(Algorithm.SPA, p0=t_err / self.params.n)),
                        ("bfv", DecoderConfig(Algorithm.BF_VARIABLE)))

    def describe(self) -> dict:
        pr = self.params
        return {"n0": pr.n0, "p": pr.p, "d_v": pr.d_v, "t_err": self.t_err,
                "trials_per_op": self.trials, "decoders": ["spa", "bfv"]}

    def setup(self) -> list[bytes]:
        """The MDPC parity check and its Tanner index."""
        self.h = sample_h_random(self.params, SeedStream(self.h_seed, "mdpc"))
        syndrome(self.h, np.zeros(self.params.n, dtype=np.uint8))
        return [repr([blk.support for blk in self.h.blocks]).encode()]

    def op(self, seed: int, i: int, tracer) -> OpResult:
        res = OpResult()
        trial_seed = SeedStream(seed, f"bench/mc/{i}").take_bytes(32)
        for label, cfg in self.configs:
            rep = timed(res, label, tracer, "simulate.run_trials", run_trials,
                        self.h, cfg, self.t_err, self.trials, trial_seed, jobs=1)
            res.output.append((label, rep.trials, rep.codeword_errors, rep.bit_errors,
                               rep.avg_iterations))
        return res

    def serialize(self, output: list) -> list[bytes]:
        return [repr(item).encode() for item in output]

    def check(self, results: list[OpResult]) -> None:
        cfg_max = max(cfg.max_iterations for _, cfg in self.configs)
        for r in results:
            for label, trials, cw, bits, iters in r.output:
                if trials != self.trials or not 0 <= cw <= trials or bits < 0 \
                        or (cw == 0 and bits) or not 0 <= iters <= cfg_max:
                    raise BenchError(f"inconsistent {label} trial report {r.output}")

    def details(self, results: list[OpResult]) -> dict:
        out = {}
        for label, _ in self.configs:
            times = _phase(results, label)
            out[f"mc_{label}_trials_per_s"] = (self.trials * len(times) / sum(times), "1/s")
        return out


class DesignWorkload:
    name = "design-100"
    min_ops = 1
    # every `qcmc optimize` process starts with these empty
    cold_caches = ("attacks.isda_cache", "threshold.cache")
    reference_kernels = ("small_scipy",)

    def __init__(self, cfg: OptimizerConfig | None = None):
        self.cfg = cfg or OptimizerConfig(100)

    def describe(self) -> dict:
        c = self.cfg
        return {"target_security_bits": c.target_security_bits, "n0": c.n0, "I": c.I,
                "d_v_candidates": list(c.d_v_candidates),
                "p_grid": [min(c.p_grid), max(c.p_grid)]}

    def setup(self) -> list[bytes]:
        return []

    def op(self, seed: int, i: int, tracer) -> OpResult:
        res = OpResult()
        report = timed(res, "optimize", tracer, "optimize.optimize_design",
                       optimize_design, self.cfg)
        res.output.append(json.dumps([design_rows(report), report.rejections]).encode())
        return res

    def serialize(self, output: list) -> list[bytes]:
        return list(output)

    def check(self, results: list[OpResult]) -> None:
        for r in results:
            rows, _ = json.loads(r.output[0])
            if not rows:
                raise BenchError("optimizer returned no feasible design")

    def details(self, results: list[OpResult]) -> dict:
        return {"optimize_s": (_p50(_phase(results, "optimize")), "s")}


def tail_ms(samples: list[float]):
    """The `_tail` entry of a latency list in seconds, or None with too few samples."""
    t = tail(samples)
    if t is None:
        return None
    return {"value": t["value"] * 1e3, "unit": "ms", "percentile": t["percentile"],
            "samples": t["samples"]}


TAIL_PERMILLE = (999, 990, 950, 900, 750)  # p99.9, p99, p95, p90, p75


def tail(samples: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    ordered = sorted(samples)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * n // 1000)  # ceil(permille * n / 1000)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": permille / 10, "value": ordered[rank - 1], "samples": n}
    return None


def make(name: str, workdir: Path):
    if name == "crypto-100":
        return CryptoWorkload(workdir)
    if name == "mc-mdpc":
        return McWorkload()
    if name == "design-100":
        return DesignWorkload()
    raise ValueError(f"unknown workload {name!r}")
