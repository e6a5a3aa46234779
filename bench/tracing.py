"""Span tracing around the calls that qcmc modules make into each other.

Wrappers go on the module attributes through which one layer calls another
(``qcmc.crypto.decode``, ``qcmc.gf2.poly_mul``, ...), so ``src/`` is never
edited.  Each wrapped call records a span: name, start, end, parent span and
the request (benchmark operation) it belongs to.  Spans stay in memory; the
caller writes them out when the run ends.

A span is named ``<layer>.<function>``.  Its self time is its duration minus
the durations of its direct children; children never overlap because the
benchmark runs one caller on one thread.  Every operation of a run is one
root span, ``bench.op``, so the self times of all spans add up exactly to
the summed duration of the operations.
"""

from __future__ import annotations

import collections
import contextlib
import sys
import time
import types

import qcmc.attacks
import qcmc.crypto
import qcmc.decoder
import qcmc.design
import qcmc.gf2
import qcmc.optimize
import qcmc.prng
import qcmc.simulate
import qcmc.threshold

LAYERS = ("gf2", "design", "decoder", "threshold", "attacks", "optimize",
          "crypto", "simulate", "prng", "bench")


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list = []
        self.counts: collections.Counter = collections.Counter()
        self.request_id = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - child[i]
        return out

    def dump(self) -> dict:
        """Spans as compact rows: [name index, start us, end us, parent, request]."""
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, r]
                for n, s, e, p, r in zip(self.names, self.starts, self.ends,
                                         self.parents, self.requests)]
        return {"names": names, "spans": rows}


class NullTracer:
    """Tracer stand-in for untraced runs: spans cost one method call."""

    _null = contextlib.nullcontext()

    def __init__(self):
        self.request_id = None
        self.counts: collections.Counter = collections.Counter()

    def span(self, name: str):
        return self._null


def _decoder_span(args) -> str:
    return "decoder." + args[2].algorithm.value


def _count_decode(counts, span, args, outcome) -> None:
    params = args[0].params
    counts[span + ".iterations"] += outcome.iterations_used
    counts[span + ".successes"] += int(outcome.success)
    counts[span + ".edge_visits"] += (params.n0 * params.d_v * params.p
                                      * outcome.iterations_used)


def _count_shift_xors(counts, span, args, result) -> None:
    counts["gf2.poly_mul.shift_xors"] += min(args[0].weight, args[1].weight)


def _count_bytes(counts, span, args, result) -> None:
    counts["prng.take_bytes.bytes"] += args[1]


# (owner, attribute, span name or name function, optional counter hook)
TARGETS = (
    (qcmc.crypto, "decode", _decoder_span, _count_decode),
    (qcmc.crypto, "qc_vec_mul", "gf2.qc_vec_mul", None),
    (qcmc.crypto, "qc_invert", "gf2.qc_invert", None),
    (qcmc.crypto, "qc_mul", "gf2.qc_mul", None),
    (qcmc.crypto, "systematic_generator", "design.systematic_generator", None),
    (qcmc.crypto, "sample_h_random", "design.sample_h_random", None),
    (qcmc.gf2, "poly_mul", "gf2.poly_mul", _count_shift_xors),
    (qcmc.gf2, "poly_inverse", "gf2.poly_inverse", None),
    (qcmc.design, "poly_mul", "gf2.poly_mul", _count_shift_xors),
    (qcmc.design, "poly_inverse", "gf2.poly_inverse", None),
    (qcmc.gf2.BitPolynomial, "support", "gf2.support", None),
    (qcmc.simulate, "decode", _decoder_span, _count_decode),
    (qcmc.simulate, "random_error_vector", "simulate.random_error_vector", None),
    (qcmc.attacks, "isd_wf", "attacks.isd_wf", None),
    (qcmc.optimize, "isda_wf_at", "attacks.isda_wf_at", None),
    (qcmc.optimize, "dca_wf_at", "attacks.dca_wf_at", None),
    (qcmc.optimize, "bf_threshold", "threshold.bf_threshold", None),
    (qcmc.threshold, "evolution_step", "threshold.evolution_step", None),
    (qcmc.prng.SeedStream, "take_bytes", "prng.take_bytes", _count_bytes),
)

def _wrap(tracer: Tracer, name, fn, hook):
    def traced(*args, **kwargs):
        span = name(args) if callable(name) else name
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer.counts, span, args, result)
        return result
    traced.bench_original = fn
    return traced


def assert_clean() -> None:
    """Raise unless every traced attribute is qcmc's own, unwrapped function."""
    for owner, attr, _, _ in TARGETS:
        fn = vars(owner)[attr]
        home = sys.modules.get(fn.__module__)
        if hasattr(fn, "bench_original") or not fn.__module__.startswith("qcmc.") \
                or (isinstance(owner, types.ModuleType) and getattr(home, attr, None) is not fn):
            raise RuntimeError(f"tracing wrapper left on {owner.__name__}.{attr}")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block; originals always come back."""
    assert_clean()
    saved = []
    try:
        for owner, attr, name, hook in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    assert_clean()


def per_layer_metrics(tracer: Tracer, cache_delta: dict[str, int],
                      untraced_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run, as name -> (value, unit)."""
    summary = tracer.summary()
    counts = tracer.counts
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, tuple[float, str]] = {}

    def span_metrics(name: str, *fields: str) -> None:
        entry = summary.get(name, empty)
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = (entry["calls"], "count")
            elif field == "ms":
                out[f"{name}.ms"] = (entry["s"] * 1e3, "ms")
            else:
                out[f"{name}.self_ms"] = (entry["self_s"] * 1e3, "ms")

    for fn in ("poly_mul", "support", "poly_inverse", "qc_mul", "qc_invert", "qc_vec_mul"):
        span_metrics("gf2." + fn, "calls", "ms", "self_ms")
    out["gf2.poly_mul.shift_xors"] = (counts["gf2.poly_mul.shift_xors"], "count")

    for alg in ("spa", "bfv"):
        name = "decoder." + alg
        entry = summary.get(name, empty)
        calls, iters = entry["calls"], counts[name + ".iterations"]
        span_metrics(name, "calls", "ms")
        out[name + ".iterations"] = (iters, "count")
        out[name + ".ms_per_iter"] = (entry["s"] * 1e3 / iters if iters else 0.0, "ms")
        out[name + ".success_ratio"] = (
            counts[name + ".successes"] / calls if calls else 0.0, "ratio")
        out[name + ".edge_visits"] = (counts[name + ".edge_visits"], "count")

    for fn in ("keygen_classic", "keygen_systematic", "encrypt", "decrypt",
               "load_private_key", "load_public_key", "save_private_key",
               "save_public_key"):
        span_metrics("crypto." + fn, "ms")
    span_metrics("crypto.decrypt", "self_ms")
    out["crypto.decrypt.failures"] = (counts["crypto.decrypt.failures"], "count")

    for fn in ("sample_h_random", "systematic_generator"):
        span_metrics("design." + fn, "calls", "ms")
    span_metrics("prng.take_bytes", "calls", "ms")
    out["prng.take_bytes.bytes"] = (counts["prng.take_bytes.bytes"], "B")
    span_metrics("simulate.run_trials", "ms")
    span_metrics("simulate.random_error_vector", "ms")
    for fn in ("isda_wf_at", "isd_wf", "dca_wf_at"):
        span_metrics("attacks." + fn, "calls", "ms")
    span_metrics("threshold.bf_threshold", "calls", "ms")
    span_metrics("threshold.evolution_step", "calls")
    span_metrics("optimize.optimize_design", "ms")
    for name, value in cache_delta.items():
        out[name] = (value, "count")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    for layer in LAYERS:
        out[layer + ".self_ms"] = (layer_self[layer] * 1e3, "ms")
    wall = summary.get("bench.op", empty)["s"]
    out["trace.wall_ms"] = (wall * 1e3, "ms")
    out["trace.untraced_ms"] = (untraced_s * 1e3, "ms")
    out["trace.overhead_ms"] = ((wall - untraced_s) * 1e3, "ms")
    out["trace.spans"] = (len(tracer.names), "count")
    return out
