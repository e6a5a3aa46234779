"""Self-tests of the benchmark harness at toy sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qcmc.design import SystemParams  # noqa: E402
from qcmc.errors import DecodingFailure  # noqa: E402
from qcmc.optimize import OptimizerConfig  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def toy_crypto(tmp_path):
    return workloads.CryptoWorkload(tmp_path, SystemParams.make(2, 256, 5, 2, sigma_w=6),
                                    roundtrips=2)


def toy_mc():
    return workloads.McWorkload(SystemParams.make(2, 256, 5, 2), t_err=3, h_seed=1)


def toy_design():
    return workloads.DesignWorkload(OptimizerConfig(30, p_grid=(1024, 2048),
                                                    d_v_candidates=(5, 7)))


def printed_metrics(result, trace):
    line = run.result_line(result, trace)
    return json.loads(line)["metrics"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(tmp_path, trace, section):
    result = measure.run_workload(toy_crypto(tmp_path), 3, 0.5, bool(trace), None,
                                  setup_reps=1)
    metrics = printed_metrics(result, trace)
    assert list(metrics) == [m["name"] for m in SPEC[section]]
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(metrics[name]["unit"] == units[name] for name in metrics)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("n,percentile", [(10, None), (39, None), (40, 75.0), (99, 75.0),
                                          (100, 90.0), (200, 95.0), (1000, 99.0),
                                          (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile):
    samples = [float(i) for i in range(n, 0, -1)]
    t = workloads.tail(samples)
    if percentile is None:
        assert t is None
        return
    assert t["percentile"] == percentile and t["samples"] == n
    assert sum(x > t["value"] for x in samples) >= 10
    for permille in workloads.TAIL_PERMILLE:
        if permille > 10 * percentile:
            assert n - math.ceil(permille * n / 1000) < 10


def test_decoding_failure_counts_as_failed_operation(tmp_path, monkeypatch):
    real = workloads.decrypt
    calls = []

    def failing_after_setup(sk, c):
        calls.append(1)
        if len(calls) > 1:
            raise DecodingFailure("decoder did not converge")
        return real(sk, c)

    monkeypatch.setattr(workloads, "decrypt", failing_after_setup)
    result = measure.run_workload(toy_crypto(tmp_path), 5, 0.2, True, None, setup_reps=1)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert result["end_to_end"]["op_ref_p50"][0] == math.inf
    assert result["ops_per_s"] == 0.0
    assert result["details"]["decrypt_fail_ratio"][0] == 1.0
    failures = result["per_layer"]["crypto.decrypt.failures"][0]
    assert failures == 2 * result["attempted"]


@pytest.mark.parametrize("make", [toy_crypto, lambda tmp: toy_mc(), lambda tmp: toy_design()],
                         ids=["crypto", "mc", "design"])
def test_layer_self_times_add_up_to_traced_wall(tmp_path, make):
    result = measure.run_workload(make(tmp_path), 2, 0.2, True, None, setup_reps=1)
    per_layer = result["per_layer"]
    total = sum(per_layer[f"{layer}.self_ms"][0] for layer in tracing.LAYERS)
    wall = per_layer["trace.wall_ms"][0]
    assert wall > 0
    assert total == pytest.approx(wall, rel=1e-9)
    tracing.assert_clean()


def digest_of(wl, seed):
    return measure.run_workload(wl, seed, 0.0, False, None, setup_reps=1)["digest"]


def test_output_gate_trips_on_changed_digest(tmp_path):
    wl = toy_crypto(tmp_path)
    digest = digest_of(wl, 7)
    assert measure.run_workload(wl, 7, 0.1, False, digest, setup_reps=1)["digest"] == digest
    changed = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    with pytest.raises(workloads.BenchError, match="differs from the reference"):
        measure.run_workload(wl, 7, 0.1, False, changed, setup_reps=1)


def test_gated_operations_do_not_depend_on_the_run_seed(tmp_path):
    wl = toy_crypto(tmp_path)
    assert digest_of(wl, 1) == digest_of(wl, 2)


def test_seed_changes_inputs_and_same_seed_repeats_them():
    wl = toy_mc()
    wl.setup()

    def outputs(seed):
        return wl.op(seed, wl.min_ops, tracing.NullTracer()).output

    assert outputs(1) == outputs(1)
    assert outputs(1) != outputs(2)


def test_run_fails_without_a_reference_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference.json")
    assert run.main(["--workload", "mc-mdpc", "--seed", "1", "--seconds", "0"]) == 1


def test_sampler_time_is_taken_off_and_its_handler_removed():
    sampler = measure.Sampler(("small_scipy",))
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with sampler.during():
        while time.perf_counter() - t0 < 3.5 * measure.SAMPLE_EVERY_S:
            pass
    assert len(sampler.samples) >= 3  # two or more ticks, then one sample after the block
    assert 0 < sampler.spent_s < time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracing_restores_originals_even_when_the_run_raises():
    tracing.assert_clean()
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracing.Tracer()):
            with pytest.raises(RuntimeError):
                tracing.assert_clean()
            1 / 0
    tracing.assert_clean()


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "mc-mdpc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
