"""qcmc benchmark: one workload per run, from the root of a source checkout.

    python3 bench/run.py --workload crypto-100 --seed 1 --seconds 35 --trace 0

Workloads are described in bench/workloads.py.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
(from a traced replay of the same operations) with ``--trace 1``.  The lines
before it give the workload's own figures by name and unit.  The full result,
with provenance, goes to ``.bench_results/BENCH_<workload>-s<seed>-t<trace>.json``
and a traced run's spans to ``TRACE_<workload>-s<seed>.json`` beside it.

The run exits 1 without a result line when an output is wrong: a wrong
plaintext, a key that changes across save and load, an inconsistent trial
report, or a digest of the gated operations (see bench/measure.py) that
differs from the workload's entry in ``bench/reference.json`` or is missing
there.  ``--record`` instead stores the workload's digest in that file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("crypto-100", "mc-mdpc", "design-100")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store the workload's output digest in bench/reference.json")
    return ap.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD commit, or None outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "qcmc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, wl, src: Path) -> dict:
    import numpy
    import scipy
    return {
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(src),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "jobs": 1,
        "timer": "time.perf_counter",
        "workload": wl.name,
        "params": wl.describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def result_line(result: dict, trace: int) -> str:
    """The final output line: end-to-end metrics, or per-layer ones when traced."""
    chosen = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "qcmc" / "__init__.py").is_file():
        print(f"error: no qcmc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qcmc
    if Path(qcmc.__file__).resolve().parent != src / "qcmc":
        print(f"error: imported qcmc from {qcmc.__file__}, not {src}", file=sys.stderr)
        return 2

    import measure
    import workloads

    out_dir = ROOT / ".bench_results"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, workdir)
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        if args.record:
            # a zero budget runs exactly the min_ops operations the digest covers
            reference[args.workload] = measure.run_workload(
                wl, args.seed, 0.0, False, expected=None, setup_reps=1)["digest"]
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"{args.workload}: {reference[args.workload]}")
            return 0
        if args.workload not in reference:
            print(f"error: no reference digest for {args.workload} in {REFERENCE}",
                  file=sys.stderr)
            return 1
        label = f"{args.workload}-s{args.seed}-t{args.trace}"
        record = {"provenance": provenance(args, wl, src)}
        try:
            result = measure.run_workload(wl, args.seed, args.seconds, bool(args.trace),
                                          reference[args.workload])
        except workloads.BenchError as exc:
            record["error"] = str(exc)
            (out_dir / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1))
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spans = result.pop("spans", None)
    if spans is not None:
        (out_dir / f"TRACE_{args.workload}-s{args.seed}.json").write_text(json.dumps(spans))
    record.update(result)
    (out_dir / f"BENCH_{label}.json").write_text(json.dumps(_finite(record), indent=1))

    print(f"op_ms_p50 = {result['op_ms_p50']:.4g} ms (reference kernel "
          f"{result['ref_ms_p50']:.3g} ms)")
    for name, value in result["details"].items():
        if isinstance(value, dict):
            print(f"{name} = {value['value']:.3f} {value['unit']} "
                  f"(p{value['percentile']:g} of {value['samples']})")
        elif value is not None:
            print(f"{name} = {value[0]:.4g} {value[1]}")
    print(result_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
