"""Command-line front end: file-based, reproducible workflows for every module.

Every command that consumes randomness takes an explicit --seed and is
bit-deterministic given it.  Numeric reports are printed raw and in log2.
Exit codes: 0 success, 2 usage or parameter errors (unreadable or unwritable
files included), 1 domain failures; both failures print a machine-readable
`error-category: <Name>` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from fractions import Fraction

import numpy as np

from . import crypto
from .attacks import dca_table, isda_table
from .decoder import Algorithm, DecoderConfig
from .design import SystemParams, weight_matrix
from .errors import DesignFailure, ParameterError, QcmcError
from .optimize import DESIGN_FIELDS, OptimizerConfig, design_rows, optimize_design
from .prng import SeedStream
from .simulate import sweep_rows
from .threshold import threshold_table

DEFAULT_SEED = "00" * 32
RANGE_MAX_VALUES = 10**5  # far beyond any useful grid; a larger range is a typo


def _nonempty(values: list[int], text: str) -> list[int]:
    if not values:
        raise ParameterError(f"no values in {text!r}")
    return values


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise ParameterError(f"expected comma-separated integers, got {text!r}") from exc
    return _nonempty(values, text)


def _parse_range(text: str) -> list[int]:
    """Either comma-separated values or start:stop:step (stop inclusive, step >= 1)."""
    if ":" not in text:
        return _parse_int_list(text)
    try:
        start, stop, step = (int(x) for x in text.split(":"))
    except ValueError as exc:
        raise ParameterError(f"expected start:stop:step, got {text!r}") from exc
    if step < 1:
        raise ParameterError(f"range step must be at least 1, got {step}")
    count = (stop - start) // step + 1  # not len(range): that overflows past 2**63
    if count > RANGE_MAX_VALUES:
        raise ParameterError(f"range {text!r} has {count} values, above {RANGE_MAX_VALUES}")
    return _nonempty(list(range(start, stop + 1, step)), text)


def _decoder_config(args) -> DecoderConfig:
    """b and p0 stay None: the decoder takes them from the key's code."""
    return DecoderConfig(Algorithm(args.decoder), max_iterations=args.max_iter, b=args.b)


def _build_params(args) -> SystemParams:
    if args.W:
        flat = _parse_int_list(args.W)
        n0 = args.n0
        if len(flat) != n0 * n0:
            raise ParameterError(f"--W needs {n0 * n0} comma-separated integers")
        W = tuple(tuple(flat[i * n0:(i + 1) * n0]) for i in range(n0))
    else:
        try:
            m = Fraction(args.m)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"--m must be a number or fraction, got {args.m!r}") from exc
        sigma = m * args.n0
        if sigma.denominator != 1:
            raise ParameterError("--m times n0 must be an integer")
        W = weight_matrix(args.n0, int(sigma))
    return SystemParams(args.n0, args.p, args.dv, W, args.t)


def _write_csv(rows: list[dict], path: str | None, fields: list[str] | None = None) -> None:
    """Rows as CSV to path, or to stdout without one; columns default to the rows' keys."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as out:
        writer = csv.DictWriter(out, fieldnames=fields or list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def cmd_keygen(args) -> int:
    params = _build_params(args)
    mode = crypto.KeyMode(args.mode)
    sk, pk = crypto.keygen(params, args.seed, mode, h_design=args.design)
    crypto.save_private_key(sk, args.out + ".sk")
    crypto.save_public_key(pk, args.out + ".pk")
    print(f"wrote {args.out}.sk and {args.out}.pk")
    print(f"n={params.n} k={params.k} m={float(params.m):g} t'={params.t_prime}")
    print(f"public payload: {pk.payload_bits} bits ({pk.payload_bits / 8192:.1f} KiB)")
    return 0


def cmd_encrypt(args) -> int:
    pk = crypto.load_public_key(args.pk)
    k = pk.params.k
    with open(args.infile, "rb") as fh:
        data = fh.read((k + 7) // 8 + 1)  # a byte past the length shows a longer file
    u = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    if len(data) != (k + 7) // 8 or u[k:].any():
        raise ParameterError(f"plaintext must be {k} bits: {(k + 7) // 8} bytes, padding bits 0")
    c = crypto.encrypt(pk, u[:k], SeedStream(args.seed, "encrypt"))
    crypto.save_ciphertext(c, args.out)
    print(f"wrote {args.out} ({c.size} bits, {pk.params.t} intentional errors)")
    return 0


def cmd_decrypt(args) -> int:
    sk = crypto.load_private_key(args.sk)
    c = crypto.load_ciphertext(args.infile)
    cfg = _decoder_config(args)
    u = crypto.decrypt(sk, c, cfg)
    data = np.packbits(u, bitorder="little").tobytes()
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {args.out} ({u.size} bits)")
    return 0


def cmd_threshold(args) -> int:
    rows = threshold_table(args.n0, _parse_range(args.dv), _parse_range(args.p_range))
    _write_csv(rows, args.out)
    return 0


def cmd_wf(args) -> int:
    p_values = _parse_range(args.p)
    if args.attack == "dca":
        if not args.dvp:
            raise ParameterError("--attack dca needs --dvp")
        rows = dca_table(args.n0, p_values, _parse_range(args.dvp))
    else:
        if not args.t:
            raise ParameterError("--attack isda needs --t")
        rows = isda_table(args.n0, p_values, _parse_range(args.t))
    _write_csv(rows, args.out)
    return 0


def cmd_optimize(args) -> int:
    cfg = OptimizerConfig(
        target_security_bits=args.security,
        n0=args.n0,
        I=args.I,
        alpha=args.alpha,
        d_v_candidates=tuple(_parse_int_list(args.candidates)),
    )
    report = optimize_design(cfg)
    rows = design_rows(report)
    if args.csv:
        _write_csv(rows, args.csv, DESIGN_FIELDS)
    widths = {f: max(len(f), 9) for f in DESIGN_FIELDS}
    print("  ".join(f.rjust(widths[f]) for f in DESIGN_FIELDS))
    for row in rows:
        print("  ".join(str(row[f]).rjust(widths[f]) for f in DESIGN_FIELDS))
    for d_v, reason in report.rejections:
        print(f"rejected d_v={d_v}: {reason}")
    if not rows:
        raise DesignFailure(f"no feasible design at {args.security:g} bits")
    return 0


def cmd_simulate(args) -> int:
    sk = crypto.load_private_key(args.key)
    cfg = _decoder_config(args)
    t_values = _parse_range(args.t)
    rows = sweep_rows(sk.h, cfg, t_values, args.trials, args.seed, args.jobs)
    for row in rows:
        print(f"t_err={row['t_err']} trials={row['trials']} cer={row['cer']:.3e} "
              f"ber={row['ber']:.3e} avg_iters={row['avg_iters']} "
              f"ci=[{row['ci_low']:.3e}, {row['ci_high']:.3e}]")
    if args.out:
        _write_csv(rows, args.out)
    return 0


def cmd_inspect(args) -> int:
    path = args.key
    with open(path, errors="replace") as fh:  # the loaders reject a file that is not text
        first = fh.readline().split()
    if first[:1] == [crypto.CT_MAGIC]:
        c = crypto.load_ciphertext(path)
        print(f"ciphertext: n={c.size} weight={int(c.sum())}")
        return 0
    key = crypto.load_key(path)
    pr = key.params
    if isinstance(key, crypto.PublicKey):
        print(f"public key ({key.mode.value}): n0={pr.n0} p={pr.p} dv={pr.d_v} t={pr.t}")
        print(f"n={pr.n} k={pr.k} payload={key.payload_bits} bits")
        return 0
    print(f"private key ({key.mode.value}): n0={pr.n0} p={pr.p} dv={pr.d_v} t={pr.t}")
    print(f"n={pr.n} k={pr.k} d_c={pr.d_c} m={float(pr.m):g} "
          f"t'={pr.t_prime} d_v'={float(pr.d_v_prime):g}")
    print(f"W rows: {[list(r) for r in pr.W]}")
    print(f"H block weights: {[b.weight for b in key.h.blocks]}")
    print(f"Q total weight: {key.Q.total_weight}, S total weight: {key.S.total_weight}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcmc", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", default=DEFAULT_SEED,
                       help="hex seed (any length; canonicalized to 256 bits)")

    def add_decoder(p, default):
        p.add_argument("--decoder", choices=[a.value for a in Algorithm], default=default)
        p.add_argument("--b", type=int, default=None)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=100)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--n0", type=int, default=4)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--dv", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--W", help="n0*n0 comma-separated block weights for Q")
    p.add_argument("--m", default="1", help="average Q row weight (used when --W absent)")
    p.add_argument("--mode", choices=["classic", "systematic"], default="classic")
    p.add_argument("--design", choices=["random", "rdf"], default="random")
    p.add_argument("--out", required=True, help="output path prefix")
    add_seed(p)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a k-bit file")
    p.add_argument("--pk", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--sk", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    add_decoder(p, "spa")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("threshold", help="BF decoding threshold grid (CSV)")
    p.add_argument("--n0", type=int, default=4)
    p.add_argument("--dv", required=True, help="values or start:stop:step")
    p.add_argument("--p-range", dest="p_range", required=True,
                   help="code lengths n as values or start:stop:step")
    p.add_argument("--out")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("wf", help="attack work factor curves (CSV)")
    p.add_argument("--attack", choices=["dca", "isda"], required=True)
    p.add_argument("--n0", type=int, default=4)
    p.add_argument("--p", required=True, help="circulant sizes, values or range")
    p.add_argument("--dvp", help="public column weights (dca)")
    p.add_argument("--t", help="intentional error counts (isda)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_wf)

    p = sub.add_parser("optimize", help="feasible designs sorted by decryption cost")
    p.add_argument("--security", type=float, required=True)
    p.add_argument("--n0", type=int, default=4)
    p.add_argument("--I", type=float, default=10.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--candidates", default="15,19,25,35,45,59,77")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="Monte Carlo residual error rates")
    p.add_argument("--key", required=True, help="private key file")
    p.add_argument("--t", required=True, help="error counts, values or range")
    p.add_argument("--trials", type=int, default=1000)
    add_decoder(p, "bfv")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    add_seed(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inspect", help="print parameters and sizes of a key file")
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_inspect)

    return ap


def _report_error(exc: Exception, code: int) -> int:
    print(f"error-category: {type(exc).__name__}", file=sys.stderr)
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
        if exc.code:
            print("error-category: ParameterError", file=sys.stderr)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:  # OSError: an unreadable or unwritable path
        return _report_error(exc, 2)
    except QcmcError as exc:
        return _report_error(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
