"""Command-line interface: workflows, determinism, exit codes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcmc
from qcmc.cli import RANGE_MAX_VALUES, _parse_range, main
from qcmc.crypto import KEY_MAGIC, save_ciphertext
from qcmc.design import N0_MAX, weight_matrix
from qcmc.gf2 import BitPolynomial, qc_is_invertible


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


KEYGEN = ["keygen", "--n0", "2", "--p", "256", "--dv", "5", "--t", "2",
          "--m", "3", "--seed", "0aff", "--out", "toy"]


def test_keygen_roundtrip_through_files(workdir, capsys):
    assert main(KEYGEN) == 0
    msg = bytes(range(32))
    (workdir / "msg.bin").write_bytes(msg)
    assert main(["encrypt", "--pk", "toy.pk", "--in", "msg.bin",
                 "--seed", "beef", "--out", "msg.ct"]) == 0
    assert main(["decrypt", "--sk", "toy.sk", "--in", "msg.ct",
                 "--out", "msg.out"]) == 0
    assert (workdir / "msg.out").read_bytes() == msg


def test_keygen_deterministic_files(workdir):
    assert main(KEYGEN) == 0
    first = ((workdir / "toy.sk").read_bytes(), (workdir / "toy.pk").read_bytes())
    assert main(KEYGEN) == 0
    second = ((workdir / "toy.sk").read_bytes(), (workdir / "toy.pk").read_bytes())
    assert first == second


def test_keygen_odd_length_seed_reads_with_a_leading_zero(workdir):
    def files(seed):
        assert main(KEYGEN[:-4] + ["--seed", seed, "--out", "toy"]) == 0
        return (workdir / "toy.sk").read_bytes(), (workdir / "toy.pk").read_bytes()

    assert files("abc") == files("0abc")


def test_encrypt_rejects_wrong_length(workdir, capsys):
    assert main(KEYGEN) == 0
    (workdir / "short.bin").write_bytes(b"abc")
    code = main(["encrypt", "--pk", "toy.pk", "--in", "short.bin",
                 "--seed", "00", "--out", "x.ct"])
    assert code == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


def test_plaintext_of_k_not_a_multiple_of_8_roundtrips(workdir, capsys):
    """k = 67: encrypt takes the ceil(k/8) = 9 bytes that decrypt writes, and rejects
    a file whose padding bits are not 0."""
    assert main(["keygen", "--n0", "2", "--p", "67", "--dv", "5", "--t", "2",
                 "--seed", "0a", "--out", "k"]) == 0
    msg = bytes(range(0x11, 0x99, 0x11)) + b"\x05"  # bits 64 and 66 set, padding clear
    (workdir / "msg.bin").write_bytes(msg)
    assert main(["encrypt", "--pk", "k.pk", "--in", "msg.bin", "--seed", "01",
                 "--out", "msg.ct"]) == 0
    assert main(["decrypt", "--sk", "k.sk", "--in", "msg.ct", "--out", "msg.out"]) == 0
    assert (workdir / "msg.out").read_bytes() == msg
    capsys.readouterr()
    for padded in (msg[:-1] + b"\x08", msg[:-1] + b"\x85", msg[:-1], msg + bytes(1 << 20)):
        (workdir / "bad.bin").write_bytes(padded)
        assert main(["encrypt", "--pk", "k.pk", "--in", "bad.bin", "--seed", "01",
                     "--out", "bad.ct"]) == 2
        assert "error-category: ParameterError" in capsys.readouterr().err


def test_decrypt_failure_exit_code_and_category(workdir, capsys):
    assert main(KEYGEN) == 0
    (workdir / "msg.bin").write_bytes(bytes(32))
    assert main(["encrypt", "--pk", "toy.pk", "--in", "msg.bin",
                 "--seed", "01", "--out", "msg.ct"]) == 0
    lines = (workdir / "msg.ct").read_text().splitlines()
    corrupted = int(lines[2], 16) ^ int("f" * 64, 16)
    lines[2] = f"{corrupted:0{len(lines[2])}x}"
    (workdir / "msg.ct").write_text("\n".join(lines) + "\n")
    code = main(["decrypt", "--sk", "toy.sk", "--in", "msg.ct",
                 "--out", "msg.out", "--decoder", "bfv", "--max-iter", "20"])
    assert code == 1
    assert "error-category: DecodingFailure" in capsys.readouterr().err


def test_keygen_failure_exit_code_and_category(workdir, capsys, monkeypatch):
    # no 1 x 1 block matrix passes the determinant test, so no S is ever kept
    monkeypatch.setattr(qcmc.crypto, "qc_is_invertible",
                        lambda m: m.rows0 == 2 and qc_is_invertible(m))
    assert main(KEYGEN) == 1
    err = capsys.readouterr().err
    assert "error-category: KeygenFailure" in err and "no invertible S" in err
    assert not list(workdir.iterdir())


def test_usage_error_exit_2(capsys):
    assert main(["keygen", "--p", "16"]) == 2  # missing required flags


def test_threshold_csv(workdir, capsys):
    assert main(["threshold", "--n0", "4", "--dv", "13", "--p-range", "16384"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,d_v,b_opt,t_max"
    n, d_v, b_opt, t_max = out[1].split(",")
    assert abs(int(t_max) - 181) <= 181 * 0.05


def test_wf_csv(workdir, capsys):
    assert main(["wf", "--attack", "dca", "--n0", "4", "--p", "1024",
                 "--dvp", "20,30"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "p,d_v_prime,log2_wf,p_s,ell"
    assert len(out) == 3
    assert main(["wf", "--attack", "dca", "--n0", "4", "--p", "1024"]) == 2


def test_simulate_reports(workdir, capsys):
    assert main(KEYGEN) == 0
    assert main(["simulate", "--key", "toy.sk", "--t", "2", "--trials", "30",
                 "--decoder", "bfv", "--seed", "07", "--out", "sim.csv"]) == 0
    out = capsys.readouterr().out
    assert "cer=" in out
    header = (workdir / "sim.csv").read_text().splitlines()[0]
    assert header == "t_err,trials,cer,ber,avg_iters,ci_low,ci_high"


def test_simulate_deterministic(workdir, capsys):
    assert main(KEYGEN) == 0
    capsys.readouterr()
    args = ["simulate", "--key", "toy.sk", "--t", "4", "--trials", "50",
            "--decoder", "bfv", "--seed", "aa"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_simulate_rejects_jobs_below_one(workdir, capsys, jobs):
    assert main(KEYGEN) == 0
    code = main(["simulate", "--key", "toy.sk", "--t", "2", "--trials", "5",
                 "--jobs", jobs])
    assert code == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


@pytest.mark.parametrize("decoder, b", [("spa", "3"), ("bfv", "1")])
def test_simulate_rejects_b_without_bf_decoder(workdir, capsys, decoder, b):
    assert main(KEYGEN) == 0
    code = main(["simulate", "--key", "toy.sk", "--t", "2", "--trials", "5",
                 "--decoder", decoder, "--b", b])
    assert code == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


def test_simulate_missing_key_file(workdir, capsys):
    code = main(["simulate", "--key", "absent.sk", "--t", "2", "--trials", "5"])
    assert code == 2
    assert "error-category: FileNotFoundError" in capsys.readouterr().err


def test_inspect_empty_file(workdir, capsys):
    (workdir / "empty.sk").write_bytes(b"")
    assert main(["inspect", "--key", "empty.sk"]) == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


def test_simulate_key_without_dv(workdir, capsys):
    assert main(KEYGEN) == 0
    text = (workdir / "toy.sk").read_text()
    assert " dv=5 " in text
    (workdir / "nodv.sk").write_text(text.replace(" dv=5 ", " ", 1))
    capsys.readouterr()
    code = main(["simulate", "--key", "nodv.sk", "--t", "2", "--trials", "5"])
    assert code == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "QCCT1\n",
    "QCCT1\nn=abc\nabcd\n",
    "QCCT1\nn=16\nzzzz\n",
    "QCCT1\nn=16\nab\n",
    "QCCT1\nn=16\nabcd00\n",
], ids=["magic-only", "non-integer-n", "non-hex-payload", "payload-short",
        "payload-long"])
def test_inspect_malformed_ciphertext(workdir, capsys, text):
    (workdir / "bad.ct").write_text(text)
    assert main(["inspect", "--key", "bad.ct"]) == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


@pytest.mark.parametrize("suffix", [".sk", ".pk"])
@pytest.mark.parametrize("line, mutate", [
    (0, lambda ln: "QCMC1 bogus"),
    (3, lambda ln: "zz" + ln[2:]),
], ids=["unknown-mode", "non-hex-block"])
def test_inspect_malformed_key(workdir, capsys, suffix, line, mutate):
    assert main(KEYGEN) == 0
    lines = (workdir / f"toy{suffix}").read_text().splitlines()
    lines[line] = mutate(lines[line])
    (workdir / "bad.key").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["inspect", "--key", "bad.key"]) == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


def test_inspect_damaged_private_key_reports_private_layout(workdir, capsys):
    assert main(KEYGEN) == 0
    lines = (workdir / "toy.sk").read_text().splitlines()
    del lines[4]  # the second of the n0 = 2 H blocks
    (workdir / "bad.sk").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["inspect", "--key", "bad.sk"]) == 2
    err = capsys.readouterr().err
    assert "error-category: ParameterError" in err
    # 2 H + 1 S + 4 Q blocks; the public key's layout would expect 2
    assert "expected 7 blocks, found 6" in err


@pytest.mark.parametrize("argv", [
    ["inspect", "--key", "noseed.sk"],
    ["decrypt", "--sk", "noseed.sk", "--in", "msg.ct", "--out", "msg.out"],
    ["simulate", "--key", "noseed.sk", "--t", "2", "--trials", "5"],
    ["encrypt", "--pk", "seeded.pk", "--in", "msg.bin", "--out", "x.ct"],
    ["inspect", "--key", "seeded.pk"],
], ids=["inspect-sk", "decrypt-sk", "simulate-sk", "encrypt-pk", "inspect-pk"])
def test_seed_field_decides_key_kind(workdir, capsys, argv):
    # a private key without seed= and a public key with one are both rejected
    assert main(KEYGEN) == 0
    (workdir / "msg.bin").write_bytes(bytes(32))
    assert main(["encrypt", "--pk", "toy.pk", "--in", "msg.bin",
                 "--seed", "01", "--out", "msg.ct"]) == 0
    sk_text = (workdir / "toy.sk").read_text()
    seed = re.search(r" seed=[0-9a-f]+", sk_text).group()
    (workdir / "noseed.sk").write_text(sk_text.replace(seed, ""))
    pk_lines = (workdir / "toy.pk").read_text().splitlines()
    pk_lines[1] += seed
    (workdir / "seeded.pk").write_text("\n".join(pk_lines) + "\n")
    capsys.readouterr()
    assert main(argv) == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


@pytest.mark.parametrize("t, m, t_prime", [(30, "3", 90), (64, "1", 64)])
def test_keygen_rejects_t_prime_of_half_n(workdir, capsys, t, m, t_prime):
    # n = 128: t' = ceil(m t) >= n/2 = 64 is more errors than any decoder corrects
    code = main(["keygen", "--n0", "2", "--p", "64", "--dv", "5", "--t", str(t),
                 "--m", m, "--out", "k"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error-category: ParameterError" in err
    assert f"t={t} with m={m} gives t'={t_prime} >= n/2=64" in err
    assert not (workdir / "k.sk").exists()


def test_keygen_accepts_t_prime_below_half_n(workdir, capsys):
    assert main(["keygen", "--n0", "2", "--p", "64", "--dv", "5", "--t", "21",
                 "--m", "3", "--out", "k"]) == 0
    assert "t'=63" in capsys.readouterr().out


KEYGEN_64 = ["keygen", "--n0", "2", "--p", "64", "--dv", "5", "--t", "2", "--out", "k"]


def test_keygen_w_matches_m(workdir):
    """--W with the flattened pattern that --m 15/4 builds writes the same key files."""
    common = ["keygen", "--n0", "4", "--p", "64", "--dv", "5", "--t", "2", "--seed", "5eed"]
    flat = ",".join(str(x) for row in weight_matrix(4, 15) for x in row)
    assert main(common + ["--W", flat, "--out", "w"]) == 0
    assert main(common + ["--m", "15/4", "--out", "m"]) == 0
    for suffix in (".sk", ".pk"):
        assert (workdir / f"w{suffix}").read_bytes() == (workdir / f"m{suffix}").read_bytes()


@pytest.mark.parametrize("argv", [
    ["threshold", "--dv", "abc", "--p-range", "12288"],
    ["wf", "--attack", "dca", "--p", "1024:2048:0", "--dvp", "20"],
    ["wf", "--attack", "dca", "--p", "1024:2048:-1", "--dvp", "20"],
    ["threshold", "--dv", "13", "--p-range", "1:2"],
    ["optimize", "--security", "100", "--candidates", "15,x"],
    KEYGEN_64 + ["--W", "1,x,0,1"],
    KEYGEN_64 + ["--m", "abc"],
    KEYGEN_64 + ["--m", "1/0"],
    KEYGEN_64 + ["--seed", "zz"],
], ids=["int-list", "step-zero", "step-negative", "two-part-range", "candidates",
        "W", "m-text", "m-zero-denominator", "seed-not-hex"])
def test_malformed_option_text_exits_2(workdir, capsys, argv):
    assert main(argv) == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--I", "--security"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_optimize_rejects_non_finite_settings(workdir, capsys, option, value):
    # a repeated option takes its last value, so this also covers --security
    assert main(["optimize", "--security", "100", option, value]) == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["inspect", "--key", "bin.sk"],
    ["decrypt", "--sk", "toy.sk", "--in", "bin.ct", "--out", "msg.out"],
    ["simulate", "--key", "bin.sk", "--t", "2", "--trials", "5"],
], ids=["inspect-key", "decrypt-in", "simulate-key"])
def test_non_text_file_exits_2(workdir, capsys, argv):
    assert main(KEYGEN) == 0
    for name in ("bin.sk", "bin.ct"):
        (workdir / name).write_bytes(b"\xff\xfe\x00\x01" + bytes(range(256)))
    capsys.readouterr()
    assert main(argv) == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", ["S", "Q"])
def test_decrypt_rejects_singular_key_matrix(workdir, capsys, matrix):
    assert main(KEYGEN) == 0
    (workdir / "msg.bin").write_bytes(bytes(32))
    assert main(["encrypt", "--pk", "toy.pk", "--in", "msg.bin",
                 "--seed", "01", "--out", "msg.ct"]) == 0
    # toy.sk: 3 header lines, n0 = 2 H blocks, k0 * k0 = 1 S block, n0 * n0 = 4 Q blocks
    lines = (workdir / "toy.sk").read_text().splitlines()
    for i in {"S": range(5, 6), "Q": range(6, 10)}[matrix]:
        lines[i] = "0" * len(lines[i])
    (workdir / "bad.sk").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["decrypt", "--sk", "bad.sk", "--in", "msg.ct", "--out", "msg.out"])
    assert code == 1
    assert "error-category: SingularMatrixError" in capsys.readouterr().err


def test_threshold_ignores_qcmc_jobs_variable(tmp_path, child_env):
    proc = subprocess.run([sys.executable, "-m", "qcmc.cli", "threshold", "--dv", "13",
                           "--p-range", "12288"], capture_output=True, text=True,
                          cwd=tmp_path, env={**child_env, "QCMC_JOBS": "abc"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["n,d_v,b_opt,t_max", "12288,13,10,134"]


def test_import_loads_no_scipy_or_process_pool(fresh_python):
    # scipy waits for the first work factor, the pool for a run with jobs > 1
    code = ("import sys, qcmc, qcmc.cli; print(qcmc.__file__); "
            "print(*(m in sys.modules for m in ('scipy', 'multiprocessing', "
            "'concurrent.futures')), sep='\\n')")
    loaded_from, *loaded = fresh_python(code)
    assert Path(loaded_from).resolve() == Path(qcmc.__file__).resolve()
    assert loaded == ["False"] * 3


def test_wf_isda_rejects_single_block(workdir, capsys):
    code = main(["wf", "--attack", "isda", "--n0", "1", "--p", "1024", "--t", "30"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error-category: ParameterError" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,point", [
    (["--attack", "isda", "--n0", "2", "--p", "97,4801", "--t", "3,8,33,120"],
     ["p=97", "t=120"]),
    (["--attack", "dca", "--n0", "2", "--p", "97,4801", "--dvp", "20,100"],
     ["p=97", "d_v_prime=100"]),
    (["--attack", "isda", "--n0", "2", "--p", "3", "--t", "9"],
     ["p=3", "t=9", "no feasible shift count for this instance"]),
], ids=["isda", "dca", "isda-t-above-n"])
def test_wf_names_the_failing_point(workdir, capsys, argv, point):
    assert main(["wf", *argv]) == 2
    captured = capsys.readouterr()
    assert "error-category: ParameterError" in captured.err
    assert all(name in captured.err for name in point), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n0", ["1", "0", "-3"])
def test_optimize_rejects_fewer_than_two_blocks(workdir, capsys, n0):
    assert main(["optimize", "--security", "100", "--n0", n0]) == 2
    captured = capsys.readouterr()
    assert "error-category: ParameterError" in captured.err
    assert "error: need n0 >= 2 circulant blocks" in captured.err
    assert captured.out == ""


def test_optimize_table(workdir, capsys):
    assert main(["optimize", "--security", "100", "--n0", "4", "--I", "10",
                 "--csv", "designs.csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].split()[:2] == ["d_v", "m"]
    top = out[1].split()
    assert top[0] == "15"  # sparse design tops the table
    csv_lines = (workdir / "designs.csv").read_text().splitlines()
    assert csv_lines[0].startswith("d_v,m,p,n,t,t_prime,threshold,C_log2")
    assert len(csv_lines) >= 3


def test_inspect(workdir, capsys):
    assert main(KEYGEN) == 0
    assert main(["inspect", "--key", "toy.sk"]) == 0
    out = capsys.readouterr().out
    assert "private key" in out and "t'=6" in out
    assert main(["inspect", "--key", "toy.pk"]) == 0
    out = capsys.readouterr().out
    # classic mode: all k0 * n0 blocks are payload
    assert "public key" in out and "payload=512 bits" in out


@pytest.mark.parametrize("argv", [
    ["wf", "--attack", "dca", "--p", "", "--dvp", "20"],
    ["wf", "--attack", "dca", "--p", "5:1:1", "--dvp", "20"],
    ["optimize", "--security", "100", "--candidates", ""],
    ["optimize", "--security", "100", "--candidates", ","],
    ["decrypt", "--sk", "a.sk", "--in", "a.ct", "--out", "a.out", "--delta", "1"],
    ["keygen", "--n0", "0", "--p", "16", "--dv", "3", "--t", "1", "--out", "k"],
    ["keygen", "--n0", "2", "--p", "2", "--dv", "1", "--t", "1", "--m", "3", "--out", "k"],
], ids=["empty-p", "empty-range", "empty-candidates", "comma-candidates", "usage-error",
        "keygen-n0-zero", "keygen-W-above-p"])
def test_parameter_errors_print_a_category(workdir, capsys, argv):
    assert main(argv) == 2
    assert "error-category: ParameterError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["threshold", "--dv", "1031", "--p-range", "5000"],
    ["optimize", "--security", "100", "--candidates", "1031"],
], ids=["threshold", "optimize"])
def test_d_v_past_float_range_exits_2(workdir, capsys, argv):
    # C(1030, 515) overflows a float, so the density evolution stops at d_v = 1030
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error-category: ParameterError" in err
    assert "1030" in err


def test_optimize_without_feasible_design(workdir, capsys):
    assert main(["optimize", "--security", "100", "--candidates", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.split()[:2] == ["d_v", "m"]
    assert "rejected d_v=3:" in captured.out
    assert "error-category: DesignFailure" in captured.err


def test_help_exits_0_without_category(capsys):
    assert main(["keygen", "--help"]) == 0
    assert "error-category" not in capsys.readouterr().err


# Runs each argv (a JSON list) through main with the address space capped at 1 GiB and
# prints one JSON line [exit code, stderr, seconds] per argv.
CAPPED_MAIN = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qcmc.cli import main
for argv in json.loads(sys.argv[1]):
    err, start = io.StringIO(), time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps([code, err.getvalue(), time.perf_counter() - start]))
"""


def test_n0_above_max_fails_fast_under_a_memory_cap(tmp_path, child_env):
    """Block algebra costs about n0^2 2^n0 ring products, so keygen, optimize and a
    private key with n0 above N0_MAX exit 2 with a ParameterError within a second,
    before any matrix is built; a capped child process makes a regression fail here."""
    n0, p = N0_MAX + 1, 64
    one, zero = BitPolynomial.one(p).to_hex(), BitPolynomial.zero(p).to_hex()
    identity = [one if i == j else zero for n in (n0 - 1, n0) for i in range(n) for j in range(n)]
    (tmp_path / "big.sk").write_text("\n".join(
        [f"{KEY_MAGIC} classic", f"n0={n0} p={p} dv=5 t=2 seed=00",
         "W=" + ",".join(str(int(i == j)) for i in range(n0) for j in range(n0))]
        + [BitPolynomial.from_support(p, range(5)).to_hex()] * n0 + identity) + "\n")
    save_ciphertext(np.zeros(n0 * p, np.uint8), tmp_path / "big.ct")
    toy = ["--p", str(p), "--dv", "5", "--t", "2", "--m", "1", "--out", "k"]
    argvs = [["keygen", "--n0", n, *toy] for n in (str(n0), "500", "99999")]
    argvs += [["optimize", "--security", "100", "--n0", n] for n in (str(n0), "500", "99999")]
    argvs += [["inspect", "--key", "big.sk"],
              ["decrypt", "--sk", "big.sk", "--in", "big.ct", "--out", "big.out"]]
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, json.dumps(argvs)],
                          capture_output=True, text=True, cwd=tmp_path, env=child_env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(argvs)
    for argv, (code, err, seconds) in zip(argvs, results):
        assert code == 2 and "error-category: ParameterError" in err, (argv, err)
        assert seconds < 1.0, (argv, seconds)


def test_range_bound(workdir):
    assert len(_parse_range(f"1:{RANGE_MAX_VALUES}:1")) == RANGE_MAX_VALUES
    for text in (f"0:{RANGE_MAX_VALUES}:1", f"0:{10**40}:1", f"-{10**40}:0:7"):
        with pytest.raises(qcmc.ParameterError, match="values, above"):
            _parse_range(text)


def test_huge_ranges_and_trial_counts_fail_fast_under_a_memory_cap(workdir, child_env):
    """A start:stop:step range with more than RANGE_MAX_VALUES values, or more than
    simulate.MAX_TRIALS trials, exits 2 with a ParameterError within a second, before
    any list of that size is built; a capped child process makes a regression fail here."""
    assert main(KEYGEN) == 0
    huge = "1:1000000000000:1"
    argvs = [["threshold", "--n0", "4", "--dv", "15", "--p-range", huge],
             ["wf", "--attack", "isda", "--p", huge, "--t", "3"],
             ["simulate", "--key", "toy.sk", "--t", "0:1000000000000:1"],
             ["simulate", "--key", "toy.sk", "--t", "2", "--trials", "1000000000000"]]
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, json.dumps(argvs)],
                          capture_output=True, text=True, cwd=workdir, env=child_env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(argvs)
    for argv, (code, err, seconds) in zip(argvs, results):
        assert code == 2 and "error-category: ParameterError" in err, (argv, err)
        assert seconds < 1.0, (argv, seconds)
