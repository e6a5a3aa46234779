"""Fuzz tests of the CLI contract on hostile input.

Every run must exit 0, 1 or 2, and a non-zero exit must print an
`error-category:` line on stderr; an exception escaping `main` fails the test.
The inputs are edited copies of a toy key pair and ciphertext, small option
values for the commands that read no input file, and short `optimize` and toy-key
`simulate` runs.  Examples are derandomized, so every run tests the same cases.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from qcmc.cli import main
from qcmc.design import N0_MAX

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)
SHORT = settings(FUZZ, max_examples=60)  # optimize and simulate do real work per example

# n0 = 2, p = 64: k = 64 bits, so the message is 8 bytes
TOY = ["--n0", "2", "--p", "64", "--dv", "5", "--t", "2", "--m", "3", "--seed", "0aff"]


def run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert "error-category: " in err.getvalue(), (argv, err.getvalue())
    return code


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "msg.bin").write_bytes(bytes(range(8)))
    assert run(["keygen", *TOY, "--out", str(d / "toy")]) == 0
    assert run(["encrypt", "--pk", str(d / "toy.pk"), "--in", str(d / "msg.bin"),
                "--seed", "01", "--out", str(d / "toy.ct")]) == 0
    return d


# (kind, line, column, character); line and column wrap around the file
EDIT = st.tuples(st.sampled_from(["truncate", "replace", "insert", "drop", "duplicate"]),
                 st.integers(0, 20), st.integers(0, 80),
                 st.sampled_from(list("0123456789abcdef=,-: xQ\t")))


def edited(text: str, edits) -> str:
    lines = text.splitlines()
    for kind, line, col, char in edits:
        if not lines:
            break
        i = line % len(lines)
        if kind == "truncate":
            flat = "\n".join(lines)
            lines = flat[:(line * 81 + col) % (len(flat) + 1)].splitlines()
        elif kind in ("replace", "insert"):
            j = col % (len(lines[i]) + 1)
            lines[i] = lines[i][:j] + char + lines[i][j + (kind == "replace"):]
        elif kind == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@FUZZ
@given(suffix=st.sampled_from([".sk", ".pk", ".ct"]),
       edits=st.lists(EDIT, min_size=1, max_size=2),
       decoder=st.sampled_from(["spa", "bf", "bfv"]))
def test_edited_files(toy, suffix, edits, decoder):
    bad = toy / f"bad{suffix}"
    bad.write_text(edited((toy / f"toy{suffix}").read_text(), edits))
    run(["inspect", "--key", str(bad)])
    if suffix == ".pk":
        run(["encrypt", "--pk", str(bad), "--in", str(toy / "msg.bin"),
             "--out", str(toy / "out.ct")])
    else:
        sk, ct = (bad, toy / "toy.ct") if suffix == ".sk" else (toy / "toy.sk", bad)
        run(["decrypt", "--sk", str(sk), "--in", str(ct), "--out", str(toy / "out.bin"),
             "--decoder", decoder])


def ints(lo: int, hi: int):
    """Uniform over [lo, hi] (st.integers favours the ends of its range)."""
    return st.sampled_from(range(lo, hi + 1))


def ranges(lo: int, hi: int):
    """Option text: comma-separated values or start:stop:step."""
    lists = st.lists(ints(lo, hi), min_size=1, max_size=3).map(
        lambda v: ",".join(map(str, v)))
    spans = st.tuples(ints(lo, hi), ints(-2, 40), ints(0, 8)).map(
        lambda v: f"{v[0]}:{v[0] + v[1]}:{v[2]}")
    return st.one_of(lists, spans)


@FUZZ
@given(command=st.sampled_from(["keygen", "threshold", "wf-dca", "wf-isda"]),
       n0=ints(-1, 5).map(str), p=ints(-1, 64).map(str), dv=ints(-1, 9).map(str),
       t=ints(-1, 9).map(str),
       m=st.sampled_from(["1", "3", "2", "3/2", "5/2", "0", "-1"]),
       mode=st.sampled_from(["classic", "systematic"]),
       design=st.sampled_from(["random", "rdf"]),
       values=st.one_of(ranges(-1, 20), ranges(1029, 1033)),  # d_v past 1030 is rejected
       lengths=ranges(-1, 300))
def test_small_options(toy, command, n0, p, dv, t, m, mode, design, values, lengths):
    if command == "keygen":
        run(["keygen", "--n0", n0, "--p", p, "--dv", dv, "--t", t, "--m", m,
             "--mode", mode, "--design", design, "--out", str(toy / "opt")])
    elif command == "threshold":
        run(["threshold", "--n0", n0, "--dv", values, "--p-range", lengths])
    else:
        flag = "--dvp" if command == "wf-dca" else "--t"
        run(["wf", "--attack", command[3:], "--n0", n0, "--p", lengths, flag, values])


@SHORT
@given(security=st.sampled_from(["1", "20", "60", "100", "0", "nan", "1e6"]),
       n0=st.one_of(ints(1, N0_MAX + 1), st.sampled_from([500, 99999])).map(str),
       candidates=st.lists(st.sampled_from([3, 5, 9, 15, 25, 4, -1, 1031]), min_size=1,
                           max_size=2).map(lambda v: ",".join(map(str, v))))
def test_optimize_options(security, n0, candidates):
    run(["optimize", "--security", security, "--n0", n0, "--candidates", candidates])


@SHORT
@given(t=st.one_of(ints(0, 12).map(str), ranges(-1, 140)),
       trials=st.sampled_from(["3", "1", "4", "0", "-1"]),
       decoder=st.sampled_from(["spa", "bf", "bfv"]),
       b=st.sampled_from([[], [], ["--b", "3"], ["--b", "5"], ["--b", "6"]]),
       max_iter=st.sampled_from(["5", "1", "8", "0"]),
       jobs=st.sampled_from(["1", "0"]))  # above 1 would start worker processes
def test_simulate_options(toy, t, trials, decoder, b, max_iter, jobs):
    run(["simulate", "--key", str(toy / "toy.sk"), "--t", t, "--trials", trials,
         "--decoder", decoder, *b, "--max-iter", max_iter, "--jobs", jobs, "--seed", "07"])
