import re
from math import factorial

import pytest

from cycleswap import harness, permutations
from cycleswap.cli import main

PI_TEXT = "(8 3 4 5)(9)(11 1 10)(15 7 2 6 12 14 13)"
DELTA_TEXT = "(7 2 6)(8 3 4)(11 5 9)(14 13 12)(15 1 10)"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_apply_f(capsys):
    code, out, _ = run(capsys, "apply-f", "--k", "3", "--n", "5", "--pi", PI_TEXT)
    assert code == 0
    assert DELTA_TEXT in out
    assert "x=(0,1,0,2,1); tau=(2)(3)(5 1 4)" in out


def test_apply_f_structured(capsys):
    code, out, _ = run(
        capsys, "apply-f", "--k", "3", "--n", "5", "--pi", PI_TEXT, "--format", "structured"
    )
    assert code == 0
    assert f"delta={DELTA_TEXT}" in out
    assert "x=(0,1,0,2,1)" in out
    assert "tau=(2)(3)(5 1 4)" in out
    assert "k_cycles=1" in out and "fixed_points=1" in out


def test_invert_f(capsys):
    code, out, _ = run(
        capsys,
        "invert-f",
        "--k", "3", "--n", "5",
        "--delta", DELTA_TEXT,
        "--x", "0,1,0,2,1",
        "--tau", "(2)(3)(5 1 4)",
    )
    assert code == 0
    assert PI_TEXT in out


def test_invert_f_sigma_prime(capsys):
    code, out, _ = run(
        capsys,
        "invert-f",
        "--k", "3", "--n", "5",
        "--delta", DELTA_TEXT,
        "--x", "2,0,0,1,0",
        "--tau", "(2)(3 1)(4)(5)",
    )
    assert code == 0
    assert "(8 3 4)(11 5 9 6 7 2)(13 12)(14)(15 1 10)" in out


def test_invert_f_input_file(tmp_path, capsys):
    doc = tmp_path / "input.txt"
    doc.write_text(
        "# running example\n"
        "k=3\nn=5\n"
        f"delta={DELTA_TEXT}\n"
        "x=0,1,0,2,1\n"
        "tau=(2)(3)(5 1 4)\n"
    )
    code, out, _ = run(capsys, "invert-f", "--input", str(doc))
    assert code == 0
    assert PI_TEXT in out


def test_involute(capsys):
    code, out, _ = run(
        capsys,
        "involute",
        "--k", "3", "--n", "5",
        "--x", "2,0,0,1,0",
        "--tau", "(2)(3 1)(4)(5)",
        "--pi", PI_TEXT,
    )
    assert code == 0
    assert "x=(0,1,0,2,1); tau=(2)(3)(5 1 4)" in out
    assert "(8 3 4)(11 5 9 6 7 2)(13 12)(14)(15 1 10)" in out


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--k", "2", "--n", "3")
    assert code == 0
    for value in ("435", "225", "45", "15", "720", "29", "3", "1", "48"):
        assert value in out


def test_table_structured(capsys):
    code, out, _ = run(capsys, "table", "--k", "2", "--n", "3", "--format", "structured")
    assert code == 0
    assert "cyc_count_0=435" in out
    assert "fxpt_count_0=29" in out
    assert "cyc_total=720" in out and "fxpt_total=48" in out


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--n", "2", "--which", "all")
    assert code == 0
    assert out.count("PASS") >= 3


def test_verify_structured(capsys):
    code, out, _ = run(
        capsys, "verify", "--k", "2", "--n", "2", "--which", "theorem1",
        "--format", "structured",
    )
    assert code == 0
    assert "passed=true" in out


def test_verify_jobs(capsys):
    code, out, _ = run(
        capsys, "verify", "--k", "2", "--n", "2", "--which", "theorem1", "--jobs", "2"
    )
    assert code == 0


def test_sample_deterministic(capsys):
    code, first, _ = run(
        capsys, "sample", "--k", "2", "--n", "3", "--trials", "200", "--seed", "5"
    )
    assert code == 0
    code, second, _ = run(
        capsys, "sample", "--k", "2", "--n", "3", "--trials", "200", "--seed", "5"
    )
    assert first == second


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "apply-f", "--k", "3", "--n", "5", "--pi", "(1 2")
    assert code == 2
    assert "position" in err


def test_missing_k_n_exit_code(capsys):
    code, _, err = run(capsys, "apply-f", "--pi", "1,2")
    assert code == 2


def test_capacity_exit_code(capsys):
    code, _, err = run(capsys, "table", "--k", "2", "--n", "7")
    assert code == 3
    assert "capacity" in err


@pytest.mark.parametrize(
    "argv,what",
    [
        (("table", "--k", "2", "--n", "800"), "S_1600"),
        (("verify", "--k", "2", "--n", "800"), "S_1600"),
        (("verify", "--k", "1", "--n", "1600", "--which", "involution"), "S(1,1600) x S_1600"),
    ],
)
def test_capacity_refusal_past_the_digit_limit(capsys, argv, what):
    # (1600!)-sized counts have more digits than Python converts to text by
    # default; the refusal still exits 3 and names a bound on the count.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert re.fullmatch(
        rf"capacity refused: {re.escape(what)}: (\d+|at least 2\^\d+) items exceeds capacity \d+\n", err
    )


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (("sample", "--k", "0", "--n", "3"), "--k must be at least 1, got 0"),
        (("table", "--k", "2", "--n", "-1"), "--n must be at least 0, got -1"),
        (("apply-f", "--k", "0", "--n", "3", "--pi", "1"), "--k must be at least 1, got 0"),
        (("verify", "--k", "2", "--n", "2", "--jobs", "0"), "--jobs must be at least 1, got 0"),
        (("sample", "--k", "2", "--n", "3", "--trials", "0"), "--trials must be at least 1, got 0"),
    ],
)
def test_bad_sizes_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bad_sizes_from_input_file(tmp_path, capsys):
    doc = tmp_path / "input.txt"
    doc.write_text("k=0\nn=3\npi=1\n")
    code, _, err = run(capsys, "apply-f", "--input", str(doc))
    assert code == 2
    assert "--k must be at least 1" in err


def test_force_lifts_every_capacity(monkeypatch, capsys):
    monkeypatch.setattr(permutations, "DEFAULT_CAPACITY", 10)
    monkeypatch.setattr(harness, "DEFAULT_PAIR_CAPACITY", 10)
    for command in (("table",), ("verify", "--which", "all")):
        argv = (*command, "--k", "2", "--n", "2")
        assert run(capsys, *argv)[0] == 3
        assert run(capsys, *argv, "--force")[0] == 0


def test_jobs_clamped_to_cpu_count(monkeypatch, capsys, in_process_pool):
    # The pool counts in this process, so no worker starts; with the
    # threshold lowered, 8! words is a census large enough to be split.
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(harness, "_POOL_MIN", factorial(8))
    code, out, _ = run(capsys, "table", "--k", "2", "--n", "4", "--jobs", "64", "--format", "structured")
    assert code == 0
    assert in_process_pool[0] == 2
    assert "cyc_total=40320" in out


def test_bad_residue_is_parse_error(capsys):
    code, _, err = run(
        capsys, "invert-f", "--k", "3", "--n", "5", "--delta", DELTA_TEXT,
        "--x", "0,1,a,2,1", "--tau", "(2)(3)(5 1 4)",
    )
    assert code == 2
    assert "bad residue list" in err and "position" in err


def test_input_file_error_names_its_line(tmp_path, capsys):
    doc = tmp_path / "input.txt"
    doc.write_text("# header\nk=3\n\nn=5\n  oops\n")
    code, out, err = run(capsys, "apply-f", "--input", str(doc))
    assert code == 2
    assert out == ""
    assert err == "error: expected key=value, got 'oops' (at line 5, position 3)\n"


@pytest.mark.parametrize("text,message", [
    ("k=three\nn=5\npi=1\n", "k must be an integer, got 'three' (at line 1, position 3)"),
    ("k=3\nn = 5.0\npi=1\n", "n must be an integer, got '5.0' (at line 2, position 5)"),
])
def test_non_integer_size_in_input_file(tmp_path, capsys, text, message):
    doc = tmp_path / "input.txt"
    doc.write_text(text)
    code, out, err = run(capsys, "apply-f", "--input", str(doc))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
