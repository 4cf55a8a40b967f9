"""Command-line interface: output formats, exit codes, determinism."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from hashlib import sha256

import mpmath
import pytest
from mpmath import mpf

from zetataylor.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_json_hurwitz_n0(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--family", "hurwitz", "--a", "2", "--n", "0")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["family"] == "hurwitz"
    assert rec["n"] == 0
    assert rec["a"] == "2"
    assert rec["lambda"] is None
    assert rec["value"] == "-1.5"
    assert rec["terminated_by"] == "converged"


def test_coeff_range_emits_one_record_per_n(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--family", "riemann", "--n", "0..3", "--digits", "30"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert [json.loads(l)["n"] for l in lines] == [0, 1, 2, 3]


def test_coeff_value_round_trips_at_requested_precision(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--family", "riemann", "--n", "1")
    rec = json.loads(out.strip())
    with mpmath.workdps(50):
        v = mpf(rec["value"])
        want = mpf("-0.91924603174603174603174603174603174603174603174603")
        assert abs(v - want) <= mpf("1e-48")


def test_coeff_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--family", "hurwitz", "--a", "1/2", "--n", "0..2",
        "--digits", "30", "--format", "table",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["family", "n", "a"]
    assert len(lines) == 4


def test_coeff_verify_riemann_passes(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--family", "riemann", "--n", "1", "--digits", "30", "--verify"
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert "oracle_value" in rec and "oracle_delta" in rec
    with mpmath.workdps(40):
        assert abs(mpf(rec["oracle_delta"])) <= mpf(rec["error_estimate"]) * mpf(1.01)


def test_coeff_verify_unit_circle_lambda_uses_duplication(capsys):
    # lambda = -1 has no convergent direct sum; the reference goes through
    # Phi(-1, s, a) = 2^-s [zeta(s, a/2) - zeta(s, (a+1)/2)], here the
    # Dirichlet eta function with eta(0) = 1/2, eta'(0) = log(pi/2)/2
    code, out, _ = run_cli(
        capsys, "coeff", "--family=lerch", "--a=1", "--lambda=-1", "--n=0", "--verify",
    )
    assert code == 0
    assert json.loads(out)["oracle_value"] == "0.5"
    code, out, _ = run_cli(
        capsys, "coeff", "--family=lerch", "--a=1", "--lambda=-1", "--n=0..1", "--verify",
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in recs] == [0, 1]
    with mpmath.workdps(60):
        want = [mpf("0.5"), mpmath.log(mpmath.pi / 2) / 2]
        for r, w in zip(recs, want):
            assert abs(mpf(r["oracle_value"]) - w) <= mpf("1e-48")


def test_coeff_verify_range_uses_one_reference_pass(capsys, monkeypatch):
    from zetataylor import cli

    calls = []
    real = cli.taylor_coefficients

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "taylor_coefficients", counted)
    code, out, _ = run_cli(
        capsys, "coeff", "--family=lerch", "--a=1", "--lambda=1/2", "--n=2..4", "--verify"
    )
    assert code == 0
    assert calls == [("lerch", 4, 1, Fraction(1, 2))]
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in recs] == [2, 3, 4]
    assert all(isinstance(r["oracle_value"], str) for r in recs)


def test_only_trace_command_records_terms(tmp_path, capsys, monkeypatch):
    from zetataylor import cli

    seen = []
    real = cli.compute_coefficient

    def recorded(query):
        seen.append((query.n, query.trace))
        return real(query)

    monkeypatch.setattr(cli, "compute_coefficient", recorded)
    code, _, _ = run_cli(capsys, "coeff", "--family=riemann", "--n=0..2", "--digits=20")
    assert code == 0
    assert seen == [(0, False), (1, False), (2, False)]
    seen.clear()
    code, _, _ = run_cli(
        capsys, "trace", "--family=riemann", "--n=1", "--digits=20",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert seen == [(1, True)]


def test_coeff_without_verify_omits_oracle_fields(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--family", "hurwitz", "--a", "2", "--n", "0", "--digits", "20"
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert "oracle_value" not in rec


def test_lerch_closed_form_via_cli(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--family", "lerch", "--a", "1", "--lambda", "0.5", "--n", "0"
    )
    assert code == 0
    assert json.loads(out.strip())["value"] == "2.0"


def test_lambda_one_exits_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "coeff", "--family", "lerch", "--a", "1", "--lambda", "1", "--n", "0"
    )
    assert code == 2
    assert "hurwitz" in err


@pytest.mark.parametrize("command", ["coeff", "trace"])
def test_lambda_on_hurwitz_exits_domain_error(capsys, tmp_path, command):
    out = ["--out", str(tmp_path / "t.csv")] if command == "trace" else []
    code, _, err = run_cli(
        capsys, command, "--family", "hurwitz", "--lambda", "1/2", "--n", "0", *out
    )
    assert code == 2
    assert "lerch" in err
    assert not (tmp_path / "t.csv").exists()


def test_riemann_with_other_shift_rejected(capsys):
    code, _, err = run_cli(capsys, "coeff", "--family", "riemann", "--a", "2", "--n", "0")
    assert code == 2


def test_nonpositive_shift_rejected(capsys):
    code, _, err = run_cli(capsys, "coeff", "--family", "hurwitz", "--a", "-1", "--n", "0")
    assert code == 2


def test_shift_exit_codes_keep_usage_and_domain_apart(capsys):
    code, _, _ = run_cli(capsys, "coeff", "--family=hurwitz", "--n=0", "--a=nan")
    assert code == 64  # not a decimal or p/q rational: bad usage
    code, _, err = run_cli(capsys, "coeff", "--family=hurwitz", "--n=0", "--a=-1")
    assert code == 2  # a rational outside the domain
    assert "positive" in err


def test_negative_rational_values_parse(capsys):
    code, spaced, _ = run_cli(
        capsys, "coeff", "--family", "lerch", "--a", "3/2", "--lambda", "-2/7", "--n", "1"
    )
    assert code == 0
    code, joined, _ = run_cli(
        capsys, "coeff", "--family=lerch", "--a=3/2", "--lambda=-2/7", "--n=1"
    )
    assert code == 0
    assert spaced == joined
    assert json.loads(spaced)["lambda"] == "-2/7"
    code, _, err = run_cli(capsys, "coeff", "--family", "hurwitz", "--a", "-1/2", "--n", "0")
    assert code == 2  # a domain error, not a usage error
    assert "positive" in err


def test_max_terms_error_bar_is_not_zero(capsys):
    # the last generated term is an exact zero; the estimate comes from the
    # last term at or above the convergence threshold
    code, out, _ = run_cli(
        capsys, "coeff", "--family=lerch", "--a=3/2", "--lambda=-1", "--n=2"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["terminated_by"] == "max_terms"
    with mpmath.workdps(50):
        est, value = mpf(rec["error_estimate"]), mpf(rec["value"])
        assert est > abs(value) > mpf("1e55")


def test_bad_flag_exits_usage(capsys):
    code, _, _ = run_cli(capsys, "coeff", "--family", "nonsense", "--n", "0")
    assert code == 64
    code, _, _ = run_cli(capsys, "coeff", "--family", "hurwitz", "--n", "zero")
    assert code == 64
    code, _, _ = run_cli(capsys, "coeff", "--family", "hurwitz", "--n", "0", "--a", "x/y")
    assert code == 64
    code, _, _ = run_cli(capsys, "bogus-command")
    assert code == 64


def test_trace_csv_riemann_n1(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "trace", "--family", "riemann", "--n", "1", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "k,term,partial_sum"
    body = [l for l in lines[1:] if not l.startswith("#")]
    ks = [int(l.split(",")[0]) for l in body]
    assert ks == list(range(1, len(ks) + 1))
    with mpmath.workdps(60):
        mags = {int(k): abs(mpf(t)) for k, t, _ in (l.split(",") for l in body) if mpf(t) != 0}
        assert min(mags, key=mags.get) == 7
        # telescoping survives the decimal round trip
        prev = mpf(0)
        for l in body:
            _, t, p = l.split(",")
            assert abs(mpf(p) - (prev + mpf(t))) <= mpf("1e-47")
            prev = mpf(p)
    footer = lines[-1]
    assert footer.startswith("# terminated_by=minimal_term,truncation_index=8,")


def test_trace_single_nonzero_row_for_n0(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, _, _ = run_cli(
        capsys, "trace", "--family", "hurwitz", "--a", "2", "--n", "0", "--out", str(out_path)
    )
    assert code == 0
    body = [
        l for l in out_path.read_text().splitlines()[1:] if not l.startswith("#")
    ]
    nonzero = [l for l in body if mpf(l.split(",")[1]) != 0]
    assert len(nonzero) == 1
    assert nonzero[0].split(",")[0] == "0"


def test_trace_unwritable_path_exits_73(capsys):
    code, _, err = run_cli(
        capsys, "trace", "--family", "riemann", "--n", "1",
        "--out", "/nonexistent-dir/trace.csv",
    )
    assert code == 73
    assert "cannot write" in err


def test_trace_requires_single_n(capsys):
    code, _, _ = run_cli(
        capsys, "trace", "--family", "riemann", "--n", "0..2", "--out", "x.csv"
    )
    assert code == 2


def test_verify_identities_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--digits", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert "all checks passed" in lines[-1]


def test_verify_rejects_low_precision(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite=identities", "--digits=5")
    assert code == 2
    assert out == ""
    assert "digits must be an int of at least 15, got 5" in err


def test_verify_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "identities", "--digits", "30")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "identities", "--digits", "30")
    assert out1 == out2


def test_env_digits_override(capsys, monkeypatch):
    monkeypatch.setenv("ZETA_DIGITS", "20")
    code, out, _ = run_cli(capsys, "coeff", "--family", "hurwitz", "--a", "2", "--n", "0")
    assert code == 0
    assert json.loads(out.strip())["digits"] == 20


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "zetataylor", "coeff", "--family", "hurwitz",
         "--a", "2", "--n", "0", "--digits", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["value"] == "-1.5"


def test_verify_refuses_a_lambda_that_rounds_to_one_at_once():
    # the reference rounds lambda at digits + 10 working digits, here to 1,
    # where a direct Lerch sum never ends: a domain error, in a child with a
    # timeout, so that a regression fails instead of hanging
    proc = subprocess.run(
        [sys.executable, "-m", "zetataylor", "coeff", "--family", "lerch", "--a", "1",
         "--lambda", "0." + "9" * 60, "--n", "0", "--digits", "30", "--verify"],
        capture_output=True, text=True, timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"lambda={'9' * 60}/1{'0' * 60}: a direct Lerch sum needs" in proc.stderr


def test_coeff_without_verify_loads_neither_dataclasses_nor_the_self_checks(tmp_path):
    # a cold coeff pays only for what it prints: no dataclass on any import
    # path, and the verification registry only for verify
    code = (
        "import sys\n"
        "from zetataylor.cli import main\n"
        "assert main(['coeff', '--family=lerch', '--a=7/5', '--lambda=-1/3', '--n=0..2']) == 0\n"
        "assert main(['trace', '--family=riemann', '--n=1', '--out', sys.argv[1]]) == 0\n"
        "print(sorted({'dataclasses', 'zetataylor.verification'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "trace.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_one_parser_serves_every_default_precision(capsys, monkeypatch):
    from zetataylor import cli

    def rebuild():
        raise AssertionError("main built a second parser")

    parser = cli._PARSER
    monkeypatch.setattr(cli, "_build_parser", rebuild)
    for env in ("20", "25", "20"):  # ZETA_DIGITS is read on every call
        monkeypatch.setenv("ZETA_DIGITS", env)
        code, out, _ = run_cli(capsys, "coeff", "--family", "hurwitz", "--a", "2", "--n", "0")
        assert code == 0
        assert json.loads(out.strip())["digits"] == int(env)
    code, _, err = run_cli(capsys, "coeff", "--family", "hurwitz", "--n", "zero")
    assert code == 64
    assert "usage:" in err
    code, out, _ = run_cli(capsys, "coeff", "--family", "riemann", "--n", "0")
    assert code == 0
    assert json.loads(out.strip())["digits"] == 20
    code, out, _ = run_cli(capsys, "coeff", "--family", "riemann", "--n", "0", "--digits", "30")
    assert json.loads(out.strip())["digits"] == 30  # a given --digits wins
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
    assert code == 0 and "(tol 1e-15)" in out  # the etf tolerance at 20 digits
    assert cli._PARSER is parser


# a session as the crosscheck benchmark makes them: calls on one
# (family, a, lambda, digits) whose n ranges split 0..4, so some are served
# from the reference's cache, some extend it, and some evict
VERIFY_SESSION = [
    ["--family=lerch", "--a=7/5", "--lambda=-5/7", "--digits=30", "--n=1..2"],
    ["--family=hurwitz", "--a=7/3", "--digits=50", "--n=4"],
    ["--family=lerch", "--a=7/5", "--lambda=-5/7", "--digits=30", "--n=0"],
    ["--family=lerch", "--a=7/5", "--lambda=-5/7", "--digits=30", "--n=3..4"],
    ["--family=hurwitz", "--a=7/3", "--digits=50", "--n=0..1"],
    ["--family=lerch", "--a=3/2", "--lambda=-1", "--digits=30", "--n=0..4", "--format=table"],
]


def test_verify_session_in_one_process_prints_fresh_process_bytes(capsys):
    fresh = [
        subprocess.Popen([sys.executable, "-m", "zetataylor", "coeff", *argv, "--verify"],
                         stdout=subprocess.PIPE, text=True)
        for argv in VERIFY_SESSION
    ]
    from zetataylor import reference

    reference._jets.clear()
    for argv, proc in zip(VERIFY_SESSION, fresh):
        code, out, _ = run_cli(capsys, "coeff", *argv, "--verify")
        want, _ = proc.communicate(timeout=120)
        assert (code, out) == (proc.returncode, want), argv


# One sha256 pins the bytes of a fixed grid of in-process commands: coeff
# as JSON, as a table and under --verify at 30 and 50 digits for seven
# functions, five traces (their output is the CSV) and two verify suites.
# `derive_pins.py` re-derives the digest and lists the commands whose
# bytes moved.
PIN_FUNCTIONS = [
    ["--family=riemann"],
    ["--family=hurwitz", "--a=1/10"],
    ["--family=hurwitz", "--a=7/3"],
    ["--family=hurwitz", "--a=0.8"],
    ["--family=lerch", "--a=7/5", "--lambda=-5/7"],
    ["--family=lerch", "--a=1", "--lambda=1/2"],
    ["--family=lerch", "--a=1/3", "--lambda=-1"],
]
PIN_GRID = [
    ["coeff", *f, f"--digits={d}", "--n=0..4", *mode]
    for f in PIN_FUNCTIONS for d in (30, 50) for mode in ([], ["--format=table"], ["--verify"])
]
PIN_GRID += [["trace", *PIN_FUNCTIONS[i], "--digits=30", f"--n={n}"]
             for i, n in ((0, 1), (1, 2), (2, 3), (4, 1), (6, 2))]
PIN_GRID += [["verify", f"--suite={s}", "--digits=30"] for s in ("identities", "coefficients")]
CLI_PIN = "326f6ae353102f67e74675acde1df6d63f381c866654d77f7769acea282818a5"


def pin_outputs(main, out_dir) -> list:
    """(exit code, output) of each PIN_GRID command, run in-process at
    mpmath's default ambient precision, as in a fresh process."""
    csv = out_dir / "trace.csv"
    rows = []
    with mpmath.workdps(15):
        for argv in PIN_GRID:
            extra = ["--out", str(csv)] if argv[0] == "trace" else []
            with redirect_stdout(io.StringIO()) as out:
                code = main(argv + extra)
            rows.append((code, csv.read_text() if extra else out.getvalue()))
    return rows


def pin_digest(rows) -> str:
    h = sha256()
    for code, out in rows:
        h.update(f"{code} {len(out)}\n{out}".encode())
    return h.hexdigest()


def test_cli_bytes_match_the_pinned_digest(tmp_path):
    assert pin_digest(pin_outputs(main, tmp_path)) == CLI_PIN
