"""Command line behaviour: grammar, output shapes, exit codes."""

import contextlib
import gc
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

from gammaprod import FORMATS, cli, identities, residues, run_cli, survey, verification

N31_COSET_LINES = """\
(1,33,35,39,47)
(3,17,37,43,55)
(5,9,41,49,51)
(7,19,25,45,59)
(11,13,21,53,57)
(15,23,27,29,61)
"""


class TestDecompose:
    def test_n31_golden(self, capsys):
        assert run_cli(["decompose", "31"]) == 0
        assert capsys.readouterr().out == N31_COSET_LINES

    def test_n7(self, capsys):
        assert run_cli(["decompose", "7"]) == 0
        assert capsys.readouterr().out == "(1,9,11)\n(3,5,13)\n"

    def test_even_modulus_is_a_domain_error(self, capsys):
        assert run_cli(["decompose", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "odd" in captured.err

    def test_huge_modulus_is_refused(self, capsys):
        assert run_cli(["decompose", str(2**61 - 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err and "10000000" in captured.err

    def test_deterministic(self, capsys):
        run_cli(["decompose", "93"])
        first = capsys.readouterr().out
        run_cli(["decompose", "93"])
        assert capsys.readouterr().out == first


class TestIdentities:
    def test_text_default(self, capsys):
        assert run_cli(["identities", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "Γ(1/14)·Γ(9/14)·Γ(11/14) = 2^2·π^(3/2)",
            "Γ(3/14)·Γ(5/14)·Γ(13/14) = 2·π^(3/2)",
        ]

    def test_ascii(self, capsys):
        assert run_cli(["identities", "7", "--ascii"]) == 0
        out = capsys.readouterr().out
        assert out.isascii()
        assert "Gamma(1/14)" in out

    def test_json_stream(self, capsys):
        assert run_cli(["identities", "31", "--format", "json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        first = json.loads(lines[0])
        assert first["coset"] == [1, 33, 35, 39, 47]
        assert first["rhs"] == {"pow2": 4, "pi_half_units": 5}

    def test_latex(self, capsys):
        assert run_cli(["identities", "3", "--format", "latex"]) == 0
        assert capsys.readouterr().out == (
            "\\[\\Gamma\\left(\\frac{1}{6}\\right)\\Gamma\\left(\\frac{5}{6}\\right)"
            " = 2\\pi\\]\n"
        )

    def test_unknown_format_is_usage_error(self, capsys):
        assert run_cli(["identities", "7", "--format", "yaml"]) == 2
        assert "invalid choice" in capsys.readouterr().err


class TestVerify:
    def test_all_cosets_pass(self, capsys):
        assert run_cli(["verify", "7", "--tol", "1e-10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("PASS n=7 coset=") for line in lines)

    def test_coset_of_picks_one(self, capsys):
        assert run_cli(["verify", "7", "--coset-of", "9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert "coset=(1,9,11)" in lines[0]

    def test_coset_of_non_unit(self, capsys):
        assert run_cli(["verify", "7", "--coset-of", "2"]) == 2
        assert "not a unit" in capsys.readouterr().err

    def test_coset_of_names_the_range_it_is_outside(self, capsys):
        # 15 = 1 mod 14 is a unit; what is wrong is that it lies outside (0, 14)
        assert run_cli(["verify", "7", "--coset-of", "15"]) == 2
        assert capsys.readouterr() == ("", "error: 15 is not a unit in (0, 14)\n")

    def test_coset_of_past_the_float_range_is_refused(self, capsys):
        # 1/2n is 0.0 as a double here, and 2.0 * n overflowed the default tolerance
        assert run_cli(["verify", str(2**1100 - 1), "--coset-of", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the check at n=")
        assert err.endswith("smallest argument 1/2n is not a normal double\n")

    @pytest.mark.parametrize("n", range(3, 60, 2))
    def test_coset_of_matches_the_full_listing(self, n, capsys):
        assert run_cli(["verify", str(n)]) == 0
        line_of = {}
        for line in capsys.readouterr().out.splitlines():
            coset = line.split("coset=(")[1].split(")")[0]
            line_of.update((int(x), line) for x in coset.split(","))
        for x in range(-1, 2 * n + 2):
            code = run_cli(["verify", str(n), "--coset-of", str(x)])
            captured = capsys.readouterr()
            if 0 < x < 2 * n and math.gcd(x, 2 * n) == 1:
                assert (code, captured.out, captured.err) == (0, line_of[x] + "\n", "")
            else:
                assert (code, captured.out) == (2, "")
                assert "not a unit" in captured.err

    def test_absurd_tolerance_fails_with_exit_1(self, capsys):
        assert run_cli(["verify", "7", "--tol", "1e-30"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_inconclusive_default_tolerance_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "default_tolerance", lambda n, terms: 0.5)
        assert run_cli(["verify", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: the check of 3 terms at n=7 is inconclusive" in captured.err
        assert run_cli(["verify", "7", "--tol", "0.5"]) == 0
        assert capsys.readouterr().out.count("PASS n=7 coset=") == 2

    def test_huge_modulus_walks_only_the_orbit(self, capsys):
        assert run_cli(["verify", str(2**61 - 1), "--coset-of", "1"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"PASS n={2**61 - 1} coset=(1,")
        coset = line.split("coset=(")[1].split(")")[0].split(",")
        assert len(coset) == 61

    def test_huge_modulus_without_coset_of_is_refused(self, capsys):
        assert run_cli(["verify", str(2**61 - 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err

    def test_coset_of_refuses_an_orbit_over_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(residues, "_MAX_WALK", 60)
        assert run_cli(["verify", str(2**61 - 1), "--coset-of", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err and "60" in captured.err
        monkeypatch.setattr(residues, "_MAX_WALK", 61)
        assert run_cli(["verify", str(2**61 - 1), "--coset-of", "1"]) == 0

    @pytest.mark.parametrize("tol", ["-1e-9", "-inf", "-0.5", "nan"])
    def test_a_tolerance_reads_alike_with_a_space_or_an_equals_sign(self, tol, capsys):
        # argparse would take -1e-9 and -inf for option names after a space
        assert run_cli(["verify", "7", f"--tol={tol}"]) == 2
        joined = capsys.readouterr()
        assert run_cli(["verify", "7", "--tol", tol]) == 2
        assert capsys.readouterr() == joined
        assert joined.err == f"error: tolerance must be positive and finite, got {float(tol)}\n"

    @pytest.mark.parametrize("argv", [["verify", "9999991", "--tol", "-1e-9"],
                                      ["verify", "7", "--coset-of", "3", "--tol=nan"],
                                      ["verify", "--max", "99", "--tol=0"]])
    def test_a_bad_tolerance_is_refused_before_any_work(self, argv, capsys, monkeypatch):
        # refused at once, so a bad --tol on a large n neither sieves nor walks
        def no_work(*args):
            raise AssertionError("work began before the tolerance was checked")
        for module, name in [(residues, "_unit_mask"), (residues, "_halving_orbit"),
                             (identities, "_halving_orbit")]:
            monkeypatch.setattr(module, name, no_work)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tolerance must be positive and finite, got ")

    @pytest.mark.parametrize("tol", ["-1e-9", "nan", "inf"])
    def test_non_positive_tolerance_is_domain_error(self, tol, capsys):
        # nan would fail every check and inf would pass a wrong b
        assert run_cli(["verify", "7", f"--tol={tol}"]) == 2
        assert "positive" in capsys.readouterr().err


class TestVerifyMax:
    def test_sweep_to_99(self, capsys):
        assert run_cli(["verify", "--max", "99"]) == 0
        lines = capsys.readouterr().out.splitlines()
        *body, summary, worst_coset, worst_full = lines
        assert summary == "170 products checked up to n=99, 0 failures"
        assert worst_coset.startswith("worst coset residual ")
        assert worst_full.startswith("worst full-product residual ")
        blocks, block = [], []
        for line in body:
            if " full-product " in line:
                blocks.append((line, block))
                block = []
            else:
                block.append(line)
        assert block == []
        assert [full.split()[1] for full, _ in blocks] == [f"n={n}" for n in range(3, 100, 2)]
        for n, (full, block) in zip(range(3, 100, 2), blocks):
            assert full.startswith(f"PASS n={n} full-product residual=")
            assert run_cli(["verify", str(n)]) == 0
            assert block == capsys.readouterr().out.splitlines()

    def test_range_past_a_lowered_sweep_bound_is_refused_at_once(self, capsys, monkeypatch):
        monkeypatch.setattr(survey, "_MAX_SWEEP", 9)
        assert run_cli(["verify", "--max", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err and "n <= 9" in captured.err
        assert run_cli(["verify", "--max", "9"]) == 0

    def test_range_past_the_sweep_bound_is_refused_at_once(self, capsys, monkeypatch):
        def no_check(*args):
            raise AssertionError("a check ran before the range was refused")

        monkeypatch.setattr(cli, "verify_identity", no_check)
        monkeypatch.setattr(cli, "verify_full_product", no_check)
        assert run_cli(["verify", "--max", "100001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verify range 100001 is too large; the limit is n <= 100000" in captured.err

    @pytest.mark.parametrize("argv", [[], ["7", "--max", "9"], ["--max", "9", "--coset-of", "1"]])
    def test_exactly_one_of_n_and_max(self, argv, capsys):
        assert run_cli(["verify", *argv]) == 2
        assert capsys.readouterr().err

    def test_holds_one_modulus_at_a_time(self, capsys, monkeypatch):
        # when the sweep reaches a new n, at most the worst earlier coset report lives
        earlier, current, alive_at_new_n = [], [], []
        check, last_n = cli.verify_identity, [None]

        def tracked(identity, tol=None):
            if identity.n != last_n[0]:
                last_n[0] = identity.n
                earlier.extend(current)
                current.clear()
                gc.collect()
                alive_at_new_n.append(sum(ref() is not None for ref in earlier))
            report = check(identity, tol)
            current.append(weakref.ref(report))
            return report

        monkeypatch.setattr(cli, "verify_identity", tracked)
        assert run_cli(["verify", "--max", "45"]) == 0
        capsys.readouterr()
        assert len(alive_at_new_n) == 22 and len(earlier) > 22
        assert alive_at_new_n[0] == 0 and max(alive_at_new_n) == 1

    def test_tally_keeps_the_first_maximal_report(self):
        reports = [verification.VerificationReport(n=n, coset_min=1, residual=r, tolerance=1.0,
                                                   passed=abs(r) <= 1.0, term_count=2)
                   for n, r in [(3, 0.5), (5, -2.0), (7, 2.0), (9, -2.0), (11, 1.0)]]
        tally = cli._Tally()
        for report in reports:
            tally.add(report)
        assert tally.worst is max(reports, key=lambda report: abs(report.residual))
        assert tally.worst.n == 5
        assert (tally.checked, tally.failures) == (5, 3)

    def test_absurd_tolerance_fails_with_exit_1(self, capsys):
        assert run_cli(["verify", "--max", "9", "--tol", "1e-30"]) == 1
        out = capsys.readouterr().out
        assert "FAIL n=3 coset=(1,5)" in out
        summary = out.splitlines()[-3]
        assert summary.startswith("9 products checked up to n=9, ")
        assert not summary.endswith(" 0 failures")


class TestSurvey:
    def test_text_rows(self, capsys):
        assert run_cli(["survey", "--max", "31"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 15
        assert lines[-1] == ("n=31 phi=30 nu=5 cosets=6 self_complementary=0 "
                             "max_b=4 prime_power=yes")

    def test_json_rows(self, capsys):
        assert run_cli(["survey", "--max", "9", "--json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["n"] for row in rows] == [3, 5, 7, 9]
        assert rows[2] == {"n": 7, "phi": 6, "nu": 3, "coset_count": 2,
                           "self_complementary_count": 0, "max_b": 2,
                           "is_prime_power": True}

    def test_check_claims_reports_and_exits_1(self, capsys):
        # one recorded count disagrees with the computed survey
        assert run_cli(["survey", "--max", "99", "--check-claims"]) == 1
        out = capsys.readouterr().out
        assert "CLAIM more-than-two-cosets: FAIL" in out
        assert out.count("CLAIM") == 5
        assert out.count(": PASS") == 4

    def test_check_claims_json(self, capsys):
        assert run_cli(["survey", "--max", "99", "--json", "--check-claims"]) == 1
        lines = capsys.readouterr().out.splitlines()
        claims = [json.loads(line) for line in lines if '"claim"' in line]
        assert len(claims) == 5
        failed = [c for c in claims if not c["passed"]]
        assert len(failed) == 1
        assert failed[0]["derived"] == [31, 43, 51, 63, 65, 73, 85, 89, 91, 93]

    def test_check_claims_needs_coverage(self, capsys):
        assert run_cli(["survey", "--max", "51", "--check-claims"]) == 2
        captured = capsys.readouterr()
        assert "cover" in captured.err
        assert captured.out == ""

    def test_max_is_required(self, capsys):
        assert run_cli(["survey"]) == 2

    def test_range_past_a_lowered_sweep_bound_is_refused_at_once(self, capsys, monkeypatch):
        monkeypatch.setattr(survey, "_MAX_SWEEP", 9)
        assert run_cli(["survey", "--max", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err and "n <= 9" in captured.err
        assert run_cli(["survey", "--max", "9"]) == 0

    def test_range_past_the_sweep_bound_is_refused_at_once(self, capsys, monkeypatch):
        def no_row(n):
            raise AssertionError(f"survey_row({n}) ran before the range was refused")

        monkeypatch.setattr(survey, "survey_row", no_row)
        assert run_cli(["survey", "--max", "100001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "survey range 100001 is too large; the limit is n <= 100000" in captured.err


class TestMersenne:
    def test_text(self, capsys):
        assert run_cli(["mersenne", "3"]) == 0
        assert capsys.readouterr().out == "Γ(1/14)·Γ(9/14)·Γ(11/14) = 2^2·π^(3/2)\n"

    def test_json(self, capsys):
        assert run_cli(["mersenne", "4", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["n"] == 15 and obj["coset"] == [1, 17, 19, 23]

    def test_rejects_exponent_one(self, capsys):
        assert run_cli(["mersenne", "1"]) == 2
        assert "exponent" in capsys.readouterr().err

    def test_refuses_an_exponent_past_the_bound(self, capsys):
        assert run_cli(["mersenne", "10001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exponent 10001 is too large; the limit is m <= 10000" in captured.err

    @pytest.mark.parametrize("command", ["identities", "mersenne"])
    def test_render_options_share_their_help(self, command, capsys):
        assert run_cli([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--format {text,latex,json}" in text
        assert "--format {" + ",".join(FORMATS) + "}" in text  # offers exactly the renderers
        assert "--ascii write Gamma/pi instead of unicode in text output" in text

    def test_ascii(self, capsys):
        assert run_cli(["mersenne", "3", "--ascii"]) == 0
        assert capsys.readouterr().out.startswith("Gamma(1/14)")


class TestFullProduct:
    def test_n7(self, capsys):
        assert run_cli(["full-product", "7"]) == 0
        assert capsys.readouterr().out == "prod_(x in Phi(14)) Gamma(x/14) = (2*pi)^3\n"

    def test_n31(self, capsys):
        assert run_cli(["full-product", "31"]) == 0
        assert "(2*pi)^15" in capsys.readouterr().out

    def test_even_modulus(self, capsys):
        assert run_cli(["full-product", "6"]) == 2


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run_cli([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run_cli(["frobnicate", "7"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_non_integer_argument(self, capsys):
        assert run_cli(["decompose", "seven"]) == 2


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _python_m_gammaprod(*argv):
    return subprocess.run([sys.executable, "-m", "gammaprod", *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=60)


def test_python_dash_m_runs_the_cli(capsys):
    assert run_cli(["verify", "7"]) == 0
    expected = capsys.readouterr().out
    proc = _python_m_gammaprod("verify", "7")
    assert (proc.stdout, proc.returncode, proc.stderr) == (expected, 0, "")


def test_a_reader_that_leaves_early_ends_the_cli_with_141_and_no_traceback():
    # as `gammaprod verify --max 999 | head -1` does; exit 1 would read as a failed check
    proc = subprocess.Popen([sys.executable, "-m", "gammaprod", "verify", "--max", "999"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    assert proc.stdout.readline().startswith(b"PASS n=3 ")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(timeout=60), stderr) == (141, b"")


# On Linux a child's ru_maxrss starts from the peak of the process that forked it, so
# a small python in between forks the command and reports its child's own wait4 peak
_OWN_PEAK = """import os, sys
pid = os.spawnv(os.P_NOWAIT, sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_decompose_holds_one_coset_at_a_time():
    # 356,960 cosets of 23: holding every coset before the first line peaked at 364 MB
    proc = subprocess.Popen([sys.executable, "-c", _OWN_PEAK, "-m", "gammaprod", "decompose",
                             "8388607"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_src_env(), start_new_session=True)
    timer = threading.Timer(120, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        sha = hashlib.sha256()
        while chunk := proc.stdout.read(1 << 20):
            sha.update(chunk)
        peak = int(proc.stderr.read())
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    assert proc.returncode == 0
    assert sha.hexdigest() == "71ffb546437ebc8a5105c9b08b54d1bf7c97771f520bd5cdfcc745d016ab9849"
    peak_mb = peak / (2**20 if sys.platform == "darwin" else 2**10)  # bytes or KiB
    assert peak_mb < 100


class _CharCount:
    """A stdout that keeps only the number of characters written to it."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


@pytest.mark.parametrize("command, chars", [("decompose", 1344603), ("verify", 1344711)])
def test_a_per_n_loop_drops_each_record_before_the_next(command, chars, traced_peak):
    # two cosets of 100,011: the walk builds the second while the loop could still hold
    # the first, which peaked at 46.2 bytes a unit; dropped once printed, at 42.2
    sink = _CharCount()
    with contextlib.redirect_stdout(sink):
        code, peak = traced_peak(run_cli, [command, "200023"])
    assert (code, sink.chars) == (0, chars)
    assert peak < 44 * 200022


PER_N_COMMANDS = [["decompose"], *(["identities", "--format", fmt] for fmt in FORMATS),
                  ["verify"]]


@pytest.mark.parametrize("n", ["10000001", "10"])  # past the walk's bound, and even
@pytest.mark.parametrize("command", PER_N_COMMANDS, ids=" ".join)
def test_a_refused_per_n_command_prints_nothing(command, n, capsys):
    # each refusal fires before the first record: the walk's bound at its first next()
    assert run_cli([command[0], n, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


ENTRY_CASES = [(["identities", "7"], 0), (["verify", "7", "--tol", "1e-30"], 1),
               (["decompose", "4"], 2)]


@pytest.mark.parametrize("argv, code", ENTRY_CASES)
def test_python_dash_m_matches_run_cli(argv, code, capsys):
    assert run_cli(argv) == code
    expected = capsys.readouterr()
    assert expected.err.startswith("error: ") == (code == 2)
    proc = _python_m_gammaprod(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)


@pytest.mark.parametrize("argv, code", ENTRY_CASES)
def test_main_exits_with_the_code_run_cli_returns(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gammaprod", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code


@pytest.mark.parametrize("n, digest", [
    ("1000003", "5525b8eca7a2cdde9ac73b60e62a90d4f7431627a4bcf98913975d969ce45f67"),
    ("1048575", "ff7c3df24d1db0edc3a7feb8373b8c8e452cd1d899e7b876355249501c0560e4"),
])
def test_verify_prints_past_ten_thousand_as_pinned(n, digest, capsys):
    # one coset of 1,000,002 and 24,000 cosets of 20; past n = 10**4 tol= goes through
    # libm's math.log, so it is masked with the residual
    assert run_cli(["verify", n]) == 0
    out = re.sub(r"(residual|tol)=\S+", r"\1=#", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_verify_coset_line_is_one_fill(traced_peak, coset_of_1000003):
    # the 7.1 MiB line of verify 1000003; spelling the coset, then copying it into
    # "coset=(...)" and again into the line peaked at twice the line
    report = verification.verify_identity(coset_of_1000003)
    line, peak = traced_peak(cli._report_line, report, coset_of_1000003.coset)
    assert line.startswith("PASS n=1000003 coset=(1,3,5,7,") and ",2000005) residual=" in line
    assert peak < 1.8 * len(line)
