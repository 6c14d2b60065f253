"""End-to-end command line tests: golden outputs and exit codes."""

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from lineint.cli import main

GOLDEN_LOG = "-t - 1/2*t^2 - 1/3*t^3 - 1/4*t^4 + O(t^5)\n"

LOG_CONNECTION = json.dumps({
    "signature": [1, 1],
    "ring": "formal",
    "trunc": 5,
    "connection": [["0", "-1 - t - t^2 - t^3 + O(t^4)"], ["0", "0"]],
})

DAGGER_CONNECTION = json.dumps({
    "signature": [1, 1],
    "ring": "gamma+",
    "p": 2,
    "abs_prec": 12,
    "trunc": 9,
    "connection": [
        ["0", "-1 - u - u^2 - u^3 - u^4 - u^5 - u^6 - u^7 + O(u^8)"],
        ["0", "0"]],
})


def geometric_alternating(var: str, n: int) -> str:
    parts = ["1"]
    for j in range(1, n):
        head = "- " if j % 2 else "+ "
        parts.append(head + (var if j == 1 else f"{var}^{j}"))
    return " ".join(parts)


FORMAL_FAMILY = json.dumps({
    "signature": [1, 1],
    "ring": "formal",
    "trunc": 5,
    "connection": [
        ["0", {"du": "0",
               "dx": geometric_alternating("x", 5) + " + O(t^5, x^5)"}],
        ["0", "0"]],
})

DAGGER_FAMILY = json.dumps({
    "signature": [1, 1],
    "ring": "gamma+",
    "p": 2,
    "abs_prec": 12,
    "trunc": 9,
    "connection": [
        ["0", {"du": "0",
               "dx": geometric_alternating("x", 9) + " + O(u^9, x^9)"}],
        ["0", "0"]],
})

# A non-flat e+ family: the planted entry x du of
# demos/families_and_curvature.py with 1/3 added, chained to a dx entry with
# a 1/3 in it.  Zero entries times coefficients of valuation -1 leave some
# curvature coefficients known mod 3^3 only.
E_PLUS_FAMILY = json.dumps({
    "signature": [1, 1, 1],
    "ring": "e+",
    "p": 3,
    "abs_prec": 4,
    "trunc": 3,
    "trunc_x": 3,
    "connection": [
        ["0", {"du": "x + 1/3 + O(u^3, x^3)"}, "0"],
        ["0", "0", {"dx": "1 + 1/3*u + O(u^3, x^3)"}],
        ["0", "0", "0"]],
})

E_PLUS_CURVATURE = (
    '{"entries":[[{"coeffs":[["0 (mod 3^3)","0 (mod 3^3)"],["0 (mod 3^3)",'
    '"0 (mod 3^3)"]]'
    ',"fiber_var":"x","p":3,"ring":"e+","trunc":[2,2]}'
    ',{"coeffs":[["3^0*26 (mod 3^3)","0 (mod 3^3)"],["0 (mod 3^3)",'
    '"0 (mod 3^3)"]]'
    ',"fiber_var":"x","p":3,"ring":"e+","trunc":[2,2]}'
    ',{"coeffs":[["3^-1*1 (mod 3^3)",'
    '"3^0*1 (mod 3^3)"],["3^-2*1 (mod 3^3)","3^-1*1 (mod 3^3)"]]'
    ',"fiber_var":"x","p":3,"ring":"e+","trunc":[2,2]}'
    '],[{"coeffs":[["0 (mod 3^4)","0 (mod 3^4)"],["0 (mod 3^3)",'
    '"0 (mod 3^3)"]]'
    ',"fiber_var":"x","p":3,"ring":"e+","trunc":[2,2]}'
    ',{"coeffs":[["0 (mod 3^3)","0 (mod 3^3)"],["0 (mod 3^3)",'
    '"0 (mod 3^3)"]]'
    ',"fiber_var":"x","p":3,"ring":"e+","trunc":[2,2]}'
    ',{"coeffs":[["3^-1*1 (mod 3^4)","0 (mod 3^4)"],["0 (mod 3^3)",'
    '"0 (mod 3^3)"]]'
    ',"fiber_var":"x","p":3,"ring":"e+","trunc":[2,2]}'
    '],[{"coeffs":[["0 (mod 3^4)","0 (mod 3^4)"],["0 (mod 3^4)",'
    '"0 (mod 3^4)"]]'
    ',"fiber_var":"x","p":3,"ring":"e+","trunc":[2,2]}'
    ',{"coeffs":[["0 (mod 3^3)","0 (mod 3^3)"],["0 (mod 3^3)",'
    '"0 (mod 3^3)"]]'
    ',"fiber_var":"x","p":3,"ring":"e+","trunc":[2,2]}'
    ',{"coeffs":[["0 (mod 3^4)","0 (mod 3^4)"],["0 (mod 3^3)",'
    '"0 (mod 3^3)"]]'
    ',"fiber_var":"x","p":3,"ring":"e+","trunc":[2,2]}'
    ']],"fiber_var":"x","flat":false,"p":3,"ring":"e+",'
    '"signature":[1,1,1]}\n'
)

LOG_CONNECTION_FUNDSOL = """\
{
  "abs_prec": null,
  "entries": [
    [
      "1 + O(t^8)",
      "-t - 1/2*t^2 - 1/3*t^3 - 1/4*t^4 - 1/5*t^5 - 1/6*t^6 - 1/7*t^7 + O(t^8)"
    ],
    [
      "0 + O(t^8)",
      "1 + O(t^8)"
    ]
  ],
  "p": null,
  "ring": "formal",
  "signature": [
    1,
    1
  ]
}
"""


@pytest.fixture
def cli(capsys, monkeypatch):
    def invoke(argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return invoke


class TestGoldenOutputs:
    def test_log(self, cli):
        code, out, err = cli(["log", "--trunc", "5", "1 - t + O(t^5)"])
        assert (code, out) == (0, GOLDEN_LOG)

    @pytest.mark.parametrize("expr,text,structured", [
        ("1 - t + O(t^6)",
         "-t - 1/2*t^2 - 1/3*t^3 - 1/4*t^4 - 1/5*t^5 + O(t^6)\n",
         '{"coeffs":["0","-1","-1/2","-1/3","-1/4","-1/5"],"p":null,'
         '"ring":"formal","window":[0,6]}\n'),
        ("3 + O(t^4)",
         "0 + O(t^4)\n",
         '{"coeffs":["0","0","0","0"],"p":null,"ring":"formal",'
         '"window":[0,4]}\n'),
        ("2 - t^3 + 1/2*t^5 + O(t^9)",
         "-1/2*t^3 + 1/4*t^5 - 1/8*t^6 + 1/8*t^8 + O(t^9)\n",
         '{"coeffs":["0","0","0","-1/2","0","1/4","-1/8","0","1/8"],'
         '"p":null,"ring":"formal","window":[0,9]}\n'),
    ])
    def test_log_bytes(self, cli, expr, text, structured):
        assert cli(["log", expr]) == (0, text, "")
        assert cli(["log", "--format", "structured", expr]) == \
            (0, structured, "")

    def test_residue(self, cli):
        code, out, err = cli(["residue", "u^-1 + O(u^2)"])
        assert (code, out) == (0, "1\n")

    def test_residue_padic(self, cli):
        code, out, err = cli(["residue", "--p", "3", "--ring", "e",
                              "2*u^-1 + 5 + O(u^3)"])
        assert (code, out) == (0, "2\n")

    def test_dlog(self, cli):
        code, out, err = cli(["dlog", "1 - t + O(t^4)"])
        assert code == 0
        assert out == "-1 - t - t^2 + O(t^3)\n"

    def test_plog_profile(self, cli):
        code, out, err = cli(["plog", "--p", "2", "--abs-prec", "12",
                              "--format", "structured", "1 - u + O(u^9)"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ring"] == "robba+"
        for pair in ([2, -1], [4, -2], [8, -3]):
            assert pair in doc["profile"]

    def test_parse_check_normal_form(self, cli):
        code, out, err = cli(["parse-check", "1 + 2*t + t + O(t^4)"])
        assert (code, out) == (0, "1 + 3*t + O(t^4)\n")

    def test_fundsol_exponential(self, cli):
        doc = json.dumps({"ring": "formal", "trunc": 6,
                          "connection": [["1 + O(t^5)"]]})
        code, out, err = cli(["fundsol", "--file", "-"], stdin=doc)
        assert code == 0
        entries = json.loads(out)["entries"]
        assert entries[0][0] == \
            "1 + t + 1/2*t^2 + 1/6*t^3 + 1/24*t^4 + 1/120*t^5 + O(t^6)"

    def test_trivialize_log_connection(self, cli):
        code, out, err = cli(["trivialize", "--file", "-"],
                             stdin=LOG_CONNECTION)
        assert code == 0
        entries = json.loads(out)["entries"]
        assert entries[0][1] == GOLDEN_LOG.strip()

    def test_invariant_padic_profile(self, cli):
        code, out, err = cli(["invariant", "--file", "-", "--format",
                              "structured"], stdin=DAGGER_CONNECTION)
        assert code == 0
        entry = json.loads(out)["entries"][0][1]
        for pair in ([2, -1], [4, -2], [8, -3]):
            assert pair in entry["profile"]

    def test_integrate_formal(self, cli):
        code, out, err = cli(["integrate", "--family", "-", "--section",
                              "1 - t + O(t^5)"], stdin=FORMAL_FAMILY)
        assert code == 0
        assert json.loads(out)["entries"][0][1] == GOLDEN_LOG.strip()

    def test_integrate_padic_profile(self, cli):
        code, out, err = cli(["integrate", "--family", "-", "--section",
                              "1 - u + O(u^9)", "--p", "2",
                              "--abs-prec", "12", "--format", "structured"],
                             stdin=DAGGER_FAMILY)
        assert code == 0
        entry = json.loads(out)["entries"][0][1]
        for pair in ([2, -1], [4, -2], [8, -3]):
            assert pair in entry["profile"]

    def test_curvature_flat(self, cli):
        code, out, err = cli(["curvature", "--family", "-"],
                             stdin=DAGGER_FAMILY)
        assert code == 0
        assert json.loads(out)["flat"] is True

    def test_curvature_planted(self, cli):
        doc = json.dumps({
            "signature": [1, 1], "ring": "formal", "trunc": 6,
            "connection": [["0", {"du": "x + O(t^6, x^6)"}], ["0", "0"]]})
        code, out, err = cli(["curvature", "--family", "-", "--format",
                              "structured"], stdin=doc)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["flat"] is False
        assert parsed["entries"][0][1]["coeffs"][0][0] == "-1"

    def test_curvature_non_flat_padic_bytes(self, cli):
        assert cli(["curvature", "--family", "-", "--format", "structured"],
                   stdin=E_PLUS_FAMILY) == (0, E_PLUS_CURVATURE, "")

    def test_fundsol_log_connection_bytes(self, cli):
        doc = (pathlib.Path(__file__).resolve().parent.parent / "demos"
               / "data" / "log_connection.json")
        assert cli(["fundsol", "--file", str(doc)]) == \
            (0, LOG_CONNECTION_FUNDSOL, "")

    def test_parse_check_echoes_connection_document(self, cli):
        code, out, err = cli(["parse-check", "--file", "-"],
                             stdin=LOG_CONNECTION)
        assert code == 0
        echoed = json.loads(out)
        assert echoed["trunc"] == 5
        assert echoed["connection"][0][1] == \
            "-1 - t - t^2 - t^3 + O(t^4)"
        # the echo is itself a valid document
        code2, out2, err2 = cli(["parse-check", "--file", "-"], stdin=out)
        assert code2 == 0 and out2 == out

    def test_parse_check_echoes_family_document(self, cli):
        code, out, err = cli(["parse-check", "--family", "-"],
                             stdin=DAGGER_FAMILY)
        assert code == 0
        echoed = json.loads(out)
        assert echoed["fiber_var"] == "x"
        code2, out2, err2 = cli(["parse-check", "--family", "-"], stdin=out)
        assert code2 == 0 and out2 == out


class TestExitCodes:
    def test_parse_error_is_2(self, cli):
        code, out, err = cli(["log", "1 - t"])
        assert code == 2
        assert json.loads(err)["error"] == "parse-error"

    def test_usage_missing_prime_is_2(self, cli):
        code, out, err = cli(["plog", "1 - u + O(u^4)"])
        assert code == 2

    def test_usage_rational_with_prime_is_2(self, cli):
        code, out, err = cli(["dlog", "--p", "5", "1 - t + O(t^4)"])
        assert code == 2

    def test_usage_bad_trunc_is_2(self, cli):
        code, out, err = cli(["log", "--trunc", "0", "1 + O(t^3)"])
        assert code == 2

    def test_usage_bad_prime_is_2(self, cli):
        code, out, err = cli(["plog", "--p", "4", "1 + O(u^3)"])
        assert code == 2

    def test_large_prime_answers(self, cli):
        # 2^61 - 1: primality must not cost sqrt(p) steps.
        code, out, err = cli(["plog", "--p", str(2**61 - 1), "1 - u + O(u^9)"])
        assert code == 0 and out.endswith("+ O(u^9)\n")

    def test_prime_above_limit_refused(self, cli):
        code, out, err = cli(["plog", "--p", str(2**64 + 13), "1 + O(u^3)"])
        assert code == 2 and "below 2^64" in err
        doc = json.loads(DAGGER_CONNECTION)
        doc["p"] = 2**64 + 13
        code, out, err = cli(["trivialize", "--file", "-"], stdin=json.dumps(doc))
        assert code == 1
        assert json.loads(err)["error"] == "invalid-input"

    def test_unknown_command_is_2(self, cli):
        assert cli(["frobnicate"])[0] == 2

    def test_missing_file_flag_is_2(self, cli):
        assert cli(["trivialize"])[0] == 2

    def test_unreadable_file_is_2(self, cli):
        code, out, err = cli(["trivialize", "--file", "/no/such/file.json"])
        assert code == 2

    def test_bad_json_is_2(self, cli):
        code, out, err = cli(["trivialize", "--file", "-"], stdin="{oops")
        assert code == 2
        assert json.loads(err)["error"] == "parse-error"

    def test_parse_check_needs_exactly_one_input(self, cli):
        assert cli(["parse-check"])[0] == 2
        code, out, err = cli(["parse-check", "--file", "-", "1 + O(t^2)"],
                             stdin=LOG_CONNECTION)
        assert code == 2

    def test_integrate_prime_conflict_is_2(self, cli):
        code, out, err = cli(["integrate", "--family", "-", "--section",
                              "1 + O(u^3)", "--p", "3"], stdin=DAGGER_FAMILY)
        assert code == 2

    def test_help_is_0(self, cli):
        assert cli(["--help"])[0] == 0
        assert cli(["log", "--help"])[0] == 0

    def test_non_unit_is_1(self, cli):
        code, out, err = cli(["log", "t + O(t^3)"])
        assert code == 1
        assert json.loads(err)["error"] == "non-unit"

    def test_obstruction_is_1_with_residue(self, cli):
        doc = json.dumps({
            "signature": [1, 1], "ring": "robba", "p": 2, "abs_prec": 8,
            "trunc": 3,
            "connection": [["0", "u^-1 + O(u^2)"], ["0", "0"]]})
        code, out, err = cli(["trivialize", "--file", "-"], stdin=doc)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "integral-obstruction"
        assert "2^0*1" in payload["residue"]

    def test_not_framed_is_1(self, cli):
        doc = json.dumps({
            "signature": [1, 1], "ring": "formal", "trunc": 4,
            "connection": [["0", "0"], ["1 + O(t^4)", "0"]]})
        code, out, err = cli(["trivialize", "--file", "-"], stdin=doc)
        assert code == 1
        assert json.loads(err)["error"] == "not-framed"

    def test_integrality_is_1(self, cli):
        code, out, err = cli(["parse-check", "--ring", "gamma+", "--p", "2",
                              "1/2 + O(u^3)"])
        assert code == 1
        assert json.loads(err)["error"] == "integrality"

    def test_widening_clip_is_1(self, cli):
        code, out, err = cli(["log", "--trunc", "10", "1 - t + O(t^5)"])
        assert code == 1
        assert json.loads(err)["error"] == "insufficient-window"

    def test_dlog_of_zero_is_1(self, cli):
        code, out, err = cli(["dlog", "0 + O(t^4)"])
        assert code == 1
        # the zero window strips to nothing, so no unit order is visible
        assert json.loads(err)["error"] == "insufficient-window"


class TestStdin:
    def test_expression_from_stdin(self, cli):
        code, out, err = cli(["log", "-"], stdin="1 - t + O(t^5)\n")
        assert (code, out) == (0, GOLDEN_LOG)

    def test_section_from_stdin(self, cli, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(FORMAL_FAMILY)
        code, out, err = cli(["integrate", "--family", str(path),
                              "--section", "-"], stdin="1 - t + O(t^5)")
        assert code == 0
        assert json.loads(out)["entries"][0][1] == GOLDEN_LOG.strip()


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["log", "1 - t + O(t^5)"],
        ["plog", "--p", "2", "--abs-prec", "12", "1 - u + O(u^9)"],
        ["plog", "--p", "2", "--abs-prec", "12", "--format", "structured",
         "1 - u + O(u^9)"],
    ])
    def test_repeat_invocations_are_byte_identical(self, cli, argv):
        first = cli(argv)
        second = cli(argv)
        assert first == second


class TestEntryPoint:
    def test_module_invocation(self):
        r = subprocess.run(
            [sys.executable, "-m", "lineint.cli", "log", "--trunc", "5",
             "1 - t + O(t^5)"],
            capture_output=True, text=True)
        assert r.returncode == 0
        assert r.stdout == GOLDEN_LOG

    def test_module_invocation_error_path(self):
        r = subprocess.run(
            [sys.executable, "-m", "lineint.cli", "log", "t + O(t^2)"],
            capture_output=True, text=True)
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"] == "non-unit"

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_closing_stdout_exits_quietly(self, unbuffered):
        # The output is larger than a pipe buffer, so the writer still has
        # bytes left when the reader goes away, whatever the timing.
        expr = " + ".join(f"t^{d}" for d in range(12000)) + " + O(t^12000)"
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen(
            [sys.executable, "-m", "lineint.cli", "parse-check", "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env)
        proc.stdin.write(expr.encode())
        proc.stdin.close()
        assert proc.stdout.read(16) == b"1 + t + t^2 + t^"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""
