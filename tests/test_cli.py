"""End-to-end command line tests: golden outputs and exit codes."""

import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from lineint.cli import main
from lineint.coeff import MATRIX_SIZE_LIMIT

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


ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_DATA = ROOT / "demos" / "data"

# bench/workloads.py is loaded by path, as in tests/test_bench_tracing.py;
# it imports its oracles by name.
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

# sha256 of the --format structured stdout of one small job per benchmark
# workload, the job drawn from random.Random("output-pin/<workload>").
WORKLOAD_PINS = {
    "integrate":
        "935fce6c035941daa525a1b1f5196ce19f6ffac305cc2e7014f0c85eed63dc3a",
    "invariant":
        "713ab10dd5a229b0f7ad111fd7fb069f112c02f883652c6868a60be0373950ec",
    "log": "420b2c7ade0106c7ed7e2c5abbd629d880f269a9278e4ca9bb73da0ae510e8e1",
    "plog":
        "e7aaa43c7f6c7cd28f1edbb2360af49c74c082e74c48ca4bd08dbbe00228f143",
}

# sha256 over the exit code, stdout and stderr of the timed and the small
# job of each seed 0-39 per benchmark workload, each job drawn from
# random.Random(seed).
WORKLOAD_SEED_PINS = {
    "integrate":
        "313487d2fe2631e994a990d42cc173072b218614dd70f1b9b521f64de941fbb3",
    "invariant":
        "f75abd291aafa29d99a486bd07cbff3475b17953e727bf4a4441968a8ae9ce0d",
    "log": "3f4c9cfd395f713b2d07d90213a02d0a9363149339a248aaf0334fa3b0d8e202",
    "plog":
        "b09c368695cb3ea4696bb2232a4b04210a541cbb2d18cc4f63d19da3e23275ac",
}

# sha256 over the exit code, stdout and stderr of the jobs of seeds 0-9 at
# sizes past the timed ones, each drawn from random.Random(seed) by the
# workload's job maker: (maker, size, trunc) -> digest.
LARGER_JOB_PINS = {
    ("integrate_job", 6, 10):
        "872f2bc837f520fc4f4678744e2f15e92e10a7f254491360ee8511ecb22c89fa",
    ("integrate_job", 3, 20):
        "a73f0273c46ef3f78efc45f3876d7a71b97d3bd4e280f0eac4a4290ade84cb1e",
    ("invariant_job", 8, 12):
        "c0dec949d1eb39cdb27164e400efe63acacd421b9ac9d6e417acd148af43e0c8",
}


def checkout_env(**extra):
    """This environment with the checkout's src first on PYTHONPATH, so a
    child `python -m lineint.cli` runs this checkout."""
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


# Every entry of a p-adic connection is an empty window, so no coefficient
# carries the document's abs_prec of 7; an echo must still state 7.
EDGE_CONNECTION = json.dumps({
    "signature": [1, 1], "ring": "gamma+", "p": 3, "abs_prec": 7,
    "trunc": 4,
    "connection": [["O(u^0)", "O(u^0)"], ["O(u^0)", "O(u^0)"]],
})

# A family whose fiber variable is t and whose trunc_x is not trunc, with a
# du part left out, an empty du window and a du written as a bare marker.
EDGE_FAMILY = json.dumps({
    "signature": [1, 1, 1], "ring": "gamma+", "p": 3, "abs_prec": 5,
    "trunc": 3, "trunc_x": 4, "fiber_var": "t",
    "connection": [
        ["0", {"dx": "1 - t + t^2 + O(u^3, t^3)"},
         {"du": "O(u^0, t^0)", "dx": "u*t + O(u^3, t^3)"}],
        ["0", "0",
         {"du": "O(u^3, t^4)", "dx": "1 + 3*u - t^3 + O(u^3, t^4)"}],
        ["0", "0", "0"]],
})

EDGE_DOCUMENTS = {"edge_connection": EDGE_CONNECTION,
                  "edge_family": EDGE_FAMILY}

SECTIONS = {"geometric_family": "1 - u + O(u^9)",
            "edge_family": "1 + u + O(u^3)"}

# Every command that prints a matrix document, in both formats, on the demo
# documents and the edge documents above: (command, input flag, document,
# format, exit status, error code, sha256 of stdout).  The digests were
# taken from the code before one writer in parsing built every document,
# except the three edge_family ones of curvature text and parse-check: they
# print an empty two-variable window as the bare marker O(u^0, t^0).
PINNED_DOCUMENTS = [
    ("trivialize", "--file", "chain_du", "text", 0, None,
     "3bbc7c564b8ae5f43d52a47eb91e4734bdaa4b769d912bc342f9a2f1dd217600"),
    ("trivialize", "--file", "chain_du", "structured", 0, None,
     "4acbb52b9b8c4b7e63f2fdf6ab0e0ef757145ab24caae5b3791c9960bde8c4fa"),
    ("trivialize", "--file", "log_connection", "text", 0, None,
     "e937bbc68f2fbe5ddc4c046a1f1e0d635d9cfa318dfbf9397e1e1e3a61aad053"),
    ("trivialize", "--file", "log_connection", "structured", 0, None,
     "6dcd82d088d22803f81bfc4d8032174e7622a3c17309702f1f8c45345a1db17c"),
    ("trivialize", "--file", "edge_connection", "text", 1, "invalid-input",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("trivialize", "--file", "edge_connection", "structured",
     1, "invalid-input",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("invariant", "--file", "chain_du", "text", 0, None,
     "3bbc7c564b8ae5f43d52a47eb91e4734bdaa4b769d912bc342f9a2f1dd217600"),
    ("invariant", "--file", "chain_du", "structured", 0, None,
     "4acbb52b9b8c4b7e63f2fdf6ab0e0ef757145ab24caae5b3791c9960bde8c4fa"),
    ("invariant", "--file", "log_connection", "text", 0, None,
     "e937bbc68f2fbe5ddc4c046a1f1e0d635d9cfa318dfbf9397e1e1e3a61aad053"),
    ("invariant", "--file", "log_connection", "structured", 0, None,
     "6dcd82d088d22803f81bfc4d8032174e7622a3c17309702f1f8c45345a1db17c"),
    ("invariant", "--file", "edge_connection", "text", 0, None,
     "7f2d62d645596594f20ceaedc79ee1416c1f8ca7f8f3328f61c77ddcd6a86367"),
    ("invariant", "--file", "edge_connection", "structured", 0, None,
     "961449fd51859b6fa8845688f128c075b8a3831de8e27f49d933369dfb469ca6"),
    ("fundsol", "--file", "chain_du", "text", 1, "invalid-input",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fundsol", "--file", "chain_du", "structured", 1, "invalid-input",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fundsol", "--file", "log_connection", "text", 0, None,
     "e937bbc68f2fbe5ddc4c046a1f1e0d635d9cfa318dfbf9397e1e1e3a61aad053"),
    ("fundsol", "--file", "log_connection", "structured", 0, None,
     "da6d48f281dae0b696dbbbf19a8110a6da4ddd736184d426aef4d1fba1ded385"),
    ("fundsol", "--file", "edge_connection", "text", 1, "invalid-input",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fundsol", "--file", "edge_connection", "structured", 1, "invalid-input",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("parse-check", "--file", "chain_du", "text", 0, None,
     "5c0468bdc4880af9c6647bb575095231f3436622fd01227c32b53c7f7606f575"),
    ("parse-check", "--file", "chain_du", "structured", 0, None,
     "061be1d380a18033143c423b7e199bfd07fa50516e8d4f22e031c4c153984312"),
    ("parse-check", "--file", "log_connection", "text", 0, None,
     "5a4489be2beb9321f397711baac59e31097c2c1ab7bef2cd27cb804cf00b3825"),
    ("parse-check", "--file", "log_connection", "structured", 0, None,
     "399768de0b0ad9ea1a56462cd4e392b40bf007b5595a4551ae406ac9a5a5a6c5"),
    ("parse-check", "--file", "edge_connection", "text", 0, None,
     "64e21abfe6cdcee18e3fdb63f2c92e4d4cc45fb57dc2efcc5e45705b8f3cd23a"),
    ("parse-check", "--file", "edge_connection", "structured", 0, None,
     "ed8765098e83db43924e6c690a797332d2b2f918bd26867a2daf477cdaa48d66"),
    ("curvature", "--family", "geometric_family", "text", 0, None,
     "6b6aa159735717bcd9c7d05e634251abec945525256f5115f94ce4d6e76631ef"),
    ("curvature", "--family", "geometric_family", "structured", 0, None,
     "6eafad934994e875f69666636b1d460d5cf1824b2cb6e6f59a4b1d9b790cdb0a"),
    ("curvature", "--family", "edge_family", "text", 0, None,
     "a16154c055395bf46095e4a83f0d2ed71095fe772dad9c2a4d430ffe08d2d552"),
    ("curvature", "--family", "edge_family", "structured", 0, None,
     "7b34e8038793516609dc38ddfbe3eb1ce48f4e52e864a0bcfecaef7520d5b81c"),
    ("integrate", "--family", "geometric_family", "text", 0, None,
     "b6a1844c1bc714e32946895a0ff97aaf536f574cccf16c42926c90c202612860"),
    ("integrate", "--family", "geometric_family", "structured", 0, None,
     "6681cdaf3fbcb0d8433bd53f699eff656ca1ba220cfb6de891309f30da9e1840"),
    ("integrate", "--family", "edge_family", "text", 0, None,
     "ca407f3c5683a9d0ed59d42d55f613228dfca9d22ce642c2d27d08a6b8f2cfe5"),
    ("integrate", "--family", "edge_family", "structured", 0, None,
     "5b0079f4acb65a5f9935b63e6d461562cef0a7c4c81bb090e623cccb8c3454c9"),
    ("parse-check", "--family", "geometric_family", "text", 0, None,
     "99b7176392582b04aa078bc234ef01f9494c46497fa7ca81ed0446c1a13b91a1"),
    ("parse-check", "--family", "geometric_family", "structured", 0, None,
     "56f7638780180541ff040b20c24ffcf7f389777e732927f0eca18f0fa09e7730"),
    ("parse-check", "--family", "edge_family", "text", 0, None,
     "add780662af0596b9bd033f8d603448c6b5a330b34c8b9418e013059f61c1d63"),
    ("parse-check", "--family", "edge_family", "structured", 0, None,
     "eac7cffc5212690ef6d077f187857c9a655413a0904549e0d0d824ded84b6726"),
]


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

    @pytest.mark.parametrize("argv,expected", [
        (["2*t^-1 + 3 + O(t^3)"], '{"p":null,"residue":"2","ring":null}\n'),
        (["--ring", "robba", "--p", "3", "--abs-prec", "6",
          "2*u^-1 + 3 + O(u^3)"],
         '{"p":3,"residue":"3^0*2 (mod 3^6)","ring":"robba"}\n'),
    ], ids=["rational", "p-adic"])
    def test_residue_structured(self, cli, argv, expected):
        code, out, err = cli(["residue", "--format", "structured"] + argv)
        assert (code, out, err) == (0, expected, "")

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

    @pytest.mark.parametrize("argv,message", [
        (["log", "--trunc", "abc", "1 + O(t^3)"],
         "argument --trunc: 'abc' is not an integer"),
        (["plog", "--p", "abc", "1 + O(u^3)"],
         "argument --p: 'abc' is not an integer"),
        (["dlog", "--abs-prec", "5", "1 + t + O(t^3)"],
         "ring formal takes no --abs-prec"),
        (["residue", "--abs-prec", "5", "t^-1 + O(t^3)"],
         "--abs-prec needs --p and a p-adic --ring"),
        (["plog", "--p", "0", "1 + O(u^3)"],
         "argument --p: prime must be >= 2, got 0"),
        (["plog", "--p", "3", "--abs-prec", "0", "1 + O(u^3)"],
         "argument --abs-prec: must be at least 1"),
        (["plog", "--p", "3", "--abs-prec", "2.5", "1 + O(u^3)"],
         "argument --abs-prec: '2.5' is not an integer"),
    ], ids=["trunc-not-integer", "prime-not-integer", "formal-abs-prec",
            "rational-residue-abs-prec", "prime-zero", "abs-prec-zero",
            "abs-prec-not-integer"])
    def test_usage_refusal_is_2(self, cli, argv, message):
        code, out, err = cli(argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")

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
        # the constant term is shown and vanishes, as over every ring
        assert json.loads(err)["error"] == "non-unit"

    # The degree-k coefficient of log(a + t) is (-1)^(k+1)/(k*a^k): at a of
    # 30 digits it passes Python's 4,300-digit limit at degree 148.  Two
    # residues over coprime 3,000-digit denominators sum to one over their
    # 6,000-digit product.
    @pytest.mark.parametrize("argv,degree", [
        (["log", "123456789012345678901234567890 + t + O(t^200)"], 148),
        (["residue", f"1/1{'0' * 2999}1*t^-1 + 1/1{'0' * 2999}3*t^-1 "
          "+ O(t^0)"], -1),
    ], ids=["log", "residue"])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_unprintable_coefficient_is_1(self, cli, argv, degree, fmt):
        code, out, err = cli(argv[:1] + ["--format", fmt] + argv[1:])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "invalid-input",
            "message": f"the coefficient of degree {degree} has more than "
                       "4300 digits and cannot be printed"}


class TestParseErrors:
    @pytest.mark.parametrize("argv,message", [
        (["log", "1 - t"], "missing O(...) marker (at column 6)"),
        (["log", "1/0 + O(t^3)"], "zero denominator (at column 3)"),
        (["plog", "--p", "3", "1 + O(u^2)   junk"],
         "unexpected input after the O(...) marker (at column 14)"),
        (["dlog", "- O(t^2)"],
         "the O(...) marker follows '+', not '-' (at column 3)"),
        (["parse-check", "O(t)"], "expected '^' (at column 4)"),
        (["residue", "u^-1 + O(u^1, x^2)"],
         "a one-variable series takes a one-variable marker (at column 10)"),
        (["parse-check", "   1 + + O(t^2)"], "expected a term (at column 8)"),
        (["plog", "--p", "3", "1 + O(t^2)"],
         "ring gamma+ uses the variable 'u', not 't' (at column 7)"),
    ])
    def test_stderr_bytes(self, cli, argv, message):
        code, out, err = cli(argv)
        assert code == 2 and out == ""
        assert err == ('{"error":"parse-error","message":'
                       + json.dumps(message) + "}\n")


class TestJsonReaderLimits:
    """A document the JSON reader cannot take, nested past the
    interpreter's recursion limit or holding an integer of more digits
    than Python reads, is a parse-error like any other unreadable document,
    and its message writes out no part of the value."""

    @pytest.mark.parametrize("argv", [["invariant", "--file", "-"],
                                      ["integrate", "--family", "-",
                                       "--section", "1 + t + O(t^3)"]])
    @pytest.mark.parametrize("doc,message", [
        ("[" * 100000 + "]" * 100000, "invalid JSON: nested too deeply"),
        ('{"p": 1' + "0" * 5000 + "}",
         "invalid JSON: a number has more than 4300 digits"),
    ], ids=["nested", "digits"])
    def test_refused_as_parse_error(self, cli, argv, doc, message):
        code, out, err = cli(argv, stdin=doc)
        assert code == 2 and out == ""
        assert err == ('{"error":"parse-error","message":'
                       + json.dumps(message) + "}\n")


def fresh_process(argv, timeout=60):
    """(exit status, stdout, stderr) of one command in a new interpreter."""
    r = subprocess.run([sys.executable, "-m", "lineint.cli", *argv],
                       capture_output=True, text=True,
                       env=checkout_env(COLUMNS="80"), timeout=timeout)
    return r.returncode, r.stdout, r.stderr


class TestSharedParser:
    """main reuses one parser; no call may see what an earlier one parsed."""

    @pytest.mark.parametrize("calls", [
        [["plog", "--p", "3", "--trunc", "4", "1 - u + O(u^9)"],
         ["plog", "--p", "3", "1 - u + O(u^9)"]],
        [["dlog", "--ring", "gamma+", "--p", "3", "1 - u + O(u^5)"],
         ["dlog", "1 - t + O(t^5)"]],
        [["plog", "--p", "4", "1 + O(u^3)"], ["--help"], ["plog", "--help"]],
    ])
    def test_calls_in_a_row_match_fresh_processes(self, cli, monkeypatch,
                                                  calls):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in calls:
            assert cli(argv) == fresh_process(argv)


class TestPrecisionBound:
    @pytest.mark.parametrize("p,abs_prec", [(3, 10000), (2, 100000000)])
    def test_oversized_abs_prec_refused_at_once(self, p, abs_prec):
        code, out, err = fresh_process(
            ["plog", "--p", str(p), "--abs-prec", str(abs_prec),
             "1 - u + O(u^9)"], timeout=1)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "invalid-input"

    @pytest.mark.parametrize("argv,doc", [
        (["trivialize", "--file", "-"], DAGGER_CONNECTION),
        (["curvature", "--family", "-"], DAGGER_FAMILY),
    ])
    def test_oversized_document_abs_prec_refused(self, cli, argv, doc):
        doc = dict(json.loads(doc), abs_prec=5000)
        code, out, err = cli(argv, stdin=json.dumps(doc))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "invalid-input"

    @pytest.mark.parametrize("p,largest", [(2, 4096), (3, 2584)])
    def test_largest_abs_prec_answers(self, cli, p, largest):
        def plog(abs_prec):
            return cli(["plog", "--p", str(p), "--abs-prec", str(abs_prec),
                        "1 - u + O(u^9)"])

        code, out, err = plog(largest)
        assert code == 0 and out.endswith(" + O(u^9)\n")
        code, out, err = plog(largest + 1)
        assert code == 1
        assert json.loads(err)["error"] == "invalid-input"

    def test_text_is_scanned_before_the_bound(self, cli):
        code, out, err = cli(["plog", "--p", "3", "--abs-prec", "2585",
                              "1 + + O(u^2)"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "parse-error"


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
            capture_output=True, text=True, env=checkout_env())
        assert r.returncode == 0
        assert r.stdout == GOLDEN_LOG

    def test_module_invocation_error_path(self):
        r = subprocess.run(
            [sys.executable, "-m", "lineint.cli", "log", "t + O(t^2)"],
            capture_output=True, text=True, env=checkout_env())
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"] == "non-unit"

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_closing_stdout_exits_quietly(self, unbuffered):
        # The output is larger than a pipe buffer, so the writer still has
        # bytes left when the reader goes away, whatever the timing.
        expr = " + ".join(f"t^{d}" for d in range(12000)) + " + O(t^12000)"
        env = checkout_env(PYTHONUNBUFFERED=unbuffered)
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


class TestWorkloadPins:
    def test_every_workload_is_pinned(self):
        assert sorted(WORKLOAD_PINS) == sorted(workloads.WORKLOADS)
        assert sorted(WORKLOAD_SEED_PINS) == sorted(workloads.WORKLOADS)

    @pytest.mark.parametrize("name,digest", sorted(WORKLOAD_PINS.items()))
    def test_stdout_bytes(self, cli, name, digest):
        job = workloads.WORKLOADS[name].make_small(
            random.Random(f"output-pin/{name}"))
        assert "structured" in job.argv
        code, out, err = cli(list(job.argv), stdin=job.stdin)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name,digest",
                             sorted(WORKLOAD_SEED_PINS.items()))
    def test_forty_seeds(self, cli, name, digest):
        workload, h = workloads.WORKLOADS[name], hashlib.sha256()
        for seed in range(40):
            for make in (workload.make, workload.make_small):
                job = make(random.Random(seed))
                code, out, err = cli(list(job.argv), stdin=job.stdin)
                h.update(f"{code}\0{out}\0{err}\0".encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("maker,size,trunc,digest",
                             [(*k, d) for k, d in LARGER_JOB_PINS.items()])
    def test_ten_seeds_past_the_timed_size(self, cli, maker, size, trunc,
                                           digest):
        make, h = getattr(workloads, maker), hashlib.sha256()
        for seed in range(10):
            job = make(random.Random(seed), size, trunc)
            code, out, err = cli(list(job.argv), stdin=job.stdin)
            h.update(f"{code}\0{out}\0{err}\0".encode())
        assert h.hexdigest() == digest


# p-adic dlog windows, printed structured: (ring, p, abs_prec, series,
# sha256 of stdout).  A gamma window from u^-2 whose derivative has the
# exact zero at degree -1 and two negative multipliers, a robba window with
# 1/3 and 1/9, a robba+ window with the non-unit constant term 3 and an e+
# window at p = 2.  The digests were taken from derive(a) * inverse(a).
PINNED_DLOG = [
    ("gamma", 3, 9, "u^-2 + 2*u^-1 - 5 + 7*u + 4*u^3 - u^4 + O(u^6)",
     "e374be581e2eb39d0dacff7a07537f9ddd9d0127f8c08320c9995831fcaa3270"),
    ("robba", 3, 8, "u^-1 + 1/3 + 2*u - 1/9*u^2 + 5*u^4 + O(u^6)",
     "4f13a9f2d53212a2fe02b2db6a4e4df113d4bdf20878b2c61eb9689fa287f973"),
    ("robba+", 3, 10, "3 + u - 4*u^2 + 9*u^3 + u^5 + O(u^7)",
     "dafed1d9510504e211adffc420df3ec59b0a51e3cdf6538de38e66cefb63d212"),
    ("e+", 2, 12, "1 + 1/2*u + 3*u^2 - 1/4*u^3 + 6*u^5 + O(u^8)",
     "d4572fd7f87f06ee333b4af5ae5835a46bc177d32082c339334e1bf6cc841dc3"),
]


class TestPinnedDocuments:
    @pytest.mark.parametrize("command,flag,doc,fmt,status,error,digest",
                             PINNED_DOCUMENTS)
    def test_stdout_bytes(self, cli, command, flag, doc, fmt, status, error,
                          digest):
        stdin = EDGE_DOCUMENTS.get(doc)
        argv = [command, flag,
                "-" if stdin is not None else str(DEMO_DATA / f"{doc}.json"),
                "--format", fmt]
        if command == "integrate":
            argv += ["--section", SECTIONS[doc]]
        code, out, err = cli(argv, stdin=stdin)
        assert code == status
        assert (json.loads(err)["error"] if err else None) == error
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("ring,p,prec,series,digest", PINNED_DLOG)
    def test_padic_dlog_bytes(self, cli, ring, p, prec, series, digest):
        code, out, err = cli(["dlog", "--ring", ring, "--p", str(p),
                              "--abs-prec", str(prec), "--format",
                              "structured", series])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_echo_keeps_document_precision(self, cli, fmt):
        code, out, err = cli(["parse-check", "--file", "-", "--format", fmt],
                             stdin=EDGE_CONNECTION)
        assert code == 0
        assert json.loads(out)["abs_prec"] == 7

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_family_echo_rereads_to_itself(self, cli, fmt):
        argv = ["parse-check", "--family", "-", "--format", fmt]
        code, out, err = cli(argv, stdin=EDGE_FAMILY)
        assert (code, err) == (0, "")
        assert cli(argv, stdin=out) == (0, out, "")


def one_entry_family(ring, du):
    return json.dumps({
        "signature": [1, 1], "ring": ring, "p": 3, "abs_prec": 20,
        "trunc": 3, "trunc_x": 3,
        "connection": [["0", {"du": du, "dx": "0"}], ["0", "0"]]})


class TestProvenPrecision:
    """At --abs-prec 5 the section 1 + 243*u is 1 + 0 (mod 3^5) u, so
    x := v - 1 is a zero known mod 3^5 only, and the x term of du must cap
    the pulled-back entry there (mod 3^4 with its 1/3)."""

    @pytest.mark.parametrize("ring,du,prec", [
        ("gamma+", "1 + x + O(u^3, x^3)", 5),
        ("e+", "1 + 1/3*x + O(u^3, x^3)", 4),
    ])
    def test_integrate_claims_only_the_proven_precision(self, cli, ring, du,
                                                        prec):
        code, out, err = cli(
            ["integrate", "--family", "-", "--section", "1 + 243*u + O(u^3)",
             "--abs-prec", "5", "--format", "structured"],
            stdin=one_entry_family(ring, du))
        assert (code, err) == (0, "")
        entry = json.loads(out)["entries"][0][1]
        assert entry["window"] == [1, 3]
        assert entry["coeffs"] == [f"3^0*1 (mod 3^{prec})",
                                   f"0 (mod 3^{prec})"]


class TestRationalModeFlags:
    """A rational ring has no prime and so no p-adic precision: documents
    and flags that state one are refused like --p and --abs-prec."""

    @pytest.mark.parametrize("flag,doc", [("--file", LOG_CONNECTION),
                                          ("--family", FORMAL_FAMILY)],
                             ids=["connection", "family"])
    @pytest.mark.parametrize("abs_prec", ["junk", 7])
    def test_document_abs_prec_refused(self, cli, flag, doc, abs_prec):
        doc = json.loads(doc)
        doc["abs_prec"] = abs_prec
        code, out, err = cli(["parse-check", flag, "-"],
                             stdin=json.dumps(doc))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "parse-error"

    @pytest.mark.parametrize("flag,doc", [("--file", LOG_CONNECTION),
                                          ("--family", FORMAL_FAMILY)],
                             ids=["connection", "family"])
    def test_echo_with_null_abs_prec_rereads(self, cli, flag, doc):
        argv = ["parse-check", flag, "-"]
        code, out, err = cli(argv, stdin=doc)
        assert (code, err) == (0, "")
        assert json.loads(out)["abs_prec"] is None
        assert cli(argv, stdin=out) == (0, out, "")

    def test_integrate_refuses_p_as_every_command_does(self, cli):
        code, out, err = cli(["integrate", "--family", "-", "--section",
                              "1 + t + O(t^5)", "--p", "3"],
                             stdin=FORMAL_FAMILY)
        assert (code, out) == (2, "")
        assert err == "lineint: error: ring formal takes no --p\n"


# bench/workloads.py chain_family(2, 7): the entry dx/(1+x) at p = 3.
CHAIN_FAMILY = json.dumps({
    "signature": [1, 1], "ring": "gamma+", "p": 3, "abs_prec": 20,
    "trunc": 7, "trunc_x": 7,
    "connection": [
        ["0", {"du": "0",
               "dx": geometric_alternating("x", 7) + " + O(u^7, x^7)"}],
        ["0", "0"]],
})


class TestSectionOutsideTheDisk:
    """A section v with v(0) != 1 sends x to w = v - 1 of order 0, where
    every unknown x-degree of the family reaches every u-degree: the value
    is not determined by the O(u^7, x^7) window, so it is refused."""

    @pytest.mark.parametrize("section", ["4 + u + O(u^7)",
                                         "2 + u + O(u^7)"])
    def test_integrate_refuses(self, cli, section):
        code, out, err = cli(["integrate", "--family", "-", "--section",
                              section], stdin=CHAIN_FAMILY)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "insufficient-window"


def bounded_document(doc, **fields):
    return json.dumps(dict(json.loads(doc), **fields))


class TestDegreeBound:
    """Every degree and window end read from input has absolute value at
    most 2^16; one beyond it is invalid-input before a window is built."""

    @pytest.mark.parametrize("argv,stdin", [
        (["parse-check", "1 + O(t^65537)"], None),
        (["parse-check", "--ring", "e", "--p", "3", "O(u^-65537)"], None),
        (["parse-check", "1 + t^65537 + O(t^3)"], None),
        (["parse-check", "--ring", "e", "--p", "3", "u^-65537 + O(u^1)"],
         None),
        (["residue", "t^-65537 + O(t^0)"], None),
        (["parse-check", "--family", "-"], bounded_document(
            FORMAL_FAMILY, connection=[["0", {"du": "1 + O(t^65537, x^5)"}],
                                       ["0", "0"]])),
        (["parse-check", "--family", "-"], bounded_document(
            FORMAL_FAMILY, connection=[["0", {"du": "1 + O(t^5, x^65537)"}],
                                       ["0", "0"]])),
        (["parse-check", "--family", "-"], bounded_document(
            FORMAL_FAMILY, connection=[["0", {"du": "x^65537 + O(t^5, x^5)"}],
                                       ["0", "0"]])),
        (["parse-check", "--file", "-"],
         bounded_document(LOG_CONNECTION, trunc=65537)),
        (["parse-check", "--family", "-"],
         bounded_document(FORMAL_FAMILY, trunc=65537)),
        (["parse-check", "--family", "-"],
         bounded_document(FORMAL_FAMILY, trunc_x=65537)),
        (["log", "--trunc", "65537", "1 - t + O(t^5)"], None),
        (["plog", "--p", "3", "--trunc", "65537", "1 - u + O(u^5)"], None),
        (["fundsol", "--file", "-", "--trunc", "65537"], LOG_CONNECTION),
        (["trivialize", "--file", "-", "--trunc", "65537"], LOG_CONNECTION),
        (["invariant", "--file", "-", "--trunc", "65537"], LOG_CONNECTION),
    ], ids=["marker", "negative-marker", "term", "negative-term", "residue",
            "two-variable-u-end", "two-variable-x-end", "two-variable-term",
            "connection-trunc", "family-trunc", "family-trunc_x",
            "log-trunc", "plog-trunc", "fundsol-trunc", "trivialize-trunc",
            "invariant-trunc"])
    def test_beyond_the_bound_refused(self, cli, argv, stdin):
        code, out, err = cli(argv, stdin=stdin)
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert payload["message"].endswith(
            "65537 exceeds the bound |n| <= 65536")

    def test_window_at_the_bound_answers(self, cli):
        code, out, err = cli(["parse-check", "--ring", "e", "--p", "3",
                              "u^-65536 + O(u^-65535)"])
        assert (code, err) == (0, "")
        assert out == "u^-65536 + O(u^-65535)\n"


def zero_document(doc, n):
    """doc with an n by n connection of "0" entries and n blocks of one."""
    return bounded_document(doc, signature=[1] * n,
                            connection=[["0"] * n for _ in range(n)])


class TestMatrixSizeBound:
    """A matrix document has at most MATRIX_SIZE_LIMIT rows; one more is
    invalid-input before any entry is read."""

    @pytest.mark.parametrize("flag,doc", [("--file", LOG_CONNECTION),
                                          ("--family", FORMAL_FAMILY)],
                             ids=["connection", "family"])
    def test_beyond_the_bound_refused(self, cli, flag, doc):
        n = MATRIX_SIZE_LIMIT + 1
        code, out, err = cli(["parse-check", flag, "-"],
                             stdin=zero_document(doc, n))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "invalid-input",
            "message": f"field 'connection' has {n} rows, more than the "
                       f"bound {MATRIX_SIZE_LIMIT}"}

    @pytest.mark.parametrize("flag,doc", [("--file", LOG_CONNECTION),
                                          ("--family", FORMAL_FAMILY)],
                             ids=["connection", "family"])
    def test_at_the_bound_answers(self, cli, flag, doc):
        code, out, err = cli(["parse-check", flag, "-"],
                             stdin=zero_document(doc, MATRIX_SIZE_LIMIT))
        assert (code, err) == (0, "")
        assert len(json.loads(out)["connection"]) == MATRIX_SIZE_LIMIT
