"""The README's examples run as written.

The Python quick start prints what its ``# ...`` lines say, and the two
JSON documents of the Documents section load through the readers.
"""

import json
import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from lineint.parsing import load_connection, load_family

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(language):
    """The fenced code blocks of the README in the given language."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README,
                      re.MULTILINE | re.DOTALL)


def test_quick_start_prints_its_comments():
    code, = blocks("python")
    expected = [line[2:] for line in code.splitlines()
                if line.startswith("# ")]
    out = StringIO()
    with redirect_stdout(out):
        exec(code, {})
    assert expected and out.getvalue().splitlines() == expected


def test_documents_load():
    connection, family = map(json.loads, blocks("json"))
    module, trunc = load_connection(connection)
    assert (module.signature.parts, trunc) == ((1, 1), 8)
    family, trunc, trunc_x, fiber_var = load_family(family)
    assert (family.signature.parts, trunc, trunc_x, fiber_var) \
        == ((1, 1), 9, 9, "x")
