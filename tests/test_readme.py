"""The README's examples run as written.

The Python quick start prints what its ``# ...`` lines say, the two JSON
documents of the Documents section load through the readers, and every
private name the README cites is defined in the package.
"""

import json
import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from lineint.parsing import load_connection, load_family

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PACKAGE = ROOT / "src" / "lineint"


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


def test_cited_private_names_are_defined():
    """A backticked name with one leading underscore, `_name` or
    `module._name`, is a def, class or assignment in that module, or in
    some module of the package when none is named."""
    cited = set(re.findall(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)", README))
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    missing = []
    for module, name in sorted(cited):
        defined = re.compile(rf"^\s*(?:(?:def|class)\s+{name}\b|{name}\s*=)",
                             re.MULTILINE)
        texts = [sources[module]] if module in sources else sources.values()
        if not any(defined.search(text) for text in texts):
            missing.append(f"{module}.{name}" if module else name)
    assert cited and missing == []


def test_ci_sentence_names_the_workflow_versions():
    """The README's sentence on CI names exactly the range of Python
    versions that .github/workflows/tier1.yml runs, a run of consecutive
    minor versions."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    listed, = re.findall(r"^\s*python-version:\s*\[([^\]]*)\]", workflow,
                         re.MULTILINE)
    versions = re.findall(r'"(\d+)\.(\d+)"', listed)
    majors = {major for major, _ in versions}
    minors = [int(minor) for _, minor in versions]
    assert len(majors) == 1 and minors == list(
        range(minors[0], minors[-1] + 1))
    major, = majors
    sentence = re.search(r"`\.github/workflows/tier1\.yml`\s+runs it on\s+"
                         r"Python\s+(\S+?),", README)
    assert sentence and sentence.group(1) == \
        f"{major}.{minors[0]}–{major}.{minors[-1]}"
