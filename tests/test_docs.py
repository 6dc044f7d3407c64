"""The documentation states contracts: the README's example runs, and no
docstring, comment or README line carries a timing figure, which would go
stale as the code or the machine changes (measurements live in CHANGES.md)."""

import ast
import io
import re
import tokenize
import warnings
from pathlib import Path

import pytest

import loweig

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(Path(loweig.__file__).parent.glob("*.py"))

TIMING = re.compile(r"\d(\.\d+)?\s?(ms|us|µs)\b|\d+% (faster|slower)")


def test_readme_quick_tour_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    for code in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def prose(path):
    """``(line, text)`` of each line of a Markdown file, or of each docstring
    and comment of a Python file."""
    text = path.read_text()
    if path.suffix == ".md":
        yield from enumerate(text.splitlines(), 1)
        return
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            yield body[0].lineno, body[0].value.value
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string


@pytest.mark.parametrize("path", [README, *SOURCES], ids=lambda p: p.name)
def test_no_timing_figures(path):
    assert [(i, s) for i, s in prose(path) if TIMING.search(s)] == []
