"""The library's text states contracts: every public module-level name has a
docstring, and no docstring or comment carries a timing, which belongs in
the README's Performance table with its source."""

import ast
import io
import pathlib
import re
import tokenize

import pytest

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "soarqep")
                 .glob("*.py"))
# a wall-clock reading or the record of one: "26.0 ms", "medians of 15",
# "one thread of a 2-core VM"
TIMING = re.compile(r"\b[0-9]+(\.[0-9]+)? ?ms\b|medians? of|2-core")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_public_names_have_docstrings(path):
    tree = ast.parse(path.read_text())
    missing = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")
               and ast.get_docstring(node) is None]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_timings_in_docstrings_or_comments(path):
    text = path.read_text()
    found = [(tok.start[0], tok.string)
             for tok in tokenize.generate_tokens(io.StringIO(text).readline)
             if tok.type == tokenize.COMMENT and TIMING.search(tok.string)]
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc and TIMING.search(doc):
                found.append((getattr(node, "lineno", 1), doc))
    assert found == []
