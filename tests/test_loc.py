"""tools/loc.py: the code-line counter quoted for src/brickkit's size."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Shape:
    """A class docstring."""

    sides = 3


def call(path):
    """A function docstring,

    with a blank line inside it.
    """
    text = """a string literal
that is not a docstring"""
    return os.path.join(
        path,  # one argument per line
        text,
    )
'''


def test_counts_code_but_not_docstrings_comments_or_blank_lines():
    # import; class, sides; def, the two-line literal, return and its three lines.
    assert loc.code_lines(SOURCE) == 1 + 2 + 1 + 2 + 4


def test_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "10", "b.py", "1", "total", "11"]
