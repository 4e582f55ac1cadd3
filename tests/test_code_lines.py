import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines_module)
code_lines = code_lines_module.code_lines


@pytest.mark.parametrize("source, expected", [
    # docstrings of a module, a class and a function, one over two lines
    ('"""Module."""\nclass A:\n    """A."""\n    def f(self):\n'
     '        """F,\n        over two lines."""\n        return 1\n', 3),
    # comments and blank lines
    ("# a comment\n\nx = 1  # trailing\n\n\n# another\n", 1),
    # a statement split over lines counts each of them
    ("x = (1,\n     2,\n     3)\n", 3),
    # a string that is no docstring is code, on every line it spans
    ('x = """a\nb"""\ndef f():\n    y = 1\n    """not first"""\n', 5),
    # code that shares a line with a docstring counts
    ('def f(): """d"""\n', 1),
    ('class A:\n    """d"""; y = 2\n', 2),
    # an implicitly concatenated docstring, after non-ASCII code
    ('x = "é"; """no"""\ndef f():\n    "é" """a\nb"""\n    return 1\n', 3),
], ids=["docstrings", "comments-and-blank-lines", "split-statement",
        "string-not-docstring", "def-and-docstring", "docstring-and-code",
        "concatenated-docstring"])
def test_code_lines_counts_lines_with_code_outside_docstrings(source,
                                                              expected):
    assert code_lines(source) == expected
