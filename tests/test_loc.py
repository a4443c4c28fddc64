"""tools/loc.py, the code-line counter."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

SOURCE = '''"""A module docstring,
on two lines."""

import math  # a trailing comment: the line holds code

# a comment line
TEXT = """a string that is
not a docstring"""


class C:
    """A class docstring."""

    def f(self, x):
        """A method docstring,

        with a blank line."""
        return math.fsum([
            x,

            x * 2,
        ])
'''


def test_counts_lines_that_hold_code():
    # import, the two lines of TEXT, class, def, return, x, x * 2 and the
    # closing bracket
    assert loc.code_lines(SOURCE) == 9


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["9", "a.py"], ["1", "pkg/b.py"], ["10", "total"]]
