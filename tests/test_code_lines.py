import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def f(x):
    """Docstring."""
    text = """a string that is
# not a comment"""
    return math.cos(
        x
    ) + len(text)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # code: the import, the def, the assignment over 2 lines and the return
    # over 3
    assert _tool().count_lines(SOURCE) == (15, 7)


def test_code_lines_sum_the_python_files_of_a_tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert _tool().count_tree(tmp_path) == (17, 8)
