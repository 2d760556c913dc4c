"""The code-size counter of `tools/code_size.py`: docstrings, comments and
blank lines are left out, every other line that holds code counts."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("code_size", ROOT / "tools" / "code_size.py")
code_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_size)

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts as code


# a comment on its own line
def f(x):
    """Function docstring."""
    text = """a string that is
not a docstring"""
    return (x +
            math.pi)


class C:
    """Class docstring."""

    value = 1
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    # import, def, the two lines of text, the two of the return, class, value
    assert code_size.code_lines(path) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(SAMPLE, encoding="utf-8")
    assert code_size.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[1] for line in lines] == ["8", "8", "16"]
    assert lines[-1].startswith("total")


def test_main_counts_a_single_file(tmp_path, capsys):
    path = tmp_path / "a.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert code_size.main([str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{path}\t8", "total\t8"]
