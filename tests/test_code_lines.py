"""tools/code_lines.py: which lines count as code, and its exit codes."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def _count(tmp_path, source):
    path = tmp_path / "sample.py"
    path.write_text(source)
    return code_lines.code_lines(path)


def test_comments_and_blank_lines_do_not_count(tmp_path):
    source = ("# a comment\n"
              "\n"
              "x = 1  # a trailing comment\n"
              "    \n"
              "if x:\n"
              "    # an indented comment\n"
              "\n"
              "    y = 2\n")
    assert _count(tmp_path, source) == 3


def test_docstrings_and_string_statements_do_not_count(tmp_path):
    source = ('"""Module docstring,\n'
              'on two lines."""\n'
              "\n"
              "\n"
              "def f():\n"
              '    """Function docstring."""\n'
              "    'a statement made only of a string'\n"
              '    "two" "literals"\n'
              "    return 1\n")
    assert _count(tmp_path, source) == 2


def test_a_multi_line_string_argument_counts_on_each_line(tmp_path):
    source = ("print('''one\n"
              "two\n"
              "three''')\n")
    assert _count(tmp_path, source) == 3
    # a string that is a whole statement counts on none of its lines
    assert _count(tmp_path, "'''one\ntwo\nthree'''\n") == 0


def test_an_f_string_counts(tmp_path):
    # one STRING token before Python 3.12, FSTRING_* tokens after
    assert _count(tmp_path, "x = 1\ny = f'{x}'\n") == 2
    # and on each line it spans
    assert _count(tmp_path, "x = 1\nprint(f'''{x}\n{x + 1}''')\n") == 3


def test_main_counts_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("# only a comment\ny = 2\nz = 3\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["1", "a.py"], ["2", "sub/b.py"],
                                                ["3", "total"]]


@pytest.mark.parametrize("make", [lambda d: [str(d / "missing")], lambda d: [str(TOOL)],
                                  lambda d: [], lambda d: [str(d), str(d)]])
def test_main_exits_2_without_one_directory(make, tmp_path, capsys):
    assert code_lines.main(make(tmp_path)) == 2
    assert "usage" in capsys.readouterr().err


def test_the_script_exits_2_on_a_file():
    proc = subprocess.run([sys.executable, str(TOOL), str(TOOL)], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
