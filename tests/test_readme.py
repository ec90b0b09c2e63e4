"""The README's Library tour runs as written against the installed API."""

import re
from pathlib import Path

import mpmath as mp

README = Path(__file__).resolve().parent.parent / "README.md"


def _tables_run_on(text: str) -> list[str]:
    # the first line after each Markdown table that is neither blank nor the
    # end of the text; GitHub renders such a line as one more table row
    lines, fenced, out = text.split("\n"), False, []
    for line, after in zip(lines, lines[1:]):
        fenced ^= line.lstrip().startswith("```")
        if (not fenced and line.lstrip().startswith("|") and after.strip()
                and not after.lstrip().startswith("|")):
            out.append(after)
    return out


def _tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs():
    names: dict = {}
    exec(compile(_tour(), "README.md", "exec"), names)
    assert names["gb_numbers"](5, 3) == [120, -20, names["Fraction"](20, 21),
                                         names["Fraction"](5, 21)]
    assert abs(names["est"].value - 1.2020569031595942) <= 1e-15
    g = names["g"]
    assert abs(g.value - 0.5772156649015329) <= 1e-15
    # the estimate's contract: its bound meets its tolerance and holds
    assert g.tol_met
    with mp.workprec(320):
        assert abs(g.value - mp.euler) <= g.error_bound


def test_tables_end_before_the_next_paragraph():
    assert _tables_run_on("| a |\n|---|\n| 1 |\nnext\n") == ["next"]
    assert _tables_run_on("| a |\n|---|\n| 1 |\n\nnext\n| b |") == []
    assert _tables_run_on(README.read_text()) == []
