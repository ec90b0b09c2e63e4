"""The exact bits of em_composite on x^-s and exp, pinned.

tests/data/em_pins.json holds the mpf (man, exp) of `main_sum`, `remainder`,
`remainder_bound` and `total` for 33 cells of the quad-fourier grid at 256
bits: power:3/2, power:2 and power:3 on (1,2), (1,4) and (2,5), and exp on
(0,1) and (-1,1), three cells each, which between them take every n_sub and
every (m, r) pair. A change that is meant to keep the bits must pass as it
stands; a change that means to move them regenerates the file in its own
commit:

    PYTHONPATH=src python tests/test_em_pins.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from gbzeta.quadrature import em_composite, exp_stack
from gbzeta.series import PowerFunction

PINS = Path(__file__).parent / "data" / "em_pins.json"
PREC = 256

FUNCTIONS = ([(f"power:{s}", ab) for s in ("3/2", "2", "3") for ab in ((1, 2), (1, 4), (2, 5))]
             + [("exp", ab) for ab in ((0, 1), (-1, 1))])
NSUB = (1, 2, 4, 8, 16)
MR = ((1, 2), (2, 2), (2, 6), (3, 3), (5, 4), (3, 6))


def _cells():
    # 5 and 6 are coprime, so the 33 consecutive (n_sub, (m, r)) draws take
    # 30 distinct pairs
    return [(f, a, b, NSUB[j % len(NSUB)], *MR[j % len(MR)])
            for i, (f, (a, b)) in enumerate(FUNCTIONS) for j in range(3 * i, 3 * i + 3)]


def _stack(f):
    return exp_stack(PREC) if f == "exp" else PowerFunction(Fraction(f.split(":", 1)[1]), PREC)


def _pin(f, a, b, n_sub, m, r):
    rep = em_composite(_stack(f), a, b, n_sub, m, r, PREC)
    return {"f": f, "a": a, "b": b, "n_sub": n_sub, "m": m, "r": r,
            **{k: list(getattr(rep, k).man_exp)
               for k in ("main_sum", "remainder", "remainder_bound", "total")}}


def _load():
    return json.loads(PINS.read_text()) if PINS.exists() else []


@pytest.mark.parametrize("pin", _load(),
                         ids=lambda c: "{f}-{a}-{b}-n{n_sub}-m{m}-r{r}".format(**c))
def test_em_composite_bits_are_pinned(pin):
    got = _pin(pin["f"], pin["a"], pin["b"], pin["n_sub"], pin["m"], pin["r"])
    assert got == pin


def test_em_pins_cover_the_grid():
    cells = _cells()
    assert len(_load()) == len(cells) == 33
    assert {c[3] for c in cells} == set(NSUB)
    assert {c[4:] for c in cells} == set(MR)
    assert len({c[3:] for c in cells}) == 30


if __name__ == "__main__":
    # one cell per line
    PINS.write_text("[\n" + ",\n".join(json.dumps(_pin(*c)) for c in _cells()) + "\n]\n")
