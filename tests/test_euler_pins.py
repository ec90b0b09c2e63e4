"""The exact bits of euler_constant on x^-s, pinned.

tests/data/euler_pins.json holds the mpf (man, exp) of the value of
gamma(x^-s) for 20 cells: the five (s, m, r) triples of
test_estimate_pins.py, and s = 1 at each of their (m, r), at 256 and 1024
bits. A change that is meant to keep the bits must pass as it stands; a
change that means to move them regenerates the file in its own commit:

    PYTHONPATH=src python tests/test_euler_pins.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from gbzeta.series import PowerFunction, euler_constant

PINS = Path(__file__).parent / "data" / "euler_pins.json"

TRIPLES = [(Fraction(3), 5, 2), (Fraction(3, 2), 2, 3), (Fraction(10001, 10000), 3, 6),
           (Fraction(21), 2, 6), (Fraction(5), 1, 6)]


def _cells():
    return [(s, m, r, prec) for prec in (256, 1024)
            for s, m, r in TRIPLES + [(Fraction(1), m, r) for _, m, r in TRIPLES]]


def _pin(s, m, r, prec):
    value = euler_constant(PowerFunction(s, prec), m, r, prec).value
    return {"s": str(s), "m": m, "r": r, "prec": prec, "value": list(value.man_exp)}


def _load():
    return json.loads(PINS.read_text()) if PINS.exists() else []


@pytest.mark.parametrize("pin", _load(), ids=lambda c: "s{s}-m{m}-r{r}-{prec}".format(**c))
def test_euler_bits_are_pinned(pin):
    got = _pin(Fraction(pin["s"]), pin["m"], pin["r"], pin["prec"])
    assert got == pin


def test_pins_cover_the_grid():
    assert len(_load()) == len(_cells()) == 20


if __name__ == "__main__":
    # one cell per line
    PINS.write_text("[\n" + ",\n".join(json.dumps(_pin(*c)) for c in _cells()) + "\n]\n")
