"""The exact bits of estimate_series on x^-s, pinned.

tests/data/estimate_pins.json holds the mpf (man, exp) of `value` and
`error_bound`, and of the value and bound of the standalone `rho_tail` and
`delta_tail` at p, for 50 cells: five (s, m, r) triples, s = 10001/10000 and
s = 21 among them, at p in {1, 2, 10, 100} and 256 and 1024 bits; three
fractional s at p in {1, 2, 100} and 2048 bits; and (3/2, 5, 6, 100) at
4096 bits, whose near blocks run to the cut at j = 4096. A change
that is meant to keep the bits must pass as it stands; a change that means
to move them regenerates the file in its own commit:

    PYTHONPATH=src python tests/test_estimate_pins.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from gbzeta.series import PowerFunction, delta_tail, estimate_series, rho_tail

PINS = Path(__file__).parent / "data" / "estimate_pins.json"

TRIPLES = [(Fraction(3), 5, 2), (Fraction(3, 2), 2, 3), (Fraction(10001, 10000), 3, 6),
           (Fraction(21), 2, 6), (Fraction(5), 1, 6)]
FRACTIONAL = [(Fraction(3, 2), 2, 3), (Fraction(5, 3), 5, 6), (Fraction(10001, 10000), 3, 6)]


def _cells():
    return ([(s, m, r, p, prec) for prec in (256, 1024) for s, m, r in TRIPLES
             for p in (1, 2, 10, 100)]
            + [(s, m, r, p, 2048) for s, m, r in FRACTIONAL for p in (1, 2, 100)]
            + [(Fraction(3, 2), 5, 6, 100, 4096)])


def _pin(s, m, r, p, prec):
    pf = PowerFunction(s, prec)
    est = estimate_series(pf, m, r, p, prec)
    pin = {"s": str(s), "m": m, "r": r, "p": p, "prec": prec,
           "value": list(est.value.man_exp), "error_bound": list(est.error_bound.man_exp)}
    for name, tail in (("rho_tail", rho_tail), ("delta_tail", delta_tail)):
        cv = tail(pf, m, r, p, None, prec)
        pin[name] = [list(cv.value.man_exp), list(cv.bound.man_exp)]
    return pin


def _load():
    return json.loads(PINS.read_text()) if PINS.exists() else []


@pytest.mark.parametrize("pin", _load(), ids=lambda c: "s{s}-m{m}-r{r}-p{p}-{prec}".format(**c))
def test_estimate_bits_are_pinned(pin):
    got = _pin(Fraction(pin["s"]), pin["m"], pin["r"], pin["p"], pin["prec"])
    assert got == pin


def test_pins_cover_the_grid():
    assert len(_load()) == len(_cells()) == 50


if __name__ == "__main__":
    # one cell per line
    PINS.write_text("[\n" + ",\n".join(json.dumps(_pin(*c)) for c in _cells()) + "\n]\n")
