"""Every one-leg code of at most three crossings, against the independent
references: the skein oracle, the bracket as the arrow's coefficient sum,
and the closed parity bracket as that of the virtual closure."""

from knotoids.arrow import arrow_polynomial
from knotoids.bracket import bracket, bracket_oracle
from knotoids.closures import virtual_closure
from knotoids.parity_bracket import parity_bracket
from helpers import all_codes


def test_every_code_of_at_most_three_crossings():
    seen = 0
    for n in range(4):
        for code in all_codes(n):
            value = bracket(code)
            assert value == bracket_oracle(code), code
            assert arrow_polynomial(code).coefficient_sum() == value, code
            assert parity_bracket(code, closed=True) == parity_bracket(virtual_closure(code)), code
            seen += 1
    assert seen == 1 + 4 + 48 + 960
