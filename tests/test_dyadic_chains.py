"""``Dyadic`` results are exact but not reduced until ``.triple`` is read:
chains of operations against ``fractions.Fraction``."""

import operator
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from test_dyadic import _canonical, _fraction, _to_float
from tfqkd.dyadic import Dyadic

_WIDE = st.builds(lambda n, o, e: Fraction(n, o) / Fraction(2) ** e,
                  st.integers(-2 ** 300, 2 ** 300), st.integers(1, 2 ** 300),
                  st.integers(-1100, 1100))
_SMALL = st.builds(lambda n, o, e: Fraction(n, o) / Fraction(2) ** e,
                   st.integers(-50, 50), st.integers(1, 50), st.integers(-8, 8))
_OPERANDS = st.one_of(_WIDE, _SMALL, st.integers(-40, 40),
                      st.floats(allow_nan=False, allow_infinity=False))
_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)
_STEPS = st.tuples(st.sampled_from(_BINARY + (operator.pow,)), _OPERANDS, st.booleans())


def _chain(start, steps):
    """Run ``steps`` on a ``Dyadic`` and on a ``Fraction`` of the same value;
    each step is (operation, operand, operand on the left), a power taking
    the operand's small int part as its exponent, and a division by zero is
    skipped.  Returns both results and the number of divisions run."""
    a, x = Dyadic(start), Fraction(start)
    divisions = 0
    for op, operand, left in steps:
        exact = Fraction(operand)
        if op is operator.pow:
            k = int(exact) % 5 - 2
            if not x and k < 0:
                continue
            a, x = a ** k, x ** k
            continue
        if op is operator.truediv and not (x if left else exact):
            continue
        if left:
            a, x = op(operand, a), op(exact, x)
        else:
            a, x = op(a, operand), op(x, exact)
        divisions += op is operator.truediv
    return a, x, divisions


@settings(derandomize=True, deadline=None, max_examples=300)
@given(start=_OPERANDS, steps=st.lists(_STEPS, min_size=2, max_size=8),
       divisor=_OPERANDS.filter(bool), other=_OPERANDS)
def test_chains_match_fraction(start, steps, divisor, other):
    a, x, divisions = _chain(start, steps)
    if not divisions:
        a, x = a / divisor, x / Fraction(divisor)
    assert type(a) is Dyadic
    # the same value reached by a second route, unreduced: a factor 3 shared
    twice = a * 3 / 3
    assert not x or twice._t[1] % 3 == 0
    # comparisons and float() on the unreduced triples, then ``.triple``
    b, y = Dyadic(other) * 3 / 3, Fraction(other)
    for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
        assert op(twice, b) == op(x, y) and op(twice, other) == op(x, y), op
    assert _to_float(twice) == _to_float(a) == _to_float(x)
    assert _canonical(a) and _canonical(twice) and _fraction(a) == x
    assert twice.triple == a.triple == Dyadic(x).triple
    assert a == x and twice == a and hash(twice) == hash(a) == hash(x) == hash(Dyadic(x))
    if max(abs(x.numerator), x.denominator).bit_length() < 4000:    # int repr's digit limit
        assert repr(twice) == repr(a) == repr(Dyadic(x))


def test_float_past_the_double_range_raises_like_fraction():
    # an unreduced quotient whose reduced value is just past the range
    big = Dyadic(2.0 ** 1023) * 3 * 5
    a = big / 15 * 2
    x = Fraction(2) ** 1024
    assert a == x and hash(a) == hash(x) and _canonical(a)
    for value in (a, -a, a * 7 / 7):
        try:
            float(value)
        except OverflowError:
            pass
        else:
            raise AssertionError(f"float({value!r}) did not overflow")
    assert _to_float(a / 2) == _to_float(x / 2) == 2.0 ** 1023
