"""The exact number type: every operation against ``fractions.Fraction``."""

import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tfqkd.dyadic import Dyadic


def _fraction(d: Dyadic) -> Fraction:
    n, o, e = d.triple
    return Fraction(n, o << e) if e >= 0 else Fraction(n << -e, o)


def _canonical(d) -> bool:
    """A ``Dyadic`` whose triple is ``n`` odd, ``o`` odd and positive,
    ``gcd(n, o) == 1``, or zero as ``(0, 1, 0)``."""
    if type(d) is not Dyadic:
        return False
    n, o, e = d.triple
    if n == 0:
        return (o, e) == (1, 0)
    return n & 1 == 1 and o & 1 == 1 and o > 0 and math.gcd(n, o) == 1


def _same(got, want: Fraction) -> bool:
    return _canonical(got) and _fraction(got) == want


def _to_float(v):
    """``float(v)``, or ``OverflowError`` for a value past the double range."""
    try:
        return float(v)
    except OverflowError:
        return OverflowError


_RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda n, o, e: Fraction(n, o) / Fraction(2) ** e,
              st.integers(-8, 8), st.integers(1, 8), st.integers(-4, 4)),
    st.builds(lambda n, o, e: Fraction(n, o) / Fraction(2) ** e,
              st.integers(-2 ** 400, 2 ** 400), st.integers(1, 2 ** 400),
              st.integers(-1200, 1200)))
_INTS = st.one_of(st.integers(-40, 40), st.integers(-2 ** 200, 2 ** 200))
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
_COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(x=_RATIONALS, y=_RATIONALS)
def test_operators_match_fraction(x, y):
    a, b = Dyadic(x), Dyadic(y)
    assert _same(a, x) and _same(b, y)
    for op in _ARITHMETIC:
        if op is operator.truediv and not y:
            continue
        assert _same(op(a, b), op(x, y)), op
    for op in _COMPARISONS:
        assert op(a, b) == op(x, y), op
    assert _same(-a, -x) and _same(abs(a), abs(x))
    assert bool(a) == bool(x)
    assert _to_float(a) == _to_float(x)
    assert a == x and hash(a) == hash(x)
    if x == y:
        assert hash(a) == hash(b)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(x=_RATIONALS, k=_INTS, f=_FLOATS)
def test_reflected_operations_with_ints_and_floats(x, k, f):
    """An int or float operand, on either side, converts exactly: the result
    is the ``Fraction`` of the exact operands, as a ``Dyadic``."""
    a = Dyadic(x)
    for other in (k, f):
        exact = Fraction(other)
        for op in _ARITHMETIC:
            if op is not operator.truediv or exact:
                assert _same(op(a, other), op(x, exact)), (op, other)
            if op is not operator.truediv or x:
                assert _same(op(other, a), op(exact, x)), (op, other)
        for op in _COMPARISONS:
            assert op(a, other) == op(x, exact), (op, other)
            assert op(other, a) == op(exact, x), (op, other)
    assert _same(sum([a, a], 0), 2 * x)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(x=_RATIONALS, k=st.integers(-6, 6))
def test_integer_powers(x, k):
    if not x and k < 0:
        with pytest.raises(ZeroDivisionError):
            Dyadic(x) ** k
    else:
        assert _same(Dyadic(x) ** k, x ** k)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(x=st.one_of(_RATIONALS, _INTS.map(Fraction), _FLOATS.map(Fraction)))
def test_hash_and_equality_by_value(x):
    """Equal values hash alike across ``Dyadic``, ``Fraction``, int and float,
    so dicts keyed by tuples of exact numbers behave like numeric keys."""
    a = Dyadic(x)
    assert a == Dyadic(x) and hash(a) == hash(Dyadic(x)) == hash(x)
    if x.denominator == 1:
        assert a == int(x) and hash(a) == hash(int(x))
    if _to_float(x) is not OverflowError and Fraction(float(x)) == x:
        assert a == float(x) and hash(a) == hash(float(x))
    assert {(a, a): 1}[(Dyadic(x), Dyadic(x))] == 1
    assert a != math.nan and a != math.inf and a != -math.inf
    assert a != "text" and a != None  # noqa: E711


_TINY = sys.float_info.min * sys.float_info.epsilon   # 5e-324
_HUGE = sys.float_info.max


@settings(derandomize=True, deadline=None, max_examples=300)
@given(base=st.sampled_from([_TINY, 2 * _TINY, sys.float_info.min, _HUGE, _HUGE / 2]),
       num=st.integers(1, 2 ** 70), den=st.integers(1, 2 ** 70), sign=st.sampled_from([1, -1]))
def test_float_rounds_like_fraction_at_the_ends_of_the_range(base, num, den, sign):
    """One correctly rounded division: subnormals and the largest doubles
    match ``Fraction``, and a value past the range overflows for both."""
    x = sign * Fraction(base) * Fraction(num, den)
    assert _to_float(Dyadic(x)) == _to_float(x)


def test_division_by_zero_raises():
    zero = Dyadic(0)
    for divide in (lambda: Dyadic(3) / zero, lambda: Dyadic(3) / 0, lambda: Dyadic(3) / 0.0,
                   lambda: 1 / zero, lambda: 1.5 / zero, lambda: zero / zero,
                   lambda: zero ** -1):
        with pytest.raises(ZeroDivisionError):
            divide()
    assert _same(zero / 3, Fraction(0)) and _same(zero ** 0, Fraction(1))


def test_rejects_what_is_not_an_exact_number():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Dyadic(bad)
        with pytest.raises(ValueError):
            Dyadic(1) + bad
    with pytest.raises(TypeError):
        Dyadic("1")
    with pytest.raises(TypeError):
        Dyadic(1) + "1"
    with pytest.raises(TypeError):
        Dyadic(2) ** 0.5
    assert _same(Dyadic(Dyadic(Fraction(3, 4))), Fraction(3, 4))
    assert _same(Dyadic(True), Fraction(1))
