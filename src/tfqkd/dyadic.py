"""Exact rational arithmetic on dyadic-split rationals.

Every exact number of the package is a rational split at its power of two,
a triple of ints ``(n, o, e)`` for ``n / (o * 2**e)``: ``n`` odd, ``o`` odd
and positive, ``e`` any int, and zero ``(0, 1, 0)``.  Reduced, with
``gcd(n, o) == 1``, the form is canonical, so tuple ``==`` is equality of
values.  It pays because the exact inputs are doubles, p / 2^k, whose odd
denominator part is 1, and the factorials and differences built from them
keep small odd parts: a gcd only ever runs on the odd parts, never on the
long powers of two.

The functions below work on bare triples; the exact simplex
(``oracles.simplex``) and its LP rows call them directly, and the exact
gain combinations of the bounds (``decoy3._exact_combine``) write vectors
of triples as int vectors over one denominator (``_scaled``) and reduce
their integer dot products once (``_reduced``).  ``Dyadic`` wraps
one triple in an operator class, which is the exact number type of the
yield bounds (``decoy3``, ``decoy4``): the formulas run on it unchanged,
with ints, floats and other rationals converted exactly.  On reduced
triples the functions on bare triples return reduced triples, which the
simplex relies on.  ``Dyadic``'s results are exact but not reduced: its
products, quotients and powers multiply the odd parts as they are, with no
gcd, and its sums run ``_add``, whose gcds run on the odd denominators
only.  Its ``triple`` is the reduced rational ``fractions.Fraction`` gives,
reduced once, when it is first read.  A value goes back to a float through
one correctly rounded division of the rejoined ints (``_float``), as
``Fraction`` does; the rounding does not depend on whether they are
reduced.
"""

from __future__ import annotations

import sys
from math import gcd, isfinite, lcm
from numbers import Rational

_ZERO = (0, 1, 0)
_ONE = (1, 1, 0)


def _twos(k: int) -> int:
    """The exponent of the largest power of two that divides ``k != 0``."""
    return (k & -k).bit_length() - 1


def _rational(num: int, den: int) -> tuple:
    """The reduced ratio ``num / den``, ``den > 0``, as an ``(n, o, e)`` triple."""
    if not num:
        return _ZERO
    a, b = _twos(num), _twos(den)
    return num >> a, den >> b, b - a


def _number(v) -> tuple:
    """``v`` as a reduced ``(n, o, e)`` triple, exactly: a float through
    ``float.as_integer_ratio()``, a rational through its ``numerator`` and
    ``denominator``, an int ``k`` as ``k / 1``.  A non-finite float raises
    ``ValueError``, any other type ``TypeError``."""
    if isinstance(v, float):
        if not isfinite(v):
            raise ValueError(f"exact numbers must be finite, got {v}")
        return _rational(*v.as_integer_ratio())
    if isinstance(v, int):
        return _rational(int(v), 1)
    if isinstance(v, Rational):
        return _rational(int(v.numerator), int(v.denominator))
    raise TypeError(f"exact numbers must be ints, floats or rationals, got {type(v).__name__}")


def _pair(v) -> tuple:
    """``v`` rejoined as a reduced pair of ints (numerator, denominator)."""
    n, o, e = v
    return (n, o << e) if e >= 0 else (n << -e, o)


def _float(v) -> float:
    """The double nearest ``v``: one correctly rounded division of ints."""
    n, o, e = v
    return n / (o << e) if e >= 0 else (n << -e) / o


def _add(a, b) -> tuple:
    an, ao, ae = a
    bn, bo, be = b
    if not an:
        return b
    if not bn:
        return a
    if ae < be:
        an <<= be - ae
        ae = be
    elif be < ae:
        bn <<= ae - be
    g = gcd(ao, bo)
    if g == 1:
        t = an * bo + bn * ao
        o = ao * bo
    else:
        s = ao // g
        t = an * (bo // g) + bn * s
        g = gcd(t, g)
        t //= g
        o = s * (bo // g)
    if t & 1:
        return t, o, ae
    if not t:
        return _ZERO
    z = _twos(t)
    return t >> z, o, ae - z


def _scaled(vs) -> tuple:
    """The triples ``vs`` as one int vector over one denominator,
    ``(ks, o, e)`` with ``vs[i] == ks[i] / (o * 2**e)``: ``o`` is the lcm of
    their odd parts and ``e`` the largest exponent."""
    o = lcm(*(vo for _, vo, _ in vs))
    e = max(ve for _, _, ve in vs)
    return [(vn * (o // vo)) << (e - ve) for vn, vo, ve in vs], o, e


def _reduced(k: int, o: int, e: int) -> tuple:
    """The triple of ``k / (o * 2**e)`` for an int ``k`` and an odd ``o > 0``:
    one gcd against ``o``, then the powers of two shifted out of ``k``."""
    if not k:
        return _ZERO
    if o != 1:
        g = gcd(k, o)
        if g != 1:
            k //= g
            o //= g
    z = _twos(k)
    return k >> z, o, e - z


def _sub(a, b) -> tuple:
    return _add(a, (-b[0], b[1], b[2]))


def _mul(a, b) -> tuple:
    an, ao, ae = a
    bn, bo, be = b
    if not an or not bn:
        return _ZERO
    # most odd parts are 1: the inputs are doubles
    if bo != 1:
        g = gcd(an, bo)
        if g != 1:
            an //= g
            bo //= g
    if ao != 1:
        g = gcd(bn, ao)
        if g != 1:
            bn //= g
            ao //= g
    return an * bn, ao * bo, ae + be


def _div(a, b) -> tuple:
    """``a / b`` for a nonzero ``b``."""
    an, ao, ae = a
    bn, bo, be = b
    if not an:
        return _ZERO
    g1 = gcd(an, bn)
    g2 = gcd(ao, bo)
    n, o = (an // g1) * (bo // g2), (ao // g2) * (bn // g1)
    return (-n, -o, ae - be) if o < 0 else (n, o, ae - be)


def _less(a, b) -> bool:
    # a < b  <=>  an * bo * 2^be < bn * ao * 2^ae
    k = b[2] - a[2]
    if k >= 0:
        return (a[0] * b[1]) << k < b[0] * a[1]
    return a[0] * b[1] < (b[0] * a[1]) << -k


# the small int operands of the bound formulas (leading vector entries,
# zero error terms, the factorial and moment factors), converted once
_SMALL_INTS = {k: _rational(k, 1) for k in range(-32, 33)}
_HASH_MODULUS = sys.hash_info.modulus


def _operand(x):
    """The triple of an operand ``Dyadic`` (unreduced), int, float or
    rational, or None for any other type; a non-finite float raises
    ``ValueError``."""
    if isinstance(x, Dyadic):
        return x._t
    if isinstance(x, int):
        t = _SMALL_INTS.get(x)
        return _rational(int(x), 1) if t is None else t
    if isinstance(x, (float, Rational)):
        return _number(x)
    return None


def _wrap(t, reduced=True) -> Dyadic:
    d = object.__new__(Dyadic)
    d._t = t
    d._r = reduced
    return d


def _nonzero(t):
    if not t[0]:
        raise ZeroDivisionError("division by zero")
    return t


def _product(a, b) -> Dyadic:
    """``a * b`` of two triples, unreduced: the odd parts multiply as they are."""
    an, ao, ae = a
    bn, bo, be = b
    if not an or not bn:
        return _wrap(_ZERO)
    return _wrap((an * bn, ao * bo, ae + be), False)


def _quotient(a, b) -> Dyadic:
    """``a / b`` of two triples, ``b`` nonzero, unreduced."""
    an, ao, ae = a
    bn, bo, be = b
    if not an:
        return _wrap(_ZERO)
    if bn < 0:
        return _wrap((-an * bo, -ao * bn, ae - be), False)
    return _wrap((an * bo, ao * bn, ae - be), False)


class Dyadic:
    """An exact rational held as an ``(n, o, e)`` triple.

    Takes an int, a finite float or a rational, exactly.  Supports ``+``,
    ``-``, ``*`` and ``/``, also reflected, with ints, floats and rationals
    as the other operand, ``**`` to an int power, the comparisons, ``abs``,
    unary minus, ``float`` and truth.  Results are ``Dyadic`` and exact:
    unlike ``Fraction``, a float operand is converted, not a float result
    returned.  They are not reduced: their odd parts ``n`` and ``o`` may
    share factors, so products, quotients and powers run no gcd, and sums
    run ``_add``'s gcds on the odd denominators only.  ``triple`` is the
    canonical reduced triple, reduced once, when it is first read;
    equality, hash and ``repr`` read it.  Comparisons, ``float`` (one
    correctly rounded division of the unreduced ints) and truth do not need
    it.  A non-finite float operand raises ``ValueError``, except that it is
    unequal to every ``Dyadic``.  Equality and hash are by value, as for the
    built-in numbers; division by zero raises ``ZeroDivisionError``.
    """

    __slots__ = ("_t", "_r")    # the triple, and whether it is reduced

    def __new__(cls, value=0):
        if isinstance(value, Dyadic):
            return _wrap(value._t, value._r)
        t = _operand(value)
        if t is None:
            raise TypeError(f"Dyadic takes an int, a float or a rational, "
                            f"got {type(value).__name__}")
        return _wrap(t)

    @property
    def triple(self) -> tuple:
        """The canonical reduced ``(n, o, e)`` triple of the value."""
        if not self._r:
            n, o, e = self._t
            g = gcd(n, o)
            if g != 1:
                n //= g
                o //= g
            self._t = n, o, e
            self._r = True
        return self._t

    def __repr__(self) -> str:
        n, o, e = self.triple
        return f"Dyadic({n} / ({o} * 2**{e}))"

    def __float__(self) -> float:
        return _float(self._t)

    def __bool__(self) -> bool:
        return self._t[0] != 0

    def __neg__(self) -> Dyadic:
        n, o, e = self._t
        return _wrap((-n, o, e), self._r)

    def __abs__(self) -> Dyadic:
        n, o, e = self._t
        return self if n >= 0 else _wrap((-n, o, e), self._r)

    def __add__(self, other):
        b = other._t if type(other) is Dyadic else _operand(other)
        return NotImplemented if b is None else _wrap(_add(self._t, b), False)

    __radd__ = __add__

    def __sub__(self, other):
        b = other._t if type(other) is Dyadic else _operand(other)
        return NotImplemented if b is None else _wrap(_sub(self._t, b), False)

    def __rsub__(self, other):
        a = _operand(other)
        return NotImplemented if a is None else _wrap(_sub(a, self._t), False)

    def __mul__(self, other):
        b = other._t if type(other) is Dyadic else _operand(other)
        return NotImplemented if b is None else _product(self._t, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = other._t if type(other) is Dyadic else _operand(other)
        return NotImplemented if b is None else _quotient(self._t, _nonzero(b))

    def __rtruediv__(self, other):
        a = _operand(other)
        return NotImplemented if a is None else _quotient(a, _nonzero(self._t))

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        n, o, e = self._t
        if k < 0:
            n, o, e = _quotient(_ONE, _nonzero(self._t))._t
            k = -k
        # odd powers of odd parts stay odd
        return _wrap((n ** k, o ** k, e * k), False)

    def __eq__(self, other):
        if isinstance(other, float) and not isfinite(other):
            return False
        b = other.triple if isinstance(other, Dyadic) else _operand(other)
        return NotImplemented if b is None else self.triple == b

    def __lt__(self, other):
        b = _operand(other)
        return NotImplemented if b is None else _less(self._t, b)

    def __gt__(self, other):
        b = _operand(other)
        return NotImplemented if b is None else _less(b, self._t)

    def __le__(self, other):
        b = _operand(other)
        return NotImplemented if b is None else not _less(b, self._t)

    def __ge__(self, other):
        b = _operand(other)
        return NotImplemented if b is None else not _less(self._t, b)

    def __hash__(self) -> int:
        # the hash of the equal int, float or Fraction (numeric hashing)
        num, den = _pair(self.triple)
        try:
            h = hash(hash(abs(num)) * pow(den, -1, _HASH_MODULUS))
        except ValueError:
            h = sys.hash_info.inf
        h = h if num >= 0 else -h
        return -2 if h == -1 else h
