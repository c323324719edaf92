"""Rigorous complex enclosures for tower elements.

Intervals carry exact Fraction endpoints, so +, -, * lose nothing; the
only rounding happens in sqrt, where integer isqrt gives directed
bounds.  ``complex_embed`` refines until the enclosure is narrower than
the requested 10**-precision, which always terminates because the
inputs are fixed algebraic numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt


class Interval:
    """Closed real interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise ValueError("inverted interval")

    def __add__(self, other):
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other):
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Interval(min(cands), max(cands))

    def width(self):
        return self.hi - self.lo

    def is_exactly_zero(self):
        return self.lo == 0 == self.hi

    def sign(self):
        """+1, -1, or None if the enclosure straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.is_exactly_zero():
            return 0
        return None

    def mid(self):
        return (self.lo + self.hi) / 2

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


def sqrt_interval(x, digits):
    """Enclosure of sqrt(x) for a nonnegative interval, ~``digits`` wide."""
    if x.lo < 0:
        raise ValueError("sqrt of an interval reaching below zero")
    scale = 10 ** digits
    lo_n = x.lo * scale * scale
    hi_n = x.hi * scale * scale
    lo = isqrt(lo_n.numerator // lo_n.denominator)
    hi = isqrt(hi_n.numerator // hi_n.denominator) + 1
    return Interval(Fraction(lo, scale), Fraction(hi, scale))


class ComplexInterval:
    """Rectangle re + i*im with Interval sides."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re = re if isinstance(re, Interval) else Interval(re)
        self.im = im if isinstance(im, Interval) else Interval(im if im is not None else 0)

    def __add__(self, other):
        return ComplexInterval(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ComplexInterval(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ComplexInterval(-self.re, -self.im)

    def __mul__(self, other):
        return ComplexInterval(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)

    def abs_squared(self):
        aa = self.re * self.re
        bb = self.im * self.im
        lo = max(Fraction(0), aa.lo + bb.lo)
        return Interval(lo, aa.hi + bb.hi)

    def width(self):
        return max(self.re.width(), self.im.width())

    def is_real(self):
        return self.im.is_exactly_zero()

    def mid(self):
        return complex(self.re.mid(), self.im.mid())

    def __repr__(self):
        return f"ComplexInterval({self.re!r}, {self.im!r})"


# ---------------------------------------------------------------------------
# embedding tower elements

@cache
def _embed_roots(desc, digits):
    """Values of each level's adjoined root under the principal embedding.

    Cached per (descriptor, digits), as ``exactfield.embed_signature``
    is per descriptor: the enclosures depend on nothing else, and every
    ``element_sign`` and ``complex_embed`` call on one tower reads the
    same tuple.  A try that raises (PrecisionExhausted) is not cached.
    """
    roots = []
    for s in desc.levels:
        # t = sqrt(s): real for s >= 0, imaginary for s <= 0
        m = _embed_rep(s, roots, digits)
        if not m.is_real():
            raise ValueError("radicand not certified real; embedding unsupported")
        if m.re.lo >= 0:
            root = ComplexInterval(sqrt_interval(m.re, digits))
        elif m.re.hi <= 0:
            root = ComplexInterval(0, sqrt_interval(-m.re, digits))
        else:
            raise PrecisionExhausted
        roots.append(root)
    return tuple(roots)


class PrecisionExhausted(Exception):
    """Internal: retry the whole embedding with more digits."""


def _embed_rep(rep, roots, digits):
    if isinstance(rep, tuple):
        a, b = rep
        d = _rep_depth(rep)
        av = _embed_rep(a, roots, digits)
        bv = _embed_rep(b, roots, digits)
        return av + bv * roots[d - 1]
    return ComplexInterval(Interval(rep))


def _rep_depth(rep):
    d = 0
    while isinstance(rep, tuple):
        d += 1
        rep = rep[0]
    return d


def _enclosures(x, digits):
    """Ever tighter enclosures of x under the principal embedding.

    The first try works to ``digits`` digits and each next one to twice
    as many; a try whose roots could not be placed (PrecisionExhausted)
    yields nothing.
    """
    while True:
        try:
            roots = _embed_roots(x.desc, digits)
        except PrecisionExhausted:
            pass
        else:
            yield _embed_rep(x.rep, roots, digits)
        digits *= 2


def complex_embed(x, precision=30):
    """ComplexInterval enclosure of x with width <= 10**-precision.

    Every level's root takes its principal branch: positive real part,
    or positive imaginary part for an imaginary level.
    """
    target = Fraction(1, 10 ** precision)
    return next(val for val in _enclosures(x, precision + 8)
                if val.width() <= target)


def element_sign(x):
    """Exact sign (-1, 0, +1) of a real tower element, under the
    principal embedding of ``complex_embed``.

    Zero is decided structurally; otherwise the enclosure is refined
    until it excludes zero, which terminates because embeddings of
    nonzero elements are nonzero.
    """
    if x.is_zero():
        return 0
    for val in _enclosures(x, 20):
        if not val.is_real():
            raise ValueError("element is not real")
        s = val.re.sign()
        if s is not None:
            return s


def abs_is_one(x, tol_digits=12):
    """Certify | |embed(x)| - 1 | <= 10**-tol_digits."""
    z = complex_embed(x, tol_digits + 6)
    tol = Fraction(1, 10 ** tol_digits)
    sq = z.abs_squared()
    return (1 - tol) ** 2 <= sq.lo and sq.hi <= (1 + tol) ** 2
