"""Rigorous complex enclosures for tower elements.

Intervals carry exact Fraction endpoints, so +, -, * lose nothing; the
only rounding happens in sqrt, where integer isqrt gives directed
bounds.  Nothing here decides a sign: each level's root is placed on the
real or the imaginary axis by the exact signs of
``exactfield.embed_signature``, and ``complex_embed`` refines until the
enclosure is narrower than the requested 10**-precision.  The
enclosures serve the CSV export and ``abs_is_one``, an independent
check of the exact unimodularity verdicts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt

# element_sign is re-exported: perfbench's tracer patches it through here
from .exactfield import element_sign, embed_signature  # noqa: F401


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

    def __mul__(self, other):
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Interval(min(cands), max(cands))

    def width(self):
        return self.hi - self.lo

    def mid(self):
        return (self.lo + self.hi) / 2


def sqrt_interval(x, digits):
    """Enclosure of sqrt(x) for a nonnegative interval, ~``digits`` wide."""
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

    def mid(self):
        return complex(self.re.mid(), self.im.mid())


# ---------------------------------------------------------------------------
# embedding tower elements

@cache
def _embed_roots(desc, digits):
    """Values of each level's adjoined root under the principal embedding.

    Cached per (descriptor, digits), as ``exactfield.embed_signature``
    is per descriptor: every ``complex_embed`` call on one tower reads
    the same tuple.  The levels below a radicand are real, so its
    enclosure is real; it is clamped to the side of 0 that the exact
    sign gives before its square root is taken.
    """
    roots = []
    for s, sg in zip(desc.levels, embed_signature(desc)):
        m = _embed_rep(s, roots).re
        lo, hi = sorted((sg * m.lo, sg * m.hi))
        t = sqrt_interval(Interval(max(lo, 0), hi), digits)
        roots.append(ComplexInterval(t) if sg > 0 else ComplexInterval(0, t))
    return tuple(roots)


def _embed_rep(rep, roots):
    if isinstance(rep, tuple):
        a, b = rep
        t = roots[_rep_depth(a)]
        return _embed_rep(a, roots) + _embed_rep(b, roots) * t
    return ComplexInterval(Interval(rep))


def _rep_depth(rep):
    d = 0
    while isinstance(rep, tuple):
        d += 1
        rep = rep[0]
    return d


def complex_embed(x, precision=30):
    """ComplexInterval enclosure of x with width <= 10**-precision.

    Every level's root takes its principal branch: positive real part,
    or positive imaginary part for an imaginary level.  The first try
    works to ``precision + 8`` digits and each next one to twice as many.
    """
    target = Fraction(1, 10 ** precision)
    digits = precision + 8
    while True:
        val = _embed_rep(x.rep, _embed_roots(x.desc, digits))
        if val.width() <= target:
            return val
        digits *= 2


def abs_is_one(x, tol_digits=12):
    """Certify | |embed(x)| - 1 | <= 10**-tol_digits."""
    z = complex_embed(x, tol_digits + 6)
    tol = Fraction(1, 10 ** tol_digits)
    sq = z.abs_squared()
    return (1 - tol) ** 2 <= sq.lo and sq.hi <= (1 + tol) ** 2
