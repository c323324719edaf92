"""Rational functions of the scheme parameter q, optionally carrying r.

``PolyQ``/``RatQ`` are plain dense univariate polynomials / reduced
fractions over Q; ``RatQ`` is the field Q(q).  ``RatFuncQ`` is the
working field for parametric computations: values A(q) + B(q)*r subject
to r**2 = (17q-1)(q-1), i.e. Q(q) and its r-extension as a depth-1
`exactfield` tower over the base field ``RatQ``.  All identities "in q"
proved by this package are equalities of reduced RatFuncQ values, so
they hold identically, not just at sampled points.
"""

from __future__ import annotations

from fractions import Fraction

from .exactfield import (
    TowerDescriptor,
    TowerElement,
    QQ,
    adjoin_radical,
    rational_sqrt,
)


class PoleAtQ0(ZeroDivisionError):
    """Specialization hit a zero of the denominator."""


class InvalidRValue(ValueError):
    """Supplied r does not square to (17q-1)(q-1) at the given q."""


class PolyQ:
    """Dense univariate polynomial over Q, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c):
        return PolyQ((Fraction(c),))

    @staticmethod
    def x():
        return PolyQ((0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(other)
        if not isinstance(other, PolyQ):
            return NotImplemented  # a RatQ compares itself with a PolyQ
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its Fraction, so it hashes like one
        if self.degree <= 0:
            return hash(self.leading())
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(out)

    __radd__ = __add__

    def __neg__(self):
        return PolyQ(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyQ(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return PolyQ()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyQ(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = PolyQ.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading()
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] / lead
            if c == 0:
                continue
            quo[i - d] = c
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] -= c * oc
        return PolyQ(quo), PolyQ(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a * (1 / a.leading())

    def sqrt(self):
        """The square root over Q with a positive leading term, or None."""
        if self.is_zero():
            return self
        if self.degree % 2:
            return None
        lead = rational_sqrt(self.leading())
        if lead is None:
            return None
        n = self.degree // 2
        g = [Fraction(0)] * n + [lead]
        for k in range(n - 1, -1, -1):
            # the q^(n+k) coefficient of g^2 is 2*g[k]*g[n] plus known terms
            known = sum(g[i] * g[n + k - i] for i in range(k + 1, n))
            g[k] = (self.coeffs[n + k] - known) / (2 * lead)
        root = PolyQ(g)
        return root if root * root == self else None

    def monic(self):
        if self.is_zero():
            return self
        return self * (1 / self.leading())

    def __call__(self, q0):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "PolyQ<0>"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*q^{i}" if i else f"{c}")
        return "PolyQ<" + " + ".join(terms) + ">"


class RatQ:
    """Reduced fraction of PolyQ with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, PolyQ):
            num = PolyQ.const(num)
        if den is None:
            den = PolyQ.const(1)
        elif not isinstance(den, PolyQ):
            den = PolyQ.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.leading()
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        other = _as_ratq(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # den is monic, so a constant is num alone: hash it like its Fraction
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_ratq(other)
        if other is NotImplemented:
            return NotImplemented
        return RatQ(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatQ(-self.num, self.den)

    def __sub__(self, other):
        other = _as_ratq(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_ratq(other)
        if other is NotImplemented:
            return NotImplemented
        return RatQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatQ(self.den, self.num)

    def __truediv__(self, other):
        other = _as_ratq(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = RatQ(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sqrt(self):
        """An exact square root in Q(q), or None when there is none.

        N/D is reduced with D monic, so it is a square exactly when N
        and D are squares of polynomials over Q.
        """
        num, den = self.num.sqrt(), self.den.sqrt()
        if num is None or den is None:
            return None
        return RatQ(num, den)

    def __call__(self, q0):
        q0 = Fraction(q0)
        d = self.den(q0)
        if d == 0:
            raise PoleAtQ0(f"pole at q = {q0}")
        return self.num(q0) / d

    def __repr__(self):
        return f"RatQ({self.num!r} / {self.den!r})"


def _as_ratq(v):
    if isinstance(v, RatQ):
        return v
    if isinstance(v, PolyQ):
        return RatQ(v)
    if isinstance(v, (int, Fraction)):
        return RatQ(PolyQ.const(v))
    return NotImplemented


Q = RatQ(PolyQ.x())
# defining relation for the auxiliary square root r
R_SQUARED = (17 * Q - 1) * (Q - 1)


# (17q-1)(q-1) has the two distinct roots 1/17 and 1, so it is not a
# square in Q(q): t^2 - R_SQUARED is irreducible and the level is built
# directly rather than through adjoin_root's square test.
RF_DESC = TowerDescriptor(((RatQ(0), R_SQUARED),), RatQ)


class RatFuncQ(TowerElement):
    """Element A(q) + B(q)*r of Q(q)[r]/(r^2 - (17q-1)(q-1)).

    A depth-1 `exactfield` tower element over ``RF_DESC``: arithmetic,
    equality and hashing are TowerElement's.  This class only names
    the parts; ``r_part`` is None when B is zero.
    """

    __slots__ = ()

    def __init__(self, plain, r_part=None):
        r_part = 0 if r_part is None else r_part
        super().__init__(RF_DESC, (_part(plain), _part(r_part)))

    @property
    def plain(self):
        return self.rep[0]

    @property
    def r_part(self):
        return self.rep[1] or None

    def conj_r(self):
        """The image under r -> -r."""
        return self.galois_conj()

    def __repr__(self):
        if self.r_part is None:
            return f"RatFuncQ({self.plain!r})"
        return f"RatFuncQ({self.plain!r} + ({self.r_part!r})*r)"


def _part(v):
    p = _as_ratq(v)
    if p is NotImplemented:
        raise TypeError(f"bad rational function {v!r}")
    return p


QF = RatFuncQ(Q)
RF_R = RatFuncQ(0, 1)


def ratfunc_specialize(f, q0, r_value=None):
    """Evaluate f at q = q0 as an exact tower element.

    ``r_value`` must be supplied when f carries an r part and must
    square to (17*q0-1)(q0-1); plain values come back in the rational
    tower (or r_value's tower so arithmetic with it stays closed).
    """
    if not isinstance(f, RatFuncQ):
        f = RatFuncQ(f)
    q0 = Fraction(q0)
    base = f.plain(q0)
    if f.r_part is None:
        if r_value is not None:
            return TowerElement.rational(base, r_value.desc)
        return TowerElement.rational(base)
    if r_value is None:
        raise InvalidRValue("f involves r; supply its exact value")
    rho = R_SQUARED(q0)
    if r_value * r_value != rho:
        raise InvalidRValue(f"r**2 != (17q-1)(q-1) at q = {q0}")
    return r_value * f.r_part(q0) + base


def r_value_at(q0, sign=1):
    """An exact square root of (17*q0-1)(q0-1), with its tower.

    Returns (descriptor, element).  The element is rational when the
    radicand is a perfect square, else lives in a fresh depth-1 tower
    over a squarefree radicand, scaled by ``sign``.
    """
    q0 = Fraction(q0)
    rho = R_SQUARED(q0)
    root = rational_sqrt(rho)
    if root is not None:
        return QQ, TowerElement.rational(sign * root)
    desc, rt = adjoin_radical(QQ, rho)
    return desc, rt * sign
