"""Rational functions of the scheme parameter q, optionally carrying r.

``PolyQ``/``RatQ`` are dense univariate polynomials / reduced fractions
over Q; ``RatQ`` is the field Q(q).  The working field for parametric
computations is Q(q)[r]/(r**2 - (17q-1)(q-1)): values A(q) + B(q)*r,
held as depth-1 `exactfield` tower elements over the base field
``RatQ`` with descriptor ``RF_DESC`` (``QF`` is q and ``RF_R`` is r
there).  All identities "in q" proved by this package are equalities of
reduced elements of that tower, so they hold identically, not just at
sampled points.  ``RING_DESC`` is the same level over the base ring
``PolyQ``, the ring Q[q][r]/(r**2 - (17q-1)(q-1)) of numerators: its
arithmetic runs with no polynomial gcd, and it embeds in the field of
``RF_DESC``, so a zero there is a zero in Q(q)(r).

A ``PolyQ`` holds integer coefficients over one positive denominator,
reduced so that gcd(content, denominator) = 1: arithmetic runs on
Python ints and equality is structural.  ``RatQ`` reduces N/D with one
integer gcd of the primitive parts of N and D.  That gcd is the
heuristic GCDHEU of Char, Geddes and Gonnet (J. Symb. Comput. 7, 1989),
falling back after six failed evaluation points to the primitive PRS of
Collins (1967).  A GCDHEU candidate is accepted only when it divides
both inputs exactly, and ``_heuristic_gcd`` proves that such a
candidate is the gcd, not merely a common factor.  The quotients of
those exact divisions are the reduced numerator and denominator, and
the denominator is made monic, so a reduced value has one
representation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm

from .exactfield import (
    QQ,
    Reducible,
    TowerDescriptor,
    TowerElement,
    adjoin_radical,
    rational_radical_parts,
)


class PoleAtQ0(ZeroDivisionError):
    """Specialization hit a zero of the denominator."""


class InvalidRValue(ValueError):
    """Supplied r does not square to (17q-1)(q-1) at the given q."""


# ---------------------------------------------------------------------------
# integer polynomials: ascending coefficient lists without trailing zeros

def _trim(ints):
    while ints and not ints[-1]:
        ints.pop()
    return ints


def _reduced(ints, den):
    """(ints, den) as a PolyQ stores them: no trailing zero, den > 0
    and gcd(content, den) = 1."""
    _trim(ints)
    if not ints:
        return (), 1
    if den != 1:
        g = gcd(den, *ints)
        if den < 0:
            g = -g
        if g != 1:
            ints = [x // g for x in ints]
            den //= g
    return tuple(ints), den


def _split(ints):
    """(content, primitive part): ints = content * part, where the part
    has a positive leading coefficient (the content carries the sign)."""
    if not ints:
        return 1, []
    c = gcd(*ints)
    if ints[-1] < 0:
        c = -c
    return c, [x // c for x in ints] if c != 1 else list(ints)


def _primitive(ints):
    return _split(ints)[1]


def _mul_ints(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _eval_ints(ints, x):
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _pseudo_divmod(a, b):
    """(quo, rem, k) with lc(b)**k * a = quo * b + rem, deg rem < deg b.

    Once a is scaled by lc(b)**k, step s of the long division leaves
    every remaining coefficient divisible by lc(b)**(k - s), so each
    quotient coefficient is an exact integer division.
    """
    k = len(a) - len(b) + 1
    if k <= 0:
        return [], list(a), 0
    lc, db = b[-1], len(b) - 1
    scale = lc ** k
    rem = [x * scale for x in a]
    quo = [0] * k
    for i in range(k - 1, -1, -1):
        c = rem[i + db] // lc
        quo[i] = c
        if c:
            for j in range(db):
                rem[i + j] -= c * b[j]
    return quo, _trim(rem[:db]), k


def _exact_quotient(a, b):
    """a / b when b divides a in Z[q], else None (b nonzero)."""
    db = len(b) - 1
    if len(a) <= db:
        return None if a else []
    lc = b[-1]
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c, m = divmod(rem[i + db], lc)
        if m:
            return None
        quo[i] = c
        if c:
            for j in range(db):
                rem[i + j] -= c * b[j]
    return None if any(rem[:db]) else quo


def _heuristic_gcd(a, b):
    """GCDHEU (Char, Geddes and Gonnet 1989) on primitive a, b of
    degree >= 1: (g, a / g, b / g) with g = gcd(a, b), or None when six
    evaluation points fail.

    At an integer xi, h = gcd(a(xi), b(xi)) is read back as the
    polynomial H of its symmetric base-xi digits (each of absolute value
    at most xi/2), and the candidate is g = pp(H).  With
    xi >= 2 * min(|a|_inf, |b|_inf) + 2, a candidate that divides both
    a and b is the gcd G.  Proof: g divides G, say G = g * c with c
    primitive (Gauss).  Every root z of G is a root of both inputs, so
    Cauchy's bound gives |z| < 1 + min(|a|_inf, |b|_inf) <= xi/2; in
    particular h != 0 and g(xi) != 0.  G(xi) divides a(xi) and b(xi),
    hence h = H(xi) = cont(H) * g(xi), so c(xi) divides cont(H), which
    is nonzero and at most xi/2.  A nonconstant c would have
    |c(xi)| >= prod |xi - z| > (xi/2)**deg c >= xi/2 over its roots z, a
    contradiction; so c = +-1 and g = G, whose leading coefficient is
    positive.  The exact divisions that test the candidate give the
    cofactors.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(6):
        h = gcd(_eval_ints(a, xi), _eval_ints(b, xi))
        digits = []
        while h:
            d = h % xi
            if d > xi // 2:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        g = _primitive(digits)
        qa = _exact_quotient(a, g)
        if qa is not None:
            qb = _exact_quotient(b, g)
            if qb is not None:
                return g, qa, qb
        xi = xi * 73794 // 27011  # CGG's growth factor, about 2.73
    return None


def _prs_gcd(a, b):
    """gcd of primitive a, b by the primitive PRS (Collins 1967).

    Each pseudo-remainder is replaced by its primitive part; the last
    nonzero term is the gcd, primitive with a positive leading
    coefficient.
    """
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return a


def _gcd(a, b):
    """(g, a / g, b / g) for primitive a, b, not both zero, where g is
    their gcd: primitive, with a positive leading coefficient.

    GCDHEU first; after six failed points the primitive PRS, whose gcd
    then divides both inputs exactly.
    """
    if not a:
        return b, [], [1]
    if not b:
        return a, [1], []
    if len(a) == 1 or len(b) == 1:
        return [1], a, b
    if a == b:
        return a, [1], [1]
    out = _heuristic_gcd(a, b)
    if out is None:
        g = _prs_gcd(a, b)
        out = g, _exact_quotient(a, g), _exact_quotient(b, g)
    return out


def _squarefree_parts(f):
    """Yun's squarefree decomposition of a primitive f of degree >= 1.

    Returns [a_1, a_2, ...]: primitive, squarefree, pairwise coprime,
    with f = prod a_i**i.  b and c are Yun's f / gcd(f, f') and
    f' / gcd(f, f') and their successors; the gcds run on primitive
    parts, so c gets its content back after each one.
    """
    cd, pd = _split([i * x for i, x in enumerate(f)][1:])
    _, b, c = _gcd(f, pd)
    c = [cd * x for x in c]
    out = []
    while len(b) > 1:
        b_prime = [i * x for i, x in enumerate(b)][1:]
        d = _trim([x - y for x, y in zip_longest(c, b_prime, fillvalue=0)])
        cd, pd = _split(d)
        a, b, c = _gcd(b, pd)
        c = [cd * x for x in c]
        out.append(a)
    return out


class PolyQ:
    """Dense univariate polynomial over Q, coefficients ascending.

    Stored as integers over one positive denominator: ``ints`` has no
    trailing zero and gcd(content, ``den``) = 1, so every polynomial
    has one representation and equality is structural.  ``coeffs`` is
    the same polynomial as a tuple of Fractions.  A bare int or Fraction
    is the constant polynomial, and the zero polynomial is falsy, as a
    base ring of an `exactfield` tower needs (``RING_DESC``).
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        cs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self.ints, self.den = _reduced(
            [c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def _make(ints, den=1):
        out = object.__new__(PolyQ)
        out.ints, out.den = _reduced(ints, den)
        return out

    @staticmethod
    def const(c):
        return PolyQ((c,))

    @staticmethod
    def x():
        return PolyQ((0, 1))

    @property
    def coeffs(self):
        den = self.den
        return tuple(Fraction(c, den) for c in self.ints)

    @property
    def degree(self):
        return len(self.ints) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def leading(self):
        return Fraction(self.ints[-1], self.den) if self.ints else Fraction(0)

    def __eq__(self, other):
        other = _as_polyq(other)
        if other is NotImplemented:
            return NotImplemented  # a RatQ compares itself with a PolyQ
        return self.ints == other.ints and self.den == other.den

    def __hash__(self):
        # a constant equals its Fraction, so it hashes like one
        if self.degree <= 0:
            return hash(self.leading())
        return hash(self.coeffs)

    def _plus(self, other, sign):
        """self + sign * other for a PolyQ other and sign +-1."""
        a, b = self.ints, other.ints
        da, db = self.den, other.den
        if da != db:
            den = lcm(da, db)
            a = [x * (den // da) for x in a]
            b = [x * (den // db) for x in b]
        else:
            den = da
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += sign * c
        return PolyQ._make(out, den)

    def __add__(self, other):
        other = _as_polyq(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return PolyQ._make([-c for c in self.ints], self.den)

    def __sub__(self, other):
        other = _as_polyq(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # a PolyQ is tested first: isinstance against Fraction is an ABC
        # check, slow on the hot path of products of polynomials
        if isinstance(other, PolyQ):
            return PolyQ._make(_mul_ints(self.ints, other.ints),
                               self.den * other.den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Fraction(other)
        return PolyQ._make([x * c.numerator for x in self.ints],
                           self.den * c.denominator)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
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
        # over Z, lc(B)**k * A = quo * B + rem for A, B the two ints
        quo, rem, k = _pseudo_divmod(self.ints, other.ints)
        den = other.ints[-1] ** k * self.den
        return (PolyQ._make([x * other.den for x in quo], den),
                PolyQ._make(rem, den))

    def gcd(self, other):
        """The monic gcd over Q (zero when both are zero)."""
        if self.is_zero() and other.is_zero():
            return PolyQ()
        g = _gcd(_primitive(self.ints), _primitive(other.ints))[0]
        return PolyQ._make(g, g[-1])

    def sqrt(self):
        """The square root over Q with a positive leading term, or None.

        self = P / den**2 with P = ints * den.  A square root over Q of
        the integer polynomial P is c times a primitive one with c**2 =
        cont(P) (Gauss), so it has integer coefficients, and an inexact
        division below proves that P is no square.
        """
        if self.is_zero():
            return self
        if self.degree % 2:
            return None
        big = [c * self.den for c in self.ints]
        lead = isqrt(big[-1]) if big[-1] > 0 else 0
        if lead * lead != big[-1]:
            return None
        n = self.degree // 2
        g = [0] * n + [lead]
        for k in range(n - 1, -1, -1):
            # the q^(n+k) coefficient of g^2 is 2*g[k]*g[n] plus known terms
            known = sum(g[i] * g[n + k - i] for i in range(k + 1, n))
            g[k], rem = divmod(big[n + k] - known, 2 * lead)
            if rem:
                return None
        root = PolyQ._make(g, self.den)
        return root if root * root == self else None

    def __call__(self, q0):
        q0 = Fraction(q0)
        n, d = q0.numerator, q0.denominator
        acc, dpow = 0, 1
        for c in reversed(self.ints):
            acc = acc * n + c * dpow
            dpow *= d
        # acc = sum c_i n^i d^(degree - i), and dpow = d^(degree + 1)
        return Fraction(acc * d, dpow * self.den)

    def __repr__(self):
        if self.is_zero():
            return "PolyQ<0>"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*q^{i}" if i else f"{c}")
        return "PolyQ<" + " + ".join(terms) + ">"


def _as_polyq(v):
    if isinstance(v, PolyQ):
        return v
    if isinstance(v, (int, Fraction)):
        return PolyQ(v)
    return NotImplemented


_ONE = PolyQ((1,))


class RatQ:
    """Reduced fraction of PolyQ with monic denominator.

    Reduction splits numerator and denominator into content and
    primitive part over Z[q] and divides both primitive parts by their
    one integer gcd (``_gcd``), so the representation is canonical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, PolyQ):
            num = PolyQ.const(num)
        if den is None:
            self.num, self.den = num, _ONE
            return
        if not isinstance(den, PolyQ):
            den = PolyQ.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        cn, pn = _split(num.ints)
        cd, pd = _split(den.ints)
        _, pn, pd = _gcd(pn, pd)
        # num / den = (cn/num.den) pn / ((cd/den.den) pd), den made monic
        lc = pd[-1]
        self.num = PolyQ._make([x * cn * den.den for x in pn],
                               num.den * cd * lc)
        self.den = PolyQ._make(pd, lc)

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

    def radical_parts(self):
        """Split sqrt(self), self nonzero, as (m, scale) in Q(q).

        sqrt(N/D) = sqrt(N*D)/D.  N*D is c times a primitive f, f =
        prod a_i**i by Yun's algorithm, and c = k * s**2 with k a
        squarefree integer, so sqrt(self) = scale * sqrt(m) with
        m = k * prod_{i odd} a_i and scale = s * prod a_i**(i // 2) / D.
        m is the canonical radicand: a squarefree integer times a
        squarefree primitive polynomial with positive leading term.
        """
        prod = self.num * self.den
        c, f = _split(prod.ints)
        k, s = rational_radical_parts(Fraction(c, prod.den))
        odd, square = [k], [1]
        if len(f) > 1:
            for i, a in enumerate(_squarefree_parts(f), 1):
                if i % 2:
                    odd = _mul_ints(odd, a)
                for _ in range(i // 2):
                    square = _mul_ints(square, a)
        return (RatQ(PolyQ._make(odd)),
                RatQ(PolyQ._make(square) * s, self.den))

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
# square in Q(q): the level r^2 = R_SQUARED is irreducible and is built
# directly rather than through adjoin_radical's square test.
RF_DESC = TowerDescriptor((R_SQUARED,), RatQ)


QF = TowerElement.rational(Q, RF_DESC)
RF_R = TowerElement.generator(RF_DESC)


# the ring Q[q][r]/(r^2 - (17q-1)(q-1)) of numerators: values A(q) + B(q)*r
# with polynomial A and B.  It embeds in RF_DESC's field, because
# (17q-1)(q-1) is no square in Q(q), so {1, r} stays a basis there and an
# element is zero exactly when both of its coordinates are.
RING_DESC = TowerDescriptor((R_SQUARED.num,), PolyQ)


def ratfunc_specialize(f, q0, r_value=None):
    """Evaluate f = A(q) + B(q)*r at q = q0 as an exact tower element.

    f is an element over ``RF_DESC`` or a value of Q(q).  ``r_value``
    must be supplied when B is nonzero and must square to
    (17*q0-1)(q0-1); values free of r come back in the rational tower
    (or r_value's tower so arithmetic with it stays closed).
    """
    if not isinstance(f, TowerElement):
        f = TowerElement.rational(f, RF_DESC)
    plain, r_part = f.rep
    q0 = Fraction(q0)
    base = plain(q0)
    if not r_part:
        if r_value is not None:
            return TowerElement.rational(base, r_value.desc)
        return TowerElement.rational(base)
    if r_value is None:
        raise InvalidRValue("f involves r; supply its exact value")
    rho = R_SQUARED(q0)
    if r_value * r_value != rho:
        raise InvalidRValue(f"r**2 != (17q-1)(q-1) at q = {q0}")
    return r_value * r_part(q0) + base


def r_value_at(q0, sign=1):
    """An exact square root of (17*q0-1)(q0-1), scaled by ``sign``.

    The element is rational when the radicand is a perfect square, else
    it lives in a fresh depth-1 tower over a squarefree radicand; its
    ``desc`` is that tower.
    """
    try:
        root = adjoin_radical(QQ, R_SQUARED(Fraction(q0)))[1]
    except Reducible as split:
        root = split.root
    return root * sign
