"""Exact arithmetic in towers of quadratic extensions of a base field.

A tower is a chain K_0 < K_1 < ... < K_m where each level K_j is
K_{j-1}[t] / (t^2 - s) for a radicand s in K_{j-1} that is not a square
there.  Every weight this package builds is a root of a unit quadratic
w^2 - a*w + 1, i.e. (a +- sqrt(a^2 - 4))/2, so square roots are the
only levels it needs.  Elements are stored as nested pairs (a, b)
meaning a + b*t, bottoming out at the base field K_0: `fractions.Fraction`
for towers over Q, or `ratfunc.RatQ` for the tower Q(q)(r) of
`ratfunc.RF_DESC`.  The base may also be the ring `ratfunc.PolyQ`, as in
`ratfunc.RING_DESC`, where the ring operations (+, -, *, conjugation and
zero tests) apply and inverses do not.  Every element of every tower is
a ``TowerElement``, and every operation returns one.  Equality is
structural on reduced coefficients, so exact zero tests are just
comparisons; nothing here ever rounds.

Depth stays at most 3 for everything this package builds (a real
quadratic level for a square root of a rational, optionally topped by
one more quadratic level for a unimodular weight).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt


class DivisionByZero(ZeroDivisionError):
    """Division or inversion with an exactly-zero divisor."""


class IncompatibleTowers(ValueError):
    """Mixed operands whose descriptors are not prefix-compatible."""


class Reducible(ValueError):
    """Attempt to adjoin a quadratic that splits in the current field.

    Carries ``root``: one root of the quadratic, as an element of the
    current field, so the caller can keep working at the same depth.
    """

    def __init__(self, message, root=None):
        super().__init__(message)
        self.root = root


# ---------------------------------------------------------------------------
# integer / rational helpers

def rational_sqrt(x):
    """Exact square root of a Fraction, or None if x is not a square."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def squarefree_decompose(n):
    """Write a nonzero integer n as m * c**2 with m squarefree.

    Returns (m, c), c > 0.  Trial division by 2 and the odd numbers up
    to the square root of the unfactored part: about max(p2, sqrt(p1))/2
    divisions, p1 >= p2 the two largest prime factors of n.  The size of
    n does not bound it.  Case i's radicand of 1.2e34 at q = 10**9 splits
    at once, while ``construct --case i --q 10**12`` spends 64 s here on
    a large prime factor.  ROADMAP.md item 11 plans a bounded canonical
    form.
    """
    if n == 0:
        raise ValueError("need a nonzero integer")
    sign = -1 if n < 0 else 1
    n = abs(n)
    m, c = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            c *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    m *= n
    return sign * m, c


def rational_radical_parts(x):
    """Split sqrt(x) for a nonzero rational x as (m, scale).

    sqrt(x) = scale * sqrt(m) with m a squarefree integer and scale a
    positive rational.  Used to canonicalize pure-radical tower levels.
    """
    n, d = x.numerator, x.denominator
    m, c = squarefree_decompose(n * d)
    return m, Fraction(c, d)


# ---------------------------------------------------------------------------
# raw coefficient-tree arithmetic (level-0 reps are base-field values,
# level-k reps are pairs of level-(k-1) reps)

def _zero(depth, base):
    if depth == 0:
        return base(0)
    return (_zero(depth - 1, base), _zero(depth - 1, base))


def _const(depth, c, base):
    # c is already a value of the base field
    if depth == 0:
        return c
    return (_const(depth - 1, c, base), _zero(depth - 1, base))


def _is_zero(x):
    if isinstance(x, tuple):
        return _is_zero(x[0]) and _is_zero(x[1])
    return not x


def _add(x, y):
    if isinstance(x, tuple):
        return (_add(x[0], y[0]), _add(x[1], y[1]))
    return x + y


def _sub(x, y):
    if isinstance(x, tuple):
        return (_sub(x[0], y[0]), _sub(x[1], y[1]))
    return x - y


def _neg(x):
    if isinstance(x, tuple):
        return (_neg(x[0]), _neg(x[1]))
    return -x


def _scale(x, c):
    # x times a base-field value c, coordinate by coordinate
    if isinstance(x, tuple):
        return (_scale(x[0], c), _scale(x[1], c))
    return x * c


def _mul(levels, depth, x, y):
    # (a + b t)(c + d t) = ac + bd s + (ad + bc) t  with t^2 = s
    if depth == 0:
        return x * y
    a, b = x
    c, d = y
    low = depth - 1
    ac = _mul(levels, low, a, c)
    bd = _mul(levels, low, b, d)
    ad_bc = _add(_mul(levels, low, a, d), _mul(levels, low, b, c))
    return (_add(ac, _mul(levels, low, bd, levels[low])), ad_bc)


def _conj(x):
    # galois conjugate at the top level: t -> -t
    a, b = x
    return (a, _neg(b))


def _norm(levels, depth, x):
    # x * conj(x) = a^2 - b^2 s, an element one level down
    a, b = x
    low = depth - 1
    bb = _mul(levels, low, b, b)
    return _sub(_mul(levels, low, a, a), _mul(levels, low, bb, levels[low]))


def _inv(levels, depth, x):
    if depth == 0:
        if x == 0:
            raise DivisionByZero("inverse of zero")
        return 1 / x
    if _is_zero(x):
        raise DivisionByZero("inverse of zero")
    n_inv = _inv(levels, depth - 1, _norm(levels, depth, x))
    ca, cb = _conj(x)
    return (_mul(levels, depth - 1, ca, n_inv),
            _mul(levels, depth - 1, cb, n_inv))


def _flatten(x, out):
    if isinstance(x, tuple):
        _flatten(x[0], out)
        _flatten(x[1], out)
    else:
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# descriptors

class TowerDescriptor:
    """An ordered chain of quadratic levels over a base field.

    ``levels`` is a tuple of radicands; level j adjoins a root t of
    t^2 = s where s is a raw rep at depth j.  ``base`` is
    the class of the level-0 values: ``Fraction`` for Q, ``RatQ`` for
    Q(q), ``PolyQ`` for the ring Q[q].  Descriptors are immutable and
    compare structurally.
    """

    __slots__ = ("levels", "base", "_hash")

    def __init__(self, levels=(), base=Fraction):
        self.levels = tuple(levels)
        self.base = base
        self._hash = hash(tuple(tuple(_flatten(s, [])) for s in self.levels))

    @property
    def depth(self):
        return len(self.levels)

    @property
    def degree(self):
        return 1 << len(self.levels)

    def __eq__(self, other):
        return (isinstance(other, TowerDescriptor) and self.base is other.base
                and self.levels == other.levels)

    def __hash__(self):
        return self._hash

    def is_prefix_of(self, other):
        return (self.base is other.base
                and self.levels == other.levels[: len(self.levels)])

    def prefix(self, depth):
        """The tower of the first ``depth`` levels, over the same base."""
        return TowerDescriptor(self.levels[:depth], self.base)

    def __repr__(self):
        return f"TowerDescriptor(depth={self.depth})"


QQ = TowerDescriptor()


class TowerElement:
    """An exact algebraic number a + b*t, nested down to the base field."""

    __slots__ = ("desc", "rep")

    def __init__(self, desc, rep):
        self.desc = desc
        self.rep = rep

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q, desc=QQ):
        """An int or a base-field value as an element of ``desc``."""
        base = desc.base
        c = q if isinstance(q, base) else base(q)
        return TowerElement(desc, _const(desc.depth, c, base))

    @staticmethod
    def generator(desc):
        """The adjoined root t of the top level of ``desc``."""
        if desc.depth == 0:
            raise ValueError("the base field has no generator")
        low, base = desc.depth - 1, desc.base
        one = _const(low, base(1), base)
        return TowerElement(desc, (_zero(low, base), one))

    # -- structural helpers -------------------------------------------------

    def _is_scalar(self, other):
        return isinstance(other, (int, Fraction, self.desc.base))

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            if other.desc == self.desc:
                return self, other
            if other.desc.is_prefix_of(self.desc):
                return self, other.lift(self.desc)
            if self.desc.is_prefix_of(other.desc):
                return self.lift(other.desc), other
            raise IncompatibleTowers("operands live in unrelated towers")
        if self._is_scalar(other):
            return self, TowerElement.rational(other, self.desc)
        return self, NotImplemented

    def lift(self, desc):
        """Reinterpret inside a taller tower having this one as a prefix;
        ``self`` when ``desc`` is already its tower."""
        if desc == self.desc:
            return self
        if not self.desc.is_prefix_of(desc):
            raise IncompatibleTowers("not a prefix")
        rep = self.rep
        for d in range(self.desc.depth, desc.depth):
            rep = (rep, _zero(d, desc.base))
        return TowerElement(desc, rep)

    def descend(self):
        """Drop top levels whose coefficient is zero (canonical home)."""
        desc, rep = self.desc, self.rep
        while desc.depth > 0 and _is_zero(rep[1]):
            desc = desc.prefix(desc.depth - 1)
            rep = rep[0]
        return TowerElement(desc, rep)

    def coefficients(self):
        """Flat tuple of the 2**depth base-field coordinates."""
        return tuple(_flatten(self.rep, []))

    def is_zero(self):
        return _is_zero(self.rep)

    def is_rational(self):
        return all(c == 0 for c in self.coefficients()[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coefficients()[0]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.desc, _add(a.rep, b.rep))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.desc, _sub(a.rep, b.rep))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TowerElement(self.desc, _neg(self.rep))

    def __mul__(self, other):
        if not isinstance(other, TowerElement) and self._is_scalar(other):
            base = self.desc.base
            c = other if isinstance(other, base) else base(other)
            return TowerElement(self.desc, _scale(self.rep, c))
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.desc, _mul(a.desc.levels, a.desc.depth,
                                         a.rep, b.rep))

    __rmul__ = __mul__

    def inverse(self):
        return TowerElement(self.desc, _inv(self.desc.levels,
                                            self.desc.depth, self.rep))

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = TowerElement.rational(1, self.desc)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            if not self._is_scalar(other):
                return NotImplemented
            other = TowerElement.rational(other, self.desc)
        try:
            a, b = self._coerce(other)
        except IncompatibleTowers:
            return False
        return a.rep == b.rep

    def __hash__(self):
        # equal values may sit in different towers (or be plain numbers):
        # hash the descended form, and a base-field value as itself
        c = self.descend()
        if c.desc.depth == 0:
            return hash(c.rep)
        return hash((c.desc, c.rep))

    def __repr__(self):
        return f"TowerElement({self.coefficients()})"

    # -- galois structure ---------------------------------------------------

    def galois_conj(self, level=None):
        """Conjugate at one tower level (default: the top level).

        Flips the sign of the coefficient of that level's root
        (t -> -t).
        """
        depth = self.desc.depth
        if depth == 0:
            return self
        if level is None:
            level = depth - 1
        if not 0 <= level < depth:
            raise ValueError("no such level")

        def walk(d, rep):
            if d - 1 == level:
                return _conj(rep)
            a, b = rep
            return (walk(d - 1, a), walk(d - 1, b))

        return TowerElement(self.desc, walk(depth, self.rep))

    def trace_conj(self, level=None):
        """(trace, conjugate) at a level; trace = x + conjugate."""
        c = self.galois_conj(level)
        return self + c, c


# ---------------------------------------------------------------------------
# free-function operations

def field_sqrt(x):
    """A square root of x inside its own tower, or None.

    Decides "is x a square in K" exactly, level by level.  At a level
    t^2 = m, (c + d*t)^2 = x reduces to a quadratic in d^2 over the
    level below.
    """
    desc = x.desc
    depth = desc.depth
    if x.is_zero():
        return TowerElement(desc, _zero(depth, desc.base))
    if depth == 0:
        # squares of the base field: Q by integer roots, Q(q) by RatQ.sqrt
        r = rational_sqrt(x.rep) if desc.base is Fraction else x.rep.sqrt()
        return None if r is None else TowerElement(desc, r)

    low_desc = desc.prefix(depth - 1)
    m = TowerElement(low_desc, desc.levels[-1])
    a_raw, b_raw = x.rep
    a = TowerElement(low_desc, a_raw)
    b = TowerElement(low_desc, b_raw)

    def build(c, d):
        return TowerElement(desc, (c.rep, d.rep))

    if b.is_zero():
        c = field_sqrt(a)
        if c is not None:
            return c.lift(desc)
        # sqrt(a) = d*t with d^2 = a/m
        dd = field_sqrt(a / m)
        if dd is not None:
            return build(TowerElement.rational(0, low_desc), dd)
        return None
    # (c + d t)^2 = c^2 + d^2 m + 2 c d t:  2cd = b, c^2 + d^2 m = a
    # => c = b/(2d), and m*(d^2)^2 - a*(d^2) + b^2/4 = 0
    disc = a * a - m * (b * b)
    root = field_sqrt(disc)
    if root is None:
        return None
    two_m = m * 2
    for sign in (1, -1):
        d2 = (a + sign * root) / two_m
        d = field_sqrt(d2)
        if d is not None and not d.is_zero():
            c = b / (d * 2)
            return build(c, d)
    return None


def adjoin_radical(desc, radicand):
    """Extend ``desc`` by a square root of ``radicand``.

    Radicands in the base field lose their square part: over Q the new
    level adjoins the root of a squarefree integer, over Q(q) that of a
    squarefree integer times a squarefree primitive polynomial
    (``RatQ.radical_parts``).  The caller gets back (new descriptor, the
    requested sqrt as an element).  Raises Reducible, with a root of the
    radicand, when the radicand is already a square (0 included), so the
    caller can stay at the current depth; this keeps descriptors minimal
    and equality decidable.
    """
    if not isinstance(radicand, TowerElement):
        radicand = TowerElement.rational(radicand, desc)
    radicand = radicand.lift(desc)
    if radicand.is_zero():
        raise Reducible("radicand is zero", root=radicand)
    scale = 1
    if radicand.is_rational():
        x = radicand.as_rational()
        m, scale = (rational_radical_parts(x) if desc.base is Fraction
                    else x.radical_parts())
        radicand = TowerElement.rational(m, desc)
    root = field_sqrt(radicand)
    if root is not None:
        raise Reducible("radicand is a square in the current field",
                        root=root * scale)
    new_desc = TowerDescriptor(desc.levels + (radicand.rep,), desc.base)
    return new_desc, TowerElement.generator(new_desc) * scale


@cache
def embed_signature(desc):
    """Classify each level's root as real (+1) or imaginary (-1).

    Level j with t^2 = s has roots +-sqrt(s); they are a
    complex-conjugate pair exactly when s is a negative real.  Requires
    every radicand to be a totally ordered (real) element, i.e.
    imaginary levels may only sit at positions where no later radicand
    depends on them.  Every tower this package builds satisfies that
    (imaginary level on top).  Each radicand's sign is ``element_sign``'s
    exact rule over the levels below it.
    Cached per descriptor: ``complex_conj`` and ``element_sign`` ask
    once per element; ``embed_signature.__wrapped__`` is the uncached
    function.
    """
    signs = []
    for j, s in enumerate(desc.levels):
        if any(sg < 0 for sg in signs):
            raise IncompatibleTowers(
                "imaginary level below another level: embedding undefined")
        sg = _sign(signs, desc.levels, j, s)
        if sg == 0:
            raise ValueError("degenerate level (zero radicand)")
        signs.append(sg)
    return tuple(signs)


def element_sign(x):
    """Exact sign (-1, 0, +1) of a real element of a tower over Q, under
    the default embedding, where a real level's root is the positive
    square root of its radicand.

    Decided level by level on x = a + b*t, t^2 = s.  At an imaginary
    level x is real only when b = 0, and then it has a's sign.  At a
    real level, x has the sign that a and b share, or b's when a = 0;
    when their signs differ, x = (a^2 - b^2*s)/(a - b*t) and a - b*t
    has a's sign, so x has a's sign times that of a^2 - b^2*s, one level
    down.  Raises ValueError for an element that is not real.
    """
    return _sign(embed_signature(x.desc), x.desc.levels, x.desc.depth,
                 x.rep)


def _sign(signs, levels, depth, x):
    # signs[j] is +1 for a real level j, -1 for an imaginary one
    if depth == 0:
        return (x > 0) - (x < 0)
    a, b = x
    low = depth - 1
    if _is_zero(b):
        return _sign(signs, levels, low, a)
    if signs[low] < 0:
        raise ValueError("element is not real")
    sa = _sign(signs, levels, low, a)
    sb = _sign(signs, levels, low, b)
    if sa * sb >= 0:
        return sa or sb
    return sa * _sign(signs, levels, low, _norm(levels, depth, x))


def is_real(x):
    """Exact test: does x land in R under the default embedding?

    True iff the coefficient of every imaginary level's root vanishes,
    which for our towers (imaginary level topmost) is the same as being
    fixed by complex conjugation.
    """
    return complex_conj(x) == x


def complex_conj(x):
    """Complex conjugation as a tower automorphism.

    Fixes real levels, applies t -> -t at imaginary levels.  Only
    meaningful for towers with a well-defined default embedding.
    """
    sig = embed_signature(x.desc)
    out = x
    for level, sg in enumerate(sig):
        if sg < 0:
            out = out.galois_conj(level)
    return out
