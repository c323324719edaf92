"""Symbolic verification engine: the image of phi, the converse
direction of the classification and the q-sweeps, over exact function
fields.

For every number of weights, the image of ``typeii.phi`` is exactly
the symmetric M with M_ii = 2 and rank M <= 2, the zeros of the minors
``typeii.image_minors``.  ``verify_converse`` checks that each family's
a-vector is a zero of them and of the e_k.  That no other zero exists,
the completeness of the six families, is not certified: no
ideal-membership certificate is recomputed, only identical vanishing
and nonvanishing sweeps over even q (default bound 200).

Three kinds of arithmetic live here.  Small multivariate Laurent
polynomials (MPoly) carry the foundational identities behind the
reconstruction map: their denominators are monomials, bar
one pair that is cleared by cross-multiplying.  The family's a-values
are elements of Q(q)[r]/(r^2-(17q-1)(q-1)), the tower
``ratfunc.RF_DESC``, and the converse is decided on their numerators
over one common denominator D: the constraints, homogenized by D, are
evaluated with no polynomial gcd in the ring Q[q][r]/(r^2-(17q-1)(q-1))
(``ratfunc.RING_DESC``), where a zero is a zero in q, so "vanishes
identically in q" is literal.

The three sweeps are integer sums over one term table at each q: every
term T(i, j, k) = w_i^2/(w_j w_k) is one ``int_mul`` of two entries of
the family's ``typeii.WeightFamily.ratio_table``, so a sum is its tower
value times one positive integer and is zero exactly when that value
is.  The symmetry functional reads it too, as a_jk^2 - 2 =
T(j, k, k) + T(k, j, j), and so does ``nomura.check_symmetric``; each
q's integer coefficients are built once for all cases.  ``ns_symbolic``
now feeds only the all-q norms (``ns_norm_numerator``).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import lcm
from operator import add

from .exactfield import TowerElement
from .ratfunc import RING_DESC, PolyQ, RatQ
from .scheme import parametric_scheme
from .typeii import (
    CASES,
    PAIRS,
    all_families,
    case_a_symbolic,
    image_minor,
    image_minors,
    normalize_case,
    family_coefficients,  # noqa: F401  the alias perfbench's tracer patches
)

DEFAULT_SWEEP_BOUND = 200


class ViolationFound(AssertionError):
    """A sweep found a zero that the classification says cannot exist."""


# ---------------------------------------------------------------------------
# sparse multivariate Laurent polynomials over Q

class MPoly:
    """Multivariate Laurent polynomial over Q with a fixed variable tuple.

    Exponent tuples may be negative, so a single nonzero term c*x^e is a
    unit with inverse c^-1*x^-e.  Division is defined by such terms only:
    a divisor with two or more terms raises ValueError, so an identity
    with a polynomial denominator is checked by cross-multiplying.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        self.terms = {tuple(e): Fraction(c)
                      for e, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, vars, terms):
        """The MPoly of ``terms`` as they are: nonzero Fractions keyed by
        exponent tuples, neither copied nor cleaned."""
        out = object.__new__(cls)
        out.vars, out.terms = vars, terms
        return out

    @classmethod
    def const(cls, vars, c):
        c = Fraction(c)
        return cls(vars, {(0,) * len(vars): c} if c else {})

    @classmethod
    def var(cls, vars, name):
        i = tuple(vars).index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {expo: Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other)
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self):
        # a constant equals its number, so it hashes as that Fraction
        zero = (0,) * len(self.vars)
        if self.terms.keys() <= {zero}:
            return hash(self.terms.get(zero, Fraction(0)))
        return hash(frozenset(self.terms.items()))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.vars, other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.pop(e, None)
            v = c if v is None else v + c
            if v:
                out[e] = v
        return MPoly._of(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._of(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                v = out.get(e)
                out[e] = c1 * c2 if v is None else v + c1 * c2
        return MPoly._of(self.vars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def inverse(self):
        """c^-1*x^-e for a single term c*x^e, the only units."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if len(self.terms) > 1:
            raise ValueError("only a single term is invertible")
        (e, c), = self.terms.items()
        return MPoly(self.vars, {tuple(-a for a in e): 1 / c})

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        out = MPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return f"MPoly({len(self.terms)} terms in {self.vars})"


# ---------------------------------------------------------------------------
# the symmetry functional, generic over any commutative ring elements

def symmetry_functional(p, lookup):
    """sum_{j<k} p_jk^i (X_{j,k}^2 - 2) + sum_j p_jj^i for i = 1..d.

    ``p[j][k][i]`` is p_jk^i and X_{j,k} = lookup(j, k) for j < k.  Each
    X^2 - 2 is formed once, and terms with p_jk^i = 0 are skipped.  Every
    class i >= 1 has the term p_0i^i = 1, so each value has the X's type,
    never that of a bare constant.
    """
    size = len(p)
    shifted = {(j, k): lookup(j, k) * lookup(j, k) - 2
               for j in range(size) for k in range(j + 1, size)}
    out = []
    for i in range(1, size):
        acc = sum(p[j][j][i] for j in range(size))
        for (j, k), x in shifted.items():
            if p[j][k][i]:
                acc = x * p[j][k][i] + acc
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# the four foundational identities

def _phi_minors(size):
    """The ``image_minors`` of phi over Laurent indeterminates X0, X1..."""
    vs = tuple(f"X{i}" for i in range(size))
    xs = [MPoly.var(vs, v) for v in vs]
    ratio = {(i, j): xs[i] / xs[j] + xs[j] / xs[i]
             for i in range(size) for j in range(size) if i != j}
    return image_minors(lambda i, j: ratio[i, j], size)


def verify_core_identities():
    """Exact Laurent-polynomial checks behind the reconstruction map.

    lemma_g:      the 3 x 3 minor of phi vanishes over (X0, X1, X2)
    lemma_ww:     the product expansion of w*w' in four indeterminates
    lemma_h:      all 10 minors of phi vanish over (X0, X1, X2, X3)
    lemma_w1w2w3: the multiplier identity tying w1*w2 + w3 to the quadric

    The quadric of lemma_ww and lemma_w1w2w3, X^2 + Y^2 + Z^2 - XYZ - 4,
    is -1/2 times a principal minor.  Every denominator is a monomial
    except in lemma_ww, whose two sides num/den and rnum/rden are
    compared as num*rden == rnum*den with den and rden checked nonzero,
    so each True is an identity in the field of rational functions.
    """
    out = {}
    out["lemma_g"] = all(m.is_zero() for m in _phi_minors(3))

    vs = ("X", "Y", "Z", "z")
    X, Y, Z, z = (MPoly.var(vs, v) for v in vs)
    f = z * z - z * X + 1
    # x(0, 1) = X, x(0, 2) = Y, x(1, 2) = Z
    g = image_minor(lambda i, j: (X, Y, Z)[i + j - 1],
                    (0, 1, 2), (0, 1, 2)) * Fraction(-1, 2)
    # w = (z^2 - 1)/(zZ - Y) and w' = (z^-2 - 1)/(z^-1 Z - Y)
    num = (z * z - 1) * (z ** -2 - 1)
    den = (z * Z - Y) * (z ** -1 * Z - Y)
    # the right side 1 + (z^2 g + (2zX - zYZ + f) f)/rden
    rden = z * (z * Z - Y) * (z * Y - Z)
    rnum = rden + z * z * g + (2 * z * X - z * Y * Z + f) * f
    out["lemma_ww"] = (not den.is_zero() and not rden.is_zero()
                       and num * rden == rnum * den)

    out["lemma_h"] = all(m.is_zero() for m in _phi_minors(4))

    vs = ("X1", "X2", "X3")
    X1, X2, X3 = (MPoly.var(vs, v) for v in vs)
    one = MPoly.const(vs, 1)
    ys = [one, X1, X2, X3]

    def r2(i, j):
        return ys[i] / ys[j] + ys[j] / ys[i]

    lhs = (X1 * X2 * X3 + 1) * (r2(0, 1) * r2(0, 2) + r2(0, 3) - r2(1, 2))
    rhs = (X1 * X2 + X3) * (
        r2(0, 1) * r2(0, 2) * r2(0, 3) + 2
        - Fraction(1, 2) * (r2(1, 2) * r2(0, 3) + r2(1, 3) * r2(0, 2)
                            + r2(2, 3) * r2(0, 1)))
    out["lemma_w1w2w3"] = lhs == rhs
    return out


# ---------------------------------------------------------------------------
# the linear forms e_k and the converse substitutions

class EPolynomial:
    """e_k = sum_{i<j} P_{k,i} P_{k,j} X_{i,j} + sum_i P_{k,i}^2 - n.

    Linear in the X_{i,j}; coefficients are rational functions of q,
    held as values of the base ring of the X's tower (``e_polynomials``).
    """

    def __init__(self, k, coeffs, constant):
        self.k = k
        self.coeffs = coeffs      # {(i, j): RatQ or PolyQ}
        self.constant = constant  # RatQ or PolyQ

    def evaluate(self, values, t=1):
        """Plug in X_{i,j} -> values[(i,j)], homogenized by t (the
        constant term times t): tower elements over a base ring that
        holds the coefficients, ``RF_DESC``'s RatQ or ``RING_DESC``'s
        PolyQ."""
        acc = self.constant * t
        for pair, c in self.coeffs.items():
            acc = values[pair] * c + acc
        return acc


@cache
def e_polynomials(base=RatQ):
    """The d linear forms cutting out type-II points, k = 1..d.

    The coefficients are values of ``base``: RatQ, or PolyQ for
    numerators over ``RING_DESC``, where each coefficient is checked to
    be a polynomial (denominator 1) and ValueError is raised otherwise.
    Cached; the forms are shared and never mutated.
    """
    if base is PolyQ:
        return tuple(EPolynomial(e.k, {pair: _polynomial(c)
                                       for pair, c in e.coeffs.items()},
                                 _polynomial(e.constant))
                     for e in e_polynomials())
    P = parametric_scheme().P
    d = len(P) - 1
    n = sum(P[0][j] for j in range(d + 1))
    out = []
    for k in range(1, d + 1):
        coeffs = {(i, j): P[k][i] * P[k][j]
                  for i in range(d + 1) for j in range(i + 1, d + 1)}
        constant = sum((P[k][i] * P[k][i] for i in range(d + 1)), RatQ(0)) - n
        out.append(EPolynomial(k, coeffs, constant))
    return tuple(out)


def _polynomial(c):
    """A RatQ of denominator 1 as its PolyQ numerator."""
    if c.den != 1:
        raise ValueError(f"{c!r} is not a polynomial in q")
    return c.num


def _pair_values(case):
    vec = case_a_symbolic(case)
    return {pair: vec[t] for t, pair in enumerate(PAIRS)}


def converse_constraints(values, t=1):
    """The 10 ``image_minors`` and then the 3 e_k at a substitution dict
    {(i,j): element}, homogenized by t.

    With t = 1 and elements over ``RF_DESC`` these are the constraints
    themselves.  With numerators N = t*a over ``RING_DESC`` and t their
    denominator (``converse_numerators``), each minor is t^3 times, and
    each e_k t times, its value at a.  The e_k coefficients are taken in
    the base ring of the elements' tower.
    """
    out = image_minors(lambda i, j: values[min(i, j), max(i, j)], 4, t)
    for e in e_polynomials(values[(0, 1)].desc.base):
        out.append(e.evaluate(values, t))
    return out


def converse_numerators(values):
    """(N, D) for a substitution dict of elements over ``RF_DESC``.

    D is the monic lcm of the denominators of every coordinate, and
    N[(i, j)] = D * values[(i, j)], an element over ``RING_DESC``: each
    coordinate is its numerator times D over its denominator.  When no
    value involves r, every N lies in Q[q], the base ring of
    ``RING_DESC``, and is kept there, at depth 0.
    """
    dens = {c.den for v in values.values() for c in v.rep}
    D = PolyQ(1)
    for den in dens:
        D = D * den.divmod(D.gcd(den))[0]
    nums = {pair: tuple(D.divmod(c.den)[0] * c.num for c in v.rep)
            for pair, v in values.items()}
    if any(b for _, b in nums.values()):
        return {pair: TowerElement(RING_DESC, n)
                for pair, n in nums.items()}, D
    base = RING_DESC.prefix(0)
    return {pair: TowerElement(base, a) for pair, (a, _) in nums.items()}, D


def converse_zeros(values):
    """Which converse constraints vanish identically at a substitution
    dict of elements over ``RF_DESC``: one bool per entry of
    ``converse_constraints(values)``, decided on
    ``converse_numerators(values)`` as ``verify_converse`` explains."""
    nums, den = converse_numerators(values)
    return [c.is_zero() for c in converse_constraints(nums, den)]


def verify_converse(case):
    """Does the family's a-vector annihilate every constraint in q?

    The six a-values are put over their lcm denominator D, a monic
    polynomial, and the constraints are evaluated on the numerators
    N = D*a, homogenized by D (``converse_zeros``), in the ring
    Q[q][r]/(r^2 - (17q-1)(q-1)) of ``RING_DESC``, with no polynomial
    gcd along the way.  That is sound:

    * D != 0 in Q(q), so each minor at (N, D) is D^3 times, and each
      e_k D times, its value at a; one is zero exactly when the other is.
    * (17q-1)(q-1) is not a square in Q(q), so the ring embeds in the
      field Q(q)(r) of ``RF_DESC`` with {1, r} a basis of both: an
      element is zero exactly when both of its PolyQ coordinates are.
    * The e_k coefficients are polynomials in q, as ``e_polynomials``
      checks, so each e_k at (N, D) lies in the ring.

    A True answer is an identity for all q, and for the sixth family for
    both signs of r, not a sampled statement.
    """
    return all(converse_zeros(_pair_values(case)))


# ---------------------------------------------------------------------------
# the symmetry functional (used by the Nomura-algebra argument)

def ns_symbolic(case):
    """sum_{j<k} p_jk^i (a_{j,k}^2 - 2) + sum_j p_jj^i for i = 1..3,
    as exact functions of q (and r for the sixth family)."""
    vals = _pair_values(case)
    return symmetry_functional(parametric_scheme().B,
                               lambda j, k: vals[(j, k)])


def ns_norm_numerator(case, i):
    """Numerator of the i-th symmetry value, after eliminating r.

    Values free of r keep their own numerator; values A + B*r go through
    the norm A^2 - B^2 (17q-1)(q-1), whose vanishing at some q captures
    "zero for one of the two signs of r".
    """
    v = ns_symbolic(case)[i - 1]
    plain, r_part = v.rep
    if not r_part:
        return plain.num
    plain, r_part = (v * v.galois_conj()).rep
    assert not r_part
    return plain.num


# ---------------------------------------------------------------------------
# nonvanishing sweeps

def even_q_range(bound=DEFAULT_SWEEP_BOUND):
    return range(4, bound + 1, 2)


def scan_nonvanishing(expr_id, case, q_set):
    """Evaluate one family of nonvanishing claims at every q of ``q_set``
    (``even_q_range(bound)`` is the usual sweep).

    expr_id:
      nomura_symmetric_k : the symmetry functional for i = 1, 2, 3
      jones_adjacency    : sums p_ij^m p_3k^i w_i^2/(w_k w_j), m = 1, 2,
                           of W and of its entrywise inverse W^(-)
      jones_component    : infeasibility of the linear system on the
                           unknown triangle counters (with both ratio
                           sums and all marginals imposed)

    Returns [(q, ok), ...]; raises ViolationFound when a zero shows up,
    which would contradict the classification.
    """
    case = normalize_case(case)
    ok_at = {"nomura_symmetric_k": _nomura_symmetric_ok,
             "jones_adjacency": _jones_adjacency_ok,
             "jones_component": _jones_component_ok}.get(expr_id)
    if ok_at is None:
        raise ValueError(f"unknown expression id {expr_id!r}")
    results = [(q, ok_at(case, q)) for q in q_set]
    violations = [q for q, ok in results if not ok]
    if violations:
        raise ViolationFound(f"{expr_id}/{case}: zero at q in {violations}")
    return results


_TRIPLES = tuple(itertools.product(range(4), repeat=3))
# the unknown counters c_ijk, i, j, k in {1, 2}, ordered so that turning a
# 2 of a counter into a 1 gives an earlier counter; for each counter t,
# the marginal lines through t along the slots where t holds a 2: the
# line's other two indices and its counter with a 1 in that slot; and the
# kernel s_ijk = (-1)^(i+j+k) of the line sums
_COUNTERS = tuple(itertools.product((1, 2), repeat=3))
_LINES = {t: [(t[:a] + t[a + 1:], t[:a] + (1,) + t[a + 1:])
              for a in range(3) if t[a] == 2] for t in _COUNTERS}
_SIGNS = {t: -1 if sum(t) % 2 else 1 for t in _COUNTERS}
_Coefficients = namedtuple("_Coefficients", "symmetry adjacency fixed")


@cache
def _coefficients(scheme, q):
    """The integer coefficient tables (``_integral``) of the three
    sweeps at ``scheme.p_at(q)``, built once for all cases: each maps
    terms T(i, j, k) = w_i^2/(w_j w_k) to their weights.  ``symmetry``,
    for i = 1..3, weighs T(j, k, k) and T(k, j, j), j < k, by p_jk^i and
    T(0, 0, 0) by sum_j p_jj^i; ``adjacency``, for m = 1, 2, T(i, j, k)
    by p_ij^m p_3k^i; ``fixed`` holds the known counters and c0 of
    ``_jones_component_ok``, or is None for inconsistent marginals.
    """
    p_at = scheme.p_at(q)
    symmetry = tuple(_integral({
        (0, 0, 0): sum(p_at[j][j][i] for j in range(4)),
        **{(a, b, b): p_at[j][k][i] for j, k in PAIRS
           for a, b in ((j, k), (k, j)) if p_at[j][k][i]}})
        for i in (1, 2, 3))
    adjacency = tuple(_integral({(i, j, k): p_at[i][j][m] * p_at[3][k][i]
                                 for i, j, k in _TRIPLES
                                 if p_at[i][j][m] and p_at[3][k][i]})
                      for m in (1, 2))
    c0 = {(1, 1, 1): Fraction(0)}
    for t in _COUNTERS[1:]:
        (j, k), lower = _LINES[t][0]
        c0[t] = p_at[j][k][3] - c0[lower]
    fixed = None
    if all(c0[t] + c0[lower] == p_at[j][k][3]
           for t in _COUNTERS for (j, k), lower in _LINES[t]):
        known = {(0, 3, 3): 1, (3, 0, 3): 1, (3, 3, 0): 1,
                 (3, 3, 3): p_at[3][3][3] - 1}
        fixed = _integral({t: c for t, c in {**known, **c0}.items() if c})
    return _Coefficients(symmetry, adjacency, fixed)


def _integral(coeffs):
    """The coefficients times the lcm of their denominators: integers
    with the same zero tests for every sum they weight."""
    den = lcm(*(Fraction(c).denominator for c in coeffs.values()))
    return {t: int(c * den) for t, c in coeffs.items()}


def _terms(flat, ratio, keys):
    """The term table {(i, j, k): ratio[i][j] * ratio[i][k]} over the
    keys: of a family's ``ratio_table`` R, T(i, j, k) = w_i^2/(w_j w_k),
    and of R transposed, w_j w_k/w_i^2, each one ``int_mul`` of two
    entries, so its tower value times the same tden * scale^2 > 0."""
    return {(i, j, k): flat.int_mul(ratio[i][j], ratio[i][k])
            for i, j, k in keys}


def _term_tables(case, q, keys):
    """(flat, ff, gg) for each r sign of a family's branch +1 at q: the
    ``FlatTower`` and the ``_terms`` of the weights (ff) and of their
    inverses (gg), which are gg and ff of branch -1, W^(-)."""
    for fam in all_families(q, (case,), branches=(1,)):
        flat = fam.coords[0]
        ratio, _ = fam.ratio_table
        yield flat, _terms(flat, ratio, keys), \
            _terms(flat, tuple(zip(*ratio)), keys)


def _int_sum(terms, coeffs, dim):
    """sum_t coeffs[t] * terms[t] on integer coordinate vectors."""
    acc = [0] * dim
    for t, c in coeffs.items():
        for k, x in enumerate(terms[t]):
            acc[k] += c * x
    return acc


def symmetry_sums(family):
    """The symmetry values sum_{j<k} p_jk^i (a_{j,k}^2 - 2) + sum_j p_jj^i,
    i = 1..3, of a family at its q, on integer coordinates: as
    a_{j,k}^2 - 2 = T(j, k, k) + T(k, j, j) and 1 = T(0, 0, 0), the
    ``symmetry`` coefficients of q summed over the family's own
    ``_terms``, each sum its value times a positive integer."""
    weights = _coefficients(parametric_scheme(), family.q).symmetry
    flat = family.coords[0]
    ff = _terms(flat, family.ratio_table[0], set().union(*weights))
    return [_int_sum(ff, coeffs, flat.dim) for coeffs in weights]


def _nomura_symmetric_ok(case, q):
    """No symmetry value vanishes at q, for either sign of r; W^(-) has
    W's a_{j,k}, and so its values."""
    return all(any(s) for fam in all_families(q, (case,), branches=(1,))
               for s in symmetry_sums(fam))


def _adjacency_sums(case, q):
    """sum_{i,j,k} p_ij^m p_3k^i w_i^2/(w_j w_k) on integer coordinates,
    for m = 1, 2 of W (ff), then of W^(-) (gg), for each r sign.

    The coefficients are scaled to integers and every term shares one
    positive scale (``_term_tables``), so each sum is its tower value
    times a positive integer: it is zero exactly when that value is.
    """
    coeffs = _coefficients(parametric_scheme(), q).adjacency
    keys = coeffs[0].keys() | coeffs[1].keys()
    for flat, ff, gg in _term_tables(case, q, keys):
        for terms in (ff, gg):
            for coeff in coeffs:
                yield _int_sum(terms, coeff, flat.dim)


def _jones_adjacency_ok(case, q):
    """sum_{i,j,k} p_ij^m p_3k^i w_i^2/(w_j w_k) != 0 for m = 1, 2, each
    decided on its integer sum (``_adjacency_sums``)."""
    return all(any(s) for s in _adjacency_sums(case, q))


def _component_sums(case, q):
    """(A_ff, B_ff, A_gg, B_gg, A_ff*B_gg - A_gg*B_ff) of each r sign's
    branch +1 on integer coordinates, or nothing when the marginals are
    inconsistent (see ``_jones_component_ok``).  For W^(-), ff and gg
    swap: so do A and B, and the last entry changes sign.

    A sums the known counters and c0 with integer-scaled coefficients, B
    the signs s; every term of ff and gg shares one positive scale
    (``_term_tables``).  So each A and B is its tower value times a
    positive integer, the same one for ff and gg, and the last entry,
    an ``int_mul`` of two such, is the tower value of
    A_ff*B_gg - A_gg*B_ff times a positive integer.  Each is zero
    exactly when its tower value is.
    """
    fixed = _coefficients(parametric_scheme(), q).fixed
    if fixed is None:
        return
    for flat, ff, gg in _term_tables(case, q, fixed.keys() | _SIGNS.keys()):
        (a_ff, b_ff), (a_gg, b_gg) = [
            (_int_sum(terms, fixed, flat.dim), _int_sum(terms, _SIGNS, flat.dim))
            for terms in (ff, gg)]
        d = [x - y for x, y in zip(flat.int_mul(a_ff, b_gg),
                                   flat.int_mul(a_gg, b_ff))]
        yield a_ff, b_ff, a_gg, b_gg, d


def _jones_component_ok(case, q):
    """No field solution for the unknown counters c_ijk, i, j, k in {1, 2}.

    Known counters: the three permutations of (0, 3, 3) are 1, (3, 3, 3)
    is p_33^3 - 1, and every other pattern holding a 0 or a 3 is 0.  The
    twelve marginals say that each line of the 2 x 2 x 2 array c sums to
    p_jk^3, (j, k) being the indices off the line.  Infeasibility of
    {marginals, both ratio sums = 0} over the weight field at q is what
    the component argument needs, and it is decided without a solve:

    * The line sums have rank 7 and kernel s_ijk = (-1)^(i+j+k): each
      line holds one counter of each sign.  As s_111 != 0, consistent
      marginals have one solution c0 with c0_111 = 0, found by walking
      along lines from c_111.  They are consistent iff c0 meets all
      twelve; inconsistent ones are infeasible for every weight variant.
    * Else c = c0 + t*s, and the ratio sums over R = w_i^2/(w_j w_k) (ff)
      and over the same R of the inverted weights (gg) read A + t*B, with
      A the sum over c0 and the known counters and B = sum s_ijk R.
    * A common root t exists iff A_ff*B_gg - A_gg*B_ff = 0, except when
      B_ff = B_gg = 0, where it needs A_ff = A_gg = 0.

    Every zero test runs on ``FlatTower`` integer coordinates: each
    sum, and A_ff*B_gg - A_gg*B_ff, is a positive multiple of its tower
    value (``_component_sums``), so it is zero exactly when the value is.
    """
    for a_ff, b_ff, a_gg, b_gg, d in _component_sums(case, q):
        if any(b_ff) or any(b_gg):
            if not any(d):
                return False
        elif not any(a_ff) and not any(a_gg):
            return False
    return True
