"""The six exact weight families and their type-II / Hadamard certificates.

A weight vector (1, w1, w2, w3) turns into the matrix
W = A0 + w1*A1 + w2*A2 + w3*A3 of the 3-class scheme.  Each family
fixes the pairwise values a_{i,j} = w_i/w_j + w_j/w_i, a point in the
image of the rational map phi, as explicit rational functions of q (and
of r with r^2 = (17q-1)(q-1) for the last family).  Every family is
built by the one explicit inverse of phi: its seed weight w_s (``SEEDS``)
is the root (a_{0,s} + s)/2 of w^2 - a_{0,s}*w + 1, with
s^2 = a_{0,s}^2 - 4 adjoined in a minimal tower, and each other weight
and its inverse are a_{0,i}/2 +- c_i*s, c_i in a's field
(``_weights_from_seed``).  ``branch`` -1, the other root, is the
entrywise inverse W^(-); the sign of r is ``r_sign``.

A family's values become integers in one place, its cached
``WeightFamily.coords`` and ``ratio_table``; every certificate of a
family, here and in the identities, invariants and nomura modules,
reads those two.

Everything decided here is an exact zero test or an exact sign
(``exactfield.element_sign``); the interval arithmetic in
:mod:`bmhadamard.intervals` only double-checks unimodularity claims.
The isolation rank (``span_condition``) is certified over the real
subfield K0 below the tower's imaginary level, where the generator
matrix has the same rank: a rank mod p under a map of K0 bounds it
below, and an exact check bounds it above.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement, islice
from math import isqrt, lcm
from operator import add, mul

from .fastfield import (
    echelon_mod_p,
    flat_tower,
    kernel_mod_p,
    primes,
    rational_reconstruct,
)
from .exactfield import (
    Reducible,
    TowerElement,
    adjoin_radical,
    complex_conj,
    element_sign,
    embed_signature,
    is_real,
)
from .intervals import abs_is_one
from .ratfunc import QF, RF_DESC, RF_R, ratfunc_specialize, r_value_at
from .scheme import NoConcreteScheme, concrete_scheme, parametric_scheme

CASES = ("i", "ii", "iii", "iv", "v", "vi")
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# the seed index s of each family: w_s is a root of w^2 - a_{0,s} w + 1,
# and the inverse of phi from (w_0, w_s) gives the other weights
SEEDS = {"i": 3, "ii": 3, "iii": 1, "iv": 2, "v": 1, "vi": 1}


class InvalidCase(ValueError):
    pass


class QTooSmall(ValueError):
    pass


class ZeroWeight(ValueError):
    pass


class DenominatorZero(ZeroDivisionError):
    """The a-matrix is off the image of phi, or its seed value is +-2: a
    3 x 3 minor (``image_minor``) is not zero, or a_{i0,i1} = +-2."""


class AllPlusMinusTwo(ValueError):
    """Every a_{i,j} is +-2; use the degenerate section instead."""


class NoWitness(ValueError):
    pass


class NotSquare(ValueError):
    pass


class RankUndecided(RuntimeError):
    """``span_condition`` found no certificate in ``SPAN_PRIME_CAP`` primes."""


def normalize_case(case):
    if isinstance(case, int):
        if not 1 <= case <= 6:
            raise InvalidCase(f"no case {case}")
        return CASES[case - 1]
    c = str(case).strip().lower()
    if c in CASES:
        return c
    raise InvalidCase(f"no case {case!r}")


# ---------------------------------------------------------------------------
# symbolic a-vectors (order a01, a02, a03, a12, a13, a23)

@cache
def case_a_symbolic(case):
    """The a-values of a family as exact functions of q (and r for vi).

    For the sixth family the vector is written with +r; substituting an
    exact negative square root at specialization time gives the r < 0
    matrices.  Cached: every (q, branch, r sign) of a sweep specializes
    the same vector, and the tuple of immutable values is safe to share.
    """
    case = normalize_case(case)
    q, r, two = QF, RF_R, TowerElement.rational(2, RF_DESC)
    n = q * q - 1
    if case == "i":
        a = -(n - 2)
        return (a, a, a, two, two, two)
    if case == "ii":
        a01 = (q ** 3 - 3 * q * q - q + 7) / (q * q - 2 * q - 1)
        a13 = (-(q ** 3) + q * q + q + 3) / (q * q - 2 * q - 1)
        return (a01, a01, -(n - 2), two, a13, a13)
    if case == "iii":
        a = 2 * (q * q - 6) / (q * q - 4)
        return (a, -two, a, -a, two, -a)
    if case == "iv":
        a = -2 * (q * q - 2) / (q * q)
        return (two, a, two, a, two, a)
    if case == "v":
        a = -2 / q
        a12 = -2 * (q * q - 2) / (q * q)
        return (a, a, two, a12, a, a)
    a01 = (-(q - 1) * (q - 2) + (q + 2) * r) / (2 * q * (q + 1))
    a02 = ((q + 2) * (q - 1) - (q - 2) * r) / (2 * q * (q - 3))
    a03 = (5 * q * q - 2 * q - 19 - (q - 1) * r) / (2 * (q + 1) * (q - 3))
    a12 = 2 * (-(q ** 4) + 2 * q ** 3 + 4 * q * q - 10 * q + 1 + (q - 1) * r) \
        / (q * q * (q + 1) * (q - 3))
    return (a01, a02, a03, a12, -a02, -a01)


def case_a_values(case, q, r_value=None):
    """Specialize the a-vector at a rational q, as tower elements."""
    case = normalize_case(case)
    if case == "vi" and r_value is None:
        raise InvalidCase("the sixth family needs an exact r value")
    vec = [ratfunc_specialize(f, q, r_value) for f in case_a_symbolic(case)]
    desc = vec[0].desc
    return [v.lift(desc) for v in vec]


# ---------------------------------------------------------------------------
# weight families

class WeightFamily:
    """Exact weights (1, w1, w2, w3) of one constructed family, and
    their ``inverses`` 1/w_i, which the construction gives alongside.

    ``coords`` and ``ratio_table`` are the family's one integer view,
    computed once and kept; no other code converts a family's values.
    """

    def __init__(self, case, q, branch, r_sign, desc, weights, inverses,
                 r_value):
        self.case = case
        self.q = Fraction(q)
        self.branch = branch
        self.r_sign = r_sign
        self.desc = desc
        self.weights = tuple(weights)
        self.inverses = tuple(inverses)
        self.r_value = r_value
        if not self.weights[0] == 1:
            raise ValueError("a family's first weight w_0 must be 1")

    @property
    def n(self):
        return self.q * self.q - 1

    @cached_property
    def coords(self):
        """(flat, vectors, den): the family's ``flat_tower`` and one
        ``int_coords`` of the weights, then the inverses, over one
        denominator den; vectors[0] is w_0 = 1, that is (den, 0, ...)."""
        flat = flat_tower(self.desc)
        vectors, den = flat.int_coords(self.weights + self.inverses)
        return flat, vectors, den

    @cached_property
    def ratio_table(self):
        """(table, scale): table[i][j] = ``int_mul``(w_i, 1/w_j) on
        ``coords``, the integer coordinates of w_i / w_j times
        scale = tden * den^2 > 0.  Equal ratios have equal entries."""
        flat, vectors, den = self.coords
        table = tuple(tuple(tuple(flat.int_mul(wi, wj)) for wj in vectors[4:])
                      for wi in vectors[:4])
        return table, flat.tden * den * den

    def a_matrix(self):
        """a_{i,j} = w_i/w_j + w_j/w_i, off ``ratio_table`` and its
        transpose, 2 on the diagonal."""
        flat = self.coords[0]
        table, scale = self.ratio_table
        return [[flat.from_flat((tuple(map(add, x, y)), scale))
                 for x, y in zip(row, col)]
                for row, col in zip(table, zip(*table))]

    def label(self):
        bits = [f"case={self.case}", f"q={self.q}",
                f"branch={'+' if self.branch > 0 else '-'}"]
        if self.case == "vi":
            bits.append(f"r_sign={'+' if self.r_sign > 0 else '-'}")
        return ",".join(bits)

    def __repr__(self):
        return f"WeightFamily({self.label()})"


def discriminant_root(a):
    """(descriptor, s) with s^2 = a^2 - 4, the discriminant of the unit
    quadratic w^2 - a*w + 1, whose roots are (a +- s)/2.

    Extends a's tower by one pure-radical level unless a^2 - 4 already
    has a square root there.  A split root is taken positive when it is
    real.
    """
    try:
        return adjoin_radical(a.desc, a * a - 4)
    except Reducible as split:
        s = split.root
        # a non-real split root is kept as adjoin_radical found it
        if is_real(s) and element_sign(s) < 0:
            s = -s
        return a.desc, s


@cache
def family_coefficients(case, q, r_sign=1, branch=1):
    """Construct one family exactly at an even rational q >= 4.

    Branch +1 takes the seed weight w_s = (a_{0,s} + s)/2, a root of
    w^2 - a_{0,s} w + 1, and the inverse of phi from (1, w_s) gives the
    other weights and every inverse.  Branch -1 is W^(-), branch +1 with
    ``weights`` and ``inverses`` exchanged: delta -> -delta exchanges
    x_i and y_i in ``_weights_from_seed``, and the tower does not depend
    on delta.  Cached, and never mutated; the key of ``functools.cache``
    is the argument spelling, so (case, q) and (case, q, 1, 1) are two.
    """
    case = normalize_case(case)
    q = Fraction(q)
    if q < 4:
        raise QTooSmall(f"q = {q} < 4")
    if branch not in (1, -1) or r_sign not in (1, -1):
        raise InvalidCase("branch and r_sign must be +-1")
    if branch == -1:
        fam = family_coefficients(case, q, r_sign, 1)
        return WeightFamily(case, q, -1, r_sign, fam.desc, fam.inverses,
                            fam.weights, fam.r_value)
    r_val = r_value_at(q, r_sign) if case == "vi" else None
    a = [[None] * 4 for _ in range(4)]
    for (i, j), v in zip(PAIRS, case_a_values(case, q, r_val)):
        a[i][j] = a[j][i] = v
    desc, s = discriminant_root(a[0][SEEDS[case]])
    weights, inverses = _weights_from_seed(a, 0, SEEDS[case], s)
    if case == "vi" and not weights[1] * weights[2] == -weights[3]:
        raise InvalidCase("w1*w2 = -w3 failed; inconsistent construction")
    if r_val is not None:
        r_val = r_val.lift(desc)
    return WeightFamily(case, q, 1, r_sign, desc, weights, inverses, r_val)


def all_families(q, cases=CASES, branches=(1, -1)):
    """Every family variant at q: each branch, and both r signs for vi."""
    return [family_coefficients(case, q, r_sign, branch)
            for case in map(normalize_case, cases) for branch in branches
            for r_sign in ((1, -1) if case == "vi" else (1,))]


# ---------------------------------------------------------------------------
# the rational map and its inverse

def weight_ratios(weights):
    """The table ratios[i][j] = w_i / w_j of nonzero weights, in the
    deepest of their towers: one inverse per weight, one product per
    entry.  ``phi`` and ``reconstruct_weights`` read it; a constructed
    family's ratios are its integer ``WeightFamily.ratio_table``."""
    ws = list(weights)
    desc = max((w.desc for w in ws), key=lambda d: d.depth)
    ws = [w.lift(desc) for w in ws]
    if any(w.is_zero() for w in ws):
        raise ZeroWeight("weight ratios need nonzero weights")
    inverses = [w.inverse() for w in ws]
    return tuple(tuple(wi * wj for wj in inverses) for wi in ws)


def phi(weights):
    """a_{i,j} = w_i/w_j + w_j/w_i for a vector of nonzero weights; its
    image is the zero set of ``image_minors``."""
    ratios = weight_ratios(weights)
    return [[x + y for x, y in zip(row, col)]
            for row, col in zip(ratios, zip(*ratios))]


def image_minor(x, rows, cols, t=1):
    """The rows x cols minor, for index triples rows and cols, of the
    symmetric M with M_ii = 2t and M_ij = x(i, j).  It is a cubic, so 2t
    on the diagonal homogenizes it: at (t*x, t) it is t^3 times its value
    at x.  A principal minor is expanded in closed form."""
    if rows == cols:
        i, j, k = rows
        a, b, c = x(i, j), x(i, k), x(j, k)
        half = a * (b * c - t * a) - t * (b * b + c * c - 4 * t * t)
        return half + half
    (a, b, c), (d, e, f), (g, h, k) = (
        [2 * t if i == j else x(i, j) for j in cols] for i in rows)
    return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)


def image_minors(x, size, t=1):
    """Every distinct ``image_minor`` of the size x size M, one per pair
    of index triples rows <= cols (10 at size 4).  They all vanish exactly
    when M = phi(w): phi(w) = u*v^T + v*u^T, u = w, v = 1/w, has rank
    <= 2, and a symmetric M of rank <= 2 is the form 2(u.x)(v.x) over C,
    where M_ii = 2 gives u_i*v_i = 1."""
    triples = list(combinations(range(size), 3))
    return [image_minor(x, rows, cols, t)
            for rows, cols in combinations_with_replacement(triples, 2)]


def reconstruct_weights(a, i0, i1, w_pair):
    """Invert phi from a seed pair: the weights w with phi(w) = a and
    (w_{i0}, w_{i1}) = w_pair.

    The seeds must satisfy w0/w1 + w1/w0 = m = a_{i0,i1}.  For m != +-2
    the inverse is a rank-2 factorization (``_weights_from_seed``), and
    as the block of a on {i0, i1} is invertible, a is in the image of
    phi exactly when its Schur complement, the minors
    {i0, i1, i} x {i0, i1, j}, vanishes.  An all-+-2 a is in the image
    only as 2*e*e^T, of rank 1: the section through (2, a_{0,1}, ...).
    An a off the image raises DenominatorZero; one with only some
    entries +-2 raises AllPlusMinusTwo, to be reseeded.
    """
    d1 = len(a)
    w0, w1 = w_pair
    if phi(w_pair)[0][1] != a[i0][i1]:
        raise ValueError("seed pair does not match a[i0][i1]")
    two = TowerElement.rational(2, w0.desc)
    if a[i0][i1] == two or a[i0][i1] == -two:
        if not all(a[i][j] == two or a[i][j] == -two
                   for i in range(d1) for j in range(i + 1, d1)):
            raise AllPlusMinusTwo(
                "a[i0][i1] = +-2 but the matrix is not degenerate")
        if not all(m.is_zero()
                   for m in image_minors(lambda i, j: a[i][j], d1)):
            raise DenominatorZero("a +-2 matrix off the image of phi")
        section = [two] + [a[0][j] for j in range(1, d1)]
        scale = w_pair[0] / section[i0]
        return [s * scale for s in section]
    xs, _ = _weights_from_seed(a, i0, i1, 2 * (w1 / w0) - a[i0][i1])
    for i, j in combinations(range(d1), 2):
        if {i, j}.isdisjoint((i0, i1)) and not image_minor(
                lambda r, c: a[r][c], (i0, i1, i), (i0, i1, j)).is_zero():
            raise DenominatorZero(f"a[{i}][{j}] is off the image of phi")
    return [x * w0 for x in xs]


def _weights_from_seed(a, i0, i1, delta):
    """The inverse of phi as a linear closed form: the ratios
    x_i = w_i / w_{i0} and their inverses y_i = 1/x_i, as two lists.

    The seed ratio u = w_{i1} / w_{i0} is given by delta = u - 1/u.
    With m = a_{i0,i1} = u + 1/u, u = (m + delta)/2 and
    delta^2 = m^2 - 4.  For every other i, x = x_i and y = y_i solve the
    linear system
        x + y = a_{i0,i},    x/u + u*y = a_{i1,i}.
    Eliminating y gives x (1/u - u) = a_{i1,i} - u a_{i0,i}, and so
        x, y = a_{i0,i}/2 +- c_i*delta,
        c_i = (a_{i0,i}*m - 2*a_{i1,i}) / (2(m^2 - 4)),
    where c_i lies in a's field: one inverse there, 1/(2(m^2 - 4)), and
    no inverse or division in delta's tower.  The solution has
    x*y = a_{i0,i}^2/4 - c_i^2 (m^2 - 4), and 2(m^2 - 4)(x*y - 1) is the
    principal ``image_minor`` of a on {i0, i1, i}, so x*y = 1 exactly
    when that minor vanishes.  That exact check, one per i, certifies
    y = 1/x, so then w_i/w_{i0} + w_{i0}/w_i = a_{i0,i} and
    w_i/w_{i1} + w_{i1}/w_i = a_{i1,i}.  DenominatorZero is raised for
    m = +-2 and for a nonzero minor.
    """
    m = a[i0][i1]
    disc = m * m - 4
    if disc.is_zero():
        raise DenominatorZero(f"a[{i0}][{i1}] = +-2")
    scale = (2 * disc).inverse()
    half = Fraction(1, 2)
    xs, ys = [None] * len(a), [None] * len(a)
    xs[i0] = ys[i0] = TowerElement.rational(1, delta.desc)
    xs[i1], ys[i1] = (m + delta) * half, (m - delta) * half
    for i in range(len(a)):
        if i in (i0, i1):
            continue
        if not image_minor(lambda j, k: a[j][k], (i0, i1, i),
                           (i0, i1, i)).is_zero():
            raise DenominatorZero(f"minor {i0}, {i1}, {i} of a is not 0")
        a0, a1 = a[i0][i], a[i1][i]
        step = (a0 * m - 2 * a1) * scale * delta
        xs[i], ys[i] = a0 * half + step, a0 * half - step
    return xs, ys


# ---------------------------------------------------------------------------
# dense matrices and certificates

class TypeIIMatrix:
    """A weight family attached to a scheme, with a dense expansion."""

    def __init__(self, family):
        self.family = family
        self.scheme = concrete_scheme(family.q)
        self._dense = None

    @property
    def weights(self):
        return self.family.weights

    def dense(self):
        if self._dense is None:
            w = self.weights
            self._dense = [[w[c] for c in row] for row in self.scheme.rel]
        return self._dense


def is_type_ii(family):
    """Spectral type-II test: beta_k * beta'_k = n for k = 1..d.

    beta_k = sum_j w_j P_{k,j} and beta'_k uses the inverted weights,
    the family's ``inverses``.  Both are read off the family's
    ``coords``, the weights and inverses over one denominator den, and
    P over the lcm s of its denominators, so each beta_k and beta'_k is
    an integer combination with value beta * den * s.  Their ``int_mul``
    is then beta_k * beta'_k times tden * (den * s)^2 > 0, and it equals
    n * tden * (den * s)^2 times the unit coordinate exactly when
    beta_k * beta'_k = n.  No product is divided or reduced.
    Where a concrete scheme exists (``concrete_scheme``) the dense identity
    W * (W^(-))^T = n I is verified as well, on the family's
    ``ratio_table``, and must agree.
    Returns (bool, certificate dict).
    """
    flat, coords, den = family.coords
    w, w_inv = coords[:4], coords[4:]
    P = parametric_scheme().eigenmatrix_at(family.q)
    s = lcm(*(x.denominator for row in P for x in row))
    n = family.n
    target = [n * flat.tden * (den * s) ** 2] + [0] * (flat.dim - 1)
    products = []
    for row in P:
        p = [int(x * s) for x in row]
        beta = [sum(map(mul, p, col)) for col in zip(*w)]
        beta_p = [sum(map(mul, p, col)) for col in zip(*w_inv)]
        products.append(flat.int_mul(beta, beta_p) == target)
    ok = all(products[1:])
    cert = {
        "beta_products_equal_n": products,
        "n": n,
    }
    if ok and not products[0]:
        # the trace argument forces k = 0 as well; a failure here would
        # contradict the spectral identity
        raise AssertionError("beta_0 beta'_0 != n while k>=1 all pass")
    try:
        cert["dense_identity"] = _dense_type_ii_check(family)
    except NoConcreteScheme:
        return ok, cert
    if cert["dense_identity"] != ok:
        raise AssertionError("dense and spectral type-II tests disagree")
    return ok, cert


def _dense_type_ii_check(family):
    """Exact dense identity W * (W^(-))^T = n I, on integer coordinates.

    Entry (x, y) is the sum over t of w_rel[x][t] / w_rel[y][t], which
    is entry (i, j) = (rel[x][t], rel[y][t]) of the family's
    ``ratio_table``: w_i / w_j times one scale > 0.  Entries with the
    same multiset of terms have the same sum (``_entry_terms``), so each
    distinct multiset is summed once as an integer vector, and compared
    with n * scale * e_0 where it sits on the diagonal and with 0 where
    it sits off it.
    """
    scheme = concrete_scheme(family.q)
    ratio, scale = family.ratio_table
    zero = [0] * family.coords[0].dim
    diagonal = [scheme.n * scale] + zero[1:]
    for on_diagonal, terms in _entry_terms(scheme.rel):
        acc = list(zero)
        for (i, j), m in terms:
            for k, c in enumerate(ratio[i][j]):
                acc[k] += m * c
        if acc != (diagonal if on_diagonal else zero):
            return False
    return True


@cache
def _entry_terms(rel):
    """The distinct (x == y, terms) over the entries (x, y) of
    W * (W^(-))^T, terms being the multiset {(rel[x][t], rel[y][t])}
    over t as sorted ((i, j), count) pairs: four for an association
    scheme, one per class of (x, y)."""
    return {(x == y, tuple(sorted(Counter(zip(row, col)).items())))
            for x, row in enumerate(rel) for y, col in enumerate(rel)}


def is_hadamard(family):
    """Exact complex-Hadamard test for a constructed family.

    Primary criterion: every a_{i,j} is real and every weight has unit
    modulus, both certified symbolically (conj(w) * w = 1, where conj is
    the tower's complex conjugation).  The open-interval criterion (all
    a real and some a_{i0,i1} strictly inside (-2, 2)), which is the
    sufficient condition used to prove unimodularity, is evaluated too
    and must agree.  A unimodular type-II matrix is Hadamard; the type-II
    half is ``is_type_ii``'s, which the callers run first.  Returns
    (bool, certificate dict).
    """
    a = family.a_matrix()
    all_real = all(is_real(a[i][j]) for i in range(4) for j in range(i + 1, 4))
    unimodular = all_real and all(
        complex_conj(w) * w == 1 for w in family.weights)
    interval_hit = None
    if all_real:
        for i in range(4):
            for j in range(i + 1, 4):
                if element_sign(a[i][j] + 2) > 0 and element_sign(2 - a[i][j]) > 0:
                    interval_hit = (i, j)
                    break
            if interval_hit:
                break
    interval_criterion = all_real and interval_hit is not None
    if interval_criterion and not unimodular:
        raise AssertionError("interval criterion fired but |w| != 1")
    cert = {
        "a_all_real": all_real,
        "unit_modulus_exact": unimodular,
        "interval/criterion": interval_criterion,
        "interval_witness": interval_hit,
    }
    if unimodular:
        cert["numeric_guard_1e-12"] = all(abs_is_one(w, 12)
                                          for w in family.weights)
        if not cert["numeric_guard_1e-12"]:
            raise AssertionError("interval guard contradicts exact |w| = 1")
    return unimodular, cert


# ---------------------------------------------------------------------------
# non-Butson witnesses

def is_algebraic_integer(x):
    """Exact test for elements of degree <= 2 over Q."""
    x = x.descend()
    if x.desc.depth == 0:
        return x.rep.denominator == 1
    if x.desc.depth == 1:
        a, b = x.rep
        s = x.desc.levels[0]
        # minimal polynomial t^2 - trace t + norm
        trace = 2 * a
        norm = a * a - b * b * s
        return trace.denominator == 1 and norm.denominator == 1
    raise ValueError("witness test implemented for degree <= 2 only")


def non_butson_witness(family):
    """a_{0,s}, s the family's seed index, when it is not an algebraic
    integer (families iii-vi; for i and ii it is -(q^2 - 3)).

    Such a witness rules out all entries being roots of unity.  Returns
    (pair, element, reason).
    """
    pair = (0, SEEDS[family.case])
    witness = family.a_matrix()[0][pair[1]].descend()
    if is_algebraic_integer(witness):
        raise NoWitness(f"case {family.case}: a{pair} is an algebraic integer")
    if witness.desc.depth == 0:
        reason = f"rational with denominator {witness.rep.denominator}"
    else:
        tr = witness.trace_conj()[0].descend().as_rational()
        reason = f"quadratic with non-integral trace {tr}"
    return pair, witness, reason


# ---------------------------------------------------------------------------
# isolation: the span condition

# the candidate primes span_condition draws before it gives up: near fifty
# times the most that 300 random 5 x 5 inputs over vi's tower drew (41,
# most of them for the kernel lift of B_Q, whose modulus grows 24 bits a
# prime; 300 inputs of the test's strategy drew at most 37), and far above
# the 1 to 3 primes each q = 4 verdict eliminates on (vi's two also skip
# the first four, which have no map of K0)
SPAN_PRIME_CAP = 2000


def span_condition(dense, desc, return_rank=False):
    """Certified rank test of the commutator span of a Hadamard matrix.

    Generators are [v, H* u H] over all diagonal units u, v: the row
    (w, v) of the generator matrix A has R_(v,y) = conj(H_wv) H_wy at
    column (v, y) and R_(y,v) = -conj(H_wy) H_wv at (y, v), for y != v.
    The matrix is isolated when their span has dimension (n - 1)^2.

    The rank is that of B, A written over the real subfield K0.  When
    the top level t of the tower K is imaginary, complex conjugation
    sigma is t -> -t, K0 is the tower below t, and R_(y,v) = -sigma(a)
    for a = R_(v,y) = a0 + t a1 with a0, a1 in K0.  So a row of A reads,
    over the pairs v < y,
        a0 (x_(v,y) - x_(y,v)) + a1 t (x_(v,y) + x_(y,v)),
    and B has a0 at column (v, y) and a1 at (y, v).  Then A = B N, where
    N is block diagonal with one 2 x 2 block [[1, -1], [t, t]] per pair,
    of determinant 2t != 0: N is invertible, and
    rank_K A = rank_K B = rank_K0 B, since B's entries lie in K0.  On a
    tower with no imaginary level (sigma = id, K0 = K) a row of A reads
    a (x_(v,y) - x_(y,v)); B keeps one column (v, y) per pair, the entry
    a, and A = B M with M onto, so again rank A = rank B.

    The n rows of one w sum to zero for every H: column (v, y) gets
    conj(H_wv) H_wy from row (w, v) and its negative from row (w, y).
    So B keeps the n(n - 1) rows (w, v), v < n - 1, with the same span:
    every rank, pivot column and kernel below is that of all n^2 rows.

    The rank r of B over K0 is pinned between a lower and an upper
    bound, both exact.  The upper bound is fixed before any prime:

    * the number of columns of B, the route of every real tower of full
      rank;
    * or (n - 1)^2, when that is smaller and H*H is diagonal, which is
      checked exactly.  The n sums of the rows of one w vanish, and the
      n sums of the rows of one v are the off-diagonal entries of H*H,
      so they vanish too.  The row and column indicator vectors of an
      n x n grid span 2n - 1 dimensions, so rank A <= n^2 - (2n - 1).

    Each prime p is used through one ring map of K0 onto F_p
    (``FlatTower.embedding``) when it has one.  The map sends the
    elements of K0 with p-integral coordinates onto F_p.  B's exact rows
    are integer coordinates over K0 (B times one positive integer), so a
    nonzero minor mod p is the image of a nonzero minor over K0: the
    rank mod p is a lower bound, and when it equals the upper bound it
    settles r.

    Otherwise a kernel certificate over Q bounds r.  With d = [K0:Q] and
    K0's basis e, restriction of scalars writes B as the d-times-larger
    matrix B_Q over Q: its entry at row (r, k) and column (c, l) is
    coordinate k of B[r][c] e_l.  B_Q x = 0 says that B kills the vector
    of K0 with coordinates x, so rank_Q B_Q = d r.  B_Q is an integer
    matrix, so once a rank under a map has fallen short, every prime
    eliminates it, with a map of K0 or without; before that a prime
    with no map is skipped, as B_Q is d times larger than B.
    The reduced-echelon kernel of B_Q mod p is combined over primes by
    CRT and lifted by rational reconstruction, and each lifted vector is
    checked to satisfy B_Q x = 0 exactly.  Their identity block on the
    free columns makes them independent, so rank_Q B_Q is at most the
    rank of B_Q mod p, which is also a lower bound, and
    r = rank_p(B_Q) / d.  When K0 = Q, B_Q is B and the elimination
    under the map serves both.  A prime whose rank falls below the best
    so far, or whose pivots come later, is dropped; a failed
    reconstruction or check asks for another prime.

    The order of B's rows is free (``_CommutatorSpan.rows`` picks the
    fastest).  Under least-column pivoting, column c is a pivot iff the
    row space holds a vector whose least column is c, and the
    reduced-echelon kernel is unique, so the pivots compared across
    primes and the kernels combined by CRT depend only on the row space.

    The primes are word-size, below 2^24 (``primes``), which keeps the
    packed rows of each elimination narrow.  Their size bears on no
    verdict: a rank under a map bounds r from below for every prime,
    and a kernel counts only once its exact check passes.  A small
    prime is only more often unlucky, with a rank that drops or a CRT
    modulus still too small for the lift, and either way the next prime
    is drawn.  At q = 4 every verdict settles on one prime but iii's,
    whose kernel lift takes three.

    No step rounds, and no verdict rests on an unchecked prime.  Raises
    ``RankUndecided`` when ``SPAN_PRIME_CAP`` primes give no certificate.
    """
    n = len(dense)
    if any(len(row) != n for row in dense):
        raise NotSquare("dense matrix is not square")
    span = _CommutatorSpan(desc, n, [e.lift(desc) for row in dense
                                     for e in row])
    target, d = (n - 1) ** 2, span.flat.dim
    upper = len(span.columns)
    if target < upper and span.gram_is_diagonal():
        upper = target
    best, modulus, residues = None, 1, {}
    for p in islice(primes(), SPAN_PRIME_CAP):
        img = span.flat.embedding(p)  # never None when K0 = Q
        if img is not None:
            pivots = echelon_mod_p(span.rows_mod_p(img, p), p)
            if len(pivots) == upper:
                rank = upper
                break
        elif best is None:
            continue  # the kernel route has not started
        if d > 1:
            pivots = echelon_mod_p(span.rows_over_q, p)
        key = sorted(pivots)
        if best is None or (-len(key), key) < (-len(best), best):
            best, modulus, residues = key, 1, {}  # start over from p
        elif key != best:
            continue  # a lower rank or later pivots: p is unlucky
        residues = _crt(residues, modulus,
                        kernel_mod_p(pivots, span.q_columns, p), p)
        modulus *= p
        vectors = _lift(residues, modulus)
        if vectors is not None and span.annihilates(vectors):
            rank = len(best) // d
            break
    else:
        raise RankUndecided(f"no rank certificate in {SPAN_PRIME_CAP} primes")
    if return_rank:
        return rank == target, rank
    return rank == target


class _CommutatorSpan:
    """The matrix B of ``span_condition``, read off one table of products.

    H is kept as ``entries``, row-major indices into its m distinct
    values h_a, and ``table`` holds T[a][b] = conj(h_a) h_b over K: m^2
    ``int_mul`` products of the integer coordinates of the h_a and their
    conjugates over one denominator den, so each entry is its exact
    value times ``scale`` = tower.tden * den^2 > 0.  ``rows`` reads B's
    exact rows, its rows mod p and B_Q off T, reading each signed entry
    of T once: its parts over K0 (``flat``) are the low half of its
    coordinates, K0's basis, and the high half, t times it.
    """

    def __init__(self, desc, n, H):
        self.n = n
        self.tower = flat_tower(desc)
        index = {}
        self.entries = [index.setdefault(e, len(index)) for e in H]
        m = len(index)
        coords, den = self.tower.int_coords(
            [complex_conj(e) for e in index] + list(index))
        self.scale = self.tower.tden * den * den
        self.table = [[self.tower.int_mul(c, h) for h in coords[m:]]
                      for c in coords[:m]]
        self.split = desc.depth > 0 and embed_signature(desc)[-1] < 0
        self.flat = (flat_tower(desc.prefix(desc.depth - 1)) if self.split
                     else self.tower)
        self.columns = [v * n + y for v in range(n) for y in range(n)
                        if v < y or self.split and v != y]
        d = self.flat.dim
        self.q_columns = [c * d + l for c in self.columns for l in range(d)]

    def rows(self, read):
        """B's rows, [{column: read(x)}], x an entry's integer
        coordinates over K0 times ``scale``.

        Row (w, v), v < n - 1, has a = T[H_wv][H_wy] at (v, y), v < y,
        and a = -T[H_wy][H_wv] at (y, v), y < v; when split, a's low half
        goes there and its high half to the transposed column.  The order
        is free (see ``span_condition``) and chosen for speed, latest
        leading column first: v from n - 2 down, then w, as row (w, v)
        leads at column (0, max(v, 1)).  Rows that lead late become
        pivots at late columns, which hold only the slots from their own
        column on, so the multiply-adds of the rows that follow are short.
        """
        n, h, half = self.n, self.entries, self.flat.dim
        cells = {}
        for a, row in enumerate(self.table):
            for b, x in enumerate(row):
                parts = (x[:half], x[half:]) if self.split else (x,)
                cells[a, b, 1] = [read(part) for part in parts]
                cells[a, b, -1] = [read([-c for c in part]) for part in parts]
        for v in range(n - 2, -1, -1):
            for w in range(n):
                row = {}
                for y in range(n):
                    if y != v:
                        lo, hi = min(v, y), max(v, y)
                        parts = cells[h[w * n + lo], h[w * n + hi],
                                      1 if v < y else -1]
                        row[lo * n + hi] = parts[0]
                        if self.split:
                            row[hi * n + lo] = parts[1]
                yield row

    def rows_mod_p(self, img, p):
        """B's rows under the map of K0 with basis images ``img``."""
        return self.rows(lambda x: sum(a * b for a, b in zip(x, img)) % p)

    def gram_is_diagonal(self):
        """Exact: is H*H diagonal, sum_w T[H_wv][H_wy] = 0 for v != y?

        H*H is Hermitian, so the pairs v < y suffice."""
        n, h, table = self.n, self.entries, self.table
        return not any(any(map(sum, zip(*(table[h[w * n + v]][h[w * n + y]]
                                          for w in range(n)))))
                       for v, y in combinations(range(n), 2))

    @cached_property
    def rows_over_q(self):
        """B_Q's rows, [{c * d + l: entry}]: row (r, k) of B_Q follows
        row r of B, and its entry at (c, l) is coordinate k of B[r][c]
        times the basis element e_l of K0, d = [K0:Q] (zeros left out),
        times flat.tden, read off K0's structure constants.  When K0 = Q,
        B_Q is B."""
        d, triples = self.flat.dim, self.flat.triples

        def times(x):  # [k][l]: coordinate k of x e_l
            out = [[0] * d for _ in range(d)]
            for i, l, k, t in triples:
                out[k][l] += x[i] * t
            return out

        return [{c * d + l: y for c, m in row.items()
                 for l, y in enumerate(m[k]) if y}
                for row in self.rows(times) for k in range(d)]

    def annihilates(self, vectors):
        """Exact: B_Q x = 0 for every (vector, den) of ``_lift``.

        Each vector holds x times its den > 0, so B_Q x = 0 iff
        B_Q vector = 0.  The vectors are packed side by side into one
        integer per column, in slots of ``bits`` bits.  A sum of packed
        values is zero iff every slot's sum is, because each slot's sum
        is below 2^(bits - 1) in absolute value: the lowest nonzero slot
        would otherwise survive modulo the next.
        """
        if not vectors:
            return True
        rows = self.rows_over_q
        top_a = max((abs(a) for row in rows for a in row.values()),
                    default=0)
        top_x = max(abs(x) for vec, _ in vectors for x in vec.values())
        bits = (max(map(len, rows)) * top_a * top_x).bit_length() + 1
        packed = {}
        for slot, (vec, _) in enumerate(vectors):
            for c, x in vec.items():
                packed[c] = packed.get(c, 0) + (x << (slot * bits))
        return not any(sum(a * packed.get(c, 0) for c, a in row.items())
                       for row in rows)


def _crt(residues, modulus, kernel, p):
    """Combine residues mod ``modulus`` with ``kernel_mod_p``'s vectors
    mod p, keyed (free column, column); a missing key is 0."""
    inv = pow(modulus, -1, p)
    new = {(f, c): r for f, vec in kernel.items() for c, r in vec.items()}
    out = {}
    for key in residues.keys() | new.keys():
        old = residues.get(key, 0)
        out[key] = old + modulus * ((new.get(key, 0) - old) * inv % p)
    return out


def _lift(residues, modulus):
    """Kernel vectors over one denominator each, or None if one fails.

    Returns [(vector, den)], one per free column: vector[column] is an
    integer numerator over the vector's den > 0.  den starts at 1.  A
    residue u whose u * den mod m, taken in (-m/2, m/2], is at most
    bound = sqrt(m/2) in absolute value gives that numerator as it is;
    any other goes through ``rational_reconstruct``, a/b, and den and
    every numerator so far are multiplied by b.  A failed
    reconstruction, or a den above the bound, fails the lift.

    So every entry is n0/den0 = u mod m for the den0 <= bound of its
    step and some |n0| <= bound: it is the one fraction with numerator
    and denominator at most the bound that reconstructs u.  Soundness
    does not rest on this: ``annihilates`` decides.
    """
    bound = isqrt(modulus // 2)
    lifted = {}
    for (f, c), u in residues.items():
        vec, den = lifted.get(f, ({}, 1))
        x = u * den % modulus
        if x > modulus - x:
            x -= modulus
        if abs(x) > bound:
            frac = rational_reconstruct(x, modulus)
            if frac is None or den * frac.denominator > bound:
                return None
            b = frac.denominator
            den *= b
            vec = {cc: v * b for cc, v in vec.items()}
            x = frac.numerator
        vec[c] = x
        lifted[f] = vec, den
    return list(lifted.values())
