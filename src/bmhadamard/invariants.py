"""Haagerup sets, K-sets, and the inequivalence arguments.

H(W) collects the cross ratios W_{x1,y1} W_{x2,y2} / (W_{x2,y1} W_{x1,y2});
K(W) = {w + 1/w : w in H(W) \\ {1}}.  Both are equivalence invariants, so
exact set comparison separates inequivalent matrices.  Two routes
compute H(W), and they must agree at q = 4.  What makes them independent
is what they enumerate: the brute force sweeps the dense matrix's n^4
quadruples through their relation-class patterns, while the formula
evaluates the closed three-part union, written once over formal
monomials in w1, w2, w3 (driven by intersection-number positivity and
reduced to each family's independent weights) that describe H(W) for
all even q.  What they share is the arithmetic: the family's one
integer view, the brute force its ``ratio_table`` and the formula its
``coords`` (``typeii.WeightFamily``), with ``FlatTower.int_mul`` as the
only product, so every value of one route has one positive scale.
Equal values then have equal integer tuples, inverses are read by index
rather than divided, and only the distinct values of H and K become
tower elements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .exactfield import element_sign
from .scheme import parametric_scheme
from .typeii import family_coefficients, normalize_case


class TooLarge(ValueError):
    pass


class HypothesisFail(ValueError):
    """A required intersection-number positivity does not hold."""


class HaagerupData:
    """Canonically sorted H(W) and K(W) over one tower."""

    def __init__(self, h_set, k_set, provenance):
        self.h_set = h_set
        self.k_set = k_set
        self.provenance = provenance

    def __repr__(self):
        return (f"HaagerupData(|H|={len(self.h_set)}, |K|={len(self.k_set)}, "
                f"{self.provenance})")


def _haagerup_data(flat, scale, values, provenance):
    """HaagerupData from integer coordinates over one positive scale.

    ``values`` maps each value of H(W), an integer tuple v standing for
    v / scale, to the tuple of its inverse.  At one scale two values are
    equal exactly when their tuples are, and the tuples sort as the
    coefficients do, so the checks and K = {x + 1/x : x != 1} run on
    tuples; only the distinct results become tower elements.
    """
    one = (scale,) + (0,) * (flat.dim - 1)
    if one not in values:
        raise AssertionError("1 must lie in H(W)")
    if set(values.values()) != values.keys():
        raise AssertionError("H(W) must be inversion-closed")
    k_set = {tuple(a + b for a, b in zip(x, x_inv))
             for x, x_inv in values.items() if x != one}
    return HaagerupData(_elements(flat, scale, values),
                        _elements(flat, scale, k_set), provenance)


def _elements(flat, scale, vectors):
    return tuple(flat.from_flat((v, scale)) for v in sorted(vectors))


# ---------------------------------------------------------------------------
# brute force over the dense matrix

def haagerup_bruteforce(mat):
    """All cross ratios of the dense matrix, via class patterns.

    The value of a quadruple depends only on the four relation classes
    involved, so the n^4 sweep collects patterns first.  Pattern
    (c11, c22, c21, c12) has the value R[c11][c21] * R[c22][c12] of the
    family's ``ratio_table`` R, R[i][j] = w_i / w_j times one scale > 0:
    one ``int_mul`` per unordered pair of table entries, so every value
    has the scale tden * scale^2.  Its inverse R[c21][c11] * R[c12][c22]
    is read by index, as the construction certifies R[j][i] = 1 / R[i][j].
    """
    if mat.scheme.n > 64:
        raise TooLarge("the quartic sweep is limited to n <= 64")
    fam = mat.family
    flat = fam.coords[0]
    table, scale = fam.ratio_table
    m = len(table)
    ratio = [x for row in table for x in row]
    products = {}

    def product(u, v):
        key = (u, v) if u <= v else (v, u)
        if key not in products:
            products[key] = tuple(flat.int_mul(ratio[key[0]], ratio[key[1]]))
        return products[key]

    values = {}
    for c11, c22, c21, c12 in _class_patterns(mat.scheme):
        values[product(c11 * m + c21, c22 * m + c12)] = \
            product(c21 * m + c11, c12 * m + c22)
    return _haagerup_data(flat, flat.tden * scale ** 2, values, "bruteforce")


@cache
def _class_patterns(scheme):
    """The distinct class patterns of the n^4 sweep over ``scheme``.

    They depend only on the scheme, so every family over the shared
    ``concrete_scheme(q)`` object reuses one sweep.
    """
    n = scheme.n
    rel = scheme.rel
    patterns = set()
    for x1 in range(n):
        r1 = rel[x1]
        for x2 in range(n):
            r2 = rel[x2]
            for y1 in range(n):
                a = r1[y1]
                c = r2[y1]
                for y2 in range(n):
                    patterns.add((a, r2[y2], c, r1[y2]))
    return tuple(patterns)


# ---------------------------------------------------------------------------
# the closed-form union

def _positivity(q):
    """p_{i,j}^k > 0 as a 3-index boolean table at a given rational q."""
    p = parametric_scheme().p_at(q)
    pos = {}
    for i in range(4):
        for j in range(4):
            for k in range(4):
                pos[(i, j, k)] = p[i][j][k] > 0
    # positivity is invariant under permuting a triple in a symmetric
    # scheme; the formula below relies on that, so verify it here
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                if pos[(i, j, k)] != pos[(j, i, k)] or pos[(i, j, k)] != pos[(i, k, j)]:
                    raise HypothesisFail("triple positivity not symmetric")
    return pos


def _check_union_hypotheses(q):
    """Positivity needed by the three-part union (middle class i = 2)."""
    pos = _positivity(q)
    for i1 in (1, 2):
        for j1 in (1, 2):
            if not pos[(i1, j1, 2)]:
                raise HypothesisFail(f"p_{i1}{j1}^2 = 0 at q={q}")
    for j in (1, 2):
        if not pos[(2, j, 3)]:
            raise HypothesisFail(f"p_2{j}^3 = 0 at q={q}")
    return pos


# ---------------------------------------------------------------------------
# formal-monomial route (all even q at once)

# Each family's independent weights (indices into (1, w1, w2, w3)), and
# w1, w2, w3 written as (sign, exponents) over them.
_INDEPENDENT_WEIGHTS = {
    "i": ((1,), ((1, (1,)), (1, (1,)), (1, (1,)))),
    "ii": ((1, 3), ((1, (1, 0)), (1, (1, 0)), (1, (0, 1)))),
    "iii": ((1,), ((1, (1,)), (-1, (0,)), (1, (1,)))),
    "iv": ((2,), ((1, (0,)), (1, (1,)), (1, (0,)))),
    "v": ((1,), ((1, (1,)), (1, (-1,)), (1, (0,)))),
    "vi": ((1, 2), ((1, (1, 0)), (1, (0, 1)), (-1, (1, 1)))),
}


def _monomial_reduce(case, e1, e2, e3):
    """Reduce w1^e1 w2^e2 w3^e3 through the family's weight relations.

    Returns (sign, exponents over the case's independent weights).
    """
    indices, forms = _INDEPENDENT_WEIGHTS[normalize_case(case)]
    sign, reduced = 1, [0] * len(indices)
    for e, (s, exps) in zip((e1, e2, e3), forms):
        if s < 0 and e & 1:
            sign = -sign
        reduced = [r + e * x for r, x in zip(reduced, exps)]
    return sign, tuple(reduced)


def monomial_h_set(case, q):
    """H(W) \\ {1} as formal monomials, at the positivity regime of q.

    The three-part union {w_i^+-2} u {(w_i1 w_i2 / w_i3)^+-1 :
    p_{i2,i3}^{i1} > 0} u {w_i1 w_i2 / (w_j1 w_j2)}, all indices in
    {1..3}, reduced onto the case's independent weights.
    """
    case = normalize_case(case)
    pos = _check_union_hypotheses(q)
    exps = []
    for i in (1, 2, 3):
        e = [0, 0, 0]
        e[i - 1] = 2
        exps.append(tuple(e))
        exps.append(tuple(-v for v in e))
    for i1 in (1, 2, 3):
        for i2 in (1, 2, 3):
            for i3 in (1, 2, 3):
                if not pos[(i2, i3, i1)]:
                    continue
                e = [0, 0, 0]
                e[i1 - 1] += 1
                e[i2 - 1] += 1
                e[i3 - 1] -= 1
                exps.append(tuple(e))
                exps.append(tuple(-v for v in e))
    for i1 in (1, 2, 3):
        for i2 in (1, 2, 3):
            for j1 in (1, 2, 3):
                for j2 in (1, 2, 3):
                    e = [0, 0, 0]
                    e[i1 - 1] += 1
                    e[i2 - 1] += 1
                    e[j1 - 1] -= 1
                    e[j2 - 1] -= 1
                    exps.append(tuple(e))
    out = set()
    for e1, e2, e3 in exps:
        sign, reduced = _monomial_reduce(case, e1, e2, e3)
        if sign == 1 and not any(reduced):
            continue  # the identity element; Table rows list H \ {1}
        out.add((sign, reduced))
    return out


def table_one_row(case):
    """The recorded all-q Haagerup rows, as formal monomials."""
    case = normalize_case(case)
    if case == "i":
        return {(1, (e,)) for e in (1, -1, 2, -2)}
    if case == "ii":
        row = set()
        for e in (1, -1, 2, -2):
            row.add((1, (e, 0)))   # w1^e
            row.add((1, (0, e)))   # w3^e
            row.add((1, (-e, e)))  # (w3/w1)^e
        for s in (1, -1):
            row.add((1, (2 * s, -s)))  # (w1^2/w3)^s
        return row
    if case == "iii":
        row = {(-1, (0,))}
        for s0 in (1, -1):
            for e in (1, -1, 2, -2):
                row.add((s0, (e,)))
        return row
    if case == "iv":
        return {(1, (e,)) for e in (1, -1, 2, -2)}
    if case == "v":
        return {(1, (e,)) for e in (1, -1, 2, -2, 3, -3, 4, -4)}
    # last two orbits follow the verified computation (powers of
    # w1^2/w2 and w2^2/w1), not the displayed row's w1^2 w2 / w1 w2^2
    row = {(-1, (0, 0))}
    for s0 in (1, -1):
        for e in (1, -1, 2, -2):
            row.add((s0, (e, 0)))
            row.add((s0, (0, e)))
    for s1 in (1, -1):
        for s2 in (1, -1):
            row.add((1, (2 * s1, 2 * s2)))        # (w1^s1 w2^s2)^2
            for s0 in (1, -1):
                row.add((s0, (s1, s2)))           # +- w1^s1 w2^s2
    for s in (1, -1):
        for s0 in (1, -1):
            row.add((s0, (2 * s, -s)))            # +- (w1^2/w2)^{+-1}
            row.add((s0, (-s, 2 * s)))            # +- (w2^2/w1)^{+-1}
    return row


def haagerup_formula(family):
    """H(W) of a constructed family from the three-part union.

    The union's monomials (``monomial_h_set`` at the family's q) and 1
    are evaluated on the family's ``coords``, the weights and their
    ``inverses`` over one denominator den, of which they read 1 = w_0
    and the independent weights.  Each monomial is its sign times F
    factors, its powers padded with 1 up to the union's largest degree
    F, so every value has the scale den * (tden * den)^F.  The inverse
    of a monomial is the one with negated exponents, read by index.
    """
    case = normalize_case(family.case)
    indices, _ = _INDEPENDENT_WEIGHTS[case]
    flat, coords, den = family.coords
    one = coords[0]
    basis = [coords[i] for i in indices]
    inverses = [coords[4 + i] for i in indices]
    monomials = monomial_h_set(case, family.q) | {(1, (0,) * len(indices))}
    degree = max(sum(map(abs, exps)) for _, exps in monomials)
    evaluated = {}

    def value(sign, exps):
        if (sign, exps) not in evaluated:
            factors = [b if e > 0 else b_inv
                       for b, b_inv, e in zip(basis, inverses, exps)
                       for _ in range(abs(e))]
            v = one if sign > 0 else [-c for c in one]
            for f in factors + [one] * (degree - len(factors)):
                v = flat.int_mul(v, f)
            evaluated[sign, exps] = tuple(v)
        return evaluated[sign, exps]

    values = {value(sign, exps): value(sign, tuple(-e for e in exps))
              for sign, exps in monomials}
    return _haagerup_data(flat, den * (flat.tden * den) ** degree, values,
                          "formula")


# ---------------------------------------------------------------------------
# canonical forms across towers and the comparisons

def canonical_real_key(x):
    """Descend to Q or a real quadratic field and emit a comparable key.

    All K-set elements land in Q or Q(sqrt(m)) with m the squarefree
    level-1 radicand, so keys from different families compare exactly.
    """
    x = x.descend()
    if x.desc.depth == 0:
        return ("rat", x.rep)
    if x.desc.depth == 1:
        a, b = x.rep
        return ("quad", x.desc.levels[0], a, b)
    raise ValueError("K-set element did not descend to degree <= 2")


def k_set_keys(data):
    return {canonical_real_key(x) for x in data.k_set}


def k_in_interval(data):
    """Exact: K(W) contained in [-2, 2] (endpoints allowed)."""
    return k_interval_violator(data) is None


def k_interval_violator(data):
    for x in data.k_set:
        if element_sign(x + 2) < 0 or element_sign(2 - x) < 0:
            return x
    return None


# ---------------------------------------------------------------------------
# W vs entrywise-inverse inequivalence (families i and ii)

def _fused_p11(q, blocks):
    """Intersection numbers p_{1,1}^k of a fusion, from the q-tables.

    blocks[0] must be [0]; relation 1 of the fused scheme is blocks[1].
    Returns {fused class k (>0): p value}, checking well-definedness.
    """
    p = parametric_scheme().p_at(q)
    first = blocks[1]
    out = {}
    for kk, block in enumerate(blocks):
        if kk == 0:
            continue
        vals = set()
        for k in block:
            vals.add(sum(p[i][j][k] for i in first for j in first))
        if len(vals) != 1:
            raise HypothesisFail("fusion not well defined on p_11")
        out[kk] = vals.pop()
    return out


def check_inverse_inequivalence(case, q=4):
    """Hypotheses of the scalar-rigidity lemma, then the scalar test.

    For family i the relevant fusion is the complete one, for family ii
    the imprimitive one; pairwise-distinct valencies, entry count d+1,
    and min p_11^k > n/2 force any equivalence W ~ W^(-) to be a scalar
    multiple, which w3^2 != 1 rules out.
    """
    case = normalize_case(case)
    if case not in ("i", "ii"):
        raise HypothesisFail("the scalar argument applies to families i, ii")
    q = Fraction(q)
    n = q * q - 1
    fam = family_coefficients(case, q, 1, 1)
    if case == "i":
        blocks = [[0], [1, 2, 3]]
        valencies = [Fraction(1), n - 1]
        entries = {fam.weights[0], fam.weights[3]}
    else:
        blocks = [[0], [1, 2], [3]]
        valencies = [Fraction(1), q * q - q, q - 2]
        entries = {fam.weights[0], fam.weights[1], fam.weights[3]}
    if len(set(valencies)) != len(valencies):
        raise HypothesisFail("valencies not pairwise distinct")
    if len(entries) != len(blocks):
        raise HypothesisFail("entry count != class count")
    p11 = _fused_p11(q, blocks)
    bound = n / 2
    if not all(v > bound for v in p11.values()):
        raise HypothesisFail(f"min p_11 = {min(p11.values())} <= n/2 = {bound}")
    w3 = fam.weights[3]
    scalar_free = not (w3 * w3 == 1)
    return {
        "fused_p11": {k: v for k, v in sorted(p11.items())},
        "p11_bound": bound,
        "distinct_valencies": True,
        "entry_count": len(entries),
        "w3_squared_is_one": not scalar_free,
        "inequivalent_to_entrywise_inverse": scalar_free,
    }
