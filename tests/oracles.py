"""Slow reference implementations that the package's fast paths are
checked against.  No verdict of the package rests on them."""

import itertools
from fractions import Fraction
from math import isqrt

from bmhadamard.exactfield import (
    Reducible,
    TowerElement,
    adjoin_radical,
    is_real,
)
from bmhadamard.fastfield import rational_reconstruct
from bmhadamard.identities import _COUNTERS, _LINES
from bmhadamard.intervals import complex_embed
from bmhadamard.invariants import (
    _INDEPENDENT_WEIGHTS,
    HaagerupData,
    _class_patterns,
    monomial_h_set,
)
from bmhadamard.pell import base_solutions, descend
from bmhadamard.ratfunc import RatQ, r_value_at
from bmhadamard.scheme import parametric_scheme
from bmhadamard.typeii import (
    PAIRS,
    SEEDS,
    TypeIIMatrix,
    ZeroWeight,
    all_families,
    case_a_values,
    normalize_case,
    weight_ratios,
)


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _remainder(a, b):
    rem = list(a)
    d, lead = len(b) - 1, b[-1]
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] / lead
        if c:
            for j, bc in enumerate(b):
                rem[i - d + j] -= c * bc
    return _trim(rem[:d])


def euclid_gcd(a, b):
    """Monic gcd over Q of two ascending coefficient sequences, by
    Euclid's algorithm on Fractions; () when both are zero."""
    a = _trim([Fraction(c) for c in a])
    b = _trim([Fraction(c) for c in b])
    while b:
        a, b = b, _remainder(a, b)
    if not a:
        return ()
    return tuple(c / a[-1] for c in a)


def element_sign_oracle(x):
    """Sign (-1, 0, +1) of a real tower element, read off ever tighter
    ``complex_embed`` enclosures until one excludes 0, which ends because
    the embedding of a nonzero element is nonzero.  Raises ValueError
    when the enclosure has an imaginary part, i.e. x is not real."""
    if x.is_zero():
        return 0
    precision = 20
    while True:
        z = complex_embed(x, precision)
        if not z.im.lo == 0 == z.im.hi:
            raise ValueError("element is not real")
        if z.re.lo > 0 or z.re.hi < 0:
            return 1 if z.re.lo > 0 else -1
        precision *= 2


def phi_oracle(weights):
    """a_{i,j} = w_i/w_j + w_j/w_i by one division and one more inverse
    per pair, over the deepest of the weights' towers."""
    ws = list(weights)
    desc = ws[0].desc
    for w in ws:
        if w.desc.depth > desc.depth:
            desc = w.desc
    ws = [w.lift(desc) for w in ws]
    if any(w.is_zero() for w in ws):
        raise ZeroWeight("phi needs nonzero weights")
    m = len(ws)
    two = TowerElement.rational(2, desc)
    a = [[two for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            r = ws[i] / ws[j]
            a[i][j] = a[j][i] = r + r.inverse()
    return a


def family_division_oracle(case, q, r_sign=1, branch=1):
    """(descriptor, weights) of a family by one tower division per weight.

    w_s = (a_{0,s} + branch*s)/2 with s^2 = a_{0,s}^2 - 4 adjoined (a
    split root taken positive when real), and every other weight
    w_i = (w_s^2 - 1)/(a_{s,i} w_s - a_{0,i}), the inverse of phi from
    the pair (1, w_s).
    """
    r_val = r_value_at(Fraction(q), r_sign) if case == "vi" else None
    a = [[None] * 4 for _ in range(4)]
    for (i, j), v in zip(PAIRS, case_a_values(case, q, r_val)):
        a[i][j] = a[j][i] = v
    s = SEEDS[case]
    try:
        desc, root = adjoin_radical(a[0][s].desc, a[0][s] * a[0][s] - 4)
    except Reducible as split:
        desc, root = a[0][s].desc, split.root
        if is_real(root) and element_sign_oracle(root) < 0:
            root = -root
    w_s = (a[0][s].lift(desc) + root * branch) / 2
    weights = [TowerElement.rational(1, desc)] * 4
    weights[s] = w_s
    for i in range(1, 4):
        if i != s:
            weights[i] = (w_s * w_s - 1) / (a[s][i] * w_s - a[0][i])
    return desc, weights


def fused_rows(scheme, merged):
    """Collapse a parametric eigenmatrix along a fusion of classes.

    Sums the columns inside each block and drops duplicate rows; for
    admissible fusions this reproduces the fused eigenmatrix.
    """
    blocks = sorted((sorted(b) for b in merged), key=lambda b: b[0])
    rows = []
    for m in range(4):
        row = tuple(sum((scheme.P[m][j] for j in block), RatQ(0))
                    for block in blocks)
        if row not in rows:
            rows.append(row)
    return [list(r) for r in rows]


def dense_type_ii_oracle(family):
    """W * (W^(-))^T = n I, entry by entry in tower arithmetic."""
    mat = TypeIIMatrix(family)
    W = mat.dense()
    w_inv = [x.inverse() for x in family.weights]
    Winv = [[w_inv[c] for c in row] for row in mat.scheme.rel]
    n = mat.scheme.n
    zero = TowerElement.rational(0, family.desc)
    for x in range(n):
        row = W[x]
        for y in range(n):
            col = Winv[y]  # (W^(-))^T column y = row y of W^(-)
            acc = zero
            for t in range(n):
                acc = acc + row[t] * col[t]
            if not acc == (Fraction(n) if x == y else 0):
                return False
    return True


def beta_products_oracle(family):
    """[beta_k * beta'_k == n for k = 0..d] in tower arithmetic:
    beta_k = sum_j w_j P_{k,j} over the weights, beta'_k over the
    family's ``inverses``."""
    P = parametric_scheme().eigenmatrix_at(family.q)
    zero = TowerElement.rational(0, family.desc)
    out = []
    for row in P:
        beta = sum((w * p for w, p in zip(family.weights, row)), zero)
        beta_p = sum((w * p for w, p in zip(family.inverses, row)), zero)
        out.append(beta * beta_p == family.n)
    return out


def pack_oracle(values, s):
    """The packed row with slot k = values[k], each below 2^s, by one
    shift of the whole row per slot."""
    x = 0
    for v in reversed(values):
        x = (x << s) | v
    return x


def echelon_mod_p_oracle(rows, p):
    """Row echelon form mod p of sparse rows {column: value}, one dict
    per row and one % per entry; least-column pivoting, each pivot row
    {column: residue} scaled to 1 at its pivot."""
    pivots = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {cc: vv * inv % p for cc, vv in row.items()}
                break
            f = row.pop(c)
            for cc, vv in piv.items():
                if cc != c:
                    nv = (row.get(cc, 0) - f * vv) % p
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
    return pivots


def kernel_mod_p_oracle(pivots, columns, p):
    """The reduced-echelon kernel basis of the pivot rows, by back
    substitution on lists of free-column residues."""
    free = [f for f in columns if f not in pivots]
    reduced = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        acc = [row.get(f, 0) for f in free]
        for cc, v in row.items():
            if cc != c and cc in pivots:
                acc = [(a - v * b) % p for a, b in zip(acc, reduced[cc])]
        reduced[c] = acc
    kernel = {}
    for i, f in enumerate(free):
        vec = {f: 1}
        for c, acc in reduced.items():
            if acc[i]:
                vec[c] = p - acc[i]
        kernel[f] = vec
    return kernel


def _dedup_sorted(elements):
    seen = {}
    for e in elements:
        seen.setdefault(e.coefficients(), e)
    return tuple(seen[k] for k in sorted(seen))


def _haagerup_data_oracle(h_elements, provenance):
    """HaagerupData of tower elements, with one tower inverse per
    distinct value of H(W)."""
    h = _dedup_sorted(h_elements)
    inverses = [x.inverse() for x in h]
    k = _dedup_sorted(x + x_inv for x, x_inv in zip(h, inverses)
                      if not x == 1)
    if not any(x == 1 for x in h):
        raise AssertionError("1 must lie in H(W)")
    inv = _dedup_sorted(inverses)
    if [e.coefficients() for e in inv] != [e.coefficients() for e in h]:
        raise AssertionError("H(W) must be inversion-closed")
    return HaagerupData(h, k, provenance)


def haagerup_bruteforce_oracle(mat):
    """H(W) and K(W) of the dense matrix, dividing in the tower once per
    class pattern (c11, c22, c21, c12): w_c11 w_c22 / (w_c21 w_c12)."""
    w = mat.weights
    values = [w[c11] * w[c22] / (w[c21] * w[c12])
              for c11, c22, c21, c12 in _class_patterns(mat.scheme)]
    return _haagerup_data_oracle(values, "bruteforce")


def evaluate_monomials(monomials, family):
    """Formal monomials -> exact tower elements for one family.

    A negative power reads 1/w_i off the family's ``inverses``.
    """
    indices, _ = _INDEPENDENT_WEIGHTS[normalize_case(family.case)]
    basis = [family.weights[i] for i in indices]
    inverses = [family.inverses[i] for i in indices]
    out = []
    for sign, exps in monomials:
        v = TowerElement.rational(sign, family.desc)
        for b, b_inv, e in zip(basis, inverses, exps):
            v = v * (b ** e if e >= 0 else b_inv ** -e)
        out.append(v)
    return out


def haagerup_formula_oracle(family):
    """H(W) and K(W) from the three-part union, each monomial evaluated
    by tower products."""
    h = evaluate_monomials(monomial_h_set(family.case, family.q), family)
    return _haagerup_data_oracle([TowerElement.rational(1, family.desc)] + h,
                                 "formula")


def y_vector(dense, a, b):
    """(Y_ab)_x = W_xa / W_xb as exact tower elements."""
    return [row[a] / row[b] for row in dense]


def y_inner(dense, ab, cd):
    """Ordinary (non-Hermitian) scalar product <Y_ab, Y_cd>."""
    ya = y_vector(dense, *ab)
    yc = y_vector(dense, *cd)
    acc = ya[0] * yc[0]
    for x in range(1, len(ya)):
        acc = acc + ya[x] * yc[x]
    return acc


def descent_oracle_every_x(problem, x_limit):
    """The solution count of x^2 - d y^2 = a with x <= x_limit, testing
    every x from ceil(sqrt(a)); raises if a solution fails to descend
    to a base solution."""
    bases = set(base_solutions(problem))
    count = 0
    d, a = problem.d, problem.a
    x = isqrt(a) if isqrt(a) ** 2 == a else isqrt(a) + 1
    while x <= x_limit:
        t = x * x - a
        if t % d == 0:
            y2 = t // d
            y = isqrt(y2)
            if y * y == y2:
                count += 1
                base, _ = descend(problem, (x, y))
                if base not in bases:
                    raise AssertionError(f"({x},{y}) reduced to unlisted {base}")
        x += 1
    return count


def lift_per_coordinate_oracle(residues, modulus):
    """Kernel vectors with rational entries, each residue reconstructed
    on its own, or None if one fails."""
    vectors = {}
    for (f, c), u in residues.items():
        x = rational_reconstruct(u, modulus) if u else Fraction(0)
        if x is None:
            return None
        vectors.setdefault(f, {})[c] = x
    return list(vectors.values())


# -- the Jones sweeps in tower arithmetic ------------------------------------

_TRIPLES = tuple(itertools.product(range(4), repeat=3))


def _ratio_variants(case, q):
    """The ratio table R[i][j] = w_i / w_j of every weight vector of a
    family at q, paired with its transpose, the table of 1/w_i.  Built
    by ``weight_ratios``, one division per weight, not read from the
    family's own integer table."""
    for fam in all_families(q, (case,)):
        ratios = weight_ratios(fam.weights)
        yield ratios, tuple(zip(*ratios))


def _ratio_table(ratio, keys):
    """{(i, j, k): ratio[i][j] * ratio[i][k]}: w_i^2 / (w_j w_k)."""
    return {(i, j, k): ratio[i][j] * ratio[i][k] for i, j, k in keys}


def jones_adjacency_oracle(case, q):
    """sum_{i,j,k} p_ij^m p_3k^i w_i^2/(w_j w_k) as tower elements, for
    m = 1, 2 in each weight variant, in that order."""
    p_at = parametric_scheme().p_at(q)
    coeffs = [{(i, j, k): p_at[i][j][m] * p_at[3][k][i] for i, j, k in _TRIPLES
               if p_at[i][j][m] and p_at[3][k][i]} for m in (1, 2)]
    keys = coeffs[0].keys() | coeffs[1].keys()
    out = []
    for table, _ in _ratio_variants(case, q):
        ratio = _ratio_table(table, keys)
        for coeff in coeffs:
            out.append(sum(ratio[t] * c for t, c in coeff.items()))
    return out


def jones_component_oracle(case, q):
    """(A_ff, B_ff, A_gg, B_gg, A_ff*B_gg - A_gg*B_ff) of each weight
    variant as tower elements, or [] when the marginals are
    inconsistent."""
    p_at = parametric_scheme().p_at(q)
    c0 = {(1, 1, 1): Fraction(0)}
    for t in _COUNTERS[1:]:
        (j, k), lower = _LINES[t][0]
        c0[t] = p_at[j][k][3] - c0[lower]
    if any(c0[t] + c0[lower] != p_at[j][k][3]
           for t in _COUNTERS for (j, k), lower in _LINES[t]):
        return []
    known = {(0, 3, 3): 1, (3, 0, 3): 1, (3, 3, 0): 1,
             (3, 3, 3): p_at[3][3][3] - 1}
    fixed = {t: c for t, c in {**known, **c0}.items() if c}
    keys = set(known) | set(_COUNTERS)
    out = []
    for ff, gg in _ratio_variants(case, q):
        (a_ff, b_ff), (a_gg, b_gg) = [
            (sum(ratio[t] * c for t, c in fixed.items()),
             sum(-ratio[t] if sum(t) % 2 else ratio[t] for t in _COUNTERS))
            for ratio in (_ratio_table(ff, keys), _ratio_table(gg, keys))]
        out.append((a_ff, b_ff, a_gg, b_gg, a_ff * b_gg - a_gg * b_ff))
    return out


def jones_component_verdict(sums):
    """The component check's verdict from ``jones_component_oracle``."""
    for a_ff, b_ff, a_gg, b_gg, d in sums:
        if b_ff.is_zero() and b_gg.is_zero():
            if a_ff.is_zero() and a_gg.is_zero():
                return False
        elif d.is_zero():
            return False
    return True


def integer_table(ratios, flat):
    """A table of tower elements as the integer table ``JonesGraph``
    takes: one ``int_coords`` of every entry, over one denominator."""
    m = len(ratios)
    vectors, _ = flat.int_coords([x for row in ratios for x in row])
    return [vectors[i * m:(i + 1) * m] for i in range(m)]


def component_labels_oracle(graph):
    """Breadth-first component labels of a ``JonesGraph``, testing every
    vertex against the unlabelled ones with ``graph.adjacent``."""
    verts = graph.vertices()
    labels = [-1] * len(verts)
    comp = 0
    for start in range(len(verts)):
        if labels[start] >= 0:
            continue
        labels[start] = comp
        frontier = [verts[start]]
        unvisited = [i for i in range(len(verts)) if labels[i] < 0]
        while frontier:
            u = frontier.pop()
            still = []
            for i in unvisited:
                if labels[i] >= 0:
                    continue
                if graph.adjacent(u, verts[i]):
                    labels[i] = comp
                    frontier.append(verts[i])
                else:
                    still.append(i)
            unvisited = still
        comp += 1
    return labels
