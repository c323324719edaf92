import itertools
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from bmhadamard import identities, linalg, typeii
from bmhadamard.exactfield import QQ, TowerElement
from bmhadamard.fastfield import FlatTower
from bmhadamard.identities import (
    CASES,
    MPoly,
    ViolationFound,
    converse_constraints,
    converse_numerators,
    converse_zeros,
    e_polynomials,
    even_q_range,
    ns_norm_numerator,
    ns_symbolic,
    scan_nonvanishing,
    symmetry_sums,
    verify_converse,
    verify_core_identities,
)
from bmhadamard.ratfunc import Q, RF_DESC, RF_R, RING_DESC, PolyQ, RatQ
from bmhadamard.scheme import ParametricScheme, parametric_scheme
from bmhadamard.typeii import (
    PAIRS,
    QTooSmall,
    all_families,
    case_a_symbolic,
    family_coefficients,
    image_minor,
    image_minors,
)
from oracles import (
    jones_adjacency_oracle,
    jones_component_oracle,
    jones_component_verdict,
    symmetry_values,
)


def test_core_identities_all_hold():
    out = verify_core_identities()
    assert out == {"lemma_g": True, "lemma_ww": True,
                   "lemma_h": True, "lemma_w1w2w3": True}


_SYMBOLS = tuple(f"X{i}{j}" for i, j in PAIRS) + ("t",)


def _symbolic_entry(i, j):
    return MPoly.var(_SYMBOLS, f"X{min(i, j)}{max(i, j)}")


def test_image_minor_is_the_determinant_of_the_submatrix():
    # every rows x cols minor, principal or not, against the Leibniz sum
    # over the submatrix of M_ii = 2t, M_ij = X_ij, with t symbolic too
    t = MPoly.var(_SYMBOLS, "t")

    def entry(i, j):
        return 2 * t if i == j else _symbolic_entry(i, j)

    triples = list(itertools.combinations(range(4), 3))
    for rows, cols in itertools.product(triples, repeat=2):
        leibniz = MPoly.const(_SYMBOLS, 0)
        for perm in itertools.permutations(range(3)):
            sign = (-1) ** sum(perm[a] > perm[b] for a, b in
                               itertools.combinations(range(3), 2))
            term = MPoly.const(_SYMBOLS, sign)
            for r, c in zip(rows, perm):
                term = term * entry(r, cols[c])
            leibniz = leibniz + term
        assert image_minor(_symbolic_entry, rows, cols, t) == leibniz, \
            (rows, cols)


def test_e_polynomial_constant_term():
    ps = ParametricScheme()
    for e in e_polynomials():
        k = e.k
        want = sum((ps.P[k][i] * ps.P[k][i] for i in range(4)), RatQ(0)) \
            - (Q * Q - 1)
        assert e.constant == want


def test_e_polynomial_at_all_twos():
    # plugging X_{i,j} = 2 everywhere gives (sum_i P_{k,i})^2 - n
    ps = ParametricScheme()
    twos = {p: TowerElement.rational(2, RF_DESC) for p in PAIRS}
    for e in e_polynomials():
        val = e.evaluate(twos)
        row = sum((ps.P[e.k][i] for i in range(4)), RatQ(0))
        assert val == TowerElement.rational(row * row - (Q * Q - 1), RF_DESC)


def test_e1_vanishes_on_case_iv_vector_at_q4():
    vec = case_a_symbolic("iv")
    vals = {p: vec[t] for t, p in enumerate(PAIRS)}
    e1 = e_polynomials()[0]
    v = e1.evaluate(vals)
    assert v.rep[0](4) == 0 and not v.rep[1]
    assert v.is_zero()  # in fact identically in q


@pytest.mark.parametrize("case", CASES)
def test_converse_substitutions(case):
    assert verify_converse(case)


def test_converse_constraint_count():
    vec = case_a_symbolic("i")
    vals = {p: vec[t] for t, p in enumerate(PAIRS)}
    cons = converse_constraints(vals)
    assert len(cons) == 10 + 3  # 3 x 3 minors, e_k


def test_image_minors_give_every_minor_value_once():
    # M is symmetric, so minor(R, C) == minor(C, R): the 16 pairs of
    # triples take exactly the 10 values of image_minors, all distinct
    triples = list(itertools.combinations(range(4), 3))
    for rows, cols in itertools.product(triples, repeat=2):
        assert image_minor(_symbolic_entry, rows, cols) == \
            image_minor(_symbolic_entry, cols, rows)
    every = {image_minor(_symbolic_entry, r, c)
             for r, c in itertools.product(triples, repeat=2)}
    distinct = image_minors(_symbolic_entry, 4)
    assert len(distinct) == len(set(distinct)) == 10
    assert set(distinct) == every


@pytest.mark.parametrize("size, count", [(3, 1), (4, 10), (5, 55), (6, 210)])
def test_every_minor_of_phi_vanishes_for_every_d(size, count):
    # the image of phi lies in the rank <= 2 locus at d = size - 1, and
    # the leading 2 x 2 minor 4 - a_01^2 is not 0, so the rank is 2
    minors = identities._phi_minors(size)
    assert len(minors) == count
    assert all(m.is_zero() for m in minors)
    vs = tuple(f"X{i}" for i in range(size))
    x0, x1 = MPoly.var(vs, "X0"), MPoly.var(vs, "X1")
    a01 = x0 / x1 + x1 / x0
    assert not (4 - a01 * a01).is_zero()


@pytest.mark.parametrize("case", CASES)
def test_converse_numerators_agree_with_field_values(case):
    vals = identities._pair_values(case)
    field = [c.is_zero() for c in converse_constraints(vals)]
    assert converse_zeros(vals) == field
    assert verify_converse(case) == all(field)


@pytest.mark.parametrize("case", CASES)
def test_converse_numerators_clear_the_denominators(case):
    vals = identities._pair_values(case)
    nums, den = converse_numerators(vals)
    assert den.leading() == 1
    for pair, v in vals.items():
        # only the sixth family involves r; the others stay in Q[q]
        assert nums[pair].desc == RING_DESC.prefix(1 if case == "vi" else 0)
        # N = D * a, coordinate by coordinate
        for n, a in zip(nums[pair].lift(RING_DESC).rep, v.rep):
            assert RatQ(n) == a * den


def test_homogenized_forms_scale_by_the_cube():
    # g and h at (t*x, t) are t^3 times, and e_k t times, their value at x
    vals = {p: v + RF_R * Fraction(1, 5)
            for p, v in identities._pair_values("vi").items()}
    t = RatQ(PolyQ((3, -1, 2)))
    plain = converse_constraints(vals)
    scaled = converse_constraints({p: v * t for p, v in vals.items()}, t)
    for k, (a, b) in enumerate(zip(plain, scaled)):
        assert not a.is_zero()
        assert b == a * (t if k >= 10 else t * t * t), k


def test_perturbed_vector_fails_converse():
    vec = case_a_symbolic("iv")
    vals = {p: vec[t] for t, p in enumerate(PAIRS)}
    vals[(0, 1)] = vals[(0, 1)] + 1
    zeros = converse_zeros(vals)
    assert not all(zeros)
    assert zeros == [c.is_zero() for c in converse_constraints(vals)]


def test_r_perturbation_fails_converse():
    # only the r-coordinate of a01 moves, so every e_k moves by a pure
    # multiple of r: a zero test blind to the r-coordinate misses it
    vals = identities._pair_values("vi")
    vals[(0, 1)] = vals[(0, 1)] + RF_R / Q
    zeros = converse_zeros(vals)
    assert zeros[10:] == [False] * 3
    assert zeros == [c.is_zero() for c in converse_constraints(vals)]
    nums, den = converse_numerators(vals)
    for e in e_polynomials(PolyQ):
        plain, r_part = e.evaluate(nums, den).rep
        assert r_part and not plain


def test_e_coefficients_are_polynomials():
    for e, f in zip(e_polynomials(), e_polynomials(PolyQ)):
        assert f.constant == e.constant
        assert f.coeffs == e.coeffs
        assert all(isinstance(c, PolyQ) for c in f.coeffs.values())
    with pytest.raises(ValueError):
        identities._polynomial(1 / Q)


# -- the within-case algebra used by the derivations ---------------------------

def test_case_ii_linear_tie_algebra():
    q = Q
    a = -(q - 3) / (q * q - 2 * q - 1)
    b = (q - 1) / (q * q - 2 * q - 1)
    n = q * q - 1
    assert a * a + a * b * (-(n - 2)) + b * b == RatQ(1)
    a01 = (q ** 3 - 3 * q * q - q + 7) / (q * q - 2 * q - 1)
    assert a * (-(n - 2)) + 2 * b == a01
    a13 = (-(q ** 3) + q * q + q + 3) / (q * q - 2 * q - 1)
    assert 2 * a - b * (n - 2) == a13


def test_case_v_product_identity():
    q = Q
    a01 = -2 / q
    a02 = -2 / q
    a12 = -2 * (q * q - 1 - 1) / (q * q)
    assert a01 * a02 - a12 == RatQ(2)


def test_k_set_power_identities():
    q = Q
    assert (-(q * q) + 3) ** 2 - 2 == q ** 4 - 6 * q * q + 7
    assert (2 * (q * q - 6) / (q * q - 4)) ** 2 - 2 == \
        2 * (q ** 4 - 16 * q * q + 56) / (q * q - 4) ** 2
    assert (-2 * (q * q - 2) / (q * q)) ** 2 - 2 == \
        2 * (q ** 4 - 8 * q * q + 8) / q ** 4


# -- symmetry functional -------------------------------------------------------

# the appendix factor lists of the eliminated-q symmetry numerators,
# three per family (i = 1, 2, 3); test data, not consulted by any verdict
_CUBIC = (Q - 2) * (Q - 1) * (Q + 1)
_SEXTIC = Q ** 6 - 13 * Q ** 4 + 28 * Q ** 2 + 64
NS_FACTORS = {
    "i": [_CUBIC * (Q + 2)] * 3,
    "ii": [_CUBIC * (Q ** 4 - 10 * Q ** 2 + 4 * Q + 17)] * 2
          + [_CUBIC * (Q + 2)],
    "iii": [_SEXTIC, Q ** 4 - 9 * Q ** 2 + 24, _SEXTIC],
    "iv": [_CUBIC * (Q + 2)] * 3,
    "v": [_CUBIC * (Q ** 2 - 2 * Q - 4)] * 2 + [_CUBIC * (Q + 2)],
    "vi": [Q ** 3 * (Q - 3) ** 2 * (Q - 1) * (Q + 1) ** 2
           * (Q ** 9 - Q ** 8 - 12 * Q ** 7 + 14 * Q ** 6 + 49 * Q ** 5
              + 51 * Q ** 4 - 894 * Q ** 3 - 464 * Q ** 2 + 4664 * Q - 272),
           Q ** 3 * (Q - 3) ** 2 * (Q - 2) * (Q - 1) * (Q + 1) ** 2
           * (Q ** 7 + 3 * Q ** 6 - 4 * Q ** 5 + 2 * Q ** 4 + 57 * Q ** 3
              - Q ** 2 - 86 * Q + 92),
           Q ** 2 * (Q - 3) ** 2 * (Q - 1) * (Q + 1) ** 2
           * (Q ** 8 - 2 * Q ** 7 + 66 * Q ** 5 - 273 * Q ** 4
              - 288 * Q ** 3 + 1344 * Q ** 2 - 288 * Q + 16)],
}


def _roots_contained(num, fixture):
    """Does every irreducible factor of num divide fixture?

    The fixtures come from cleared (unreduced) denominators, so they may
    carry extra linear factors and other multiplicities, but the zero
    sets must agree in this direction.
    """
    rem = num
    while rem.degree > 0:
        g = rem.gcd(fixture)
        if g.degree == 0:
            return False
        rem = rem.divmod(g)[0]
    return True


def test_ns_symbolic_case_i_value():
    # independent oracle at q = 4: 1*167 + 2*2 + 2*2 + (1 + 4) = 180
    v = ns_symbolic("i")
    assert v[0].rep[0](4) == 180
    # and the recorded factorization: exactly (q-2)(q-1)(q+1)(q+2)
    num = ns_norm_numerator("i", 1)
    quo, rem = num.divmod(NS_FACTORS["i"][0].num)
    assert rem.is_zero() and quo.degree == 0


@pytest.mark.parametrize("case", CASES)
def test_ns_fixture_reports(case):
    for i in (1, 2, 3):
        num = ns_norm_numerator(case, i)
        fixture = NS_FACTORS[case][i - 1].num
        if case == "vi":
            # reduced numerators drop denominator-borne factors, but
            # their roots must all be recorded in the fixture
            assert _roots_contained(num, fixture)
        else:
            assert num.divmod(fixture)[1].is_zero()


def test_poly_roots_contained():
    a = (Q - 1) ** 2 * (Q + 5)
    b = (Q - 1) * (Q + 5) * (Q + 7)
    assert _roots_contained(a.num, b.num)
    assert not _roots_contained(b.num, a.num)


def test_ns_matches_concrete_evaluation():
    # the symbolic functional agrees with the tower evaluation per family
    for case in ("ii", "vi"):
        fam = family_coefficients(case, 4, 1, 1)
        concrete = symmetry_values(fam)
        symbolic = ns_symbolic(case)
        for got, f in zip(concrete, symbolic):
            rv = fam.r_value
            want = f.rep[0](4) if not f.rep[1] else None
            if want is not None:
                assert got == want
            else:
                from bmhadamard.ratfunc import ratfunc_specialize
                assert got == ratfunc_specialize(f, 4, rv).lift(fam.desc)


# -- sweeps ---------------------------------------------------------------------

@given(q=st.integers(2, 200).map(lambda h: 2 * h))
@settings(max_examples=10, deadline=None)
@example(q=4)
@example(q=400)
def test_symmetry_sums_match_tower_oracle(q):
    # over all 14 variants, each integer symmetry sum is a positive
    # multiple of the symmetry functional on the family's tower a-matrix
    for fam in all_families(q):
        sums = symmetry_sums(fam)
        want = symmetry_values(fam)
        assert len(sums) == len(want) == 3
        for vec, el in zip(sums, want):
            assert _positive_multiple(vec, el.lift(fam.desc))


def test_symmetry_sweep_reads_every_weight_variant(monkeypatch):
    # a zero forced on vi r- alone is a violation, so the sweep tests
    # both signs of r; a zero on branch -1 alone is none, as W^(-) has
    # the values of W
    real = identities.symmetry_sums

    def zero_on(pred):
        monkeypatch.setattr(identities, "symmetry_sums", lambda fam: (
            [[0] * len(s) for s in real(fam)] if pred(fam) else real(fam)))

    zero_on(lambda fam: fam.r_sign == -1)
    with pytest.raises(ViolationFound, match="nomura_symmetric_k/vi"):
        scan_nonvanishing("nomura_symmetric_k", "vi", [4])
    assert scan_nonvanishing("nomura_symmetric_k", "iv", [4]) == [(4, True)]
    zero_on(lambda fam: fam.branch == -1)
    assert scan_nonvanishing("nomura_symmetric_k", "vi", [4]) == [(4, True)]


@pytest.mark.parametrize("case", CASES)
def test_symmetry_sweep_small(case):
    results = scan_nonvanishing("nomura_symmetric_k", case, even_q_range(40))
    assert all(ok for _, ok in results)


def test_adjacency_and_component_sweeps_small():
    for case in ("i", "iv", "vi"):
        assert all(ok for _, ok in
                   scan_nonvanishing("jones_adjacency", case, even_q_range(12)))
        assert all(ok for _, ok in
                   scan_nonvanishing("jones_component", case, even_q_range(12)))


def _component_system_solution(p_at, ff, gg):
    """linalg.solve on the full 14 x 8 system of the component argument.

    Unknowns c_ijk, i, j, k in {1, 2}; twelve marginal rows (each line
    sum of the array equals p_jk^3) and the two ratio rows
    sum_ijk c_ijk R(i, j, k) = 0 with R = ff and R = gg, where the
    counters outside {1, 2}^3 are known.
    """
    unknowns = list(itertools.product((1, 2), repeat=3))
    index = {t: n for n, t in enumerate(unknowns)}

    def known(i, j, k):
        if 0 in (i, j, k):
            return 1 if sorted((i, j, k)) == [0, 3, 3] else 0
        if 3 in (i, j, k):
            return p_at[3][3][3] - 1 if (i, j, k) == (3, 3, 3) else 0
        return None

    rows, rhs = [], []
    for j in (1, 2):
        for k in (1, 2):
            for slot in range(3):
                row = [Fraction(0)] * 8
                for i in (1, 2):
                    t = [j, k]
                    t.insert(slot, i)
                    row[index[tuple(t)]] = Fraction(1)
                rows.append(row)
                rhs.append(Fraction(p_at[j][k][3]))
    for ratio in (ff, gg):
        row, const = [Fraction(0)] * 8, Fraction(0)
        for t in itertools.product(range(4), repeat=3):
            c = known(*t)
            if c is None:
                row[index[t]] = ratio[t]
            else:
                const += c * ratio[t]
        rows.append(row)
        rhs.append(-const)
    return linalg.solve(rows, rhs)


_ratio_entries = st.lists(st.integers(-1, 1), min_size=64, max_size=64)


def _table(entries):
    return dict(zip(itertools.product(range(4), repeat=3),
                    map(Fraction, entries)))


@pytest.mark.parametrize("q", [4, 10])
def test_weight_variants_give_both_ratio_tables(q):
    # ff holds the integer coordinates of w_i^2/(w_j w_k), gg those of
    # the same of the inverted weights, w_j w_k/w_i^2, both times one
    # positive scale that every term of both tables shares; the values
    # are built here by plain division.  The tables come once per r sign
    # of branch +1, and they are gg and ff of branch -1, W^(-)
    keys = list(itertools.product(range(4), repeat=3))
    for case in CASES:
        variants = list(identities._term_tables(case, q, keys))
        families = all_families(q, (case,), branches=(1,))
        assert len(variants) == len(families)
        for (flat, ff, gg), fam in zip(variants, families):
            inverse = family_coefficients(case, q, fam.r_sign, -1)
            assert inverse.desc == fam.desc
            scale = ff[(0, 0, 0)][0]  # the coordinates of scale * 1
            assert scale > 0

            def scaled(x):
                return [scale * c for c in x.lift(fam.desc).coefficients()]

            for w, f, g in ((fam.weights, ff, gg), (inverse.weights, gg, ff)):
                assert f == {(i, j, k): scaled(w[i] * w[i] / (w[j] * w[k]))
                             for i, j, k in keys}
                assert g == {(i, j, k): scaled(w[j] * w[k] / (w[i] * w[i]))
                             for i, j, k in keys}


def _positive_multiple(vec, el):
    """Is the integer vector a positive multiple of el's coordinates?"""
    coords = el.coefficients()
    assert len(coords) == len(vec)
    lead = next((k for k, c in enumerate(coords) if c), None)
    if lead is None:
        return not any(vec)
    scale = vec[lead] / coords[lead]
    return scale > 0 and all(v == scale * c for v, c in zip(vec, coords))


@given(q=st.integers(2, 200).map(lambda h: 2 * h))
@settings(max_examples=12, deadline=None)
@example(q=4)
@example(q=400)
def test_integer_jones_sums_match_tower_oracle(q):
    # every integer sum of both Jones checks, over all 14 variants, is a
    # positive multiple of the same sum in tower arithmetic, and the
    # verdicts agree.  The integer sums come per r sign, W then W^(-);
    # the oracle's per family of all_families, which it builds itself
    for case in CASES:
        fams = all_families(q, (case,))
        index = {(fam.branch, fam.r_sign): v for v, fam in enumerate(fams)}
        r_signs = [fam.r_sign for fam in fams if fam.branch == 1]
        order = [index[branch, r] for r in r_signs for branch in (1, -1)]
        got = list(identities._adjacency_sums(case, q))
        want = jones_adjacency_oracle(case, q)
        assert len(got) == len(want) == 2 * len(fams)
        for n, vec in enumerate(got):
            v = order[n // 2]
            el = want[2 * v + n % 2]
            assert _positive_multiple(vec, el.lift(fams[v].desc))
        assert identities._jones_adjacency_ok(case, q) == \
            all(not el.is_zero() for el in want)
        got = list(identities._component_sums(case, q))
        want = jones_component_oracle(case, q)
        assert 2 * len(got) == len(want)
        for (a_ff, b_ff, a_gg, b_gg, d), r in zip(got, r_signs):
            # for W^(-), ff and gg swap: so do A and B, and d changes sign
            for branch, sums in ((1, (a_ff, b_ff, a_gg, b_gg, d)),
                                 (-1, (a_gg, b_gg, a_ff, b_ff,
                                       [-x for x in d]))):
                v = index[branch, r]
                for vec, el in zip(sums, want[v]):
                    assert _positive_multiple(vec, el.lift(fams[v].desc))
        assert identities._jones_component_ok(case, q) == \
            jones_component_verdict(want)


def test_component_closed_form_matches_linear_solve(monkeypatch):
    # The closed form of _jones_component_ok against linalg.solve on the
    # full system.  Weights w_1..w_3 in {+-1, +-2, +-3} give no solvable
    # system at these q, so the term tables are drawn directly and handed
    # to the check by _term_tables, as integer vectors of the one
    # tower Q: the drawn (ff, gg) pairs stand in for the terms of the
    # weights and of their inverses.  A gg row that is a multiple of the
    # ff row makes solvable systems common; a skewed p_12^3 makes the
    # marginals inconsistent.
    real = parametric_scheme()
    seen = set()
    flat = FlatTower(QQ)

    class Scheme:
        """A scheme of the given intersection numbers at every q.  One is
        made per example: the coefficients of a sweep are kept per scheme
        and q, so no example is served another's."""
        def __init__(self, p_at):
            self.p_at = lambda q: p_at

    @settings(max_examples=150, deadline=None)
    @given(q=st.sampled_from([4, 6, 10, 50]),
           variants=st.lists(st.tuples(_ratio_entries, _ratio_entries,
                                       st.sampled_from([None, 1, -2])),
                             min_size=1, max_size=2),
           skew=st.sampled_from([0, 0, 0, 1]))
    # B_ff = B_gg = 0 with A_ff != 0; and a solvable system, with only
    # R(1, 1, 1) = 1 (entry 21) and gg = ff
    @example(q=4, variants=[([1] * 64, [1] * 64, None)], skew=0)
    @example(q=6, variants=[([int(n == 21) for n in range(64)], [0] * 64, 1)],
             skew=0)
    def check(q, variants, skew):
        p_at = [[list(row) for row in layer] for layer in real.p_at(q)]
        p_at[1][2][3] += skew
        tables = [(_table(f), _table(g if scale is None else
                                     [scale * v for v in f]))
                  for f, g, scale in variants]
        vectors = [(flat,) + tuple({t: [int(v)] for t, v in tab.items()}
                                   for tab in pair) for pair in tables]
        scheme = Scheme(p_at)
        monkeypatch.setattr(identities, "parametric_scheme", lambda: scheme)
        monkeypatch.setattr(identities, "_term_tables",
                            lambda case, q, keys: iter(vectors))
        want = all(_component_system_solution(p_at, ff, gg) is None
                   for ff, gg in tables)
        assert identities._jones_component_ok("i", q) == want
        seen.add(want)

    check()
    assert seen == {True, False}


def test_sweeps_build_each_tower_once(monkeypatch):
    # all three sweeps of every case at two q build each (case, q, r sign)
    # once, 7 per q: W^(-) is derived from W's cached family.  A fresh
    # cache, through which the module's own calls go, makes the count
    # independent of what earlier tests built
    fresh = cache(typeii.family_coefficients.__wrapped__)
    monkeypatch.setattr(typeii, "family_coefficients", fresh)
    built = []
    real = typeii._weights_from_seed
    monkeypatch.setattr(typeii, "_weights_from_seed",
                        lambda *args: built.append(args) or real(*args))
    for expr in ("nomura_symmetric_k", "jones_adjacency", "jones_component"):
        for case in CASES:
            scan_nonvanishing(expr, case, [1002, 1004])
    assert len(built) == 2 * 7


def test_jones_sweeps_convert_each_family_once(monkeypatch):
    # all three sweeps of iv and vi at three q read one integer view per
    # family: 3 + 6 = 9 families, one int_coords call each.  A fresh
    # cache of family_coefficients makes every family new to the count
    fresh = cache(typeii.family_coefficients.__wrapped__)
    monkeypatch.setattr(typeii, "family_coefficients", fresh)
    calls = []
    real = FlatTower.int_coords
    monkeypatch.setattr(FlatTower, "int_coords",
                        lambda self, els: calls.append(1) or real(self, els))
    for case in ("iv", "vi"):
        for expr in ("nomura_symmetric_k", "jones_adjacency",
                     "jones_component"):
            scan_nonvanishing(expr, case, [4, 6, 200])
    assert len(calls) == 9


def test_sweeps_build_the_coefficients_once_per_q(monkeypatch):
    # the three sweeps of all six cases at two q build each q's tables
    # once, the first time any of them asks.  A fresh cache counts from 0
    built = []
    real = identities._coefficients.__wrapped__
    monkeypatch.setattr(identities, "_coefficients", cache(
        lambda scheme, q: built.append(q) or real(scheme, q)))
    for expr in ("nomura_symmetric_k", "jones_adjacency", "jones_component"):
        for case in CASES:
            scan_nonvanishing(expr, case, [8, 10])
    assert built == [8, 10]


@pytest.mark.parametrize("expr", ["nomura_symmetric_k", "jones_adjacency",
                                  "jones_component"])
def test_sweeps_reject_q_below_4(expr):
    with pytest.raises(QTooSmall):
        scan_nonvanishing(expr, "i", [2])


def test_scan_rejects_unknown_expression():
    with pytest.raises(ValueError):
        scan_nonvanishing("bogus", "i", [4])


def test_evaluator_control_cancellation():
    # all-ones weights make the full symmetry sum telescope to n itself;
    # subtracting n is the designed cancellation certifying the evaluator
    ps = ParametricScheme()
    for q in (4, 6, 10):
        table = ps.p_at(q)
        for i in (1, 2, 3):
            total = sum(table[j][k][i] for j in range(4) for k in range(4))
            assert total - (q * q - 1) == 0


# -- Laurent MPoly basics -------------------------------------------------------

def test_mpoly_arithmetic():
    vs = ("x", "y")
    x = MPoly.var(vs, "x")
    y = MPoly.var(vs, "y")
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) ** 3 == x ** 3 + 3 * x * x + 3 * x + 1
    assert ((x / y) + (y / x)) * (x * y) == x * x + y * y
    assert x ** -2 == 1 / (x * x)


_exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@given(p=st.dictionaries(_exponents, _coeffs, max_size=6),
       m=st.tuples(_exponents, _coeffs.filter(bool)))
@settings(max_examples=60, deadline=None)
def test_laurent_division_by_monomials(p, m):
    vs = ("x", "y")
    x = MPoly.var(vs, "x")
    p = MPoly(vs, p)
    m = MPoly(vs, {m[0]: m[1]})
    assert (p / m) * m == p
    assert m * m.inverse() == 1
    assert m ** -3 * m ** 3 == 1
    with pytest.raises(ValueError):
        p / (m * (1 + x))
    with pytest.raises(ZeroDivisionError):
        p / (m - m)


@given(c=_coeffs, p=st.dictionaries(_exponents, _coeffs, max_size=3))
@settings(max_examples=60, deadline=None)
def test_mpoly_equal_values_hash_alike(c, p):
    vs = ("x", "y")
    forms = [c, MPoly.const(vs, c), MPoly(vs, {(0, 0): c}), MPoly(vs, p),
             MPoly(vs, p) + 0, MPoly(vs, p) * 1]
    if c.denominator == 1:
        forms.append(int(c))
    for a in forms:
        for b in forms:
            assert (a == b) == (b == a), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert len({MPoly.const(vs, 1), 1}) == 1


small = st.integers(min_value=-3, max_value=3)


@given(small, small, small, small)
@settings(max_examples=30, deadline=None)
def test_principal_minor_vanishes_on_ratios(a, b, c, d):
    # rational instance of the defining property of the principal minor
    vals = [Fraction(v) for v in (a, b, c) if v]
    if len(vals) < 3:
        return
    assert image_minor(lambda i, j: vals[i] / vals[j] + vals[j] / vals[i],
                       (0, 1, 2), (0, 1, 2)) == 0
