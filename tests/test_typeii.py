import itertools
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st
from oracles import (
    beta_products_oracle,
    dense_type_ii_oracle,
    family_division_oracle,
    lift_per_coordinate_oracle,
    phi_oracle,
    tower_basis,
)

from bmhadamard import typeii
from bmhadamard.exactfield import (
    QQ,
    Reducible,
    TowerElement,
    adjoin_radical,
    complex_conj,
)
from bmhadamard.fastfield import FlatTower, flat_tower, primes, sparse_rank
from bmhadamard.intervals import complex_embed
from bmhadamard.typeii import (
    AllPlusMinusTwo,
    DenominatorZero,
    InvalidCase,
    NoConcreteScheme,
    NoWitness,
    NotSquare,
    PAIRS,
    QTooSmall,
    TypeIIMatrix,
    WeightFamily,
    ZeroWeight,
    all_families,
    case_a_values,
    discriminant_root,
    family_coefficients,
    image_minors,
    is_hadamard,
    is_type_ii,
    non_butson_witness,
    phi,
    reconstruct_weights,
    span_condition,
)


# -- construction against the published coefficients --------------------------

def test_case_iv_reproduces_first_known_matrix(families_q4):
    d, s = adjoin_radical(QQ, -15)
    one = TowerElement.rational(1, d)
    for branch, sign in ((1, 1), (-1, -1)):
        fam = families_q4[("iv", 1, branch)]
        assert fam.weights[1] == one
        assert fam.weights[2] == (-7 * one + sign * s) / 8
        assert fam.weights[3] == one


def test_case_iii_reproduces_second_known_matrix(families_q4):
    d, s = adjoin_radical(QQ, -11)
    one = TowerElement.rational(1, d)
    for branch, sign in ((1, 1), (-1, -1)):
        fam = families_q4[("iii", 1, branch)]
        w1 = (5 * one + sign * s) / 6
        assert fam.weights[1] == w1
        assert fam.weights[2] == -one
        assert fam.weights[3] == w1


def test_case_v_reproduces_third_known_matrix(families_q4):
    d, s = adjoin_radical(QQ, -15)
    one = TowerElement.rational(1, d)
    for branch, sign in ((1, 1), (-1, -1)):
        fam = families_q4[("v", 1, branch)]
        w1 = (-one + sign * s) / 4
        assert fam.weights[1] == w1
        assert fam.weights[2] == w1.inverse()
        assert fam.weights[3] == one


def test_case_vi_coefficients(families_q4):
    fam = families_q4[("vi", 1, 1)]
    d201, s201 = adjoin_radical(QQ, 201)
    a = fam.a_matrix()
    assert a[0][1] == ((s201 - 1) * Fraction(3, 20)).lift(fam.desc)
    assert a[0][2] == (-(s201 - 9) * Fraction(1, 4)).lift(fam.desc)
    assert a[1][2] == ((3 * s201 - 103) * Fraction(1, 40)).lift(fam.desc)
    # the defining product relation of the sixth family
    for key in (("vi", 1, 1), ("vi", 1, -1), ("vi", -1, 1), ("vi", -1, -1)):
        f = families_q4[key]
        assert f.weights[1] * f.weights[2] == -f.weights[3]


def test_case_i_ii_weights(families_q4):
    # w3 + 1/w3 = 3 - q^2 = -13 at q = 4, and the linear tie for case ii
    for case in ("i", "ii"):
        fam = families_q4[(case, 1, 1)]
        w3 = fam.weights[3]
        assert w3 + w3.inverse() == -13
        if case == "i":
            assert fam.weights[1] == w3 and fam.weights[2] == w3
        else:
            q = Fraction(4)
            want = (-(q - 3) * w3 + (q - 1)) / (q * q - 2 * q - 1)
            assert fam.weights[1] == want == fam.weights[2]


def test_family_input_validation():
    with pytest.raises(QTooSmall):
        family_coefficients("i", 2)
    with pytest.raises(InvalidCase):
        family_coefficients("vii", 4)
    with pytest.raises(InvalidCase):
        family_coefficients("i", 4, branch=2)
    assert family_coefficients(4, 4).case == "iv"  # numeric case id


def test_case_a_values_need_r_for_vi():
    with pytest.raises(InvalidCase):
        case_a_values("vi", 4)


def test_all_families_count():
    fams = all_families(4)
    assert len(fams) == 14  # 5 cases x 2 branches + vi x 2 signs x 2 branches
    # memoised: every enumeration hands out the same family objects
    assert fams[-1] is family_coefficients("vi", 4, -1, -1)


@pytest.mark.parametrize("q", [4, 6, 8, 10])
def test_constructed_a_vectors_match_symbolic(q):
    # ties the weight construction to the symbolic layer: the pairwise
    # values of the built weights equal the closed forms at q, so the
    # identical vanishing of the e_k transfers to every built family
    from bmhadamard.ratfunc import ratfunc_specialize
    from bmhadamard.typeii import case_a_symbolic

    for case in ("i", "ii", "iii", "iv", "v", "vi"):
        fam = family_coefficients(case, q)
        a = fam.a_matrix()
        sym = case_a_symbolic(case)
        for (i, j), f in zip(PAIRS, sym):
            want = ratfunc_specialize(f, q, fam.r_value)
            assert a[i][j] == want.lift(fam.desc)


def test_families_at_larger_q():
    # spectral type-II holds parametrically; spot-check q = 6 and q = 10
    for case in ("i", "iii", "vi"):
        fam = family_coefficients(case, 6)
        ok, _ = is_type_ii(fam)
        assert ok
    fam10 = family_coefficients("vi", 10)  # rational r = 39 here
    assert fam10.r_value.as_rational() == 39
    ok, _ = is_type_ii(fam10)
    assert ok


# -- the rational map and its inverse -----------------------------------------

def test_phi_on_ones():
    one = TowerElement.rational(1)
    a = phi([one, one, one, one])
    assert all(a[i][j] == 2 for i in range(4) for j in range(4))


def test_phi_on_fourth_roots():
    d, im = adjoin_radical(QQ, -1)
    one = TowerElement.rational(1, d)
    a = phi([one, im, -one, -im])
    want = {(0, 1): 0, (0, 2): -2, (0, 3): 0, (1, 2): 0, (1, 3): -2, (2, 3): 0}
    for (i, j), v in want.items():
        assert a[i][j] == v


def test_phi_rejects_zero_weight():
    one = TowerElement.rational(1)
    with pytest.raises(ZeroWeight):
        phi([one, TowerElement.rational(0), one, one])


def _variants_for_ratio_tests(families_q4):
    # the 14 q = 4 variants, then q = 6 and the integral-r q = 10 and 26,
    # where the towers of vi have another shape
    yield from families_q4.values()
    for q in (6, 10, 26):
        yield from all_families(q)


def test_ratio_table_divides_the_weights(families_q4):
    # ratio_table holds w_i / w_j times one scale > 0, as integer
    # coordinates over the family's FlatTower; its value is checked
    # against the tower weights, and each entry against its transpose
    for fam in _variants_for_ratio_tests(families_q4):
        w, (table, scale) = fam.weights, fam.ratio_table
        assert fam.ratio_table[0] is table  # built once and kept
        flat = fam.coords[0]
        assert scale > 0
        zeros = (0,) * (flat.dim - 1)
        for i in range(4):
            assert table[i][i] == (scale,) + zeros, fam
            for j in range(4):
                ratio = flat.from_flat((table[i][j], scale))
                assert ratio * w[j] == w[i], (fam, i, j)
                assert flat.int_mul(table[i][j], table[j][i]) == \
                    [flat.tden * scale * scale, *zeros], (fam, i, j)


def test_phi_matches_the_per_pair_division(families_q4):
    for fam in _variants_for_ratio_tests(families_q4):
        want = phi_oracle(fam.weights)
        assert fam.a_matrix() == want == phi(fam.weights), fam


def test_family_rejects_first_weight_other_than_one():
    one = TowerElement.rational(1)
    with pytest.raises(ValueError):
        w = [2 * one, one, one, one]
        WeightFamily("iv", 4, 1, 1, QQ, w, [v.inverse() for v in w], None)


def test_reconstruct_case_ii_closed_form():
    # the inverse of phi from (w0, w3) gives the closed form
    # w1 = w2 = (-(q-3) w3 + (q-1)) / (q^2 - 2q - 1)
    for q, branch in itertools.product((4, 6, 8, 10, 26), (1, -1)):
        w0, w1, w2, w3 = family_coefficients("ii", q, 1, branch).weights
        assert w0 == 1
        assert w1 == (-(q - 3) * w3 + (q - 1)) / (q * q - 2 * q - 1) == w2


def test_reconstruct_degenerate_section():
    one = TowerElement.rational(1)
    two = TowerElement.rational(2)
    a = [[two] * 4 for _ in range(4)]
    w = reconstruct_weights(a, 0, 1, (one, one))
    assert w == [one, one, one, one]


@pytest.mark.parametrize("signs", [
    # a_12 = -2 and every other entry 2: det -32, rank 3
    {(1, 2): -1},
    # a 4 x 4 pattern whose triple {0, 2, 3} has sign product -1
    {(0, 3): -1, (1, 3): -1},
])
def test_reconstruct_rejects_a_sign_matrix_off_the_image(signs):
    # a +-2 matrix with diagonal 2 is in the image of phi only as
    # 2 e e^T, of rank 1; one of rank 3 must not come back as weights
    one = TowerElement.rational(1)
    size = 1 + max(j for _, j in signs)
    a = [[TowerElement.rational(2) for _ in range(size)] for _ in range(size)]
    for (i, j), sign in signs.items():
        a[i][j] = a[j][i] = TowerElement.rational(2 * sign)
    with pytest.raises(DenominatorZero):
        reconstruct_weights(a, 0, 1, (one, one))


def test_reconstruct_sign_section_is_rank_one():
    # a = 2 e e^T for e = (1, 1, -1, -1) comes back as e, scaled to w_0
    e = [TowerElement.rational(x) for x in (1, 1, -1, -1)]
    a = [[2 * x * y for y in e] for x in e]
    three = TowerElement.rational(3)
    w = reconstruct_weights(a, 0, 1, (three, three))
    assert w == [3 * x for x in e]
    assert phi(w) == a


def test_reconstruct_all_pm_two_guard():
    one = TowerElement.rational(1)
    two = TowerElement.rational(2)
    a = [[two] * 4 for _ in range(4)]
    a[2][3] = a[3][2] = TowerElement.rational(5)  # not +-2 elsewhere
    with pytest.raises(AllPlusMinusTwo):
        reconstruct_weights(a, 0, 1, (one, one))


def test_reconstruct_denominator_zero():
    one = TowerElement.rational(1)
    three = TowerElement.rational(3)
    zero = TowerElement.rational(0)
    a = [[three if i != j else TowerElement.rational(2) for j in range(3)]
         for i in range(3)]
    a[0][2] = a[2][0] = zero
    a[1][2] = a[2][1] = zero  # denominator a_{1,2} w1 - a_{0,2} w0 = 0
    d, s5 = adjoin_radical(QQ, 5)
    w1 = (three.lift(d) + s5) / 2
    with pytest.raises(DenominatorZero):
        reconstruct_weights(a, 0, 1, (TowerElement.rational(1, d), w1))


def test_reconstruct_rejects_a_off_the_image_of_phi(families_q4):
    # a_{1,2} moved by 1/7: from the seeds (0, 2) the quadric
    # g(a_{0,2}, a_{0,1}, a_{2,1}) fails
    fam = families_q4[("iv", 1, 1)]
    a = fam.a_matrix()
    a[1][2] = a[2][1] = a[1][2] + Fraction(1, 7)
    with pytest.raises(DenominatorZero):
        reconstruct_weights(a, 0, 2, (fam.weights[0], fam.weights[2]))


@pytest.mark.parametrize("weights, moved", [
    # three weights leave no pair away from the seeds: the principal
    # minor {0, 1, 2} decides
    ((1, 2, 3), (1, 2)),
    # every principal minor through the seeds (0, 1) holds: the bordered
    # minor {0, 1, 2} x {0, 1, 3} decides
    ((1, 2, 3, 5), (2, 3)),
])
def test_reconstruct_rejects_a_moved_value(weights, moved):
    ws = [TowerElement.rational(x) for x in weights]
    a = phi(ws)
    assert reconstruct_weights(a, 0, 1, ws[:2]) == ws
    i, j = moved
    a[i][j] = a[j][i] = a[i][j] + 1
    with pytest.raises(DenominatorZero):
        reconstruct_weights(a, 0, 1, ws[:2])


def test_reconstructed_moduli_agree_inside_interval(families_q4):
    # real a-matrix with a_{0,1} strictly inside (-2, 2): all |w_i| equal
    fam = families_q4[("vi", 1, 1)]
    a = fam.a_matrix()
    w = reconstruct_weights(a, 0, 1, (fam.weights[0], fam.weights[1]))
    moduli = [complex_embed(x, 20).abs_squared() for x in w]
    for m in moduli:
        assert m.lo <= 1 <= m.hi or abs(m.mid() - 1) < 1e-15


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def weight_vectors(draw):
    d, s = adjoin_radical(QQ, draw(st.sampled_from([2, -3, 5])))
    out = []
    for _ in range(4):
        a = draw(small_fraction)
        b = draw(small_fraction)
        w = TowerElement.rational(a, d) + s * b
        if w.is_zero():
            w = TowerElement.rational(1, d)
        out.append(w)
    return out


@given(weight_vectors())
@settings(max_examples=40, deadline=None)
def test_phi_image_satisfies_every_minor(ws):
    a = phi(ws)
    minors = image_minors(lambda i, j: a[i][j], 4)
    assert len(minors) == 10
    assert all(m.is_zero() for m in minors)


@st.composite
def prefix_tower_weights(draw):
    # QQ, Q(sqrt(s1)) and Q(sqrt(s1), sqrt(s2)) are prefixes of each
    # other; each weight lives in one of them, so phi must lift
    d1, s1 = adjoin_radical(QQ, draw(st.sampled_from([2, -3])))
    d2, s2 = adjoin_radical(d1, draw(st.sampled_from([5, -7])))
    out = []
    for _ in range(4):
        depth = draw(st.integers(0, 2))
        w = TowerElement.rational(draw(small_fraction))
        if depth >= 1:
            w = w.lift(d1) + s1 * draw(small_fraction)
        if depth == 2:
            w = w.lift(d2) + s2 * draw(small_fraction)
        if w.is_zero():
            w = TowerElement.rational(1)
        out.append(w)
    return out


@given(prefix_tower_weights())
@settings(max_examples=40, deadline=None)
def test_phi_lifts_like_the_per_pair_division(ws):
    got, want = phi(ws), phi_oracle(ws)
    assert [[x.desc for x in row] for row in got] == \
        [[x.desc for x in row] for row in want]
    assert got == want


@given(weight_vectors())
@settings(max_examples=30, deadline=None)
def test_phi_then_reconstruct_roundtrip(ws):
    a = phi(ws)
    seed = next(((i, j) for i in range(4) for j in range(i + 1, 4)
                 if not (a[i][j] == 2 or a[i][j] == -2)), None)
    if seed is None:
        return
    i0, i1 = seed
    got = reconstruct_weights(a, i0, i1, (ws[i0], ws[i1]))
    assert got == list(ws)


nonzero_fraction = st.fractions(min_value=-9, max_value=9,
                                max_denominator=6).filter(bool)


@given(st.lists(nonzero_fraction, min_size=3, max_size=6)
       .filter(lambda w: abs(w[0]) != abs(w[1])), st.data())
@settings(max_examples=60, deadline=None)
def test_reconstruct_inverts_phi_for_every_length(w, data):
    # d = 2..5: with w_0 != +-w_1, a_01 != +-2 and the inverse of phi
    # from (w_0, w_1) gives w back; a moved off-diagonal entry other than
    # a_01 leaves the rank <= 2 locus and must raise
    ws = [TowerElement.rational(x) for x in w]
    a = phi(ws)
    assert reconstruct_weights(a, 0, 1, (ws[0], ws[1])) == ws
    i, j = data.draw(st.sampled_from(
        list(itertools.combinations(range(len(w)), 2))[1:]))
    step = data.draw(nonzero_fraction)
    if i < 2:
        # the principal minor {0, 1, j} is quadratic in a_ij: its other
        # root, a_01 a_(1-i)j - a_ij, is in the image when j is the only
        # index past the seeds
        assume(a[i][j] + step != a[0][1] * a[1 - i][j] - a[i][j])
    a[i][j] = a[j][i] = a[i][j] + step
    with pytest.raises(DenominatorZero):
        reconstruct_weights(a, 0, 1, (ws[0], ws[1]))


# -- certificates --------------------------------------------------------------

def test_type_ii_all_families(families_q4):
    for key, fam in families_q4.items():
        ok, cert = is_type_ii(fam)
        assert ok, key
        assert cert["dense_identity"], key
        assert all(cert["beta_products_equal_n"]), key


def test_beta_products_match_the_tower_oracle(families_q4):
    for key, fam in families_q4.items():
        cert = is_type_ii(fam)[1]
        assert cert["beta_products_equal_n"] == beta_products_oracle(fam), key


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 500), st.sampled_from(typeii.CASES),
       st.sampled_from((1, -1)), st.sampled_from((1, -1)))
def test_beta_products_match_the_oracle_at_even_q(half, case, branch, r_sign):
    fam = family_coefficients(case, 2 * half, r_sign, branch)
    ok, cert = is_type_ii(fam)
    assert ok
    assert cert["beta_products_equal_n"] == beta_products_oracle(fam)


def test_all_ones_is_not_type_ii():
    ones = [TowerElement.rational(1) for _ in range(4)]
    fake = WeightFamily("iv", 4, 1, 1, QQ, ones, [w.inverse() for w in ones],
                        None)
    ok, cert = is_type_ii(fake)
    assert not ok and not cert["dense_identity"]
    assert cert["beta_products_equal_n"] == beta_products_oracle(fake)


def test_dense_check_matches_the_triple_loop(families_q4):
    for key, fam in families_q4.items():
        assert typeii._dense_type_ii_check(fam) is True, key
        assert dense_type_ii_oracle(fam) is True, key


@pytest.mark.parametrize("key", [("i", 1, 1), ("iv", 1, -1), ("vi", 1, 1),
                                 ("vi", -1, -1)])
def test_perturbed_weight_fails_every_type_ii_test(families_q4, key):
    fam = families_q4[key]
    w = list(fam.weights)
    w[1] = w[1] * 2
    fake = WeightFamily(fam.case, fam.q, fam.branch, fam.r_sign, fam.desc, w,
                        [v.inverse() for v in w], fam.r_value)
    assert typeii._dense_type_ii_check(fake) is False
    assert dense_type_ii_oracle(fake) is False
    ok, cert = is_type_ii(fake)
    assert not ok and cert["dense_identity"] is False
    assert cert["beta_products_equal_n"] == beta_products_oracle(fake)


def test_hadamard_verdicts(families_q4):
    want = {"i": False, "ii": False, "iii": True, "iv": True, "v": True}
    for (case, r_sign, branch), fam in families_q4.items():
        expected = want[case] if case != "vi" else (r_sign > 0)
        got, cert = is_hadamard(fam)
        assert got == expected, (case, r_sign, branch)
        assert cert["interval/criterion"] == expected


def test_hadamard_leaves_type_ii_to_the_caller():
    # the all-ones weights give J: unimodular, so is_hadamard says yes, and
    # not type-II, which is is_type_ii's verdict, not is_hadamard's
    ones = [TowerElement.rational(1) for _ in range(4)]
    fake = WeightFamily("iv", 4, 1, 1, QQ, ones, [w.inverse() for w in ones],
                        None)
    had, cert = is_hadamard(fake)
    assert had and not cert["interval/criterion"]
    assert not is_type_ii(fake)[0]


def test_non_butson_witnesses(families_q4):
    pair, w, reason = non_butson_witness(families_q4[("iii", 1, 1)])
    assert pair == (0, 1) and w.as_rational() == Fraction(5, 3)
    pair, w, _ = non_butson_witness(families_q4[("v", 1, 1)])
    assert pair == (0, 1) and w.as_rational() == Fraction(-1, 2)
    pair, w, _ = non_butson_witness(families_q4[("iv", 1, 1)])
    assert pair == (0, 2) and w.as_rational() == Fraction(-7, 4)
    pair, w, reason = non_butson_witness(families_q4[("vi", 1, 1)])
    assert pair == (0, 1) and "trace -3/10" in reason
    for case in ("i", "ii"):  # a_{0,3} = -(q^2 - 3) is an integer
        with pytest.raises(NoWitness):
            non_butson_witness(families_q4[(case, 1, 1)])


def test_discriminant_root_identity():
    a = TowerElement.rational(Fraction(5, 3))
    desc, s = discriminant_root(a)
    assert desc.depth == 1 and s * s == a * a - 4
    # the branches (a +- s)/2 are the roots of w^2 - a w + 1, so they sum
    # to a and are mutual inverses
    wp, wm = (a.lift(desc) + s) / 2, (a.lift(desc) - s) / 2
    assert wp + wp.inverse() == a and wp * wm == 1


def test_discriminant_root_split_discriminant():
    # a^2 - 4 is a square in a's field: no level is adjoined, and a real
    # root of the discriminant is taken positive
    a = TowerElement.rational(Fraction(5, 2))
    assert discriminant_root(a) == (QQ, Fraction(3, 2))
    assert discriminant_root(-a) == (QQ, Fraction(3, 2))
    # a = 1 over Q(sqrt -3): the discriminant -3 has the non-real root t,
    # kept as found, so the branches are the sixth roots of unity (1 +- t)/2
    d, t = adjoin_radical(QQ, -3)
    one = TowerElement.rational(1, d)
    desc, s = discriminant_root(one)
    assert desc == d and s == t and s * s == -3
    w = (one + s) / 2
    assert w * w - w + 1 == 0 and complex_conj(w) != w
    # a = w + 1/w with w = 1 + sqrt(-15): a^2 - 4 = (w - 1/w)^2 splits in
    # Q(sqrt -15) with a root that is not real, kept as found
    d, t = adjoin_radical(QQ, -15)
    w = TowerElement.rational(1, d) + t
    a = w + w.inverse()
    with pytest.raises(Reducible) as split:
        adjoin_radical(d, a * a - 4)
    desc, s = discriminant_root(a)
    assert desc == d and s == split.value.root
    assert s * s == a * a - 4 and complex_conj(s) != s


def test_discriminant_root_passes_on_a_failing_sign(monkeypatch):
    # only a non-real root skips the sign; an error while deciding the
    # sign of a real one is not read as "non-real"
    def broken(x):
        raise ValueError("sign undecided")

    monkeypatch.setattr(typeii, "element_sign", broken)
    with pytest.raises(ValueError, match="sign undecided"):
        discriminant_root(TowerElement.rational(Fraction(5, 2)))


@given(st.integers(2, 5000))
@settings(max_examples=12, deadline=None)
def test_family_matches_the_division_oracle(half_q):
    # the closed form gives the descriptor, weights and branch of one tower
    # division per weight, and inverses equal to the tower inverses
    q = 2 * half_q
    for case in typeii.CASES:
        for branch, r_sign in itertools.product(
                (1, -1), (1, -1) if case == "vi" else (1,)):
            fam = family_coefficients(case, q, r_sign, branch)
            desc, weights = family_division_oracle(case, q, r_sign, branch)
            assert (fam.case, fam.branch, fam.r_sign) == (case, branch, r_sign)
            assert fam.desc == desc
            assert all(x.desc == desc for x in fam.weights + fam.inverses)
            assert fam.weights == tuple(weights), (case, q, branch, r_sign)
            assert fam.inverses == tuple(w.inverse() for w in weights)


def test_beta_zero_extension(families_q4):
    # beta_0 * beta'_0 = n follows from k = 1..d by the trace argument;
    # the certificate records it as an outright equality
    ok, cert = is_type_ii(families_q4[("iv", 1, 1)])
    assert ok and cert["beta_products_equal_n"][0]


# -- isolation smoke (full runs live in the acceptance suite) ------------------

def test_span_condition_fourier_smoke():
    d, im = adjoin_radical(QQ, -1)
    one = TowerElement.rational(1, d)
    vals = [one, im, -one, -im]
    dense = [[vals[(j * k) % 4] for k in range(4)] for j in range(4)]
    iso, rank = span_condition(dense, d, return_rank=True)
    # the 4x4 Fourier matrix deforms continuously, so it cannot pass
    assert not iso and rank < 9


def test_span_condition_rejects_non_square():
    one = TowerElement.rational(1)
    with pytest.raises(NotSquare):
        span_condition([[one, one]], QQ)


def test_dense_matrix_needs_q4():
    fam = family_coefficients("i", 6)
    with pytest.raises(NoConcreteScheme):
        TypeIIMatrix(fam)


# -- isolation: the certified rank against exact elimination ---------------

def oracle_span_rows(dense, desc):
    """The generator matrix A over the tower, row (w, v) at n*w + v, as
    (FlatTower, rows of {column: (vec, den)})."""
    n = len(dense)
    flat = FlatTower(desc)
    H = [[flat.to_flat(e.lift(desc)) for e in row] for row in dense]
    Hc = [[flat.to_flat(complex_conj(e.lift(desc))) for e in row]
          for row in dense]
    rows = []
    for w in range(n):
        for v in range(n):
            row = {}
            for y in range(n):
                if y != v:
                    row[v * n + y] = flat.mul(Hc[w][v], H[w][y])
                    row[y * n + v] = flat.neg(flat.mul(Hc[w][y], H[w][v]))
            rows.append(row)
    return flat, rows


def oracle_span_rank(dense, desc):
    """The span rank by exact elimination over the tower (``sparse_rank``)."""
    flat, rows = oracle_span_rows(dense, desc)
    return sparse_rank(rows, flat)


def span_towers():
    sqrt_m15, _ = adjoin_radical(QQ, -15)
    return [QQ, sqrt_m15, family_coefficients("vi", 4, 1, 1).desc]


SPAN_TOWERS = span_towers()


def fourier(n, desc, root):
    one = TowerElement.rational(1, desc)
    return [[one * root ** (j * k % n) for k in range(n)] for j in range(n)]


@st.composite
def span_inputs(draw):
    """Small matrices over depth 0, 1 and 2 towers, of every rank shape."""
    shape = draw(st.sampled_from(
        ("random", "rank_one", "zero_row", "equal_columns", "fourier")))
    if shape == "fourier":
        # Hadamard inputs: F_3 is isolated, F_4 is not; diagonal unimodular
        # scalings keep both properties
        n = draw(st.sampled_from((3, 4)))
        desc, im = adjoin_radical(QQ, -3 if n == 3 else -1)
        one = TowerElement.rational(1, desc)
        root = (-one + im) / 2 if n == 3 else im
        units = [one, root, (1 + 4 * im) / 7] if n == 3 else \
            [one, im, (3 + 4 * im) / 5]
        dense = fourier(n, desc, root)
        rows = [draw(st.sampled_from(units)) for _ in range(n)]
        cols = [draw(st.sampled_from(units)) for _ in range(n)]
        return [[rows[j] * dense[j][k] * cols[k] for k in range(n)]
                for j in range(n)], desc
    desc = draw(st.sampled_from(SPAN_TOWERS))
    n = draw(st.integers(3, 5))
    basis = tower_basis(desc)
    coord = st.one_of(st.just(0), st.integers(-3, 3),
                      st.fractions(-2, 2, max_denominator=3))

    def entry():
        return sum((b * draw(coord) for b in basis),
                   TowerElement.rational(0, desc))

    if shape == "rank_one":
        u = [entry() for _ in range(n)]
        v = [entry() for _ in range(n)]
        return [[a * b for b in v] for a in u], desc
    dense = [[entry() for _ in range(n)] for _ in range(n)]
    if shape == "zero_row":
        dense[draw(st.integers(0, n - 1))] = [basis[0] * 0] * n
    elif shape == "equal_columns":
        j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        for row in dense:
            row[k] = row[j]
    return dense, desc


@given(st.sampled_from(SPAN_TOWERS), st.integers(3, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_real_subfield_matrix_factors_the_generator_matrix(desc, n, data):
    """A = B N entrywise: B's entries (a0, a1) at columns (v, y), (y, v),
    v < y, times N's block [[1, -1], [t, t]], give A's entries
    a0 + t a1 and -a0 + t a1 = -sigma(a); over Q, A = B M with the block
    [1, -1], so B has one column per pair.  B holds A's rows (w, v) with
    v < n - 1, v from n - 2 down, then w, times one positive scale."""
    basis = tower_basis(desc)
    coord = st.one_of(st.just(0), st.integers(-3, 3),
                      st.fractions(-2, 2, max_denominator=3))
    dense = [[sum((b * data.draw(coord) for b in basis),
                  TowerElement.rational(0, desc)) for _ in range(n)]
             for _ in range(n)]
    span = typeii._CommutatorSpan(desc, n, [e for row in dense for e in row])
    assert span.split == (desc != QQ)
    assert len(span.columns) == n * (n - 1) // (1 if span.split else 2)
    k0 = span.flat
    t = TowerElement.generator(desc) if span.split else 0
    zero = [0] * k0.dim
    flat, rows = oracle_span_rows(dense, desc)
    want = [rows[w * n + v] for v in range(n - 2, -1, -1) for w in range(n)]
    for row_b, row_a in zip(span.rows(tuple), want, strict=True):
        got = {}
        for v in range(n):
            for y in range(v + 1, n):
                if v * n + y not in row_b:
                    continue
                a0, a1 = (k0.from_flat((row_b.get(c, zero), span.scale))
                          .lift(desc)
                          for c in (v * n + y, y * n + v))
                got[v * n + y] = a0 + t * a1
                got[y * n + v] = -a0 + t * a1
        assert got == {c: flat.from_flat(x) for c, x in row_a.items()}


@given(span_inputs())
@settings(max_examples=60, deadline=None)
def test_certified_span_rank_matches_exact_elimination(data):
    dense, desc = data
    n = len(dense)
    rank = oracle_span_rank(dense, desc)
    assert span_condition(dense, desc, return_rank=True) == \
        (rank == (n - 1) ** 2, rank)


def test_certified_span_rank_shapes():
    # the three verdict routes all occur: rank above (n-1)^2 (non-Hadamard),
    # exactly (n-1)^2 by the structural bound, and below it
    d, im = adjoin_radical(QQ, -3)
    one = TowerElement.rational(1, d)
    f3 = fourier(3, d, (-one + im) / 2)
    assert span_condition(f3, d, return_rank=True) == (True, 4)
    tweaked = [row[:] for row in f3]
    tweaked[0][0] = 2 * one
    assert span_condition(tweaked, d, return_rank=True) == \
        (False, oracle_span_rank(tweaked, d))
    assert oracle_span_rank(tweaked, d) > 4
    zero = [[one * 0] * 3 for _ in range(3)]
    assert span_condition(zero, d, return_rank=True) == (False, 0)


@pytest.mark.parametrize("key", [("iii", 1, 1), ("iv", 1, 1), ("v", 1, 1),
                                 ("vi", 1, 1), ("i", 1, 1)])
def test_span_relations_of_q4_families(families_q4, key):
    """The 2n - 1 relations behind rank <= (n-1)^2, in exact arithmetic.

    Generator rows of one w always sum to zero; rows of one v sum to the
    off-diagonal of H*H, zero exactly for the Hadamard families and not
    for the type-II-only family i.
    """
    fam = families_q4[key]
    H = TypeIIMatrix(fam).dense()
    n = len(H)
    Hc = [[complex_conj(e) for e in row] for row in H]
    zero = TowerElement.rational(0, fam.desc)
    row_sums = [[zero] * (n * n) for _ in range(n)]
    col_sums = [[zero] * (n * n) for _ in range(n)]
    for w in range(n):
        for v in range(n):
            for y in range(n):
                if y != v:
                    for c, x in ((v * n + y, Hc[w][v] * H[w][y]),
                                 (y * n + v, -(Hc[w][y] * H[w][v]))):
                        row_sums[w][c] = row_sums[w][c] + x
                        col_sums[v][c] = col_sums[v][c] + x
    assert all(x.is_zero() for sums in row_sums for x in sums)
    hadamard = key[0] != "i"
    assert all(x.is_zero() for sums in col_sums for x in sums) == hadamard


# the span rank of each variant that test_one_elimination_per_prime runs
SPAN_RANKS_Q4 = {("v", 1, 1): 186, ("iv", 1, 1): 196, ("vi", 1, 1): 196,
                 ("i", 1, 1): 105, ("ii", 1, 1): 105, ("vi", -1, 1): 105,
                 ("iii", 1, 1): 180, ("v", 1, -1): 186}


@pytest.mark.parametrize("key, isolated", [(key, rank == 196) for key, rank
                                           in SPAN_RANKS_Q4.items()])
def test_one_elimination_per_prime(families_q4, monkeypatch, key, isolated):
    """Each prime costs one elimination, under one map of K0.  B lies over
    K0 = Q for iii, v and iv, so that elimination also gives the kernel
    certificate; the isolated iv and vi r+ settle by the (n-1)^2 bound,
    and the real towers of i, ii and vi r-, where B has full rank 105,
    by the column bound.  Every verdict but iii's settles on one prime,
    v's kernel lift on both branches included; iii's lift needs more."""
    honest_echelon, honest_primes = typeii.echelon_mod_p, typeii.primes
    calls, drawn = [], []

    def echelon(rows, p):
        calls.append(p)
        return honest_echelon(rows, p)

    def counted():
        for p in honest_primes():
            drawn.append(p)
            yield p

    monkeypatch.setattr(typeii, "echelon_mod_p", echelon)
    monkeypatch.setattr(typeii, "primes", counted)
    fam, rank = families_q4[key], SPAN_RANKS_Q4[key]
    assert span_condition(TypeIIMatrix(fam).dense(), fam.desc,
                          return_rank=True) == (isolated, rank)
    if key[0] == "iii":
        assert calls == drawn and len(calls) > 1
    else:
        assert len(calls) == 1


@pytest.mark.parametrize("key", list(SPAN_RANKS_Q4))
def test_span_matrix_costs_one_product_per_pair_of_entries(
        families_q4, monkeypatch, key):
    """H has m <= 4 distinct entries, and the whole verdict makes at most
    m^2 ``int_mul`` calls, those of the table conj(h_a) h_b."""
    fam = families_q4[key]
    dense = TypeIIMatrix(fam).dense()
    m = len({e for row in dense for e in row})
    honest, products = FlatTower.int_mul, []

    def int_mul(self, x, y):
        products.append(self)
        return honest(self, x, y)

    monkeypatch.setattr(FlatTower, "int_mul", int_mul)
    assert span_condition(dense, fam.desc, return_rank=True)[1] == \
        SPAN_RANKS_Q4[key]
    assert m <= 4 and len(products) <= m * m


@pytest.mark.parametrize("key", [("v", 1, 1), ("vi", 1, 1)])
def test_rows_mod_p_come_latest_leading_column_first(families_q4, key):
    """``rows_mod_p`` gives B's n(n - 1) rows, each once, under the map,
    in non-increasing leading column (K0 = Q for v, Q(r) for vi r+)."""
    fam = families_q4[key]
    dense = TypeIIMatrix(fam).dense()
    span = typeii._CommutatorSpan(fam.desc, len(dense),
                                  [e.lift(fam.desc) for row in dense
                                   for e in row])
    p, img = next((p, img) for p in primes()
                  if (img := span.flat.embedding(p)) is not None)
    got = list(span.rows_mod_p(img, p))
    leads = [min(row) for row in got]
    assert len(got) == len(dense) * (len(dense) - 1)
    assert leads == sorted(leads, reverse=True)
    assert leads[0] > leads[-1]

    def key_of(row):
        return sorted(row.items())

    want = [{c: sum(a * b for a, b in zip(x, img)) % p
             for c, x in row.items()} for row in span.rows(tuple)]
    assert sorted(map(key_of, got)) == sorted(map(key_of, want))


@given(span_inputs())
@settings(max_examples=30, deadline=None)
def test_restriction_of_scalars_multiplies_the_rank_by_the_degree(data):
    """rank_Q B_Q = [K0:Q] rank_K0 B, by exact elimination over Q."""
    dense, desc = data
    span = typeii._CommutatorSpan(desc, len(dense),
                                  [e.lift(desc) for row in dense for e in row])
    assert set().union(*span.rows_over_q) <= set(span.q_columns)
    over_q = [{c: ((x,), 1) for c, x in row.items()}
              for row in span.rows_over_q]
    assert sparse_rank(over_q, FlatTower(QQ)) == \
        span.flat.dim * oracle_span_rank(dense, desc)


def rank_one_over_vi():
    """A rank-one 4 x 4 H over vi r+'s tower, where K0 = Q(r) has degree
    2: its span rank is below both (n-1)^2 and the column count."""
    desc = family_coefficients("vi", 4, 1, 1).desc
    b = tower_basis(desc)
    u = [b[0] + j * b[1] for j in range(1, 5)]
    v = [b[0] * (k + 1) + b[2] - k * b[3] for k in range(4)]
    return [[x * y for y in v] for x in u], desc


def assert_each_prime_follows_the_kernel_route(drawn, calls, k0):
    """``calls`` holds (prime, rows) of every elimination, B having 12
    rows, n(n - 1), and B_Q 24.  A drawn prime with a map of K0 = Q(r)
    eliminates B under it and then B_Q.  One with no map eliminates B_Q
    alone once a prime with a map has started the kernel route, and is
    skipped before that: the bound route needs the map."""
    started, want = False, []
    for p in drawn:
        if k0.embedding(p) is not None:
            started = True
            want += [(p, 12), (p, 24)]
        elif started:
            want.append((p, 24))
    assert calls == want


def counting_eliminations(monkeypatch, order=primes):
    """Patch ``typeii.echelon_mod_p`` to log (prime, rows) of each call,
    and ``typeii.primes`` to yield ``order()``'s primes and log each;
    returns (calls, drawn)."""
    honest_echelon = typeii.echelon_mod_p
    calls, drawn = [], []

    def echelon(rows, p):
        rows = list(rows)
        calls.append((p, len(rows)))
        return honest_echelon(rows, p)

    def counted():
        for p in order():
            drawn.append(p)
            yield p

    monkeypatch.setattr(typeii, "echelon_mod_p", echelon)
    monkeypatch.setattr(typeii, "primes", counted)
    return calls, drawn


def test_kernel_over_q_certifies_a_rank_one_matrix(monkeypatch):
    """Each prime eliminates B and B_Q by the rule of the kernel route,
    and the kernel certificate of B_Q gives the rank."""
    dense, desc = rank_one_over_vi()
    k0 = flat_tower(desc.prefix(desc.depth - 1))
    calls, drawn = counting_eliminations(monkeypatch)
    rank = oracle_span_rank(dense, desc)
    assert rank not in (9, 12)
    assert span_condition(dense, desc, return_rank=True) == (False, rank)
    assert (drawn[-1], 24) == calls[-1]  # the certificate is B_Q's
    assert_each_prime_follows_the_kernel_route(drawn, calls, k0)


def test_kernel_route_eliminates_b_q_on_primes_with_no_map(monkeypatch):
    """Primes with no map of K0 = Q(r) are drawn before and after one
    with a map: the first is skipped, the later one eliminates B_Q.  The
    first lift is made to fail, so that the kernel certificate needs the
    later prime."""
    dense, desc = rank_one_over_vi()
    k0 = flat_tower(desc.prefix(desc.depth - 1))
    first_primes = list(itertools.islice(primes(), 12))
    first, later = [p for p in first_primes if k0.embedding(p) is None][:2]
    mapped = next(p for p in first_primes if k0.embedding(p) is not None)
    head = [first, mapped, later]
    honest_lift, lifts = typeii._lift, []

    def lift(residues, modulus):
        lifts.append(modulus)
        return None if len(lifts) == 1 else honest_lift(residues, modulus)

    calls, drawn = counting_eliminations(monkeypatch, lambda: itertools.chain(
        head, (p for p in primes() if p not in head)))
    monkeypatch.setattr(typeii, "_lift", lift)
    rank = oracle_span_rank(dense, desc)
    assert span_condition(dense, desc, return_rank=True) == (False, rank)
    assert drawn[:3] == head and lifts[:2] == [mapped, mapped * later]
    assert_each_prime_follows_the_kernel_route(drawn, calls, k0)


def non_hadamard_4x4():
    d, s = adjoin_radical(QQ, -15)
    one = TowerElement.rational(1, d)
    return [[one * (j + 2 * k + 1) + s * (j * k % 3) for k in range(4)]
            for j in range(4)], d


def spoil_first_prime(monkeypatch, spoil):
    """Eliminate honestly, except on the first prime tried, where
    ``spoil(rows, p, call, honest)`` gives the echelon form of the
    call-th map; returns the list of primes of every call."""
    honest = typeii.echelon_mod_p
    seen = []

    def echelon(rows, p):
        seen.append(p)
        if p != seen[0]:
            return honest(rows, p)
        return spoil(rows, p, len(seen), honest)

    monkeypatch.setattr(typeii, "echelon_mod_p", echelon)
    return seen


def test_lower_bound_alone_never_isolates_non_hadamard(monkeypatch):
    """A prime whose rank drops to exactly (n-1)^2 decides nothing off
    Hadamard input: the kernel certificate has the last word."""
    dense, d = non_hadamard_4x4()
    rank = oracle_span_rank(dense, d)
    assert rank > 9

    def keep_nine_pivots(rows, p, call, honest):
        pivots = honest(rows, p)
        return dict(sorted(pivots.items())[:9]) if call == 1 else pivots

    seen = spoil_first_prime(monkeypatch, keep_nine_pivots)
    assert span_condition(dense, d, return_rank=True) == (False, rank)
    assert len(set(seen)) > 1  # the first prime was not the last word


def test_kernel_check_rejects_a_low_rank_prime(monkeypatch):
    """A prime whose rank is too low gives kernel vectors that are not in
    the kernel over K; the exact check refuses them."""
    dense, d = non_hadamard_4x4()
    rank = oracle_span_rank(dense, d)
    seen = spoil_first_prime(
        monkeypatch, lambda rows, p, call, honest: honest(list(rows)[:8], p))
    assert span_condition(dense, d, return_rank=True) == (False, rank)
    assert len(set(seen)) > 1


def test_span_condition_gives_up_after_the_prime_cap(monkeypatch):
    """With no kernel certificate ever lifted, the search ends in
    RankUndecided once it has drawn SPAN_PRIME_CAP candidate primes."""
    dense, d = non_hadamard_4x4()
    honest, drawn = typeii.primes, []

    def counted():
        for p in honest():
            drawn.append(p)
            yield p

    monkeypatch.setattr(typeii, "primes", counted)
    monkeypatch.setattr(typeii, "_lift", lambda residues, modulus: None)
    with pytest.raises(typeii.RankUndecided):
        span_condition(dense, d)
    assert len(drawn) == typeii.SPAN_PRIME_CAP


# -- the kernel lift over one denominator -----------------------------------

LIFT_PRIMES = list(itertools.islice(primes(), 3))
# denominators whose lcm, 12, and numerators at most TAME keep every tame
# lift inside the bound sqrt(m/2) of even one prime: no numerator over
# the common denominator exceeds 12 TAME
TAME = isqrt(LIFT_PRIMES[0] // 2) // 12
_tame = st.builds(Fraction, st.integers(-TAME, TAME),
                  st.sampled_from((1, 2, 3, 4, 6, 12)))
_wild = st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40),
                  st.integers(1, 2 ** 36))


@st.composite
def lift_inputs(draw):
    """Residues mod a product of primes of rational kernel entries, tame,
    wild (large, clashing denominators) or not a residue of any small
    fraction; and whether every entry is tame."""
    modulus = 1
    for p in LIFT_PRIMES[:draw(st.integers(1, 3))]:
        modulus *= p
    kinds = st.sampled_from(("tame", "tame", "tame", "wild", "junk"))
    tame, residues = True, {}
    for f in range(draw(st.integers(1, 3))):
        for c in draw(st.lists(st.integers(0, 9), min_size=1, max_size=8,
                               unique=True)):
            kind = draw(kinds)
            tame = tame and kind == "tame"
            if kind == "junk":
                residues[(f, c)] = draw(st.integers(0, modulus - 1))
                continue
            x = draw(_tame if kind == "tame" else _wild)
            residues[(f, c)] = (x.numerator * pow(x.denominator, -1, modulus)
                                % modulus)
    return residues, modulus, tame


@given(lift_inputs())
@settings(max_examples=200, deadline=None)
def test_common_denominator_lift_matches_per_coordinate_lift(data):
    residues, modulus, tame = data
    got = typeii._lift(residues, modulus)
    want = lift_per_coordinate_oracle(residues, modulus)
    if tame:
        assert got is not None
    if got is not None:
        assert all(den > 0 for _, den in got)
        assert [{c: Fraction(x, den) for c, x in vec.items()}
                for vec, den in got] == want
