from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import euclid_gcd

from bmhadamard import ratfunc

from bmhadamard.exactfield import (
    QQ,
    Reducible,
    TowerElement,
    adjoin_radical,
    field_sqrt,
    rational_sqrt,
)
from bmhadamard.ratfunc import (
    InvalidRValue,
    PoleAtQ0,
    PolyQ,
    Q,
    QF,
    RF_DESC,
    RF_R,
    RING_DESC,
    RatQ,
    R_SQUARED,
    ratfunc_specialize,
    r_value_at,
)


def test_poly_basic():
    q = PolyQ.x()
    p = (q - 1) * (17 * q - 1)
    assert p.coeffs == (1, -18, 17)
    assert p(4) == 201
    assert p.degree == 2
    quo, rem = (p * p + q).divmod(p)
    assert quo == p and rem == q


def test_poly_negative_power_raises():
    # a polynomial has no inverse in Q[q]; the quotient lives in RatQ
    q = PolyQ.x()
    with pytest.raises(ValueError):
        (q - 1) ** -1
    assert (q - 1) ** 0 == PolyQ.const(1)
    assert (Q - 1) ** -1 == 1 / (Q - 1)


def test_ratq_reduction_and_monic_denominator():
    q = Q
    f = (q * q - 1) / (q - 1)
    assert f == q + 1
    g = RatQ(PolyQ((0, 2)), PolyQ((0, 0, 4)))  # 2q / 4q^2 = (1/2)/q
    assert g.den.leading() == 1
    assert g(3) == Fraction(1, 6)


def test_r_squared_constant():
    assert R_SQUARED(4) == 201
    assert R_SQUARED(10) == 1521  # = 39^2


def rf(plain, r_part=0):
    """plain + r_part * r, an element of Q(q)(r) over ``RF_DESC``."""
    return TowerElement.rational(plain, RF_DESC) + RF_R * r_part


def test_rf_arithmetic_reduces_r_squared():
    r = RF_R
    assert (r * r) == rf(R_SQUARED)
    x = QF + r            # q + r
    y = QF - r
    assert x * y == rf(Q * Q - R_SQUARED)
    assert (x * x.inverse()) == rf(1)
    assert x.galois_conj() == y


def test_specialize_plain():
    f = Q * Q / 2 - Q
    assert ratfunc_specialize(f, 4).as_rational() == 4
    assert ratfunc_specialize(-2 / Q, 4).as_rational() == Fraction(-1, 2)


def test_specialize_pole():
    f = 1 / (Q - 4)
    with pytest.raises(PoleAtQ0):
        ratfunc_specialize(f, 4)


def test_specialize_with_r():
    # a_{0,1} of the sixth family at q = 4: 3(sqrt(201) - 1)/20
    q, r = QF, RF_R
    f = (-(q - 1) * (q - 2) + (q + 2) * r) / (2 * q * (q + 1))
    rv = r_value_at(4)
    val = ratfunc_specialize(f, 4, rv)
    d201, s201 = adjoin_radical(QQ, 201)
    want = (s201 - 1) * Fraction(3, 20)
    assert val == want


def test_specialize_rejects_bad_r():
    rv = r_value_at(4)
    with pytest.raises(InvalidRValue):
        ratfunc_specialize(RF_R, 6, rv)  # rv^2 = 201 != (17*6-1)*5
    with pytest.raises(InvalidRValue):
        ratfunc_specialize(RF_R, 4, None)


def test_r_value_rational_when_square():
    rv = r_value_at(10)
    assert rv.desc.depth == 0 and rv.as_rational() == 39
    rv = r_value_at(10, sign=-1)
    assert rv.as_rational() == -39
    rv = r_value_at(4, sign=-1)
    assert rv.desc.depth == 1 and (rv * rv).descend().as_rational() == 201


rational_q = st.fractions(min_value=5, max_value=30, max_denominator=3)
small_coeffs = st.lists(st.integers(min_value=-5, max_value=5),
                        min_size=1, max_size=4)


@given(small_coeffs, small_coeffs, small_coeffs, small_coeffs, small_coeffs,
       small_coeffs, st.sampled_from((4, 10)) | rational_q)
@settings(max_examples=50, deadline=None)
def test_ratfunc_evaluation_is_a_homomorphism(n1, d1, m1, n2, d2, m2, q0):
    # r = sqrt(201) is irrational at q0 = 4; r = 39 at q0 = 10
    if not any(d1) or not any(d2):
        return
    f = rf(RatQ(PolyQ(n1), PolyQ(d1)), RatQ(PolyQ(m1), PolyQ(d1)))
    g = rf(RatQ(PolyQ(n2), PolyQ(d2)), RatQ(PolyQ(m2), PolyQ(d2)))
    rv = r_value_at(q0)

    def at(h):
        return ratfunc_specialize(h, q0, rv)

    try:
        fv, gv = at(f), at(g)
    except PoleAtQ0:
        return
    assert at(f + g) == fv + gv
    assert at(f * g) == fv * gv
    if not gv.is_zero():
        try:
            quotient = at(f / g)
        except PoleAtQ0:
            # only when r is rational at q0: g's r-norm can vanish there
            assert rational_sqrt(R_SQUARED(q0)) is not None
            return
        assert quotient == fv / gv


small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(small_fraction, small_coeffs, small_coeffs)
@settings(max_examples=60, deadline=None)
def test_equal_values_hash_alike(c, n, d):
    f = RatQ(PolyQ(n), PolyQ(d)) if any(d) else RatQ(PolyQ(n))
    forms = [c, PolyQ.const(c), RatQ(c), rf(c), rf(c).descend(),
             PolyQ(n), RatQ(PolyQ(n)), f, rf(f), rf(f).descend(),
             rf(f, c), rf(f, c).galois_conj().galois_conj()]
    if c.denominator == 1:
        forms.append(int(c))
    for a in forms:
        for b in forms:
            assert (a == b) == (b == a), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert PolyQ.x() == Q and Q == PolyQ.x()


def test_field_sqrt_over_q_of_q():
    # squares in Q(q) and in Q(q)(r) are decided exactly
    assert field_sqrt(rf(R_SQUARED).descend()) is None
    assert field_sqrt(rf(R_SQUARED)) in (RF_R, -RF_R)
    x = (QF + RF_R) / (QF - 1)
    assert field_sqrt(x * x) in (x, -x)
    y = (Q - 2) / (2 * Q)
    assert field_sqrt(rf(y * y).descend()) in (y, -y)
    # adjoin_radical's square test over Q(q) agrees with the directly built level
    q_of_q = RF_DESC.prefix(0)
    with pytest.raises(Reducible):
        adjoin_radical(q_of_q, (Q - 1) * (Q - 1))
    assert adjoin_radical(q_of_q, R_SQUARED)[0] == RF_DESC


# -- the integer gcd against Euclid on Fractions ------------------------------

small_poly = st.lists(small_fraction, min_size=1, max_size=5)


@given(small_poly, small_poly, small_poly)
@example([0, -3, 2], [0, 1, 1], [1])  # the first candidate, q^2 + q, fails
@settings(max_examples=150, deadline=None)
def test_integer_gcd_matches_euclid(a, b, c):
    # a planted common factor c, so the gcd is mostly nontrivial
    A, B = PolyQ(a) * PolyQ(c), PolyQ(b) * PolyQ(c)
    assert A.gcd(B).coeffs == euclid_gcd(A.coeffs, B.coeffs)
    if not B.is_zero():
        quo, rem = A.divmod(B)
        assert quo * B + rem == A and rem.degree < B.degree


@given(small_poly, small_poly, small_poly)
@settings(max_examples=60, deadline=None)
def test_prs_fallback_matches_euclid(a, b, c):
    A, B = PolyQ(a) * PolyQ(c), PolyQ(b) * PolyQ(c)
    pa, pb = ratfunc._primitive(A.ints), ratfunc._primitive(B.ints)
    if not pa or not pb:
        return
    want = euclid_gcd(A.coeffs, B.coeffs)
    g = ratfunc._prs_gcd(pa, pb)
    assert tuple(Fraction(x, g[-1]) for x in g) == want
    reduced = RatQ(A, B)
    with patch.object(ratfunc, "_heuristic_gcd", lambda a, b: None):
        g, qa, qb = ratfunc._gcd(pa, pb)
        assert ratfunc._mul_ints(g, qa) == pa
        assert ratfunc._mul_ints(g, qb) == pb
        assert RatQ(A, B) == reduced


@given(small_poly, small_poly, small_poly)
@settings(max_examples=100, deadline=None)
def test_ratq_cancels_a_common_factor(a, b, c):
    A, B, C = PolyQ(a), PolyQ(b), PolyQ(c)
    if B.is_zero() or C.is_zero():
        return
    left, right = RatQ(A * C, B * C), RatQ(A, B)
    assert left == right and hash(left) == hash(right)
    assert left.den.leading() == 1


@given(st.lists(small_poly, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_squarefree_parts_rebuild_the_input(factors):
    f = PolyQ((1,))
    for i, cs in enumerate(factors, 1):
        f = f * PolyQ(cs) ** i
    f = ratfunc._primitive(f.ints)
    if len(f) < 2:
        return
    parts = ratfunc._squarefree_parts(f)
    rebuilt = [1]
    for i, a in enumerate(parts, 1):
        if len(a) > 1:  # squarefree: coprime to its derivative
            deriv = [k * x for k, x in enumerate(a)][1:]
            assert euclid_gcd(a, deriv) == (1,)
        for _ in range(i):
            rebuilt = ratfunc._mul_ints(rebuilt, a)
    assert rebuilt == f


def test_adjoin_radical_strips_square_factors_over_q_of_q():
    q_of_q = RF_DESC.prefix(0)
    desc, root = adjoin_radical(q_of_q, R_SQUARED * (Q + 1) ** 2)
    assert desc == RF_DESC and root == (Q + 1) * RF_R
    radicand = R_SQUARED * (Q + 1) ** 3 * Fraction(-12, 5) / (Q - 2) ** 4
    desc, root = adjoin_radical(q_of_q, radicand)
    assert root * root == radicand
    assert desc.levels[0] == -15 * (Q + 1) * R_SQUARED
    square = Fraction(4, 9) * (Q - 1) ** 2 / (Q + 3) ** 2
    with pytest.raises(Reducible) as exc:
        adjoin_radical(q_of_q, square)
    assert exc.value.root * exc.value.root == square


# -- PolyQ as the base ring of a tower ----------------------------------------

def test_polyq_zero_is_falsy():
    assert not PolyQ(())
    assert not PolyQ((0, 0))
    assert bool(PolyQ((0, 1)))
    assert bool(PolyQ((Fraction(1, 3),)))


def test_polyq_takes_a_bare_constant():
    assert PolyQ(3) == PolyQ((3,))
    assert hash(PolyQ(3)) == hash(PolyQ((3,))) == hash(3)
    assert PolyQ(Fraction(1, 2)) == PolyQ.const(Fraction(1, 2))
    assert PolyQ(0) == PolyQ(())


def test_ring_descriptor_zero_test():
    zero = TowerElement.rational(0, RING_DESC)
    r = TowerElement.generator(RING_DESC)
    assert zero.is_zero()
    assert not r.is_zero()
    assert not TowerElement.rational(PolyQ.x(), RING_DESC).is_zero()
    # r^2 is (17q-1)(q-1): a nonzero constant of the ring, r-coordinate 0
    assert r * r == TowerElement.rational(R_SQUARED.num, RING_DESC)
    assert (r * r - R_SQUARED.num).is_zero()
