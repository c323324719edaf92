from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from bmhadamard.exactfield import (
    QQ,
    DivisionByZero,
    IncompatibleTowers,
    Reducible,
    TowerDescriptor,
    TowerElement,
    _mul,
    adjoin_radical,
    complex_conj,
    element_sign,
    embed_signature,
    field_sqrt,
    is_real,
    rational_radical_parts,
    rational_sqrt,
    squarefree_decompose,
)
from bmhadamard.intervals import abs_is_one, complex_embed
from bmhadamard.ratfunc import RF_DESC, RING_DESC, PolyQ, RatQ
from bmhadamard.typeii import all_families
from oracles import element_sign_oracle, schoolbook_mul


def sqrt_field(m):
    return adjoin_radical(QQ, m)


def test_norm_of_one_plus_sqrt17():
    d, s = sqrt_field(17)
    a = TowerElement.rational(1, d) + s
    b = TowerElement.rational(1, d) - s
    assert (a * b).descend().as_rational() == -16


def test_unit_square_in_sqrt17():
    d, s = sqrt_field(17)
    u = TowerElement.rational(33, d) + 8 * s
    assert (u * u).coefficients() == (2177, 528)


def test_inverse_of_unimodular_quadratic():
    # (5 + sqrt(-11))/6 has norm 1, so the inverse is the conjugate
    d, s = sqrt_field(-11)
    w = (TowerElement.rational(5, d) + s) / 6
    assert w.inverse() == (TowerElement.rational(5, d) - s) / 6
    assert w.inverse() == w.galois_conj()


def test_division_by_zero():
    d, s = sqrt_field(17)
    zero = TowerElement.rational(0, d)
    with pytest.raises(DivisionByZero):
        zero.inverse()
    with pytest.raises(DivisionByZero):
        s / zero


def test_incompatible_towers():
    _, a = sqrt_field(17)
    _, b = sqrt_field(-11)
    with pytest.raises(IncompatibleTowers):
        a + b


def test_adjoin_square_is_reducible():
    with pytest.raises(Reducible) as exc:
        adjoin_radical(QQ, 4)
    assert exc.value.root.as_rational() == 2
    with pytest.raises(Reducible) as exc:  # 0 is the square of 0
        adjoin_radical(QQ, 0)
    assert exc.value.root.is_zero()


def test_adjoin_201_and_depth_two_extension():
    d201, s201 = sqrt_field(201)
    # z with z + 1/z = (53 - 3 sqrt(201))/10, a genuine depth-2 tower
    z_trace = (TowerElement.rational(53, d201) - 3 * s201) / 10
    dz, root = adjoin_radical(d201, z_trace * z_trace - 4)
    assert dz.depth == 2
    z = (z_trace + root) / 2
    assert z + z.inverse() == z_trace.lift(dz)


def test_trace_and_conjugate():
    d, s = sqrt_field(17)
    x = TowerElement.rational(433, d) + 105 * s
    tr, conj = x.trace_conj()
    assert tr.descend().as_rational() == 866
    assert conj == TowerElement.rational(433, d) - 105 * s
    # rational elements are fixed by conjugation at any level
    r = TowerElement.rational(Fraction(7, 3), d)
    assert r.galois_conj() == r
    # the parameter recovered from the trace: (866 + 18) / 34 = 26
    assert (tr.descend().as_rational() + 18) / 34 == 26


def test_descend_and_lift_roundtrip():
    d, s = sqrt_field(17)
    x = TowerElement.rational(5, d)
    low = x.descend()
    assert low.desc.depth == 0
    assert low.lift(d) == x
    assert x.lift(d) is x


def test_rational_sqrt_and_squarefree():
    assert rational_sqrt(Fraction(49, 4)) == Fraction(7, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert squarefree_decompose(720) == (5, 12)
    assert squarefree_decompose(-18) == (-2, 3)
    assert rational_radical_parts(Fraction(-15, 16)) == (-15, Fraction(1, 4))


def test_field_sqrt_in_quadratic_field():
    d, s = sqrt_field(2)
    # (1 + sqrt2)^2 = 3 + 2 sqrt2 must have a square root in the field
    x = TowerElement.rational(3, d) + 2 * s
    r = field_sqrt(x)
    assert r is not None and r * r == x
    # 1 + sqrt2 is not a square in Q(sqrt2)
    assert field_sqrt(TowerElement.rational(1, d) + s) is None


# -- embeddings -------------------------------------------------------------

def test_embed_unimodular_weight():
    d, s = sqrt_field(-15)
    w = (TowerElement.rational(-7, d) + s) / 8
    z = complex_embed(w, 20)
    assert abs(z.mid() - complex(-0.875, 0.4841229182759271)) < 1e-12
    assert abs_is_one(w, 12)


def test_embed_rational_is_exact():
    z = complex_embed(TowerElement.rational(2), 30)
    assert z.re.lo == 2 == z.re.hi and z.im.lo == 0 == z.im.hi


def test_embed_negative_branch_weight():
    # the real root pair of t^2 + 13 t + 1: the negative branch has
    # absolute value far from 1
    d, s = sqrt_field(165)
    w = (TowerElement.rational(-13, d) - s) / 2
    z = complex_embed(w, 15)
    assert abs(z.mid().real + 12.92261628933257) < 1e-9
    assert not abs_is_one(w, 2)


def test_element_sign():
    d, s = sqrt_field(165)
    w = (TowerElement.rational(-13, d) - s) / 2
    assert element_sign(w) == -1
    assert element_sign(-w) == 1
    assert element_sign(TowerElement.rational(0, d)) == 0
    # tight signs around sqrt(165) = 12.845...
    assert element_sign(TowerElement.rational(13, d) - s) == 1
    assert element_sign(TowerElement.rational(12, d) - s) == -1
    # at an imaginary level only b = 0 is real
    d, s = sqrt_field(-15)
    with pytest.raises(ValueError, match="not real"):
        element_sign(s)
    assert element_sign(s * s) == -1


def test_cached_signature_agrees_with_uncached(families_q4):
    for fam in families_q4.values():
        want = embed_signature.__wrapped__(fam.desc)
        assert embed_signature(fam.desc) == want
        assert embed_signature(fam.desc) == want  # a cache hit
        assert want[-1] == (-1 if fam.case in ("iii", "iv", "v") or
                            (fam.case == "vi" and fam.r_sign > 0) else 1)


# -- randomized field axioms -------------------------------------------------

def _depth2_descriptor():
    d1, _ = sqrt_field(2)
    return adjoin_radical(d1, 3)[0]  # Q(sqrt2, sqrt3)


def _depth3_descriptor():
    d2 = _depth2_descriptor()
    s2 = TowerElement.generator(TowerDescriptor(d2.levels[:1])).lift(d2)
    return adjoin_radical(d2, 1 + s2)[0]  # adjoin sqrt(1 + sqrt2)


DESCS = [QQ, sqrt_field(2)[0], sqrt_field(-15)[0], _depth2_descriptor(),
         _depth3_descriptor()]

small_fraction = st.fractions(
    min_value=-4, max_value=4,
    max_denominator=6)


def nest(cs):
    # flat coordinates (as in TowerElement.coefficients) to a nested rep
    if len(cs) == 1:
        return cs[0]
    half = len(cs) // 2
    return (nest(cs[:half]), nest(cs[half:]))


@st.composite
def tower_elements(draw, desc_pool=tuple(range(len(DESCS)))):
    desc = DESCS[draw(st.sampled_from(desc_pool))]
    coords = draw(st.lists(small_fraction, min_size=desc.degree,
                           max_size=desc.degree))
    return TowerElement(desc, nest(tuple(coords)))


@given(tower_elements(), tower_elements(), tower_elements())
@settings(max_examples=60, deadline=None)
def test_field_axioms(x, y, z):
    desc = max((x.desc, y.desc, z.desc), key=lambda d: d.depth)
    for other in (x, y, z):
        if not other.desc.is_prefix_of(desc):
            return  # incomparable towers drawn; skip this sample
    x, y, z = (v.lift(desc) if v.desc != desc else v for v in (x, y, z))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == 1


@given(tower_elements(desc_pool=(1, 2)))
@settings(max_examples=40, deadline=None)
def test_depth1_conjugate_properties(x):
    tr, conj = x.trace_conj()
    assert tr.is_rational()
    assert (x * conj).is_rational()


@given(tower_elements(desc_pool=(0, 1, 3)), tower_elements(desc_pool=(0, 1, 3)))
@settings(max_examples=25, deadline=None)
def test_embed_is_ring_homomorphism(x, y):
    desc = x.desc if x.desc.depth >= y.desc.depth else y.desc
    if not (x.desc.is_prefix_of(desc) and y.desc.is_prefix_of(desc)):
        return
    x = x.lift(desc) if x.desc != desc else x
    y = y.lift(desc) if y.desc != desc else y
    for combined, parts in (
        (x + y, complex_embed(x, 25) + complex_embed(y, 25)),
        (x * y, complex_embed(x, 25) * complex_embed(y, 25)),
    ):
        direct = complex_embed(combined, 25)
        # two enclosures of the same number must overlap
        assert direct.re.lo <= parts.re.hi and parts.re.lo <= direct.re.hi
        assert direct.im.lo <= parts.im.hi and parts.im.lo <= direct.im.hi


# QQ < Q(sqrt2) < Q(sqrt2, sqrt3) < Q(sqrt2, sqrt3, sqrt(1 + sqrt2))
CHAIN = (0, 1, 3, 4)


@given(tower_elements(desc_pool=CHAIN))
@settings(max_examples=60, deadline=None)
def test_equal_elements_hash_alike(x):
    forms = [x.lift(DESCS[i]) for i in CHAIN if x.desc.is_prefix_of(DESCS[i])]
    forms.append(x.descend())
    if x.is_rational():
        c = x.as_rational()
        forms.append(c)
        if c.denominator == 1:
            forms.append(int(c))
    for a in forms:
        for b in forms:
            if a == b:
                assert hash(a) == hash(b), (a, b)


# -- the product against the schoolbook oracle --------------------------------

small_poly = st.lists(small_fraction, max_size=3).map(PolyQ)
BASE_VALUES = {
    Fraction: small_fraction,
    PolyQ: small_poly,
    RatQ: st.builds(RatQ, small_poly, small_poly.filter(bool)),
}


@st.composite
def product_operands(draw, desc):
    """A rep of ``desc``: half the time a full one, else one lifted from
    a lower level or a multiple of the top generator, whose zero halves
    send ``_mul`` down each of its skip branches."""
    def rep(depth):
        return nest(tuple(draw(st.lists(BASE_VALUES[desc.base],
                                        min_size=1 << depth,
                                        max_size=1 << depth))))

    shape = draw(st.sampled_from(("full", "full", "lifted", "top")))
    if desc.depth == 0 or shape == "full":
        return rep(desc.depth)
    low = desc.prefix(desc.depth - 1)
    if shape == "top":
        return (TowerElement.rational(0, low).rep, rep(low.depth))
    below = desc.prefix(draw(st.integers(0, desc.depth - 1)))
    return TowerElement(below, rep(below.depth)).lift(desc).rep


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_mul_equals_the_schoolbook_product(data):
    desc = data.draw(st.sampled_from(DESCS + [RF_DESC, RING_DESC]))
    x = data.draw(product_operands(desc))
    y = data.draw(product_operands(desc))
    assert _mul(desc.levels, desc.depth, x, y) == \
        schoolbook_mul(desc.levels, desc.depth, x, y)


# -- exact signs against the enclosure oracle ---------------------------------

def sqrt_convergents(m):
    """The continued-fraction convergents p/q of sqrt(m), m > 0 not a
    square, which alternate below and above sqrt(m)."""
    a0 = isqrt(m)
    mm, d, a = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    while True:
        yield Fraction(p1, q1)
        mm = d * a - mm
        d = (m - mm * mm) // d
        a = (a0 + mm) // d
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0


def near_convergents(m, eps, count):
    """The first ``count`` convergents c of sqrt(m) with
    |c - sqrt(m)| < eps, from |c^2 - m| < eps * (c + isqrt(m))."""
    out = []
    for c in sqrt_convergents(m):
        if abs(c * c - m) < eps * (c + isqrt(m)):
            out.append(c)
            if len(out) == count:
                return out


def agrees_with_sign_oracle(x):
    try:
        want = element_sign_oracle(x)
    except ValueError:
        with pytest.raises(ValueError, match="not real"):
            element_sign(x)
    else:
        assert element_sign(x) == want, x


# every family tower at q = 4 and at q = 200, named by its first family
SIGN_TOWERS = {}
for _q in (4, 200):
    for _fam in all_families(_q):
        SIGN_TOWERS.setdefault(_fam.desc, f"q{_q}-{_fam.label()}")


@pytest.mark.parametrize("desc", list(SIGN_TOWERS),
                         ids=list(SIGN_TOWERS.values()))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_element_sign_matches_the_enclosure_oracle(desc, data):
    coords = data.draw(st.lists(small_fraction, min_size=desc.degree,
                                max_size=desc.degree))
    x = TowerElement(desc, nest(coords))
    agrees_with_sign_oracle(x)
    if embed_signature(desc)[-1] < 0:
        agrees_with_sign_oracle(x + complex_conj(x))
    m = desc.levels[0]
    if m > 0:
        # c - sqrt(m) within 10**-25 of 0, on either side
        c = data.draw(st.sampled_from(
            near_convergents(int(m), Fraction(1, 10 ** 25), 6)))
        y = c - TowerElement.generator(desc.prefix(1)).lift(desc)
        assert element_sign(y) == element_sign_oracle(y) == (
            1 if c * c > m else -1)


@pytest.mark.parametrize("precision", (12, 30))
def test_complex_embed_root_of_a_radicand_near_zero(precision):
    # 0 < c - sqrt2 < 10**-40: the radicand's enclosure straddles 0 at the
    # first try, and its exact sign places the root on the real axis
    d1, s = sqrt_field(2)
    c = next(c for c in near_convergents(2, Fraction(1, 10 ** 40), 2)
             if c * c > 2)
    coarse = complex_embed(c - s, 12)
    assert coarse.re.lo < 0 < coarse.re.hi
    d2, t = adjoin_radical(d1, c - s)
    assert d2.depth == 2 and embed_signature(d2) == (1, 1)
    z = complex_embed(t, precision)
    assert z.width() <= Fraction(1, 10 ** precision)
    assert z.im.lo == 0 == z.im.hi and z.re.hi > 0
    fine = complex_embed(t, 2 * precision)
    assert z.re.lo <= fine.re.mid() <= z.re.hi


def test_complex_conj_and_is_real():
    d, s = sqrt_field(-15)
    w = (TowerElement.rational(-7, d) + s) / 8
    assert complex_conj(w) == (TowerElement.rational(-7, d) - s) / 8
    assert not is_real(w)
    assert is_real(w + complex_conj(w))
    assert is_real(w * complex_conj(w))
    d2, s2 = sqrt_field(17)
    assert is_real(s2)  # real radical: conjugation fixes everything
