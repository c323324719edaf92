from fractions import Fraction
from itertools import islice

from hypothesis import given, settings, strategies as st

from bmhadamard.exactfield import QQ, TowerElement, adjoin_radical
from bmhadamard.fastfield import (
    FlatTower,
    _lane_fold,
    _pack,
    _slot_bits,
    _slots,
    echelon_mod_p,
    kernel_mod_p,
    primes,
    sparse_rank,
)
from bmhadamard.typeii import family_coefficients
from oracles import echelon_mod_p_oracle, kernel_mod_p_oracle


def towers():
    d1, _ = adjoin_radical(QQ, -15)
    fam6 = family_coefficients("vi", 4, 1, 1)
    return [d1, fam6.desc]


DESCS = towers()
small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def pairs(draw):
    desc = DESCS[draw(st.sampled_from((0, 1)))]
    flat = FlatTower(desc)

    def elem():
        coeffs = [draw(small) for _ in range(desc.degree)]
        num = TowerElement.rational(0, desc)
        for c, b in zip(coeffs, flat.basis):
            num = num + b * c
        return num

    return flat, elem(), elem()


@given(pairs())
@settings(max_examples=40, deadline=None)
def test_flat_ops_agree_with_reference(data):
    flat, x, y = data
    fx, fy = flat.to_flat(x), flat.to_flat(y)
    assert flat.from_flat(fx) == x
    assert flat.from_flat(flat.sub(fx, fy)) == x - y
    assert flat.from_flat(flat.mul(fx, fy)) == x * y
    assert flat.from_flat(flat.neg(fx)) == -x
    assert flat.is_zero(fx) == x.is_zero()
    if not x.is_zero():
        assert flat.from_flat(flat.inv(fx)) == x.inverse()


@given(pairs())
@settings(max_examples=40, deadline=None)
def test_embedding_is_a_ring_map(data):
    flat, x, y = data
    p, img = next((p, img) for p in primes()
                  if (img := flat.embedding(p)) is not None)
    assert len(img) == flat.dim and img[0] == 1

    def residue(el):
        vec, den = flat.to_flat(el)
        return sum(a * b for a, b in zip(vec, img)) * pow(den, -1, p) % p

    rx, ry = residue(x), residue(y)
    assert residue(x * y) == rx * ry % p
    assert residue(x + y) == (rx + ry) % p


def test_structure_constants_are_exact():
    fam = family_coefficients("vi", 4, 1, 1)
    flat = FlatTower(fam.desc)
    # basis products expand rationally: reconstruct b_i * b_j both ways
    recon = {(i, j): TowerElement.rational(0, fam.desc)
             for i in range(flat.dim) for j in range(flat.dim)}
    for i, j, k, t in flat.triples:
        recon[i, j] = recon[i, j] + flat.basis[k] * Fraction(t, flat.tden)
    for i, bi in enumerate(flat.basis):
        for j, bj in enumerate(flat.basis):
            assert recon[i, j] == bi * bj


def test_sparse_rank_small_cases():
    d, s = adjoin_radical(QQ, -15)
    flat = FlatTower(d)
    one = flat.to_flat(TowerElement.rational(1, d))
    w = flat.to_flat(s)
    rows = [
        {0: one, 1: w},
        {0: w, 1: flat.to_flat(s * s)},     # = sqrt(-15) * row 1: dependent
        {2: one},
    ]
    assert sparse_rank(rows, flat) == 2
    assert sparse_rank([], flat) == 0
    assert sparse_rank([{}], flat) == 0


PRIMES = (3, 7, 101, 2 ** 61 - 1)


@st.composite
def modular_systems(draw):
    """(p, columns, rows): sparse rows with values of any size and sign,
    among them empty rows and rows whose values are all 0 mod p, or dense
    rows of residues, half of them p - 1, the largest slot updates."""
    p = draw(st.sampled_from(PRIMES))
    columns = list(range(0, 3 * draw(st.integers(0, 14)), 3))
    if columns and draw(st.booleans()):
        residue = st.one_of(st.just(p - 1), st.integers(0, p - 1))
        rows = draw(st.lists(st.fixed_dictionaries(
            {c: residue for c in columns}), max_size=16))
    else:
        col = st.sampled_from(columns) if columns else st.nothing()
        rows = draw(st.lists(st.one_of(
            st.dictionaries(col, st.integers(-2 ** 130, 2 ** 130)),
            st.dictionaries(col, st.integers(-3, 3).map(lambda k: k * p)),
        ), max_size=16))
    return p, columns, rows


@given(modular_systems())
@settings(max_examples=200, deadline=None)
def test_packed_elimination_matches_oracle(system):
    p, columns, rows = system
    pivots = echelon_mod_p((row for row in rows), p)
    expected = echelon_mod_p_oracle(rows, p)
    assert {c: row.residues() for c, row in pivots.items()} == expected
    kernel = kernel_mod_p(pivots, columns, p)
    assert kernel == kernel_mod_p_oracle(expected, columns, p)
    assert len(pivots) + len(kernel) == len(columns)
    for vec in kernel.values():
        for row in rows:
            assert sum(v * vec.get(c, 0) for c, v in row.items()) % p == 0


@given(modular_systems(), st.data())
@settings(max_examples=100, deadline=None)
def test_pivots_and_kernel_do_not_depend_on_row_order(system, data):
    p, columns, rows = system
    pivots = echelon_mod_p(rows, p)
    shuffled = echelon_mod_p(data.draw(st.permutations(rows)), p)
    assert shuffled.keys() == pivots.keys()
    assert kernel_mod_p(shuffled, columns, p) == \
        kernel_mod_p(pivots, columns, p)


# descending, as primes() yields them: the 2000th is the last prime
# span_condition may try (SPAN_PRIME_CAP), and 2 makes the fold's premise
# p >= 2^(bitlen(p) - 1) tight
FOLD_PRIMES = (2 ** 61 - 1, next(islice(primes(), 1999, None)), 101, 7, 3, 2)


@st.composite
def folded_rows(draw):
    """(p, m, s, lanes): up to m slot values of s bits, each below
    2^(s-1), the bound every slot of ``echelon_mod_p`` keeps."""
    p = draw(st.sampled_from(FOLD_PRIMES))
    m = draw(st.integers(1, 20))
    s = _slot_bits(p, m)
    top = (1 << (s - 1)) - 1
    lanes = draw(st.lists(st.one_of(st.just(top), st.integers(0, top)),
                          min_size=1, max_size=m))
    return p, m, s, lanes


@given(folded_rows())
@settings(max_examples=300, deadline=None)
def test_lane_fold_keeps_residues_and_bounds_every_slot(case):
    p, m, s, lanes = case
    folded = _slots(_lane_fold(p, s, m)(_pack(lanes, s)), s)
    assert len(folded) <= len(lanes)  # nothing carried out of the top
    folded += [0] * (len(lanes) - len(folded))
    for v, w in zip(lanes, folded):
        assert w % p == v % p
        assert w <= (2 << p.bit_length()) - 1
