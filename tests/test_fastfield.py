from fractions import Fraction
from itertools import islice
from math import isqrt

from hypothesis import Phase, example, given, settings, strategies as st

from bmhadamard.exactfield import QQ, TowerElement, adjoin_radical
from bmhadamard.fastfield import (
    FlatTower,
    _is_prime,
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
from oracles import echelon_mod_p_oracle, kernel_mod_p_oracle, pack_oracle


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


def test_primes_are_the_odd_primes_below_2_24_descending():
    """The head of primes() against trial division, and _is_prime
    against it below 3000, the small primes and their squares included."""
    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

    head = list(islice(primes(), 50))
    assert head[0] == 2 ** 24 - 3
    assert [n for n in range(head[-1], 2 ** 24) if is_prime(n)] == head[::-1]
    assert [n for n in range(3000) if _is_prime(n)] == \
        [n for n in range(3000) if is_prime(n)]


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


# the first and the 2000th prime of primes(), the last that span_condition
# may try (SPAN_PRIME_CAP), and one near 2^61, whose slots are widest
FIRST_PRIME = next(primes())
CAP_PRIME = next(islice(primes(), 1999, None))
PRIMES = (3, 7, 101, CAP_PRIME, FIRST_PRIME, 2 ** 61 - 1)


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


def largest_updates(p, m=14):
    """(p, columns, rows) where every multiply-add of ``echelon_mod_p``
    adds (p - 1) times a slot of p - 1, and the last row takes m - 1 of
    them into its last slot, about (m - 1) p^2.  Pivot i is 1 at column
    i and p - 1 after it, and the pivots come latest first, so none is
    reduced; the last row's entries, 1 - j at column j, keep each of its
    factors at p - 1."""
    columns = list(range(0, 3 * m, 3))
    rows = [{c: 1 if j == i else p - 1 for j, c in enumerate(columns)
             if j >= i} for i in range(m - 2, -1, -1)]
    rows.append({c: (1 - j) % p for j, c in enumerate(columns)})
    return p, columns, rows


@given(modular_systems())
@example(largest_updates(FIRST_PRIME))
@example(largest_updates(2 ** 61 - 1))
# no shrink phase: a wrong elimination fails at the first failing
# example, where shrinking the large rows of modular_systems could run
# for minutes and show up only as the CI job's timeout
@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
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


# descending; 2 makes the fold's premise p >= 2^(bitlen(p) - 1) tight
FOLD_PRIMES = (2 ** 61 - 1, FIRST_PRIME, CAP_PRIME, 101, 7, 3, 2)


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


packable_rows = st.integers(1, 140).flatmap(lambda s: st.tuples(
    st.just(s), st.lists(st.one_of(st.just((1 << s) - 1),
                                   st.integers(0, (1 << s) - 1)),
                         max_size=40)))


@given(packable_rows)
@settings(max_examples=200, deadline=None)
def test_slots_unpack_what_pack_packs(case):
    """``_slots`` reads blocks of eight slots off the row's bytes; slot
    by slot, the shift loop of ``pack_oracle`` is the reference, with top
    zero slots dropped."""
    s, values = case
    while values and not values[-1]:
        values = values[:-1]
    assert _slots(pack_oracle(values, s), s) == values


@given(packable_rows)
@settings(max_examples=200, deadline=None)
def test_pack_matches_the_shift_loop(case):
    """``_pack`` joins blocks of eight slots as bytes; it must give the
    row that one shift per slot gives, top zero slots included."""
    s, values = case
    assert _pack(values, s) == pack_oracle(values, s)


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
