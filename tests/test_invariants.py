from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    evaluate_monomials,
    haagerup_bruteforce_oracle,
    haagerup_formula_oracle,
)

from bmhadamard.exactfield import QQ, TowerElement
from bmhadamard.invariants import (
    HypothesisFail,
    _monomial_reduce,
    canonical_real_key,
    check_inverse_inequivalence,
    haagerup_bruteforce,
    haagerup_formula,
    k_in_interval,
    k_interval_violator,
    k_set_keys,
    monomial_h_set,
    table_one_row,
)
from bmhadamard.typeii import (
    CASES,
    TypeIIMatrix,
    WeightFamily,
    family_coefficients,
)


def test_all_ones_matrix_has_trivial_haagerup_set():
    ones = [TowerElement.rational(1) for _ in range(4)]
    fake = WeightFamily("iv", 4, 1, 1, QQ, ones, [w.inverse() for w in ones],
                        None)
    data = haagerup_bruteforce(TypeIIMatrix(fake))
    assert len(data.h_set) == 1 and data.h_set[0] == 1
    assert data.k_set == ()


def test_chan1_haagerup_powers_of_w2(families_q4):
    fam = families_q4[("iv", 1, 1)]
    data = haagerup_bruteforce(TypeIIMatrix(fam))
    w2 = fam.weights[2]
    want = {w2, w2.inverse(), w2 * w2, (w2 * w2).inverse()}
    got = {x for x in data.h_set if not x == 1}
    assert got == want


def test_case_i_k_set(families_q4):
    # Table row: -q^2+3 and q^4-6q^2+7 at q = 4 give -13, 167
    data = haagerup_formula(families_q4[("i", 1, 1)])
    assert k_set_keys(data) == {("rat", Fraction(-13)), ("rat", Fraction(167))}
    assert len(data.h_set) == 5 and data.provenance == "formula"


def test_case_v_haagerup_powers(families_q4):
    fam = families_q4[("v", 1, 1)]
    data = haagerup_formula(fam)
    w1 = fam.weights[1]
    want = set()
    for e in (1, 2, 3, 4):
        want.add(w1 ** e)
        want.add(w1 ** (-e))
    assert {x for x in data.h_set if not x == 1} == want


def test_case_iii_haagerup_row(families_q4):
    fam = families_q4[("iii", 1, 1)]
    data = haagerup_formula(fam)
    w1 = fam.weights[1]
    minus = TowerElement.rational(-1, fam.desc)
    want = {minus}
    for s0 in (1, -1):
        for e in (1, -1, 2, -2):
            want.add(w1 ** e * s0)
    assert {x for x in data.h_set if not x == 1} == want


@pytest.mark.parametrize("case", CASES)
def test_formula_equals_bruteforce_all_branches(case, families_q4):
    keys = [(case, 1, 1), (case, 1, -1)]
    if case == "vi":
        keys += [(case, -1, 1), (case, -1, -1)]
    for key in keys:
        fam = families_q4[key]
        bf = haagerup_bruteforce(TypeIIMatrix(fam))
        fo = haagerup_formula(fam)
        assert [e.coefficients() for e in bf.h_set] == \
            [e.coefficients() for e in fo.h_set], key
        assert [e.coefficients() for e in bf.k_set] == \
            [e.coefficients() for e in fo.k_set], key


def test_bruteforce_matches_per_pattern_oracle(families_q4):
    # the ratio-table sweep against one tower division per class pattern
    assert len(families_q4) == 14
    for key, fam in families_q4.items():
        mat = TypeIIMatrix(fam)
        got = haagerup_bruteforce(mat)
        want = haagerup_bruteforce_oracle(mat)
        assert [e.coefficients() for e in got.h_set] == \
            [e.coefficients() for e in want.h_set], key
        assert [e.coefficients() for e in got.k_set] == \
            [e.coefficients() for e in want.k_set], key


@pytest.mark.parametrize("case", CASES)
def test_monomial_rows_match_table(case):
    assert monomial_h_set(case, 4) == table_one_row(case)
    assert monomial_h_set(case, 6) == table_one_row(case)
    assert monomial_h_set(case, 200) == table_one_row(case)


_family = cache(family_coefficients)
FAMILY_KEYS = [(case, r_sign, branch) for case in CASES
               for r_sign in ((1, -1) if case == "vi" else (1,))
               for branch in (1, -1)]
exponents = st.integers(-3, 3)


@given(q=st.sampled_from((4, 6, 10, 26, 50)),
       e=st.tuples(exponents, exponents, exponents))
@settings(max_examples=25, deadline=None)
def test_monomial_reduction_holds_off_q4(q, e):
    # the dense oracle runs only at q = 4; this checks the reduction
    # through the weight relations of every family at other q as well
    for case, r_sign, branch in FAMILY_KEYS:
        fam = _family(case, q, r_sign, branch)
        _, w1, w2, w3 = fam.weights
        [reduced] = evaluate_monomials([_monomial_reduce(case, *e)], fam)
        assert reduced == w1 ** e[0] * w2 ** e[1] * w3 ** e[2], \
            (case, r_sign, branch)


@given(q=st.integers(2, 500).map(lambda k: 2 * k))
@settings(max_examples=15, deadline=None)
def test_formula_route_matches_tower_oracle(q):
    # integer coordinates against tower products, monomial by monomial,
    # in every variant at even q up to 10^3, where coefficients are large
    for case, r_sign, branch in FAMILY_KEYS:
        fam = _family(case, q, r_sign, branch)
        got, want = haagerup_formula(fam), haagerup_formula_oracle(fam)
        assert [e.coefficients() for e in got.h_set] == \
            [e.coefficients() for e in want.h_set], fam
        assert [e.coefficients() for e in got.k_set] == \
            [e.coefficients() for e in want.k_set], fam


def test_haagerup_invariant_properties(families_q4):
    for fam in families_q4.values():
        data = haagerup_formula(fam)
        assert any(x == 1 for x in data.h_set)
        inv = sorted(x.inverse().coefficients() for x in data.h_set)
        assert inv == sorted(x.coefficients() for x in data.h_set)
        assert len(data.k_set) <= len(data.h_set) - 1


def test_six_k_sets_pairwise_distinct(families_q4):
    reps = [("i", 1, 1), ("ii", 1, 1), ("iii", 1, 1),
            ("iv", 1, 1), ("v", 1, 1), ("vi", 1, 1)]
    keys = [k_set_keys(haagerup_formula(families_q4[k])) for k in reps]
    for i in range(6):
        for j in range(i + 1, 6):
            assert keys[i] != keys[j], (reps[i], reps[j])


def test_known_separating_witnesses(families_q4):
    k1 = k_set_keys(haagerup_formula(families_q4[("i", 1, 1)]))
    k2 = k_set_keys(haagerup_formula(families_q4[("ii", 1, 1)]))
    w = ("rat", Fraction(19, 7))  # (q^3-3q^2-q+7)/(q^2-2q-1) at q = 4
    assert w in k2 and w not in k1
    k4 = k_set_keys(haagerup_formula(families_q4[("iv", 1, 1)]))
    k5 = k_set_keys(haagerup_formula(families_q4[("v", 1, 1)]))
    w = ("rat", Fraction(-1, 2))  # -2/q at q = 4
    assert w in k5 and w not in k4
    # a_{0,1} of case vi (r > 0) lies in K_6 but K_3 is rational
    k3 = k_set_keys(haagerup_formula(families_q4[("iii", 1, 1)]))
    k6 = k_set_keys(haagerup_formula(families_q4[("vi", 1, 1)]))
    a01 = ("quad", Fraction(201), Fraction(-3, 20), Fraction(3, 20))
    assert a01 in k6 and a01 not in k3


def test_k_sets_separate_families(families_q4):
    def data(key):
        return haagerup_formula(families_q4[key])

    assert k_set_keys(data(("i", 1, 1))) != k_set_keys(data(("ii", 1, 1)))
    k4, k5 = data(("iv", 1, 1)), data(("v", 1, 1))
    assert k_set_keys(k4) != k_set_keys(k5)
    assert k_in_interval(k4) and k_in_interval(k5)
    # the same K for both branches
    assert k_set_keys(data(("i", 1, 1))) == k_set_keys(data(("i", 1, -1)))


def test_r_sign_split_by_interval(families_q4):
    plus = haagerup_formula(families_q4[("vi", 1, 1)])
    minus = haagerup_formula(families_q4[("vi", -1, 1)])
    assert k_in_interval(plus)
    assert not k_in_interval(minus)
    viol = k_interval_violator(minus)
    assert viol is not None
    # a_{0,1} with r < 0 is itself outside [-2, 2] and inside K(W_-)
    a01_minus = ("quad", Fraction(201), Fraction(-3, 20), Fraction(-3, 20))
    keys = k_set_keys(minus)
    assert a01_minus in keys
    assert k_set_keys(plus) != k_set_keys(minus)


def test_hadamard_k_sets_in_interval(families_q4):
    for key in (("iii", 1, 1), ("iv", 1, 1), ("v", 1, 1), ("vi", 1, 1)):
        assert k_in_interval(haagerup_formula(families_q4[key])), key
    for key in (("i", 1, 1), ("ii", 1, 1)):
        assert not k_in_interval(haagerup_formula(families_q4[key])), key


def test_canonical_key_shapes(families_q4):
    fam = families_q4[("vi", 1, 1)]
    data = haagerup_formula(fam)
    for x in data.k_set:
        kind = canonical_real_key(x)[0]
        assert kind in ("rat", "quad")


def test_inverse_inequivalence_case_i():
    rep = check_inverse_inequivalence("i", 4)
    assert rep["fused_p11"] == {1: 13}
    assert rep["p11_bound"] == Fraction(15, 2)
    assert rep["inequivalent_to_entrywise_inverse"]


def test_inverse_inequivalence_case_ii():
    rep = check_inverse_inequivalence("ii", 4)
    assert rep["fused_p11"] == {1: 9, 2: 12}
    assert rep["entry_count"] == 3
    assert rep["inequivalent_to_entrywise_inverse"]


def test_inverse_inequivalence_rejects_other_cases():
    with pytest.raises(HypothesisFail):
        check_inverse_inequivalence("iii", 4)

