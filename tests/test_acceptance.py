"""Acceptance suite: the ten headline claims, each timed and printed.

Every check is exact (tower-field zero tests); the only tolerance that
appears anywhere is the 1e-12 interval guard on unimodularity, which is
itself a rigorous enclosure bound.  Run with ``pytest -s`` to see one
PASS line per criterion with its runtime.
"""

import time
from fractions import Fraction

import pytest
from oracles import dense_type_ii_oracle

from bmhadamard.exactfield import QQ, TowerElement, adjoin_radical, complex_conj
from bmhadamard.intervals import abs_is_one
from bmhadamard.identities import (
    CASES,
    even_q_range,
    scan_nonvanishing,
    verify_converse,
    verify_core_identities,
)
from bmhadamard.invariants import (
    check_inverse_inequivalence,
    haagerup_bruteforce,
    haagerup_formula,
    k_in_interval,
    k_set_keys,
)
from bmhadamard.nomura import check_symmetric, component_report
from bmhadamard.pell import (
    PROBLEM_17_64,
    base_solutions,
    descent_oracle,
    integral_r_q_values,
)
from bmhadamard.scheme import (
    NotAnEigenmatrix,
    ParametricScheme,
    field_scheme,
)
from bmhadamard.typeii import (
    TypeIIMatrix,
    is_hadamard,
    is_type_ii,
    span_condition,
)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s "
              f"< {self.seconds}s budget)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: {elapsed:.1f}s")
        return False


def test_criterion_01_dense_hadamard_identity(families_q4):
    with Budget("01 dense-hadamard-identity", 5):
        keys = [(c, 1, b) for c in ("iii", "iv", "v") for b in (1, -1)]
        keys += [("vi", 1, 1), ("vi", 1, -1)]
        for key in keys:
            fam = families_q4[key]
            assert dense_type_ii_oracle(fam), key
            for w in fam.weights:
                assert abs_is_one(w, 12), key


def test_criterion_02_type_ii_only_cases(families_q4):
    with Budget("02 type-ii-only-cases", 1):
        for case in ("i", "ii"):
            for branch in (1, -1):
                fam = families_q4[(case, 1, branch)]
                ok, _ = is_type_ii(fam)
                assert ok, (case, branch)
                had, _ = is_hadamard(fam)
                assert not had, (case, branch)
                w3 = fam.weights[3]
                assert not (w3 * complex_conj(w3) == 1), (case, branch)


def test_criterion_03_known_coefficients(families_q4):
    with Budget("03 known-coefficients", 1):
        d15, s15 = adjoin_radical(QQ, -15)
        d11, s11 = adjoin_radical(QQ, -11)
        d201, s201 = adjoin_radical(QQ, 201)
        one15 = TowerElement.rational(1, d15)
        one11 = TowerElement.rational(1, d11)
        for sign in (1, -1):
            assert families_q4[("iv", 1, sign)].weights[2] == \
                (-7 * one15 + sign * s15) / 8
            assert families_q4[("iii", 1, sign)].weights[1] == \
                (5 * one11 + sign * s11) / 6
            assert families_q4[("v", 1, sign)].weights[1] == \
                (-one15 + sign * s15) / 4
        fam6 = families_q4[("vi", 1, 1)]
        a01 = fam6.a_matrix()[0][1]
        assert a01 == ((s201 - 1) * Fraction(3, 20)).lift(fam6.desc)


def test_criterion_04_symbolic_identities():
    with Budget("04 symbolic-identities", 10):
        assert all(verify_core_identities().values())
        for case in CASES:
            assert verify_converse(case), case


def test_criterion_05_haagerup_oracle_equivalence(families_q4):
    with Budget("05 haagerup-oracle-equivalence", 30):
        for key, fam in families_q4.items():
            bf = haagerup_bruteforce(TypeIIMatrix(fam))
            fo = haagerup_formula(fam)
            assert [e.coefficients() for e in bf.h_set] == \
                [e.coefficients() for e in fo.h_set], key
        reps = [families_q4[(c, 1, 1)] for c in CASES]
        keys = [k_set_keys(haagerup_formula(f)) for f in reps]
        for i in range(6):
            for j in range(i + 1, 6):
                assert keys[i] != keys[j], (CASES[i], CASES[j])
        assert k_in_interval(haagerup_formula(families_q4[("vi", 1, 1)]))
        assert not k_in_interval(haagerup_formula(families_q4[("vi", -1, 1)]))
        for case in ("i", "ii"):
            rep = check_inverse_inequivalence(case, 4)
            assert rep["inequivalent_to_entrywise_inverse"], case
            assert all(v > Fraction(15, 2) for v in rep["fused_p11"].values())


def test_criterion_06_nomura_dimension(families_q4):
    with Budget("06 nomura-dimension", 120):
        keys = [(c, 1, 1) for c in CASES] + [("vi", -1, 1)]
        for key in keys:
            fam = families_q4[key]
            assert check_symmetric(fam), key
            rep = component_report(TypeIIMatrix(fam))
            assert rep["dim_N"] == 2, key
            assert rep["num_components"] == 2, key


def test_criterion_07_isolation(families_q4):
    with Budget("07 isolation", 300):
        expectations = [(("iv", 1, 1), True), (("vi", 1, 1), True),
                        (("iii", 1, 1), False), (("v", 1, 1), False)]
        for key, want in expectations:
            fam = families_q4[key]
            iso, rank = span_condition(TypeIIMatrix(fam).dense(), fam.desc,
                                       return_rank=True)
            assert iso == want, (key, rank)
            if want:
                assert rank == 196, key
            else:
                assert rank < 196, key


def test_criterion_08_pell_suite():
    with Budget("08 pell-suite", 10):
        assert base_solutions(PROBLEM_17_64) == [(8, 0), (9, 1), (26, 6)]
        got = integral_r_q_values(-2, 2)
        assert sorted(got) == [10, 26, 41210, 110890, 482812730]
        descent_oracle(PROBLEM_17_64, 10 ** 6)  # raises on any gap


def test_criterion_09_nonvanishing_sweeps():
    with Budget("09 nonvanishing-sweeps", 120):
        q_range = even_q_range(200)
        for case in CASES:
            for expr in ("nomura_symmetric_k", "jones_adjacency",
                         "jones_component"):
                results = scan_nonvanishing(expr, case, q_range)
                assert all(ok for _, ok in results), (expr, case)


def test_criterion_10_scheme_ground_truth():
    with Budget("10 scheme-ground-truth", 1):
        scheme = field_scheme(4)
        assert scheme.verify_axioms().passed
        ps = ParametricScheme()
        table = ps.p_at(4)
        for h in range(4):
            for i in range(4):
                for j in range(4):
                    assert table[h][i][j] == scheme.p[h][i][j]
        data = scheme.eigen_data(ps.eigenmatrix_at(4))
        assert data.P == ps.eigenmatrix_at(4)
        with pytest.raises(NotAnEigenmatrix):
            scheme.eigen_data([[row[0], row[2], row[1], row[3]]
                               for row in ps.eigenmatrix_at(4)])
        f12 = [[1, 12, 2], [1, 0, -1], [1, -3, 2]]
        assert scheme.fuse([{0}, {1, 2}, {3}]).eigen_data(f12).P == f12
        f13 = [[1, 6, 8], [1, 1, -2], [1, -3, 2]]
        assert scheme.fuse([{0}, {1, 3}, {2}]).eigen_data(f13).P == f13
        for i in range(4):
            assert sum(data.Q[i][j] for j in range(1, 4)) == \
                (14 if i == 0 else -1)
