from fractions import Fraction

import pytest
from oracles import fused_rows

from bmhadamard import scheme as scheme_mod
from bmhadamard.linalg import solve
from bmhadamard.ratfunc import Q, RatQ
from bmhadamard.scheme import (
    ConcreteScheme,
    InternalConsistency,
    NoConcreteScheme,
    NotAFusion,
    NotAnEigenmatrix,
    ParametricScheme,
    concrete_scheme,
    distance_matrix,
    fused_eigenmatrix_12,
    fused_eigenmatrix_13,
)

P3_AT_4 = [[1, 4, 8, 2], [1, 2, -2, -1], [1, -1, -2, 2], [1, -2, 2, -1]]
F12_AT_4 = [[1, 12, 2], [1, 0, -1], [1, -3, 2]]
F13_AT_4 = [[1, 6, 8], [1, 1, -2], [1, -3, 2]]
COMPLETE = [[1, 14], [1, -1]]
FUSE_12 = [{0}, {1, 2}, {3}]
FUSE_13 = [{0}, {1, 3}, {2}]


# the class of every pair of points of the q = 4 scheme, in the vertex
# order that every dense construct and verify output at q = 4 follows
Q4_RELATIONS = (
    "011322322221221", "101232221322212", "110221232232122",
    "322011322212212", "232101212322221", "221110223223122",
    "322322011122122", "223212101232221", "212223110223212",
    "232232122011122", "223122232101212", "122223223110221",
    "221221122122033", "212122221212303", "122212212221330",
)


def test_concrete_scheme_keeps_the_q4_vertex_order():
    want = tuple(tuple(map(int, row)) for row in Q4_RELATIONS)
    assert concrete_scheme(4).rel == want


@pytest.mark.parametrize("q", [6, 8, 10])
def test_no_concrete_scheme_off_q4(q):
    with pytest.raises(NoConcreteScheme, match=f"at q = {q}$"):
        concrete_scheme(q)


def test_valencies_match_parametric_row(petersen):
    # oracle: evaluate the parametric first row at q = 4 independently
    q = Fraction(4)
    want = (1, q * q / 2 - q, q * q / 2, q - 2)
    assert petersen.valencies == want == (1, 4, 8, 2)


def test_distance_matrix_identity(petersen):
    dm = distance_matrix(petersen.adjacency_matrix(1))
    for i in range(15):
        for j in range(15):
            assert dm[i][j] == {0: 0, 1: 1, 2: 2, 3: 3}[petersen.rel[i][j]]


def test_axioms_pass(petersen):
    report = petersen.verify_axioms()
    assert report.passed and report.violations == []


def test_broken_scheme_reports_violation():
    rel = [[0, 1], [2, 0]]  # not symmetric, bad classes
    broken = ConcreteScheme.__new__(ConcreteScheme)
    broken.rel = tuple(tuple(r) for r in rel)
    broken.n, broken.d = 2, 2
    assert not broken.verify_axioms().passed
    with pytest.raises(InternalConsistency):
        ConcreteScheme(rel)


def test_p11_by_common_neighbour_count(petersen):
    # oracle: count common A1-neighbours directly in the line graph
    a1 = petersen.adjacency_matrix(1)
    x, y = next((x, y) for x in range(15) for y in range(15)
                if petersen.rel[x][y] == 1)
    count = sum(1 for z in range(15) if a1[x][z] and a1[y][z])
    assert count == petersen.p[1][1][1] == 1
    assert petersen.p[1][1][3] == 0  # degenerate entry at q = 4


def test_all_64_intersection_numbers_match_parametric(petersen):
    ps = ParametricScheme()
    table = ps.p_at(4)
    for h in range(4):
        for i in range(4):
            for j in range(4):
                assert table[h][i][j] == petersen.p[h][i][j]


def test_eigen_data_matches_parametric(petersen):
    ps = ParametricScheme()
    assert ps.eigenmatrix_at(4) == P3_AT_4
    data = petersen.eigen_data(ps.eigenmatrix_at(4))
    assert data.P == [[Fraction(v) for v in row] for row in P3_AT_4]
    assert data.multiplicities == (1, 5, 4, 5)
    # QP = nI and the row-sum identity
    n = Fraction(15)
    for i in range(4):
        row = sum(data.Q[i][j] for j in range(1, 4))
        assert row == (n - 1 if i == 0 else -1)
    assert sum(data.Q[0][j] for j in range(1, 4)) == 14
    # independent oracle: the power sums tr(A_1^t) of the 15 x 15
    # adjacency matrix equal sum_m mult_m P_m1^t
    a1 = petersen.adjacency_matrix(1)
    power = [[int(x == y) for y in range(15)] for x in range(15)]
    for t in range(5):
        assert sum(power[x][x] for x in range(15)) == \
            sum(m * row[1] ** t for m, row in zip(data.multiplicities, data.P))
        power = [[sum(power[x][z] * a1[z][y] for z in range(15))
                  for y in range(15)] for x in range(15)]


def test_fusions(petersen):
    f12 = petersen.fuse(FUSE_12)
    assert f12.eigen_data(F12_AT_4).P == F12_AT_4
    f13 = petersen.fuse(FUSE_13)
    assert f13.eigen_data(F13_AT_4).P == F13_AT_4
    complete = petersen.fuse([{0}, {1, 2, 3}])
    assert complete.eigen_data(COMPLETE).P == COMPLETE
    assert complete.p[1][1][1] == 13


def _solved_q(P, n, zero=Fraction(0), one=Fraction(1)):
    """Oracle: column j of Q = n P^-1 solves P x = n e_j."""
    size = len(P)
    cols = [solve(P, [n if r == j else zero for r in range(size)], zero, one)
            for j in range(size)]
    return [[cols[j][i] for j in range(size)] for i in range(size)]


@pytest.mark.parametrize("fusion, P", [
    (None, P3_AT_4), (FUSE_12, F12_AT_4), (FUSE_13, F13_AT_4),
    ([{0}, {1, 2, 3}], COMPLETE),
], ids=["q4", "f12", "f13", "complete"])
def test_closed_form_q_matches_linear_solve(petersen, fusion, P):
    scheme = petersen if fusion is None else petersen.fuse(fusion)
    data = scheme.eigen_data(P)
    assert data.Q == _solved_q(data.P, data.n)


def test_parametric_closed_form_q_matches_linear_solve():
    ps = ParametricScheme()
    data = ps.eigen_data()
    assert data.Q == _solved_q(ps.P, ps.n, RatQ(0), RatQ(1))
    assert tuple(m(4) for m in data.multiplicities) == (1, 5, 4, 5)


def test_parametric_consistency_rejects_a_wrong_q(monkeypatch):
    # Q with columns 1 and 2 swapped keeps its row sums but fails QP = nI,
    # which verify_consistency reports as False, not as an exception
    closed_form = scheme_mod.second_eigenmatrix
    monkeypatch.setattr(scheme_mod, "second_eigenmatrix", lambda P, n: [
        [row[0], row[2], row[1], row[3]] for row in closed_form(P, n)])
    assert ParametricScheme().verify_consistency() is False


def _swap_columns(P, a, b):
    out = [list(row) for row in P]
    for row in out:
        row[a], row[b] = row[b], row[a]
    return out


def test_certificate_keeps_the_given_row_order(petersen):
    # the certificate cannot fix the order of rows 1..d: any order passes
    P = [P3_AT_4[0], P3_AT_4[3], P3_AT_4[1], P3_AT_4[2]]
    assert petersen.eigen_data(P).P == P


@pytest.mark.parametrize("fusion, P", [
    (None, _swap_columns(P3_AT_4, 1, 2)),
    (None, [P3_AT_4[0], P3_AT_4[1], [1, -1, -2, 3], P3_AT_4[3]]),
    (None, [P3_AT_4[0], P3_AT_4[1], P3_AT_4[1], P3_AT_4[3]]),
    (None, P3_AT_4[:3]),
    (None, [P3_AT_4[0], P3_AT_4[1], [0, 0, 0, 0], P3_AT_4[3]]),
    (None, [P3_AT_4[1], P3_AT_4[0], P3_AT_4[2], P3_AT_4[3]]),
    (None, F12_AT_4),
    (FUSE_12, F13_AT_4),
], ids=["columns_swapped", "entry_changed", "duplicate_row", "three_rows",
        "zero_row", "valency_row_not_first", "f12_on_4_class",
        "f13_on_f12"])
def test_certificate_rejects(petersen, fusion, P):
    scheme = petersen if fusion is None else petersen.fuse(fusion)
    with pytest.raises(NotAnEigenmatrix):
        scheme.eigen_data(P)


def test_non_fusion_rejected(petersen):
    with pytest.raises(NotAFusion):
        petersen.fuse([{0}, {1}, {2, 3}])


def test_fusion_partition_validation(petersen):
    with pytest.raises(ValueError):
        petersen.fuse([{0, 1}, {2, 3}])
    with pytest.raises(ValueError):
        petersen.fuse([{0}, {1, 2}])


def test_parametric_row_sum_is_n():
    ps = ParametricScheme()
    assert sum(ps.P[0][j] for j in range(4)) == Q * Q - 1


def test_parametric_consistency():
    assert ParametricScheme().verify_consistency()


def test_parametric_p_nonnegative_at_even_q():
    ps = ParametricScheme()
    for q in (4, 6, 8, 10, 40):
        table = ps.p_at(q)
        for h in range(4):
            for i in range(4):
                for j in range(4):
                    v = table[h][i][j]
                    assert v >= 0 and v.denominator == 1


def test_symbolic_fusion_rows():
    ps = ParametricScheme()
    assert fused_rows(ps, [[0], [1, 2], [3]]) == fused_eigenmatrix_12()
    assert fused_rows(ps, [[0], [1, 3], [2]]) == fused_eigenmatrix_13()


def test_eigen_rows_are_intersection_eigenvectors(petersen):
    # oracle: each row of P is a simultaneous eigenvector of every B_i,
    # (B_i)_{jk} = p_ij^k read from the counted table
    data = petersen.eigen_data(P3_AT_4)
    for i in range(4):
        b = [[Fraction(petersen.p[i][j][k]) for k in range(4)]
             for j in range(4)]
        for m in range(4):
            v = data.P[m]
            for j in range(4):
                got = sum(b[j][k] * v[k] for k in range(4))
                assert got == data.P[m][i] * v[j]
