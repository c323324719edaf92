import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    component_labels_oracle,
    integer_table,
    symmetry_values,
    y_inner,
    y_vector,
)

from bmhadamard.exactfield import QQ, TowerElement, adjoin_radical
from bmhadamard.fastfield import flat_tower
from bmhadamard.identities import symmetry_sums
from bmhadamard.nomura import (
    JonesGraph,
    NotSymmetricAlgebra,
    StepFailed,
    _r03_classes,
    check_symmetric,
    component_report,
    jones_graph_for,
    jones_structure_report,
    nomura_dimension,
    triangle_counters,
)
from bmhadamard.scheme import field_scheme, parametric_scheme
from bmhadamard.typeii import (
    TypeIIMatrix,
    WeightFamily,
    family_coefficients,
    weight_ratios,
)


def fourier4():
    d, im = adjoin_radical(QQ, -1)
    one = TowerElement.rational(1, d)
    vals = [one, im, -one, -im]
    return [[vals[(j * k) % 4] for k in range(4)] for j in range(4)], d


def test_y_vector_basics(families_q4):
    fam = families_q4[("iv", 1, 1)]
    dense = TypeIIMatrix(fam).dense()
    one = TowerElement.rational(1, fam.desc)
    assert y_vector(dense, 3, 3) == [one] * 15
    assert y_inner(dense, (0, 0), (5, 5)) == 15
    ya = y_vector(dense, 2, 7)
    yb = y_vector(dense, 7, 2)
    assert all((a * b) == 1 for a, b in zip(ya, yb))


def test_diagonal_detached_for_type_ii(families_q4):
    # <Y_aa, Y_cd> = (W^(-) W)_{dc} = n delta: zero off the diagonal
    fam = families_q4[("v", 1, 1)]
    dense = TypeIIMatrix(fam).dense()
    assert y_inner(dense, (0, 0), (3, 9)).is_zero()
    assert y_inner(dense, (1, 1), (2, 2)) == 15


SECTION6_KEYS = [("i", 1, 1), ("ii", 1, 1), ("iii", 1, 1), ("iv", 1, 1),
                 ("v", 1, 1), ("vi", 1, 1), ("vi", -1, 1)]


def test_graph_inner_product_matches_reference(families_q4):
    # every section6 variant, on 200 seeded vertex pairs each
    for key in SECTION6_KEYS:
        mat = TypeIIMatrix(families_q4[key])
        graph = jones_graph_for(mat)
        dense = mat.dense()
        rng = random.Random(f"jones-{key}")
        verts = graph.vertices()
        pairs = [((0, 1), (2, 5)), ((3, 3), (4, 4)), ((1, 2), (2, 1))]
        pairs += [(rng.choice(verts), rng.choice(verts)) for _ in range(200)]
        for pair in pairs:
            want = not y_inner(dense, *pair).is_zero()
            assert graph.adjacent(*pair) == want, (key, pair)


def test_adjacency_is_symmetric(families_q4):
    fam = families_q4[("iii", 1, 1)]
    graph = jones_graph_for(TypeIIMatrix(fam))
    for a, b in (((0, 1), (5, 9)), ((2, 2), (3, 8)), ((1, 4), (4, 1))):
        assert graph.adjacent(a, b) == graph.adjacent(b, a)


@pytest.mark.parametrize("key", SECTION6_KEYS)
def test_dimension_two_for_all_families(key, families_q4):
    fam = families_q4[key]
    rep = component_report(TypeIIMatrix(fam))
    assert rep["dim_N"] == 2
    assert rep["component_sizes"] == [210, 15]
    assert rep["n"] == 15


def test_symmetry_precondition_values(families_q4):
    for key in (("iv", 1, 1), ("vi", 1, 1), ("vi", -1, 1)):
        fam = families_q4[key]
        # the integer sums and the tower values agree that none is zero
        assert check_symmetric(fam)
        assert all(any(s) for s in symmetry_sums(fam))
        assert all(not v.is_zero() for v in symmetry_values(fam))


def test_forced_zero_symmetry_control():
    # hand-build weights solving sum p_jk^1 (a_jk^2 - 2) + sum p_jj^1 = 0:
    # with w = (1, x, 1, 1) the functional for i = 1 becomes
    # p_01^1 (x + 1/x)^2 + (p_12^1 + p_13^1)((x+1/x)^2 - 2) + const;
    # pick (x + 1/x)^2 = t solving the linear equation, then x.
    ps_q = 4
    from bmhadamard.scheme import ParametricScheme

    table = ParametricScheme().p_at(ps_q)
    # coefficients of t and the constant for weights (1, x, 1, 1)
    coef = 0
    const = 0
    for j in range(4):
        for k in range(j + 1, 4):
            p = table[j][k][1]
            touches = (j == 1) != (k == 1)
            if touches:
                coef += p
                const -= 2 * p
            else:
                const += 2 * p  # a_{j,k} = 2 when neither index is 1
        const += table[j][j][1]
    t = Fraction(-const, coef)
    d, s = adjoin_radical(QQ, t.numerator * t.denominator)
    root_t = s / t.denominator  # sqrt(t)
    # x + 1/x = sqrt(t): x = (sqrt(t) + sqrt(t - 4))/2 needs one more level
    disc = root_t * root_t - 4
    d2, rt2 = adjoin_radical(d, disc)
    x = (root_t.lift(d2) + rt2) / 2
    one = TowerElement.rational(1, d2)
    w = [one, x, one, one]
    fake = WeightFamily("i", 4, 1, 1, d2, w, [v.inverse() for v in w],
                        None)
    # the tower value vanishes, and the integer sums over the hand-built
    # family's own term table vanish exactly where the tower values do
    vals = symmetry_values(fake)
    assert vals[0].is_zero() and not vals[2].is_zero()
    assert [not any(s) for s in symmetry_sums(fake)] == \
        [v.is_zero() for v in vals]
    assert not check_symmetric(fake)
    with pytest.raises(NotSymmetricAlgebra):
        nomura_dimension(TypeIIMatrix(fake))


def test_fourier_component_count_is_symmetrized():
    # independent oracle: <Y_ab, Y_cd> = sum_x i^{x(a-b+c-d)} is nonzero
    # exactly when a - b + c - d = 0 mod 4, so components group by the
    # difference a - b into {0}, {2}, {1, 3}: three components, while
    # dim N(W) = 4 (the full cyclic scheme) -- the component method
    # needs the symmetry hypothesis, which fails here (R_1^T = R_3)
    dense, d = fourier4()
    # the trivial "scheme" with one class per entry position
    rel = [[4 * i + j for j in range(4)] for i in range(4)]
    entries = [e for row in dense for e in row]
    flat = flat_tower(d)
    graph = JonesGraph(rel, integer_table(weight_ratios(entries), flat), flat)
    for ab in ((0, 1), (1, 2)):
        for cd in ((0, 1), (2, 1), (3, 2)):
            want = (ab[0] - ab[1] + cd[0] - cd[1]) % 4 == 0
            assert graph.adjacent(ab, cd) == want or ab == cd
    assert graph.component_count() == 3
    assert graph.component_sizes() == [8, 4, 4]


def test_structure_report_chan1(families_q4):
    rep = jones_structure_report(TypeIIMatrix(families_q4[("iv", 1, 1)]))
    assert rep["dim_N"] == 2
    assert all(rep[k] for k in ("class_clique", "marginals",
                                "bridge_to_class", "off_diagonal_component"))


def test_structure_report_case_vi_both_signs(families_q4):
    for rs in (1, -1):
        rep = jones_structure_report(TypeIIMatrix(families_q4[("vi", rs, 1)]))
        assert rep["dim_N"] == 2


def test_triangle_counters_marginals(petersen, families_q4):
    # the counters of an R3-triangle marginalize to p_jk^3 in all slots
    cls = None
    for x in range(15):
        for y in range(15):
            if petersen.rel[x][y] != 3:
                continue
            for z in range(15):
                if petersen.rel[x][z] == 3 and petersen.rel[y][z] == 3:
                    cls = (x, y, z)
                    break
            if cls:
                break
        if cls:
            break
    c = triangle_counters(petersen, *cls)
    for j in (1, 2):
        for k in (1, 2):
            want = petersen.p[j][k][3]
            assert c.get((1, j, k), 0) + c.get((2, j, k), 0) == want
            assert c.get((j, 1, k), 0) + c.get((j, 2, k), 0) == want
            assert c.get((j, k, 1), 0) + c.get((j, k, 2), 0) == want


def test_labels_partition(families_q4):
    graph = jones_graph_for(TypeIIMatrix(families_q4[("i", 1, 1)]))
    labels = graph.component_labels()
    assert len(labels) == 225
    assert all(l >= 0 for l in labels)
    diag = {labels[a * 15 + a] for a in range(15)}
    assert len(diag) == 1
    assert graph.component_count() >= 2


def test_r03_classes_partition_the_points(petersen):
    classes = _r03_classes(petersen)
    assert sorted(x for cls in classes for x in cls) == list(range(15))
    assert [cls[0] for cls in classes] == sorted(min(c) for c in classes)
    assert all(cls == sorted(cls) and len(cls) == 3 for cls in classes)
    # rows of R0 u R3 that overlap are not classes
    chain = SimpleNamespace(n=3, rel=[[0, 3, 1], [3, 0, 3], [1, 3, 0]])
    with pytest.raises(StepFailed):
        _r03_classes(chain)


def test_twin_search_matches_the_bfs_oracle(families_q4):
    # label for label, on all 14 families at q = 4
    for key, fam in families_q4.items():
        graph = jones_graph_for(TypeIIMatrix(fam))
        assert graph.component_labels() == component_labels_oracle(graph), key


GAUSSIAN_DESC, _I = adjoin_radical(QQ, -1)
_ONE = TowerElement.rational(1, GAUSSIAN_DESC)
GAUSSIAN_UNITS = (_ONE, -_ONE, _I, -_I)


@st.composite
def gaussian_unit_tables(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    rel = [[draw(st.integers(0, m - 1)) for _ in range(n)] for _ in range(n)]
    ratios = [[draw(st.sampled_from(GAUSSIAN_UNITS)) for _ in range(m)]
              for _ in range(m)]
    return rel, ratios


@given(gaussian_unit_tables())
# every vertex has Y = (-i, 1), and <Y, Y> = 0: four singletons
@example(([[0, 0], [1, 1]], [[-_I, -_I], [-_ONE, _ONE]]))
@settings(max_examples=150, deadline=None)
def test_twin_search_matches_the_bfs_oracle_on_random_tables(table):
    # ratios in {+-1, +-i}: <Y, Y> can vanish, so twin classes that are
    # independent sets occur alongside cliques
    rel, ratios = table
    flat = flat_tower(GAUSSIAN_DESC)
    graph = JonesGraph(rel, integer_table(ratios, flat), flat)
    assert graph.component_labels() == component_labels_oracle(graph)


@given(gaussian_unit_tables(), st.integers(1, 10 ** 12))
@settings(max_examples=100, deadline=None)
def test_jones_graph_ignores_the_tables_positive_scale(table, scale):
    # JonesGraph reads a table of integer vectors that share one unknown
    # positive scale: scaling every entry alike changes no adjacency
    # test and no component label
    rel, ratios = table
    flat = flat_tower(GAUSSIAN_DESC)
    ints = integer_table(ratios, flat)
    graph = JonesGraph(rel, ints, flat)
    scaled = JonesGraph(rel, [[[scale * c for c in vec] for vec in row]
                              for row in ints], flat)
    verts = graph.vertices()
    assert all(graph.adjacent(ab, cd) == scaled.adjacent(ab, cd)
               for ab in verts for cd in verts)
    assert graph.component_labels() == scaled.component_labels()


def test_lone_self_orthogonal_class_splits(families_q4, monkeypatch):
    # a stub in which the off-diagonal vertices are all adjacent and the
    # diagonal class (one profile, all ones) is adjacent to nothing, not
    # even itself: its 15 vertices must come out as 15 singletons
    graph = jones_graph_for(TypeIIMatrix(families_q4[("iv", 1, 1)]))
    monkeypatch.setattr(graph, "adjacent",
                        lambda ab, cd: ab[0] != ab[1] and cd[0] != cd[1])
    labels = graph.component_labels()
    assert labels == component_labels_oracle(graph)
    assert graph.component_sizes() == [210] + [1] * 15
    assert [labels[a * 15 + a] for a in range(15)] == [0] + list(range(2, 16))


@pytest.fixture(scope="module")
def field_scheme_q8():
    return field_scheme(8)


@pytest.mark.parametrize("q, valencies", [(4, (1, 4, 8, 2)),
                                          (8, (1, 24, 32, 6))])
def test_field_scheme_matches_the_parametric_scheme(q, valencies):
    scheme = field_scheme(q)
    assert scheme.valencies == valencies
    p_at = parametric_scheme().p_at(q)
    assert [[list(row) for row in table] for table in p_at] == scheme.p


@pytest.mark.parametrize("case, r_sign", [("iv", 1), ("v", 1), ("vi", 1)])
def test_components_at_q8(case, r_sign, field_scheme_q8):
    # n = 63: the off-diagonal pairs form one component, the diagonal one
    fam = family_coefficients(case, 8, r_sign, 1)
    table, _ = fam.ratio_table
    graph = JonesGraph(field_scheme_q8.rel, table, fam.coords[0])
    assert graph.component_sizes() == [3906, 63]
