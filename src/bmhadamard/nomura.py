"""Jones-graph components and the dimension of the Nomura algebra.

Vertices are ordered pairs (a, b) of points; (a, b) ~ (c, d) when the
ordinary bilinear product <Y_ab, Y_cd> of ratio vectors
(Y_ab)_x = W_xa / W_xb is nonzero.  For a symmetric Nomura algebra the
connected components are exactly the adjacency matrices of N(W), so
counting them gives dim N.  Every adjacency decision here is an exact
zero test in the tower field; there is no tolerance anywhere in this
module.

The component search runs on twin classes.  Two vertices whose ratio
vectors Y are equal entry by entry have equal adjacency rows, so the
graph is a blow-up of its quotient on classes of equal Y: each class is
a clique when <Y, Y> != 0 and an independent set otherwise, and two
classes are joined completely or not at all.  A component of the
quotient with two or more classes is one component of the graph (every
member of a class is adjacent to every member of a neighbouring class);
a class alone in its quotient component is one component when it is a
clique, and otherwise splits into singletons.  So searching one
representative per class and testing a lone class against itself gives
exactly the components of the search over all n^2 vertices.

The symmetry precondition, the nonvanishing of sum_{j<k} p_jk^i
(a_{j,k}^2 - 2) + sum_j p_jj^i for i = 1..d, is checked before the
component method is trusted, on the same integer view: each value is an
integer sum over the family's terms w_i^2/(w_j w_k), a positive
multiple of the value (``identities.symmetry_sums``).
"""

from __future__ import annotations

from .identities import symmetry_sums


class NotSymmetricAlgebra(ValueError):
    """Symmetry functional vanished; component counting is not justified."""


class StepFailed(AssertionError):
    def __init__(self, step, detail=""):
        super().__init__(f"structure step {step!r} failed {detail}")
        self.step = step


# ---------------------------------------------------------------------------
# fast adjacency oracle

class JonesGraph:
    """Adjacency oracle and component labels on the n^2 pair vertices.

    ``table`` is an m x m table of integer vectors, table[i][j] the
    coordinates of w_i / w_j over ``flat`` times one scale > 0 shared by
    every entry (a family's ``ratio_table``), so two ratios are equal
    exactly when their vectors are; the distinct vectors are numbered in
    order of first appearance, the value ids (every w_i / w_i gets the
    id of 1).  The profile of vertex (a, b) is the value id of
    table[R(x,a)][R(x,b)] = (Y_ab)_x for each x, so equal profiles mean
    equal Y and equal rows of the adjacency matrix.  The x-th term of
    <Y_ab, Y_cd> is value[u] * value[v], u and v the x-th ids of the two
    profiles, and ``FlatTower.int_mul`` forms the product table of the
    distinct values: each entry is the true product times the same
    tden * scale^2 > 0.

    Each entry is packed into one int, coordinate k in a signed slot of
    ``bits`` bits.  A sum of n entries is sum_k S_k * 2^(k*bits), and
    n * max|coordinate| < 2^(bits - 1) keeps every |S_k| below
    2^(bits - 1).  For the lowest nonzero S_k the sum is
    2^(k*bits) * (S_k + 2^bits * R), R an integer, which is nonzero as
    0 < |S_k| < 2^bits.  So a test is exact: n ints summed against 0.
    """

    def __init__(self, scheme_rel, table, flat):
        self.n = n = len(scheme_rel)
        m = len(table)
        ids = {}
        value_id = [ids.setdefault(tuple(vec), len(ids))
                    for row in table for vec in row]
        products = [[flat.int_mul(x, y) for y in ids] for x in ids]
        top = max(abs(c) for row in products for vec in row for c in vec)
        bits = (n * top).bit_length() + 1
        self.table = [[sum(c << (k * bits) for k, c in enumerate(vec))
                       for vec in row] for row in products]
        self.profile = {(a, b): tuple(value_id[r[a] * m + r[b]]
                                      for r in scheme_rel)
                        for a in range(n) for b in range(n)}
        self._labels = None

    def adjacent(self, ab, cd):
        """Exact: is <Y_ab, Y_cd> nonzero?"""
        table = self.table
        return sum(table[u][v] for u, v in
                   zip(self.profile[ab], self.profile[cd])) != 0

    def vertices(self):
        return [(a, b) for a in range(self.n) for b in range(self.n)]

    def component_labels(self):
        """Component labels of all n^2 vertices, numbered in the order of
        each component's least vertex: a breadth-first search over one
        representative per twin class, every test exact."""
        if self._labels is not None:
            return self._labels
        verts = self.vertices()
        by_profile = {}
        for i, v in enumerate(verts):
            by_profile.setdefault(self.profile[v], []).append(i)
        classes = list(by_profile.values())  # ordered by least member
        reps = [verts[cls[0]] for cls in classes]
        seen = [False] * len(classes)
        # the least vertex of each vertex's component; a group's is cls[0],
        # as its other classes come later in the order by least member
        least = [0] * len(verts)
        for start, cls in enumerate(classes):
            if seen[start]:
                continue
            seen[start] = True
            group = [start]
            frontier = [start]
            unvisited = [c for c in range(start + 1, len(classes))
                         if not seen[c]]
            while frontier and unvisited:
                u = reps[frontier.pop()]
                still = []
                for c in unvisited:
                    if self.adjacent(u, reps[c]):
                        seen[c] = True
                        group.append(c)
                        frontier.append(c)
                    else:
                        still.append(c)
                unvisited = still
            if len(group) == 1 and len(cls) > 1 and \
                    not self.adjacent(reps[start], reps[start]):
                for i in cls:  # an independent set: singletons
                    least[i] = i
            else:
                for c in group:
                    for i in classes[c]:
                        least[i] = cls[0]
        rank = {v: k for k, v in enumerate(sorted(set(least)))}
        labels = [rank[v] for v in least]
        self._labels = labels
        return labels

    def component_count(self):
        return max(self.component_labels()) + 1

    def component_sizes(self):
        labels = self.component_labels()
        sizes = {}
        for l in labels:
            sizes[l] = sizes.get(l, 0) + 1
        return sorted(sizes.values(), reverse=True)


def jones_graph_for(mat):
    table, _ = mat.family.ratio_table
    return JonesGraph(mat.scheme.rel, table, mat.family.coords[0])


# ---------------------------------------------------------------------------
# symmetry precondition and the dimension

def check_symmetric(family):
    """Exact nonvanishing of the symmetry functional at the family's q:
    no value is zero exactly when no ``identities.symmetry_sums`` vector,
    over the family's own terms, is zero."""
    return all(any(s) for s in symmetry_sums(family))


def nomura_dimension(mat):
    """dim N(W) = number of Jones-graph components, symmetry checked first."""
    return component_report(mat)["dim_N"]


def component_report(mat, graph=None):
    """The Jones-graph components of ``mat``, on ``graph`` when given
    (``jones_graph_for(mat)``, so that a caller can reuse it)."""
    if not check_symmetric(mat.family):
        raise NotSymmetricAlgebra(
            "symmetry functional vanished; component method not applicable")
    if graph is None:
        graph = jones_graph_for(mat)
    labels = graph.component_labels()
    n = graph.n
    if len({labels[a * n + a] for a in range(n)}) != 1:
        raise AssertionError("diagonal vertices split across components")
    return {
        "n": n,
        "num_components": graph.component_count(),
        "component_sizes": graph.component_sizes(),
        "dim_N": graph.component_count(),
    }


# ---------------------------------------------------------------------------
# the three-step structure of the component argument (q = 4 only)

def _r03_classes(scheme):
    """The R0 u R3 classes, read off the rows of ``scheme.rel``.

    Ordered by least member, each class sorted; raises StepFailed when
    the rows do not partition the points.
    """
    rows = {}
    for x in range(scheme.n):
        cls = [y for y in range(scheme.n) if scheme.rel[x][y] in (0, 3)]
        rows.setdefault(tuple(cls), cls)
    classes = list(rows.values())
    if sum(map(len, classes)) != scheme.n:
        raise StepFailed("r03_classes", "rows of R0 u R3 overlap")
    return classes


def triangle_counters(scheme, x, y, z):
    """c_{i,j,k} = #{u : (x,u) in R_i, (y,u) in R_j, (z,u) in R_k}."""
    c = {}
    for u in range(scheme.n):
        key = (scheme.rel[x][u], scheme.rel[y][u], scheme.rel[z][u])
        c[key] = c.get(key, 0) + 1
    return c


def jones_structure_report(mat, graph=None):
    """Replay the three steps of the dim-2 argument on the actual graph.

    (a) pairs inside one R0-u-R3 class are mutually connected,
    (b) every R1 u R2 vertex has a neighbor among the class pairs,
    (c) the off-diagonal vertex set is a single component.
    Also checks the marginal identities of the triangle counters.
    Raises StepFailed on the first broken step.  ``graph``, when given,
    is ``jones_graph_for(mat)``, built and searched by an earlier call.
    """
    scheme = mat.scheme
    if graph is None:
        graph = jones_graph_for(mat)
    labels = graph.component_labels()
    n = scheme.n

    classes = _r03_classes(scheme)
    for cls in classes:
        pairs = [(x, y) for x in cls for y in cls
                 if x != y and scheme.rel[x][y] == 3]
        comps = {labels[x * n + y] for x, y in pairs}
        if len(comps) != 1:
            raise StepFailed("class_clique", f"class {cls}")

    # marginals of the triangle counters against p_jk^3
    cls = next(c for c in classes if len(c) >= 3)
    x, y, z = cls[:3]
    c = triangle_counters(scheme, x, y, z)
    for j in (1, 2):
        for k in (1, 2):
            want = scheme.p[j][k][3]
            sums = (
                c.get((1, j, k), 0) + c.get((2, j, k), 0),
                c.get((j, 1, k), 0) + c.get((j, 2, k), 0),
                c.get((j, k, 1), 0) + c.get((j, k, 2), 0),
            )
            if any(s != want for s in sums):
                raise StepFailed("marginals", f"j={j} k={k} {sums} != {want}")

    by_point = {}
    for cls in classes:
        for x in cls:
            by_point[x] = cls
    for x in range(n):
        for z in range(n):
            if scheme.rel[x][z] not in (1, 2):
                continue
            if not any(graph.adjacent((x, y), (x, z))
                       for y in by_point[x] if y != x):
                raise StepFailed("bridge_to_class", f"({x},{z}) left side")
            if not any(graph.adjacent((yp, z), (x, z))
                       for yp in by_point[z] if yp != z):
                raise StepFailed("bridge_to_class", f"({x},{z}) right side")

    off = {labels[x * n + y] for x in range(n) for y in range(n) if x != y}
    if len(off) != 1:
        raise StepFailed("off_diagonal_component", f"{len(off)} components")
    return {
        "class_clique": True,
        "marginals": True,
        "bridge_to_class": True,
        "off_diagonal_component": True,
        "dim_N": max(labels) + 1,
    }
