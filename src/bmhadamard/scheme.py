"""Association schemes: the concrete field scheme and its q-parametric family.

The concrete scheme lives on F_{q^2}^*, q = 2^e (``field_scheme``), and
``concrete_scheme`` alone decides at which q it is built, so where dense
work runs: at q = 4, the line graph of the Petersen graph.  No eigenmatrix
is computed here: ``ConcreteScheme.eigen_data`` certifies a claimed one (the
parametric family's at q = 4, or a fusion's) through the character
identity x_h x_i = sum_k p_hi^k x_k on the counted intersection numbers,
and Q follows by the orthogonality relations (``second_eigenmatrix``).
For general even q only intersection numbers and eigenmatrices exist
here (no vertex set is constructed); they are stored as exact rational
functions of q, and the same identity ties the two tables together.

Class order is fixed throughout: valencies (1, q^2/2 - q, q^2/2, q-2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from operator import xor

from . import linalg
from .ratfunc import PolyQ, RatQ, Q


class InternalConsistency(ValueError):
    """A constructed scheme violated its own axioms (must not happen)."""


class NotAFusion(ValueError):
    """Merged classes do not close under matrix multiplication."""


class NotAnEigenmatrix(ValueError):
    """A claimed eigenmatrix failed its character certificate."""


class AxiomReport:
    """Outcome of the full axiom check, with the intersection table."""

    def __init__(self, violations, p):
        self.violations = list(violations)
        self.p = p

    @property
    def passed(self):
        return not self.violations

    def __repr__(self):
        state = "ok" if self.passed else f"violations={self.violations}"
        return f"AxiomReport({state})"


class SpectralData:
    """Exact eigenmatrices of a scheme: P, Q = n P^-1, multiplicities."""

    def __init__(self, P, Q, n):
        self.P = P
        self.Q = Q
        self.n = n
        self.multiplicities = tuple(Q[0][j] for j in range(len(Q[0])))


class ConcreteScheme:
    """A symmetric association scheme given by its relation partition."""

    def __init__(self, rel):
        self.rel = tuple(tuple(row) for row in rel)
        self.n = len(self.rel)
        self.d = max(max(row) for row in self.rel)
        report = self.verify_axioms()
        if not report.passed:
            raise InternalConsistency("; ".join(report.violations))
        self.p = report.p
        self.valencies = tuple(self.p[i][i][0] if i else 1
                               for i in range(self.d + 1))

    # -- construction helpers -------------------------------------------

    def adjacency_matrix(self, i):
        return [[1 if c == i else 0 for c in row] for row in self.rel]

    def verify_axioms(self):
        """Check every defining axiom; returns all violations found, and
        the intersection numbers p_ij^k counted along the way."""
        violations = []
        n, d, rel = self.n, self.d, self.rel
        p = [[[None] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
        for x in range(n):
            if rel[x][x] != 0:
                violations.append(f"diagonal not class 0 at {x}")
                break
        for x in range(n):
            for y in range(x):
                if rel[x][y] != rel[y][x]:
                    violations.append(f"relation not symmetric at ({x},{y})")
                    break
            else:
                continue
            break
        if any(rel[x][y] == 0 for x in range(n) for y in range(n) if x != y):
            violations.append("class 0 appears off the diagonal")
        # closure: the count of z with rel(x,z)=i, rel(z,y)=j must depend
        # only on rel(x,y); this is A_i A_j = sum_k p_ij^k A_k.  The first
        # pair of each class fills p, and every later pair is checked
        seen = [False] * (d + 1)
        for x in range(n):
            rx = rel[x]
            for y in range(n):
                ry = rel[y]
                k = rx[y]
                counts = [[0] * (d + 1) for _ in range(d + 1)]
                for z in range(n):
                    counts[rx[z]][ry[z]] += 1
                for i in range(d + 1):
                    for j in range(d + 1):
                        if not seen[k]:
                            p[i][j][k] = counts[i][j]
                        elif counts[i][j] != p[i][j][k]:
                            violations.append(
                                f"p_{i}{j}^{k} not constant (pair ({x},{y}))")
                            return AxiomReport(violations, p)
                seen[k] = True
        for i in range(d + 1):
            for j in range(d + 1):
                for k in range(d + 1):
                    if p[i][j][k] != p[j][i][k]:
                        violations.append(f"p_{i}{j}^{k} != p_{j}{i}^{k}")
        return AxiomReport(violations, p)

    # -- spectral data ----------------------------------------------------

    def eigen_data(self, P):
        """Certify ``P`` as the first eigenmatrix; return P, Q = n P^-1.

        ``P`` is accepted only when it is square of order d + 1, row 0 is
        the valency row, every row x has x_0 = 1, the rows are pairwise
        distinct, and every row satisfies x_h x_i = sum_k p_hi^k x_k with
        the intersection numbers counted from the relations.  Otherwise
        NotAnEigenmatrix is raised.  The rows of a valid P may come in any
        order after row 0; they are returned as given.

        Soundness: the Bose-Mesner algebra of a symmetric scheme is
        commutative (p_hi^k = p_ih^k) and made of real symmetric matrices,
        so it is semisimple of dimension d + 1 and has exactly d + 1
        characters, the rows of the first eigenmatrix.  A row x defines
        the linear map A_k -> x_k, which is a character exactly when it
        sends the identity A_0 to 1 and respects the products
        A_h A_i = sum_k p_hi^k A_k.  So every accepted row is a character,
        and d + 1 distinct ones are all of them.  Row 0 must be the
        character of J / n, the valency row.
        """
        d = self.d
        P = [[Fraction(v) for v in row] for row in P]
        if len(P) != d + 1 or any(len(row) != d + 1 for row in P):
            raise NotAnEigenmatrix(f"P is not square of order {d + 1}")
        if P[0] != list(self.valencies):
            raise NotAnEigenmatrix("row 0 is not the valency row")
        if any(row[0] != 1 for row in P):
            raise NotAnEigenmatrix("a row does not start with 1")
        if len(set(map(tuple, P))) != d + 1:
            raise NotAnEigenmatrix("rows are not pairwise distinct")
        if not character_identity_holds(self.p, P):
            raise NotAnEigenmatrix("a row is not a character")
        n = Fraction(self.n)
        data = SpectralData(P, second_eigenmatrix(P, n), n)
        _check_spectral(data)
        return data

    # -- fusions ----------------------------------------------------------

    def fuse(self, partition):
        """Merge relation classes; raises NotAFusion when closure fails.

        ``partition`` covers {0..d} with {0} on its own; merged classes
        are renumbered by their smallest member.
        """
        blocks = [frozenset(b) for b in partition]
        if frozenset({0}) not in blocks:
            raise ValueError("partition must isolate class 0")
        if sorted(c for b in blocks for c in b) != list(range(self.d + 1)):
            raise ValueError("partition must cover classes exactly once")
        blocks = sorted(blocks, key=min)
        relabel = {}
        for new, block in enumerate(blocks):
            for old in block:
                relabel[old] = new
        rel = [[relabel[c] for c in row] for row in self.rel]
        try:
            return ConcreteScheme(rel)
        except InternalConsistency as exc:
            raise NotAFusion(str(exc)) from exc


def character_identity_holds(p, P):
    """Does every row x of P satisfy x_h x_i = sum_k p[h][i][k] x_k?

    p[h][i][k] is p_hi^k.  Generic over the entry type (Fraction, RatQ):
    entries need +, * and == and may be summed from 0.
    """
    size = len(p)
    return all(sum(p[h][i][k] * x[k] for k in range(size)) == x[h] * x[i]
               for x in P for h in range(size) for i in range(size))


def second_eigenmatrix(P, n):
    """Q = n P^-1 of a certified first eigenmatrix P, with no inverse.

    k = P[0], m_j = n / sum_i P_ji^2 / k_i and Q_ij = m_j P_ji / k_i, over
    Fraction or RatQ.  Callers run ``_check_spectral``, whose exact
    QP = nI makes this Q = n P^-1: the d + 1 distinct characters in P are
    linearly independent, so P is invertible, and every k_i >= 1 (an
    empty class forces x_i = 0 in every character, a zero column of P).
    """
    k = P[0]
    size = len(P)
    m = [n / sum(P[j][i] * P[j][i] / k[i] for i in range(size))
         for j in range(size)]
    return [[m[j] * P[j][i] / k[i] for j in range(size)] for i in range(size)]


def _check_spectral(data):
    """QP = nI, first columns of ones and the row sums of Q, exactly."""
    size = len(data.P)
    n = data.n
    qp = linalg.mat_mul(data.Q, data.P)
    for i in range(size):
        for j in range(size):
            want = n if i == j else 0
            if qp[i][j] != want:
                raise InternalConsistency("QP != nI")
    for i in range(size):
        if data.Q[i][0] != 1 or data.P[i][0] != 1:
            raise InternalConsistency("first column of P/Q not all ones")
        row = sum(data.Q[i][j] for j in range(1, size))
        want = n - 1 if i == 0 else Fraction(-1)
        if row != want:
            raise InternalConsistency("row sums of Q violate n*delta - 1")


# ---------------------------------------------------------------------------
# the concrete scheme

class NoConcreteScheme(ValueError):
    """Dense work was asked for at a q where no concrete scheme is built."""


# primitive moduli over F_2, as bit masks: t^4 + t + 1 and t^6 + t + 1
F_2E_MODULI = {4: 0b10011, 8: 0b1000011}
# the vertex order, by exponent k of g^k, where it is not k: at q = 4 the
# Petersen line-graph order that dense construct and verify output follow
VERTEX_ORDERS = {4: (0, 1, 4, 5, 11, 3, 10, 9, 13, 6, 14, 8, 7, 12, 2)}


def field_scheme(q):
    """The 3-class scheme on the points g^k of F_{q^2}^*, q = 2^e, for the
    root g of ``F_2E_MODULI[q]``, listed by k or by the exponents in
    ``VERTEX_ORDERS[q]``.  (g^k, g^l) is in R3 when (q + 1) | (k - l), that is when
    g^(k-l) is in F_q^*, in R2 when Tr_{F_{q^2}/F_2}(g^(k + q l)) = 1, and
    in R1 otherwise: valencies (1, q^2/2 - q, q^2/2, q - 2), the class
    order of ``parametric_scheme``.
    """
    n = q * q - 1
    power = [1]  # g^k as a polynomial in g over F_2, as a bit mask
    for _ in range(n - 1):
        x = power[-1] << 1
        power.append(x ^ F_2E_MODULI[q] if x > n else x)
    # Tr(g^m) sums the conjugates g^(m 2^i), i < [F_{q^2} : F_2]
    trace = [reduce(xor, (power[(m << i) % n] for i in range(n.bit_length())))
             for m in range(n)]
    order = VERTEX_ORDERS.get(q, range(n))
    return ConcreteScheme([[0 if k == l else 3 if (k - l) % (q + 1) == 0
                            else 2 if trace[(k + q * l) % n] else 1
                            for l in order] for k in order])


def concrete_scheme(q, need=None):
    """The shared concrete scheme at ``q``, which callers never mutate.

    The one test of where a scheme, and so a dense matrix, exists: q = 4.
    Elsewhere NoConcreteScheme is raised, its message ending in ``need``.
    """
    if q != 4:
        raise NoConcreteScheme(f"no concrete scheme at q = {q}"
                               + (f"; {need}" if need else ""))
    return _built_scheme(int(q))


@cache
def _built_scheme(q):
    return field_scheme(q)


def distance_matrix(adj):
    """BFS distances of a connected graph given as a 0/1 matrix."""
    n = len(adj)
    out = []
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in range(n):
                    if adj[u][v] and dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        out.append(dist)
    return out


# ---------------------------------------------------------------------------
# the parametric family

def _rq(expr):
    return expr if isinstance(expr, RatQ) else RatQ(expr)


def parametric_eigenmatrix():
    """First eigenmatrix of the family, entries in Q(q)."""
    q = Q
    return [
        [_rq(1), q * q / 2 - q, q * q / 2, q - 2],
        [_rq(1), q / 2, -(q / 2), _rq(-1)],
        [_rq(1), -(q / 2) + 1, -(q / 2), q - 2],
        [_rq(1), -(q / 2), q / 2, _rq(-1)],
    ]


def fused_eigenmatrix_12():
    """Eigenmatrix of the imprimitive fusion {R1 u R2}, {R3}."""
    q = Q
    return [
        [_rq(1), q * (q - 1), q - 2],
        [_rq(1), _rq(0), _rq(-1)],
        [_rq(1), -q + 1, q - 2],
    ]


def fused_eigenmatrix_13():
    """Eigenmatrix of the primitive fusion {R1 u R3}, {R2}."""
    q = Q
    return [
        [_rq(1), q * q / 2 - 2, q * q / 2],
        [_rq(1), q / 2 - 1, -(q / 2)],
        [_rq(1), -(q / 2) - 1, q / 2],
    ]


def parametric_intersection_matrices():
    """B_1, B_2, B_3 with (i, j) entry p_{h,i}^j, entries in Q(q)."""
    q = Q
    b1 = [
        [_rq(0), _rq(1), _rq(0), _rq(0)],
        [q * q / 2 - q, (q - 2) ** 2 / 4, (q - 2) ** 2 / 4, q * (q - 4) / 4],
        [_rq(0), q * (q - 2) / 4, q * (q - 2) / 4, q * q / 4],
        [_rq(0), (q - 4) / 2, (q - 2) / 2, _rq(0)],
    ]
    b2 = [
        [_rq(0), _rq(0), _rq(1), _rq(0)],
        [_rq(0), q * (q - 2) / 4, q * (q - 2) / 4, q * q / 4],
        [q * q / 2, q * q / 4, q * q / 4, q * q / 4],
        [_rq(0), q / 2, (q - 2) / 2, _rq(0)],
    ]
    b3 = [
        [_rq(0), _rq(0), _rq(0), _rq(1)],
        [_rq(0), (q - 4) / 2, (q - 2) / 2, _rq(0)],
        [_rq(0), q / 2, (q - 2) / 2, _rq(0)],
        [q - 2, _rq(0), _rq(0), q - 3],
    ]
    return b1, b2, b3


class ParametricScheme:
    """The 3-class family for general even q >= 4: tables, no vertices."""

    def __init__(self):
        self.d = 3
        self.P = parametric_eigenmatrix()
        b1, b2, b3 = parametric_intersection_matrices()
        ident = [[_rq(1 if i == j else 0) for j in range(4)] for i in range(4)]
        self.B = [ident, b1, b2, b3]
        self.n = RatQ(PolyQ((-1, 0, 1)))  # q^2 - 1
        self._p_at = {}

    def p(self, h, i, j):
        return self.B[h][i][j]

    def eigen_data(self):
        """P, Q and the multiplicities over Q(q), by ``_check_spectral``."""
        data = SpectralData(self.P, second_eigenmatrix(self.P, self.n), self.n)
        _check_spectral(data)
        return data

    def verify_consistency(self):
        """Structure-constant identity tying P to the B tables, plus
        ``_check_spectral`` (its all-ones first column of Q = n P^-1 is
        sum_j k_j = n), all as rational-function equalities."""
        if not character_identity_holds(self.B, self.P):
            return False
        try:
            self.eigen_data()
        except InternalConsistency:
            return False
        return True

    def p_at(self, q0):
        """All p_{hi}^j at a rational q0: 64 Fractions in nested tuples,
        evaluated once per q0."""
        q0 = Fraction(q0)
        if q0 not in self._p_at:
            self._p_at[q0] = tuple(
                tuple(tuple(self.p(h, i, j)(q0) for j in range(4))
                      for i in range(4)) for h in range(4))
        return self._p_at[q0]

    def eigenmatrix_at(self, q0):
        return [[entry(q0) for entry in row] for row in self.P]


@cache
def parametric_scheme():
    """The shared parametric family; callers read it and never mutate it."""
    return ParametricScheme()
