"""Small exact linear algebra over any field-like element type.

Works for Fraction, RatQ and TowerElement alike (the tower
``ratfunc.RF_DESC`` over Q(q) included): elements need +, -, *,
division (or .inverse()), and == against ``zero``; matrices are lists
of lists.
No verdict eliminates here: the one elimination on a verdict path is
``fastfield.echelon_mod_p``.  ``solve``, on the Gauss-Jordan routine
``_echelon``, is the test oracle for the closed forms in
``identities._jones_component_ok`` and ``scheme.second_eigenmatrix``.
"""

from __future__ import annotations

from fractions import Fraction


def mat_mul(a, b, zero=Fraction(0)):
    n, m, k = len(a), len(b[0]), len(b)
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            acc = zero
            for t in range(k):
                acc = acc + ai[t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def _echelon(rows, ncols, zero, one):
    """Gauss-Jordan on the first ``ncols`` columns of ``rows``, in place.

    Leaves the pivot rows first, each normalised to a leading one with
    its column cleared everywhere else; returns the pivot columns.
    """
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not rows[i][col] == zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = _field_inverse(rows[r][col], one)
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col] == zero:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return pivots


def solve(a, b, zero=Fraction(0), one=Fraction(1)):
    """One solution of A x = b, or None when inconsistent.

    b is a flat vector; the system may be over- or under-determined.
    """
    rows = [list(r) + [bv] for r, bv in zip(a, b)]
    ncols = len(a[0]) if a else 0
    pivots = _echelon(rows, ncols, zero, one)
    if any(not row[ncols] == zero for row in rows[len(pivots):]):
        return None
    x = [zero] * ncols
    for i, col in enumerate(pivots):
        x[col] = rows[i][ncols]
    return x


def _field_inverse(v, one):
    if hasattr(v, "inverse"):
        return v.inverse()
    return one / v
