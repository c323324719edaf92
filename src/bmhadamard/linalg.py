"""Small exact linear algebra over any field-like element type.

Works for Fraction, RatQ and TowerElement alike (a RatFuncQ is a
TowerElement over Q(q)): elements need +, -, *, division (or
.inverse()), and == against ``zero``.  Everything is one Gauss-Jordan
routine, ``_echelon``; matrices are lists of lists and stay tiny (4x4
eigen work).  The span-condition elimination is modular and lives in
``fastfield.echelon_mod_p``, not here.  ``solve`` has no caller in the
package: it is the test oracle for the closed form in
``identities._jones_component_ok``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def identity(n, zero=Fraction(0), one=Fraction(1)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


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


def mat_inverse(a, zero=Fraction(0), one=Fraction(1)):
    """Gauss-Jordan inverse; raises ZeroDivisionError when singular."""
    n = len(a)
    work = [list(row) + ident_row for row, ident_row in
            zip(a, identity(n, zero, one))]
    if len(_echelon(work, n, zero, one)) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in work]


def nullspace(a, zero=Fraction(0), one=Fraction(1)):
    """Basis of the right kernel of a (rows may outnumber columns)."""
    rows = [list(r) for r in a]
    ncols = len(rows[0]) if rows else 0
    pivots = _echelon(rows, ncols, zero, one)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for pr, pc in enumerate(pivots):
            vec[pc] = zero - rows[pr][fc]
        basis.append(vec)
    return basis


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


def char_poly(a):
    """Characteristic polynomial of a rational matrix (Faddeev-LeVerrier).

    Returns coefficients c_0..c_n, ascending, of det(xI - A); exact over
    Fraction entries.
    """
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        tr = sum((am[i][i] for i in range(n)), Fraction(0))
        c = -tr / k
        coeffs[n - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def rational_eigenvalues(a):
    """All rational eigenvalues of a rational square matrix, no repeats.

    Found as rational roots of the characteristic polynomial (numerator
    divisors over denominator divisors after clearing); enough for the
    intersection matrices handled here, whose spectra are rational.
    """
    coeffs = char_poly(a)
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    lead = ints[-1]
    # strip powers of x so the constant term is nonzero
    shift = 0
    while ints[shift] == 0:
        shift += 1
    const = ints[shift]
    roots = set()
    if shift:
        roots.add(Fraction(0))
    for p in _divisors(abs(const)):
        for s in _divisors(abs(lead)):
            for sign in (1, -1):
                cand = Fraction(sign * p, s)
                if _poly_eval(coeffs, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divisors(n):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)
