"""Flattened tower arithmetic for the two heavy inner loops.

A depth-k tower is a Q-algebra of dimension D = 2**k with basis the
products of the adjoined roots; multiplication is bilinear with
*rational* structure constants (the defining p, s of upper levels expand
over the basis).  Elements here are (tuple-of-D ints, positive int
denominator), so the elimination and inner-product loops run on machine
integers with an occasional gcd strip; results convert back to
TowerElement losslessly.

This is a performance adapter only: every operation agrees exactly with
:mod:`bmhadamard.exactfield`, which remains the semantic reference (and
the test suite checks them against each other).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exactfield import TowerElement


class FlatTower:
    """Structure constants and converters for one descriptor."""

    def __init__(self, desc):
        self.desc = desc
        self.dim = desc.degree
        basis = []
        for mask in range(self.dim):
            el = TowerElement.rational(1, desc)
            for lvl in range(desc.depth):
                if mask >> lvl & 1:
                    el = el * _level_generator(desc, lvl)
            basis.append(el)
        self.basis = basis
        # integer table: basis_i * basis_j = (1/tden) * sum_k T[i][j][k] e_k
        table_fr = [[(basis[i] * basis[j]).coefficients()
                     for j in range(self.dim)] for i in range(self.dim)]
        tden = 1
        for row in table_fr:
            for vec in row:
                for c in vec:
                    tden = tden * c.denominator // gcd(tden, c.denominator)
        self.tden = tden
        self.table = [[tuple(int(c * tden) for c in vec) for vec in row]
                      for row in table_fr]
        self.zero = (0,) * self.dim

    # -- conversions ------------------------------------------------------

    def to_flat(self, el):
        if el.desc != self.desc:
            el = el.lift(self.desc)
        coeffs = el.coefficients()
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        return tuple(int(c * den) for c in coeffs), den

    def from_flat(self, val):
        vec, den = val
        coeffs = [Fraction(v, den) for v in vec]
        return TowerElement(self.desc, _unflatten(coeffs, self.desc.depth))

    # -- arithmetic on (vec, den) pairs ------------------------------------

    def add(self, x, y):
        xv, xd = x
        yv, yd = y
        if xd == yd:
            return self._strip(tuple(a + b for a, b in zip(xv, yv)), xd)
        return self._strip(tuple(a * yd + b * xd for a, b in zip(xv, yv)),
                           xd * yd)

    def sub(self, x, y):
        xv, xd = x
        yv, yd = y
        if xd == yd:
            return self._strip(tuple(a - b for a, b in zip(xv, yv)), xd)
        return self._strip(tuple(a * yd - b * xd for a, b in zip(xv, yv)),
                           xd * yd)

    def neg(self, x):
        return (tuple(-a for a in x[0]), x[1])

    def mul(self, x, y):
        xv, xd = x
        yv, yd = y
        out = [0] * self.dim
        table = self.table
        for i, a in enumerate(xv):
            if not a:
                continue
            ti = table[i]
            for j, b in enumerate(yv):
                if not b:
                    continue
                ab = a * b
                vec = ti[j]
                for k, t in enumerate(vec):
                    if t:
                        out[k] += ab * t
        return self._strip(tuple(out), xd * yd * self.tden)

    def inv(self, x):
        el = self.from_flat(x)
        return self.to_flat(el.inverse())

    def is_zero(self, x):
        return not any(x[0])

    def one(self):
        return ((1,) + (0,) * (self.dim - 1), 1)

    def _strip(self, vec, den):
        g = den
        for v in vec:
            if v:
                g = gcd(g, v)
                if g == 1:
                    break
        if g > 1:
            vec = tuple(v // g for v in vec)
            den //= g
        if not any(vec):
            return (self.zero, 1)
        return (vec, den)


def _level_generator(desc, lvl):
    return TowerElement.generator(desc.prefix(lvl + 1)).lift(desc)


def _unflatten(coeffs, depth):
    if depth == 0:
        return coeffs[0]
    half = len(coeffs) // 2
    return (_unflatten(coeffs[:half], depth - 1),
            _unflatten(coeffs[half:], depth - 1))


def sparse_rank(rows, flat):
    """Row rank of sparse integer-vector rows over the tower field.

    ``rows`` is an iterable of dicts {coordinate: (vec, den)}.  Plain
    echelon with least-coordinate pivoting; pivot rows are normalized so
    their leading value is 1, which keeps the update a single mul/sub.
    """
    pivots = {}
    one = flat.one()
    for row in rows:
        row = {c: v for c, v in row.items() if not flat.is_zero(v)}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = flat.inv(row[c])
                red = {cc: flat.mul(vv, inv) for cc, vv in row.items()}
                red[c] = one
                pivots[c] = red
                break
            coef = row.pop(c)
            for cc, vv in piv.items():
                if cc == c:
                    continue
                cur = row.get(cc)
                delta = flat.mul(coef, vv)
                nv = flat.sub(cur, delta) if cur is not None else flat.neg(delta)
                if flat.is_zero(nv):
                    row.pop(cc, None)
                else:
                    row[cc] = nv
    return len(pivots)
