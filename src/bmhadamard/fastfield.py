"""Flattened tower arithmetic and modular elimination for the hot loops.

A depth-k tower is a Q-algebra of dimension D = 2**k with basis the
products of the adjoined roots; multiplication is bilinear with
*rational* structure constants (the radicand s of each upper level,
t^2 = s, expands over the basis).  Elements here are (tuple-of-D ints,
positive int denominator), or integer vectors over one shared
denominator, so the inner loops run on machine integers; results
convert back to TowerElement losslessly.

Ranks are found mod p: ``FlatTower.embeddings`` maps the tower onto F_p
for a prime that splits it completely, ``echelon_mod_p`` eliminates on
residues, ``kernel_mod_p`` reads the reduced-echelon kernel off the same
pivot rows, and ``coordinates_mod_p`` with ``rational_reconstruct`` lift
its vectors back to the tower.  A rank mod p is only a lower bound; the
caller (``typeii.span_condition``) turns it into a verdict with an exact
upper bound.

Every exact operation agrees with :mod:`bmhadamard.exactfield`, which
remains the semantic reference (the test suite checks them against each
other).  ``sparse_rank``, exact elimination over the tower, is kept as
the test oracle for the modular rank.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

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
        # the nonzero structure constants, for products without a strip
        self.triples = [(i, j, k, t) for i, row in enumerate(self.table)
                        for j, vec in enumerate(row)
                        for k, t in enumerate(vec) if t]

    # -- conversions ------------------------------------------------------

    def to_flat(self, el):
        if el.desc != self.desc:
            el = el.lift(self.desc)
        coeffs = el.coefficients()
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        return tuple(int(c * den) for c in coeffs), den

    def int_coords(self, elements):
        """Integer coordinates of ``elements`` over one common denominator.

        Returns (vectors, den): element i is vectors[i] / den.
        """
        flats = [self.to_flat(el) for el in elements]
        den = lcm(*(d for _, d in flats))
        return [tuple(v * (den // d) for v in vec) for vec, d in flats], den

    def int_mul(self, x, y):
        """tden * x * y on integer coordinate vectors, with no gcd strip.

        Exact up to the positive factor tden, which no zero test sees;
        the coordinates may be any Python ints (packed ones included).
        """
        out = [0] * self.dim
        for i, j, k, t in self.triples:
            a = x[i]
            if a:
                b = y[j]
                if b:
                    out[k] += a * b * t
        return out

    def embeddings(self, p):
        """The ring maps from the p-integral tower elements onto F_p.

        ``p`` must be an odd prime.  Returns (images, roots):
        ``images[e]`` lists the residues of the basis elements under map
        e, and ``roots[j][i]`` is the pair of roots mod p of level j's
        quadratic under the i-th map of the levels below it; map 2i + b
        of a level extends map i below it by root b.  Returns None unless
        p splits the tower completely: p must not divide a denominator of
        a level's radicand s, and under every map below it each level's
        s must be a nonzero square mod p.  The roots are then (r, p - r)
        with r^2 = s.
        """
        images, roots = [[1]], []
        for j, ls in enumerate(self.desc.levels):
            sc = TowerElement(self.desc.prefix(j), ls).coefficients()
            pairs, nxt = [], []
            for img in images:
                s = _residue(sc, img, p)
                if s is None:
                    return None
                r = _sqrt_mod(s, p)
                if r is None:
                    return None
                pair = (r, p - r)
                pairs.append(pair)
                nxt.extend(img + [x * t % p for x in img] for t in pair)
            images = nxt
            roots.append(pairs)
        return images, roots

    def from_flat(self, val):
        vec, den = val
        coeffs = [Fraction(v, den) for v in vec]
        return TowerElement(self.desc, _unflatten(coeffs, self.desc.depth))

    # -- arithmetic on (vec, den) pairs ------------------------------------

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


def _residue(coeffs, img, p):
    """The image mod p of rational coordinates, or None if not p-integral."""
    acc = 0
    for c, b in zip(coeffs, img):
        if c:
            if c.denominator % p == 0:
                return None
            acc += c.numerator * pow(c.denominator, -1, p) * b
    return acc % p


def _sqrt_mod(a, p):
    """A square root of a nonzero square a mod an odd prime p, or None.

    Tonelli-Shanks.
    """
    if not a or pow(a, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while not q & 1:
        q >>= 1
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def coordinates_mod_p(values, roots, p):
    """Tower coordinates mod p of the element with residues ``values``.

    ``values[e]`` is the residue under map e of ``FlatTower.embeddings``;
    the maps invert level by level from the top, because x = lo + hi * t
    gives lo + hi * t1 and lo + hi * t2 under the two roots t1 != t2.
    """
    if not roots:
        return values
    lo, hi = [], []
    for (t1, t2), v1, v2 in zip(roots[-1], values[0::2], values[1::2]):
        b = (v1 - v2) * pow(t1 - t2, -1, p) % p
        lo.append((v1 - b * t1) % p)
        hi.append(b)
    return (coordinates_mod_p(lo, roots[:-1], p)
            + coordinates_mod_p(hi, roots[:-1], p))


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
    Exact and slow: the tests hold ``typeii.span_condition``'s certified
    rank against it.
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


# ---------------------------------------------------------------------------
# elimination mod p, for ranks certified by exact checks

def primes():
    """The primes below 2**61, in descending order."""
    n = 2 ** 61 - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _is_prime(n):
    # Miller-Rabin with these bases is deterministic below 3.3 * 10**24
    d, e = n - 1, 0
    while not d & 1:
        d >>= 1
        e += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(e - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def echelon_mod_p(rows, p):
    """Row echelon form mod p of sparse integer rows {column: value}.

    The same least-coordinate pivoting as ``sparse_rank``, on residues.
    Returns {pivot column: pivot row}, each row scaled to 1 at its pivot,
    its least column; the rank is the number of pivot rows.
    """
    pivots = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {cc: vv * inv % p for cc, vv in row.items()}
                break
            f = row.pop(c)
            for cc, vv in piv.items():
                if cc != c:
                    nv = (row.get(cc, 0) - f * vv) % p
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
    return pivots


def kernel_mod_p(pivots, columns, p):
    """The reduced-echelon kernel basis of ``echelon_mod_p``'s rows.

    One vector {column: residue} per free column f of ``columns``: 1 at
    f, 0 at the other free columns, and at each pivot column c minus the
    f entry of pivot row c after back substitution.  Back substitution
    only changes free entries: row c loses v times reduced row c' for
    each pivot c' > c, where v is row c's original entry at c'.
    """
    free = [f for f in columns if f not in pivots]
    reduced = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        acc = [row.get(f, 0) for f in free]
        for cc, v in row.items():
            if cc != c and cc in pivots:
                acc = [(a - v * b) % p for a, b in zip(acc, reduced[cc])]
        reduced[c] = acc
    kernel = {}
    for i, f in enumerate(free):
        vec = {f: 1}
        for c, acc in reduced.items():
            if acc[i]:
                vec[c] = p - acc[i]
        kernel[f] = vec
    return kernel


def rational_reconstruct(u, m):
    """The fraction a/b = u (mod m) with |a|, b <= sqrt(m/2), or None."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not s1 or abs(s1) > bound or gcd(s1, m) != 1:
        return None
    return Fraction(r1, s1)
