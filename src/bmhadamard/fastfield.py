"""Flattened tower arithmetic and modular elimination for the hot loops.

A depth-k tower is a Q-algebra of dimension D = 2**k with basis the
products of the adjoined roots; multiplication is bilinear with
*rational* structure constants (the radicand s of each upper level,
t^2 = s, expands over the basis).  Elements here are (tuple-of-D ints,
positive int denominator), or integer vectors over one shared
denominator; results convert back to TowerElement losslessly.  There is
one product kernel, ``FlatTower.int_mul``, over the nonzero structure
constants ``triples``; ``mul`` is that product with a gcd strip.
``flat_tower(desc)`` builds one ``FlatTower`` per descriptor.  Two
places call ``int_coords``: ``typeii.WeightFamily.coords``, once per
family, whose ``ratio_table`` every certificate of a family reads, and
the span rank of a dense matrix.  Their users zero-test or compare
integer vectors whose scale is positive; the a-matrix and the Haagerup
sets turn values back into tower elements with ``from_flat``.

Ranks are found mod word-size primes p below 2^24 (``primes``):
``FlatTower.embedding`` is one map of a tower onto F_p (for the span
rank, of the real subfield below the imaginary level),
``echelon_mod_p`` eliminates integer rows on residues,
``kernel_mod_p`` reads the reduced-echelon kernel off the same pivot
rows, and ``rational_reconstruct`` lifts a residue back to Q (the span
rank lifts kernels over Q only, never over a tower).  Both eliminations
hold each row as one packed Python int, a fixed-width slot per column,
so reducing a row is one big-integer multiply-add and slots are reduced
mod p only when they are read (``_slot_bits`` bounds the slots).  A new
pivot of ``echelon_mod_p`` is not reduced or scaled slot by slot: a
lane-parallel fold (``_lane_fold``, pseudo-Mersenne reduction by
2^bitlen(p) = c mod p) brings all its slots below 2^(bitlen(p)+1) at
once, and the pivot keeps the inverse of its lead residue.  With p below
2^24 a slot is about 58 bits wide at q = 4 (``_slot_bits``), so every
multiply-add and shift works on rows less than half as long as with
61-bit primes, and ``_slots`` reads a row back in time linear in its
length.  A rank mod p is only a lower bound; the caller
(``typeii.span_condition``) turns it into a verdict with an exact upper
bound, or with a kernel certificate checked exactly, so the size of p
bears on how often a prime is unlucky, never on a verdict.

Every exact operation agrees with :mod:`bmhadamard.exactfield`, which
remains the semantic reference (the test suite checks them against each
other).  ``sparse_rank``, exact elimination over the tower, is kept as
the test oracle for the modular rank.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
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
        # the nonzero structure constants (i, j, k, t), in (i, j, k) order:
        # basis_i * basis_j = (1/tden) * sum over k of t e_k
        products = [(i, j, (bi * bj).coefficients())
                    for i, bi in enumerate(basis)
                    for j, bj in enumerate(basis)]
        self.tden = tden = lcm(*(c.denominator for _, _, vec in products
                                 for c in vec))
        self.zero = (0,) * self.dim
        self.triples = [(i, j, k, int(c * tden)) for i, j, vec in products
                        for k, c in enumerate(vec) if c]

    # -- conversions ------------------------------------------------------

    def to_flat(self, el):
        coeffs = el.lift(self.desc).coefficients()
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

    def embedding(self, p):
        """One ring map from the p-integral tower elements onto F_p.

        ``p`` must be an odd prime.  Returns the residues of the basis
        elements: level j's generator t goes to a square root mod p of
        the image of its radicand s under the map of the levels below.
        Returns None when p divides a denominator of some s, or when an
        image of s is zero or not a square mod p.
        """
        img = [1]
        for j, ls in enumerate(self.desc.levels):
            sc = TowerElement(self.desc.prefix(j), ls).coefficients()
            s = _residue(sc, img, p)
            r = None if s is None else _sqrt_mod(s, p)
            if r is None:
                return None
            img = img + [x * r % p for x in img]
        return img

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
        return self._strip(tuple(self.int_mul(x[0], y[0])),
                           x[1] * y[1] * self.tden)

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


@cache
def flat_tower(desc):
    """The one ``FlatTower`` of a descriptor.

    Building one costs dim**2 tower products, and a tower is never
    mutated, so every caller shares it: ``typeii.WeightFamily.coords``,
    through which the certificates of a family read it, and
    ``typeii.span_condition``.
    """
    return FlatTower(desc)


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
    """The odd primes below 2**24, in descending order.

    Word-size primes keep every slot of the packed eliminations narrow
    (58 bits for the q = 4 span ranks, against 132 below 2**61), and no
    verdict needs a large one.  A rank mod any p under a map of K0 is a
    lower bound, and a kernel certificate is decided by an exact check,
    whatever the primes that built it.  A small prime is only more often
    unlucky: a rank that drops, or a kernel lift whose modulus is still
    too small.  ``span_condition`` then draws the next prime, and the
    CRT modulus of its lift grows by 24 bits per prime.
    """
    for n in range(2 ** 24 - 1, 2, -2):
        if _is_prime(n):
            yield n


def _is_prime(n):
    # Miller-Rabin with bases 2, 3 and 5 is deterministic below
    # 25326001, the least strong pseudoprime to all three
    if n < 2:
        return False
    d, e = n - 1, 0
    while not d & 1:
        d >>= 1
        e += 1
    for a in (2, 3, 5):
        if n % a == 0:
            return n == a
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


def _slot_bits(p, m):
    """Slot width s of a packed row that takes at most m multiply-adds
    (the bound in ``echelon_mod_p``): one bit more than the bit length
    of (p - 1) + m * (p - 1) * (2^(k+1) - 1), k = bitlen(p), so every
    slot stays below 2^(s-1)."""
    top = (p - 1) * (1 + m * ((2 << p.bit_length()) - 1))
    return top.bit_length() + 1


def _lane_fold(p, s, m):
    """The fold of ``echelon_mod_p`` for rows of at most m slots of s
    bits: a function that maps a packed row whose slots are all below
    2^(s-1) to one whose slots are all at most 2^(k+1) - 1, k = bitlen(p),
    each congruent mod p to the slot it came from.

    With c = 2^k - p, 2^k = c (mod p), so a slot v = lo + 2^k hi, lo below
    2^k, is congruent to lo + c hi.  One fold does this to every slot at
    once: x = (x & LO) + ((x >> k) & HI) * c, where LO and HI mask the low
    k and s - k bits of each slot (HI drops the bits that slot j + 1
    shifts into slot j).  Since p >= 2^(k-1), c <= 2^(k-1), so a slot at
    most B folds to at most b(B) = 2^k - 1 + (B >> k) c <= 2^k - 1 + B/2.
    That is below 2^(s-1) again, as s >= k + 2 once m >= 1, so no slot
    carries, and b(B) - (2^(k+1) - 2) is at most half of
    B - (2^(k+1) - 2).  So the folds, counted once on the bound
    B = 2^(s-1) - 1, end below 2^(k+1) for every prime, 2 included.
    """
    k = p.bit_length()
    c = (1 << k) - p
    lo = _pack([(1 << k) - 1] * m, s)
    hi = _pack([(1 << (s - k)) - 1] * m, s)
    bound, folds = (1 << (s - 1)) - 1, 0
    while bound >> (k + 1):
        bound = (1 << k) - 1 + (bound >> k) * c
        folds += 1

    def fold(x):
        for _ in range(folds):
            x = (x & lo) + ((x >> k) & hi) * c
        return x
    return fold


class PackedRow:
    """A pivot row of ``echelon_mod_p``, in slots of ``bits`` bits, slot
    k at column ``columns[start + k]``.  The slots are folded, not
    reduced: each is at most 2^(bitlen(p)+1) - 1, and slot k times
    ``inv``, the inverse of slot 0 mod p, is the residue at its column."""

    __slots__ = ("packed", "bits", "columns", "start", "p", "inv")

    def __init__(self, packed, bits, columns, start, p, inv):
        self.packed = packed
        self.bits = bits
        self.columns = columns
        self.start = start
        self.p = p
        self.inv = inv

    def residues(self):
        """{column: residue} of the row's nonzero entries, 1 at the pivot."""
        cols, start, p = self.columns, self.start, self.p
        # a slot times inv is at most (2^(k+1) - 1)(p - 1), one update of
        # echelon_mod_p's bound, so below 2^(bits - 1): nothing carries
        return {cols[start + k]: r for k, v in
                enumerate(_slots(self.packed * self.inv, self.bits))
                if (r := v % p)}


def _slots(x, s):
    """The slot values of packed row x, lowest slot first, up to its
    highest nonzero slot.

    Linear in the length of x: eight slots of s bits are s bytes, so the
    bytes of x fall into blocks of s bytes, eight slots each, and only
    a block of 8s bits is ever shifted.
    """
    count = -(-x.bit_length() // s)
    raw = x.to_bytes(-(-count // 8) * s, "little")
    mask = (1 << s) - 1
    shifts = range(0, 8 * s, s)
    out = []
    for i in range(0, len(raw), s):
        block = int.from_bytes(raw[i:i + s], "little")
        out += [block >> k & mask for k in shifts]
    del out[count:]
    return out


def _pack(values, s):
    """The packed row with slot k = values[k], each below 2^s: the s
    bytes of each eight slots, joined, in linear time like ``_slots``."""
    shifts = range(0, 8 * s, s)
    return int.from_bytes(b"".join(
        sum(v << k for v, k in zip(values[i:i + 8], shifts))
        .to_bytes(s, "little") for i in range(0, len(values), 8)), "little")


def echelon_mod_p(rows, p):
    """Row echelon form mod p of sparse integer rows {column: value}.

    The same least-coordinate pivoting as ``sparse_rank``, on residues,
    in the order the rows come.  Returns {pivot column: ``PackedRow``},
    whose pivot is its least column; the rank is the number of pivot
    rows.  The pivot columns, and so the reduced-echelon kernel of
    ``kernel_mod_p``, depend only on the span of the rows, not on their
    order: pivot column c is taken iff the span has a vector whose least
    column is c.

    Each row is one Python int over the m columns that occur: the entry
    at column position j sits in bits [j*s, (j + 1)*s), with s from
    ``_slot_bits``.  The row shifts right one slot per column, so slot 0
    is always the column at hand.  A row whose slot 0 is f != 0 mod p
    meets either no pivot there, and becomes one, or a pivot of lead
    residue 1/inv, and is reduced by one multiply-add
    x += ((p - f) * inv % p) * pivot, with no per-entry %.  A new pivot
    is not scaled: it is folded (``_lane_fold``) and keeps inv, so it
    costs a few big-integer operations rather than one per slot.

    No slot carries into the next.  Let k = bitlen(p).  A row starts
    with every slot below p.  A pivot's slots are at most 2^(k+1) - 1,
    and each update multiplies one by a factor below p, so it adds at
    most (p - 1) * (2^(k+1) - 1) to a slot; a row meets at most one
    pivot per column, so it takes at most m updates.  A slot then stays
    at most (p - 1) + m * (p - 1) * (2^(k+1) - 1) < 2^(s-1), which is
    also the fold's premise, and it is never negative.  So each slot
    mod p is the residue at its column.

    None of this depends on the size of p, and neither does the rank
    mod p of integer rows, which bounds their rank over Q from below
    for every prime.  ``primes`` gives p below 2^24, where s is 58 bits
    for the 210 columns of v's B at q = 4 (132 for p near 2^61).
    """
    rows = list(rows)
    columns = sorted(set().union(*rows))
    pos = {c: j for j, c in enumerate(columns)}
    s = _slot_bits(p, len(columns))
    mask = (1 << s) - 1
    fold = _lane_fold(p, s, len(columns))
    pivots = {}
    for row in rows:
        x = 0
        for c, v in row.items():
            x += (v % p) << (pos[c] * s)
        j = 0
        while x:
            low = x & mask
            if not low:  # skip the run of zero slots at once
                k = ((x & -x).bit_length() - 1) // s
                x >>= k * s
                j += k
                continue
            f = low % p
            if f:
                piv = pivots.get(columns[j])
                if piv is None:
                    pivots[columns[j]] = PackedRow(
                        fold(x), s, columns, j, p, pow(f, -1, p))
                    break
                x += (p - f) * piv.inv % p * piv.packed
            x >>= s
            j += 1
    return pivots


def kernel_mod_p(pivots, columns, p):
    """The reduced-echelon kernel basis of ``echelon_mod_p``'s rows.

    One vector {column: residue} per free column f of ``columns``: 1 at
    f, 0 at the other free columns, and at each pivot column c minus the
    f entry of pivot row c after back substitution.  Back substitution
    only changes free entries: row c loses v times reduced row c' for
    each pivot c' > c, where v is row c's original entry at c'.

    The free entries of a row are packed into one int, a slot per free
    column, and each back substitution step is one multiply-add
    acc += (p - v) * reduced[c'].  Each reduced row is brought back below
    p before it is used, and a row takes fewer updates than there are
    pivots, so by the argument of ``echelon_mod_p`` slots of
    ``_slot_bits(p, len(pivots))`` bits never carry.
    """
    free = [f for f in columns if f not in pivots]
    slot = {f: i for i, f in enumerate(free)}
    s = _slot_bits(p, len(pivots))
    kernel = {f: {f: 1} for f in free}
    reduced = {}
    for c in sorted(pivots, reverse=True):
        acc = 0
        for cc, v in pivots[c].residues().items():
            if cc in slot:
                acc += v << (slot[cc] * s)
            elif cc in reduced:
                acc += (p - v) * reduced[cc]
        res = [v % p for v in _slots(acc, s)]
        for i, r in enumerate(res):
            if r:
                kernel[free[i]][c] = p - r
        reduced[c] = _pack(res, s)
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
