"""Generalized Pell descent and the parameters with an integral square root.

The characterization rests on x = 17q - 9, y = sqrt((q-1)(17q-1))
solving x^2 - 17 y^2 = 64: descent by the fundamental unit 33 + 8*sqrt(17)
reduces every positive solution to one of finitely many base solutions
with x <= sqrt(a(u+1)/2), and a congruence mod 34 singles out one orbit.
Everything here is plain integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .exactfield import squarefree_decompose
from .ratfunc import PolyQ


class PellProblem:
    """x^2 - d y^2 = a with a designated fundamental unit of x^2 - d y^2 = 1."""

    def __init__(self, d, a, fundamental):
        u, v = fundamental
        if u * u - d * v * v != 1 or u <= 1:
            raise ValueError("not a fundamental solution of the unit form")
        if d <= 0 or squarefree_decompose(d)[1] != 1:
            raise ValueError("d must be a squarefree positive integer")
        if a <= 0:
            raise ValueError("a must be positive")
        self.d = d
        self.a = a
        self.u = u
        self.v = v

    def base_bound_squared(self):
        """Base solutions satisfy x^2 <= a(u+1)/2."""
        return Fraction(self.a * (self.u + 1), 2)

    def __repr__(self):
        return f"PellProblem(x^2 - {self.d} y^2 = {self.a}, unit {self.u}+{self.v}*sqrt)"


# the unit 33 + 8 sqrt(17), validated on import
FUNDAMENTAL_17 = (33, 8)
assert FUNDAMENTAL_17[0] ** 2 - 17 * FUNDAMENTAL_17[1] ** 2 == 1

PROBLEM_17_64 = PellProblem(17, 64, FUNDAMENTAL_17)


def base_solutions(problem):
    """All (x0, y0), x0 > 0, y0 >= 0 with x0^2 <= a(u+1)/2.

    Every positive solution is a unit power times one of these
    (including the degenerate (sqrt(a), 0) when a is a square).
    """
    out = []
    bound2 = problem.base_bound_squared()
    x = 1
    while x * x <= bound2:
        t = x * x - problem.a
        if t >= 0 and t % problem.d == 0:
            y2, rem = divmod(t, problem.d)
            y = isqrt(y2)
            if y * y == y2:
                out.append((x, y))
        x += 1
    return out


def unit_multiply(problem, xy, n=1):
    """(x + y sqrt d) * (u + v sqrt d)**n, exactly, n in Z."""
    u, v, d = problem.u, problem.v, problem.d
    if n < 0:
        u, v, n = u, -v, -n  # the conjugate unit inverts
    x, y = xy
    for _ in range(n):
        x, y = u * x + d * v * y, u * y + v * x
    return x, y


def descend(problem, xy):
    """Reduce a positive solution to a base solution, counting unit steps."""
    x, y = xy
    if x <= 0 or y < 0 or x * x - problem.d * y * y != problem.a:
        raise ValueError("not a positive solution")
    steps = 0
    while x * x > problem.base_bound_squared():
        x, y = (problem.u * x - problem.d * problem.v * y,
                abs(problem.u * y - problem.v * x))
        steps += 1
        if steps > 64:
            raise AssertionError("descent failed to terminate")
    return (x, y), steps


# x is sieved in windows of at most _SIEVE_CHUNK bytes, against the squares
# mod each of these moduli that is coprime to d
_SIEVE_CHUNK = 1 << 16
_SIEVE_MODULI = (64, 9, 5, 7, 11, 13, 17, 19, 23)


def _nonsquare_classes(problem):
    """[(m, residues)]: the x mod m for which (x^2 - a)/d is not a square
    mod m, for each sieve modulus m coprime to d (0 is a square)."""
    d, a = problem.d, problem.a
    out = []
    for m in _SIEVE_MODULI:
        if gcd(m, d) == 1:
            squares = {y * y % m for y in range(m)}
            d_inv = pow(d, -1, m)
            out.append((m, [r for r in range(m)
                            if (r * r - a) * d_inv % m not in squares]))
    return out


def descent_oracle(problem, x_limit):
    """Enumerate all solutions with x <= x_limit and certify the descent.

    x runs in increasing order through a sieve, in windows of at most
    ``_SIEVE_CHUNK`` bytes: a window marks the x with x^2 = a (mod d),
    then clears every x whose y^2 = (x^2 - a)/d is not a square mod some
    m coprime to d.  d is invertible mod m, so y^2 = (x^2 - a) d^-1
    (mod m) depends on x mod m alone, and a cleared x has no integral y.
    Every solution survives, and each survivor gets the exact ``isqrt``
    test.  Returns the solution count; raises on the first solution, in
    increasing x, that fails to reduce to a base solution (disproving
    the descent lemma).
    """
    bases = set(base_solutions(problem))
    count = 0
    d, a = problem.d, problem.a
    x0 = isqrt(a) if isqrt(a) ** 2 == a else isqrt(a) + 1
    roots = [r for r in range(d) if (r * r - a) % d == 0]
    classes = _nonsquare_classes(problem)
    for lo in range(x0, x_limit + 1, _SIEVE_CHUNK):
        size = min(_SIEVE_CHUNK, x_limit + 1 - lo)
        mask = bytearray(size)
        for r in roots:
            s = (r - lo) % d
            mask[s::d] = b"\1" * len(range(s, size, d))
        for m, residues in classes:
            for r in residues:
                s = (r - lo) % m
                mask[s::m] = bytes(len(range(s, size, m)))
        pos = mask.find(1)
        while pos >= 0:
            x = lo + pos
            pos = mask.find(1, pos + 1)
            y2 = (x * x - a) // d
            y = isqrt(y2)
            if y * y == y2:
                count += 1
                base, _ = descend(problem, (x, y))
                if base not in bases:
                    raise AssertionError(f"({x},{y}) reduced to unlisted {base}")
    return count


# ---------------------------------------------------------------------------
# the parameter values with integral r

# (2177 + 528 s) = unit^2 and (433 + 105 s) = unit * (9 + s), s = sqrt(17)
_STEP = (2177, 528)
_SEED = (433, 105)
assert _STEP == unit_multiply(PROBLEM_17_64, unit_multiply(PROBLEM_17_64, (1, 0)))
assert _SEED == unit_multiply(PROBLEM_17_64, (9, 1))


def is_r_integer(q):
    """r = sqrt((17q-1)(q-1)) when integral, else None (q even, >= 4)."""
    if q < 4 or q % 2:
        raise ValueError("q must be an even integer >= 4")
    rho = (17 * q - 1) * (q - 1)
    r = isqrt(rho)
    return r if r * r == rho else None


def integral_r_q_values(n_lo, n_hi):
    """q = (tr(step^n * seed) + 18)/34 over n in [n_lo, n_hi], unsorted.

    Each output is an even integer >= 4 whose (17q-1)(q-1) is a perfect
    square; both facts are re-verified on the way out.
    """
    out = []
    for n in range(n_lo, n_hi + 1):
        # step = unit^2, so step^n * seed = unit^(2n) * seed; trace = 2x
        x, _ = unit_multiply(PROBLEM_17_64, _SEED, 2 * n)
        num = 2 * x + 18
        if num % 34:
            raise AssertionError(f"trace + 18 not divisible by 34 at n={n}")
        q = num // 34
        if q < 4 or q % 2 or is_r_integer(q) is None:
            raise AssertionError(f"characterization broke at n={n}: q={q}")
        out.append(q)
    return out


def pell_chain_identity():
    """(17q-9)^2 - 17 (q-1)(17q-1) - 64 as a polynomial (must be zero)."""
    q = PolyQ.x()
    lhs = (17 * q - 9) ** 2 - 17 * ((q - 1) * (17 * q - 1)) - PolyQ.const(64)
    return lhs


def orbit_congruences():
    """a mod 34 for the three base orbits, against the sign pattern.

    Checked for -6 <= n <= 6:
    unit^n * 8       -> a =  8 * (-1)^n
    unit^n * (9+s)   -> a =  9 * (-1)^n
    unit^n * (26+6s) -> a = -8 * (-1)^n
    Only the middle orbit at odd n meets a = -9 (mod 34), i.e. x = 17q-9
    with q even.
    """
    expected = {(8, 0): 8, (9, 1): 9, (26, 6): -8}
    report = {}
    for base, lead in expected.items():
        ok = True
        for n in range(-6, 7):
            a, _ = unit_multiply(PROBLEM_17_64, base, n)
            if (a - lead * (-1) ** n) % 34:
                ok = False
        report[base] = ok
    return report
