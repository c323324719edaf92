import tracemalloc

import oracles
import pytest
from oracles import descent_oracle_every_x

from bmhadamard import pell
from bmhadamard.pell import (
    FUNDAMENTAL_17,
    PROBLEM_17_64,
    PellProblem,
    base_solutions,
    descend,
    descent_oracle,
    integral_r_q_values,
    is_r_integer,
    orbit_congruences,
    pell_chain_identity,
    unit_multiply,
)


def test_fundamental_unit_fixture():
    u, v = FUNDAMENTAL_17
    assert u * u - 17 * v * v == 1


def test_problem_validation():
    with pytest.raises(ValueError):
        PellProblem(17, 64, (33, 9))
    with pytest.raises(ValueError):
        PellProblem(12, 64, (7, 2))  # 12 is not squarefree
    with pytest.raises(ValueError):
        PellProblem(17, -4, (33, 8))


def test_base_solutions_of_the_main_problem():
    assert base_solutions(PROBLEM_17_64) == [(8, 0), (9, 1), (26, 6)]


def test_base_solutions_of_unit_form():
    p = PellProblem(17, 1, FUNDAMENTAL_17)
    assert base_solutions(p) == [(1, 0)]


def test_unit_multiplication_closure():
    # (33 + 8 s)(9 + s) = 433 + 105 s and 433^2 - 17*105^2 = 64
    assert unit_multiply(PROBLEM_17_64, (9, 1)) == (433, 105)
    assert 433 ** 2 - 17 * 105 ** 2 == 64
    # negative powers via the conjugate unit
    assert unit_multiply(PROBLEM_17_64, (433, 105), -1) == (9, 1)


def test_descend_reaches_a_base():
    x, y = unit_multiply(PROBLEM_17_64, (26, 6), 3)
    base, steps = descend(PROBLEM_17_64, (x, y))
    assert base == (26, 6) and steps == 3


def test_descent_oracle_small():
    count = descent_oracle(PROBLEM_17_64, 10 ** 4)
    assert count >= 6  # several solutions below 10^4, all accounted for


# d = 2, 6 and 15 share a factor with a sieve modulus, which is then unused;
# 64 and 25 are squares, so (8, 0) and (5, 0) are solutions with y = 0
SIEVE_PROBLEMS = (PROBLEM_17_64, PellProblem(2, 7, (3, 2)),
                  PellProblem(13, 36, (649, 180)), PellProblem(6, 10, (5, 2)),
                  PellProblem(6, 25, (5, 2)), PellProblem(15, 1, (4, 1)))
CHUNK = pell._SIEVE_CHUNK


@pytest.mark.parametrize("x_limit", [1, 8, 9, 26, 10 ** 3, 10 ** 4 + 7,
                                     CHUNK - 1, CHUNK, CHUNK + 1])
def test_descent_oracle_matches_every_x(x_limit):
    # the sieve against testing every x
    for problem in SIEVE_PROBLEMS:
        assert descent_oracle(problem, x_limit) == \
            descent_oracle_every_x(problem, x_limit)


@pytest.mark.parametrize("chunk", [2, 7, 34])
def test_descent_oracle_across_window_edges(chunk, monkeypatch):
    # small windows put a window edge next to every x_limit and solution
    monkeypatch.setattr(pell, "_SIEVE_CHUNK", chunk)
    for problem in SIEVE_PROBLEMS:
        for x_limit in range(90):
            assert descent_oracle(problem, x_limit) == \
                descent_oracle_every_x(problem, x_limit), (problem, x_limit)


@pytest.mark.parametrize("dropped", [(9, 1), (26, 6)])
def test_descent_oracle_reports_the_first_failing_solution(dropped,
                                                           monkeypatch):
    # with a base taken off the list, the sieve names the same first
    # failing solution as the scan of every x
    bases = [b for b in base_solutions(PROBLEM_17_64) if b != dropped]
    monkeypatch.setattr(pell, "base_solutions", lambda problem: bases)
    monkeypatch.setattr(oracles, "base_solutions", lambda problem: bases)
    messages = []
    for scan in (descent_oracle, descent_oracle_every_x):
        with pytest.raises(AssertionError) as info:
            scan(PROBLEM_17_64, 10 ** 4)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"({dropped[0]},{dropped[1]}) reduced")


def test_descent_oracle_memory_stays_in_one_window():
    # one mask over every x <= 10^6 would take about 1 MB; a window of
    # at most 64 KiB keeps the peak well below 256 KiB
    descent_oracle(PROBLEM_17_64, 10)  # warm every import and cache
    tracemalloc.start()
    try:
        assert descent_oracle(PROBLEM_17_64, 10 ** 6) == 15
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_integral_r_q_values():
    got = integral_r_q_values(-2, 2)
    assert got == [41210, 10, 26, 110890, 482812730]
    assert sorted(got) == [10, 26, 41210, 110890, 482812730]
    for q in got:
        assert q % 2 == 0 and q >= 4
        assert is_r_integer(q) is not None


def test_is_r_integer():
    assert is_r_integer(10) == 39
    assert is_r_integer(26) == 105
    assert is_r_integer(4) is None
    assert is_r_integer(41210) is not None
    with pytest.raises(ValueError):
        is_r_integer(5)
    with pytest.raises(ValueError):
        is_r_integer(2)


def test_congruence_filter():
    # x = 17q - 9 = -9 mod 34 for even q; only the middle orbit at odd
    # powers matches, which is what the q-value formula encodes
    assert all(orbit_congruences().values())
    for q in integral_r_q_values(-3, 3):
        assert (17 * q - 9) % 34 == (-9) % 34


def test_chain_identity_polynomially():
    assert pell_chain_identity().is_zero()


def test_exploratory_weight_stays_quadratic():
    # exploratory, not a certified claim: at every parameter with an
    # integral square root (|n| <= 40 here), a_{0,1} is rational but
    # a_{0,1}^2 - 4 is never a rational square, so the first weight
    # remains a quadratic irrational
    from fractions import Fraction
    from bmhadamard.exactfield import rational_sqrt

    for q in integral_r_q_values(-40, 40):
        r = is_r_integer(q)
        a01 = Fraction(-(q - 1) * (q - 2) + (q + 2) * r, 2 * q * (q + 1))
        assert rational_sqrt(a01 * a01 - 4) is None
