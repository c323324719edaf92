"""Seeded inputs, verdict calls and the known answer of every verdict.

``make_inputs`` is pure Python and never imports ``bmhadamard``: the
same (workload, seed) always gives the same JSON-able inputs, whatever
the interpreter's hash seed.  ``build_verdicts`` turns those inputs into
calls on the package's public functions, each paired with the check of
its known answer.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("sweep", "isolation", "certify_q4")

CASES = ("i", "ii", "iii", "iv", "v", "vi")
SWEEP_EXPRS = ("nomura_symmetric_k", "jones_adjacency", "jones_component")
# Criterion 09 certifies "no zero" for every even q in [4, 200], so any
# subset of that range has a known answer.  One q is drawn from each of
# SWEEP_Q_COUNT equal slices of the range: the cost of the sixth family
# grows with q, and a stratified draw keeps seeds comparable.
SWEEP_Q_RANGE = range(4, 201, 2)
SWEEP_Q_COUNT = 4

# (case, r_sign, branch) -> (isolated, span rank) of the q = 4 matrix.
# iv and vi r+ are isolated (depth-1 and depth-2 towers); v is not.
ISOLATION_ORACLE = {
    ("iv", 1, 1): (True, 196),
    ("v", 1, 1): (False, 186),
    ("vi", 1, 1): (True, 196),
}
# Verdict label -> family.  v runs twice, under two permutations, so the
# median of a round averages two verdicts instead of being one 7 s call;
# vi sits between them, so that the two see different spells of load on
# a shared machine.
ISOLATION_VERDICTS = (("iv", ("iv", 1, 1)), ("v", ("v", 1, 1)),
                      ("vi", ("vi", 1, 1)), ("v.2", ("v", 1, 1)))
MATRIX_ORDER = 15

# Every suite of ``report --suite all`` except sweeps and isolation.
CERTIFY_SUITES = ("scheme", "identities", "families", "section5", "section6",
                  "appendixB")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def verdict_count(workload):
    """How many verdicts one run of ``workload`` issues."""
    return {"sweep": len(SWEEP_EXPRS) * len(CASES),
            "isolation": len(ISOLATION_VERDICTS),
            "certify_q4": len(CERTIFY_SUITES)}[workload]


def make_inputs(workload, seed):
    """The inputs of one workload as plain lists, drawn from ``seed``."""
    # A string seed is hashed with SHA-512, independent of PYTHONHASHSEED.
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        n = len(SWEEP_Q_RANGE)
        bounds = [n * i // SWEEP_Q_COUNT for i in range(SWEEP_Q_COUNT + 1)]
        return {"q_set": [rng.choice(SWEEP_Q_RANGE[lo:hi])
                          for lo, hi in zip(bounds, bounds[1:])]}
    if workload == "isolation":
        families = []
        for label, (case, r_sign, branch) in ISOLATION_VERDICTS:
            rows = rng.sample(range(MATRIX_ORDER), MATRIX_ORDER)
            cols = rng.sample(range(MATRIX_ORDER), MATRIX_ORDER)
            families.append([label, case, r_sign, branch, rows, cols])
        return {"families": families}
    if workload == "certify_q4":
        return {"order": rng.sample(CERTIFY_SUITES, len(CERTIFY_SUITES))}
    raise ValueError(f"unknown workload {workload!r}")


def build_verdicts(workload, inputs, out_dir):
    """[(verdict_id, call, check)] for the inputs of one workload.

    ``call()`` issues one verdict through the public API; ``check(result)``
    returns None when the result is the known answer, else a description
    of the mismatch.  Building the list does all input preparation, so
    the first call starts the timed part of a run.
    """
    if workload == "sweep":
        return _sweep_verdicts(inputs["q_set"])
    if workload == "isolation":
        return _isolation_verdicts(inputs["families"])
    if workload == "certify_q4":
        return _certify_verdicts(inputs["order"], Path(out_dir))
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_verdicts(q_set):
    from bmhadamard import identities

    want = [(q, True) for q in q_set]

    def check(result):
        return None if result == want else f"returned {result!r}"

    return [(f"sweep.{expr}.{case}",
             lambda expr=expr, case=case:
                 identities.scan_nonvanishing(expr, case, list(q_set)),
             check)
            for expr in SWEEP_EXPRS for case in CASES]


def permuted_dense(case, r_sign, branch, rows, cols):
    """P·H·Q of a family's q = 4 matrix, with the family's descriptor.

    Permuting rows and columns keeps the Hadamard property and the span
    rank but changes the order in which the elimination meets entries.
    """
    from bmhadamard import typeii

    fam = typeii.family_coefficients(case, 4, r_sign, branch)
    dense = typeii.TypeIIMatrix(fam).dense()
    return [[dense[i][j] for j in cols] for i in rows], fam.desc


def _isolation_verdicts(families):
    from bmhadamard import typeii

    out = []
    for label, case, r_sign, branch, rows, cols in families:
        dense, desc = permuted_dense(case, r_sign, branch, rows, cols)
        want = ISOLATION_ORACLE[(case, r_sign, branch)]

        def check(result, want=want):
            return None if tuple(result) == want else \
                f"returned {result!r}, want {want!r}"

        out.append((f"isolation.{label}",
                    lambda dense=dense, desc=desc:
                        typeii.span_condition(dense, desc, return_rank=True),
                    check))
    return out


def _certify_verdicts(order, out_dir):
    from bmhadamard import cli

    out_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for suite in order:
        path = out_dir / f"{suite}.json"
        golden = (GOLDEN_DIR / f"{suite}.json").read_bytes()

        def call(suite=suite, path=path):
            path.unlink(missing_ok=True)
            return cli.main(["report", "--suite", suite, "--q", "4",
                             "--out", str(path)])

        def check(code, path=path, golden=golden):
            if code != 0:
                return f"exit code {code}"
            if not path.exists():
                return "no report written"
            if path.read_bytes() != golden:
                return "report bytes differ from the golden report"
            return None

        out.append((f"certify_q4.{suite}", call, check))
    return out
