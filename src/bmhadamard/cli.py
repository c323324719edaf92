"""Command-line front end: construct matrices, verify claims, replay suites.

Three subcommands:

  construct   write one family (dense where ``scheme.concrete_scheme``
              builds a scheme, weights otherwise)
  verify      certificate report for one family (type-II / Hadamard /
              non-Butson witness, optionally the isolation test)
  report      run a named verification suite and emit a pass/fail matrix

Output is deterministic JSON (sorted keys, canonical element encoding);
identical configurations produce byte-identical bytes.  The exit code is
0 only when everything requested passed; otherwise it encodes the class
of the first failing check.  An unexpected exception inside a report
suite becomes one failed ``<suite>.unexpected_error`` record, with the
exception's type and message as its witness, and exit code 1.  An
``--out`` path that cannot be written is one ``error:`` line and exit 2.
Any other unexpected exception, in ``construct`` or ``verify``, is one
``error: <Type>: <message>`` line on stderr and exit 1, the class of a
report's ``<suite>.unexpected_error``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import invariants, nomura, pell, serialize
from .exactfield import TowerElement
from .identities import (
    CASES,
    DEFAULT_SWEEP_BOUND,
    even_q_range,
    scan_nonvanishing,
    verify_converse,
    verify_core_identities,
    ViolationFound,
)
from .ratfunc import ratfunc_specialize
from .scheme import (
    NoConcreteScheme,
    NotAnEigenmatrix,
    concrete_scheme,
    distance_matrix,
    fused_eigenmatrix_12,
    fused_eigenmatrix_13,
    parametric_scheme,
)
from .typeii import (
    NoWitness,
    RankUndecided,
    TypeIIMatrix,
    all_families,
    case_a_symbolic,
    family_coefficients,
    is_hadamard,
    is_type_ii,
    non_butson_witness,
    normalize_case,
    span_condition,
)


EXIT_CLASSES = {
    "scheme": 2,
    "typeii": 3,
    "hadamard": 4,
    "identities": 5,
    "haagerup": 6,
    "nomura": 7,
    "pell": 8,
    "sweep": 9,
    "isolation": 10,
}


def _exit_code_for(check_id):
    return EXIT_CLASSES.get(check_id.split(".", 1)[0], 1)


def _sign(text):
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError("expected + or -")


def _even_q(text):
    q = int(text)
    if q < 4 or q % 2:
        raise argparse.ArgumentTypeError("q must be an even integer >= 4")
    return q


def _sweep_bound(text):
    bound = int(text)
    if bound < 4:
        raise argparse.ArgumentTypeError("the sweep bound must be >= 4")
    return bound


def _n_range(text):
    lo, _, hi = text.partition("..")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise argparse.ArgumentTypeError("the range LO..HI needs LO <= HI")
    return lo, hi


def _precision(text):
    digits = int(text)
    if digits < 0:
        raise argparse.ArgumentTypeError("the precision must be >= 0")
    return digits


def _write_out(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# construct

def cmd_construct(args):
    flag = "--dense" if args.dense else "--format csv"
    if args.dense or args.format == "csv":
        concrete_scheme(args.q, f"{flag} needs the dense matrix")
    fam = family_coefficients(args.case, args.q, args.r_sign, args.branch)
    try:  # dense by default wherever a concrete scheme exists
        mat = None if args.weights_only else TypeIIMatrix(fam)
    except NoConcreteScheme:
        mat = None
    if args.format == "csv":
        text = serialize.complex_csv(mat.dense(), args.precision)
    else:
        text = serialize.dump_json(serialize.family_payload(fam) if mat is None
                                   else serialize.matrix_payload(mat))
    _write_out(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args):
    if args.span:
        concrete_scheme(args.q, "the span test needs the dense matrix")
    fam = family_coefficients(args.case, args.q, args.r_sign, args.branch)
    t2, t2_cert = is_type_ii(fam)
    report = {
        "format": serialize.FORMAT_VERSION,
        "kind": "verification",
        "case": fam.case,
        "q": str(fam.q),
        "branch": fam.branch,
        "r_sign": fam.r_sign if fam.case == "vi" else None,
        "type_ii": t2,
        "dense_identity": t2_cert.get("dense_identity"),
    }
    had, had_cert = is_hadamard(fam)
    report["hadamard"] = had
    report["hadamard_certificate"] = {
        "a_all_real": had_cert["a_all_real"],
        "unit_modulus_exact": had_cert["unit_modulus_exact"],
        "interval_criterion": had_cert["interval/criterion"],
    }
    try:
        pair, witness, reason = non_butson_witness(fam)
        report["non_butson_witness"] = {
            "pair": list(pair),
            "value": serialize.encode_element(witness),
            "reason": reason,
        }
    except NoWitness:
        report["non_butson_witness"] = None
    if args.span:
        iso, rank = span_condition(TypeIIMatrix(fam).dense(), fam.desc,
                                   return_rank=True)
        report["isolated"] = iso
        report["span_rank"] = rank
    _write_out(serialize.dump_json(report), args.out)
    if not t2:
        return EXIT_CLASSES["typeii"]
    return 0


# ---------------------------------------------------------------------------
# report suites

def _chan_reference_weights():
    """The published q=4 coefficient triples, in their own towers."""
    from .exactfield import QQ, adjoin_radical

    d15, s15 = adjoin_radical(QQ, -15)
    d11, s11 = adjoin_radical(QQ, -11)
    one15 = TowerElement.rational(1, d15)
    one11 = TowerElement.rational(1, d11)
    return {
        ("iv", 1): (one15, (-7 * one15 + s15) / 8, one15),
        ("iv", -1): (one15, (-7 * one15 - s15) / 8, one15),
        ("iii", 1): ((5 * one11 + s11) / 6, -one11, (5 * one11 + s11) / 6),
        ("iii", -1): ((5 * one11 - s11) / 6, -one11, (5 * one11 - s11) / 6),
        ("v", 1): ((-one15 + s15) / 4, ((-one15 + s15) / 4).inverse(), one15),
        ("v", -1): ((-one15 - s15) / 4, ((-one15 - s15) / 4).inverse(), one15),
    }


def _certified(scheme, P):
    """The scheme's spectral data if ``P`` passes its certificate, else None."""
    try:
        return scheme.eigen_data(P)
    except NotAnEigenmatrix:
        return None


def suite_scheme(q=4, **_):
    checks = []
    scheme = concrete_scheme(q)
    rep = scheme.verify_axioms()
    checks.append(("scheme.axioms", rep.passed, None))
    dm = distance_matrix(scheme.adjacency_matrix(1))
    checks.append(("scheme.distance_identity",
                   tuple(map(tuple, dm)) == scheme.rel, None))
    ps = parametric_scheme()
    table_ok = ps.p_at(q) == tuple(tuple(map(tuple, layer))
                                   for layer in scheme.p)
    checks.append(("scheme.intersection_table_q4", table_ok, None))
    data = _certified(scheme, ps.eigenmatrix_at(q))
    checks.append(("scheme.eigenmatrix_q4", data is not None, None))
    fusions_ok = all(
        _certified(scheme.fuse(blocks),
                   [[e(q) for e in row] for row in table()]) is not None
        for blocks, table in (([{0}, {1, 2}, {3}], fused_eigenmatrix_12),
                              ([{0}, {1, 3}, {2}], fused_eigenmatrix_13)))
    checks.append(("scheme.fusion_eigenmatrices", fusions_ok, None))
    qrow = data is not None and all(
        sum(row[1:]) == (scheme.n - 1 if i == 0 else -1)
        for i, row in enumerate(data.Q))
    checks.append(("scheme.q_row_sums", qrow, None))
    checks.append(("scheme.parametric_consistency",
                   ps.verify_consistency(), None))
    return checks


def suite_families(q=4, **_):
    checks = []
    refs = _chan_reference_weights()
    for fam in all_families(q):
        label = fam.label().replace(",", ".").replace("=", "_")
        t2, cert = is_type_ii(fam)
        checks.append((f"typeii.{label}", t2, None))
        if "dense_identity" in cert:
            checks.append((f"typeii.dense.{label}", cert["dense_identity"],
                           None))
        had, had_cert = is_hadamard(fam)
        want_had = fam.case in ("iii", "iv", "v") or \
            (fam.case == "vi" and fam.r_sign > 0)
        checks.append((f"hadamard.verdict.{label}", had == want_had, None))
        if had:
            checks.append((f"hadamard.unimodular_guard.{label}",
                           had_cert["numeric_guard_1e-12"], None))
        key = (fam.case, fam.branch)
        if q == 4 and key in refs:
            ok = tuple(fam.weights[1:]) == tuple(refs[key])
            checks.append((f"typeii.known_coefficients.{label}", ok, None))
    if q == 4:
        fam6 = family_coefficients("vi", 4, 1, 1)
        a01 = fam6.a_matrix()[0][1]
        want = ratfunc_specialize(case_a_symbolic("vi")[0], 4, fam6.r_value)
        checks.append(("typeii.known_coefficients.case_vi_a01",
                       a01 == want.lift(fam6.desc), None))
        for case in ("iii", "iv", "v", "vi"):
            fam = family_coefficients(case, 4, 1, 1)
            try:
                _, w, reason = non_butson_witness(fam)
                checks.append((f"typeii.non_butson.case_{case}", True, reason))
            except NoWitness as exc:
                checks.append((f"typeii.non_butson.case_{case}", False,
                               str(exc)))
    return checks


def suite_identities(**_):
    checks = []
    for name, ok in verify_core_identities().items():
        checks.append((f"identities.{name}", ok, None))
    for case in CASES:
        checks.append((f"identities.converse.case_{case}",
                       verify_converse(case), None))
    return checks


def suite_section5(q=4, **_):
    checks = []
    formulas = {}
    for fam in all_families(q):
        fo = invariants.haagerup_formula(fam)
        formulas.setdefault((fam.case, fam.r_sign), fo)
        try:
            mat = TypeIIMatrix(fam)
        except NoConcreteScheme:  # the brute force needs the dense matrix
            continue
        bf = invariants.haagerup_bruteforce(mat)
        same = [e.coefficients() for e in bf.h_set] == \
               [e.coefficients() for e in fo.h_set]
        label = fam.label().replace(",", ".").replace("=", "_")
        checks.append((f"haagerup.formula_equals_bruteforce.{label}",
                       same, None))
    for case in CASES:
        mono = invariants.monomial_h_set(case, q)
        checks.append((f"haagerup.table_row.case_{case}",
                       mono == invariants.table_one_row(case), None))
    keys = [invariants.k_set_keys(formulas[case, 1]) for case in CASES]
    distinct = all(a != b for i, a in enumerate(keys) for b in keys[i + 1:])
    checks.append(("haagerup.k_pairwise_distinct", distinct, None))
    checks.append(("haagerup.k_interval_r_plus",
                   invariants.k_in_interval(formulas[("vi", 1)]), None))
    checks.append(("haagerup.k_interval_r_minus_violated",
                   not invariants.k_in_interval(formulas[("vi", -1)]), None))
    for case in ("i", "ii"):
        try:
            rep = invariants.check_inverse_inequivalence(case, q)
            ok = rep["inequivalent_to_entrywise_inverse"]
        except invariants.HypothesisFail:
            ok = False
        checks.append((f"haagerup.inverse_inequivalence.case_{case}", ok, None))
    return checks


def suite_section6(q=4, **_):
    checks = []
    graphs = {}
    for fam in all_families(q, branches=(1,)):
        label = f"case_{fam.case}" + ("" if fam.case != "vi" else
                                      f".r_{'+' if fam.r_sign > 0 else '-'}")
        mat = TypeIIMatrix(fam)
        graph = nomura.jones_graph_for(mat)
        graphs[fam.case, fam.r_sign] = mat, graph
        try:  # the symmetry record is component_report's own check
            rep = nomura.component_report(mat, graph)
            sym, dim = True, (rep["dim_N"] == 2, rep["component_sizes"])
        except nomura.NotSymmetricAlgebra as exc:
            sym, dim = False, (False, str(exc))
        checks.append((f"nomura.symmetric.{label}", sym, None))
        checks.append((f"nomura.dimension.{label}", *dim))
    for case, rs in (("iv", 1), ("vi", 1)):
        try:
            nomura.jones_structure_report(*graphs[case, rs])
            ok = True
        except nomura.StepFailed:
            ok = False
        checks.append((f"nomura.structure.case_{case}", ok, None))
    return checks


def suite_isolation(q=4, **_):
    checks = []
    expectations = [("iv", 1, 1, True, "chan1"),
                    ("iii", 1, 1, False, "chan2"),
                    ("v", 1, 1, False, "chan3"),
                    ("vi", 1, 1, True, "case_vi_r_plus")]
    for case, rs, br, want, name in expectations:
        fam = family_coefficients(case, q, rs, br)
        try:
            iso, rank = span_condition(TypeIIMatrix(fam).dense(), fam.desc,
                                       return_rank=True)
            checks.append((f"isolation.{name}", iso == want, rank))
        except RankUndecided as exc:
            checks.append((f"isolation.{name}", False, str(exc)))
    return checks


def suite_appendix_b(n_range=(-2, 2), **_):
    checks = []
    sols = pell.base_solutions(pell.PROBLEM_17_64)
    checks.append(("pell.base_solutions", sols == [(8, 0), (9, 1), (26, 6)],
                   sols))
    qs = pell.integral_r_q_values(*n_range)
    want = [41210, 10, 26, 110890, 482812730]
    ok = qs == want if n_range == (-2, 2) else all(
        pell.is_r_integer(x) is not None for x in qs)
    checks.append(("pell.q_values", ok, qs))
    checks.append(("pell.q4_excluded", pell.is_r_integer(4) is None, None))
    try:
        count = pell.descent_oracle(pell.PROBLEM_17_64, 10 ** 6)
        checks.append(("pell.descent_oracle", True, count))
    except AssertionError as exc:
        checks.append(("pell.descent_oracle", False, str(exc)))
    cong = pell.orbit_congruences()
    checks.append(("pell.congruences", all(cong.values()), None))
    checks.append(("pell.chain_identity",
                   pell.pell_chain_identity().is_zero(), None))
    return checks


def suite_sweeps(bound, **_):
    checks = []
    qr = even_q_range(bound)
    rng = [qr[0], qr[-1]]
    for expr in ("nomura_symmetric_k", "jones_adjacency", "jones_component"):
        for case in CASES:
            try:
                scan_nonvanishing(expr, case, qr)
                ok, witness = True, None
            except ViolationFound as exc:
                ok, witness = False, str(exc)
            checks.append((f"sweep.{expr}.case_{case}", ok, witness, rng))
    return checks


SUITES = {
    "scheme": suite_scheme,
    "families": suite_families,
    "identities": suite_identities,
    "section5": suite_section5,
    "section6": suite_section6,
    "isolation": suite_isolation,
    "appendixB": suite_appendix_b,
    "sweeps": suite_sweeps,
}
SUITE_ORDER = ["scheme", "identities", "families", "section5", "section6",
               "appendixB", "sweeps", "isolation"]
# suites that need the concrete scheme (``scheme.concrete_scheme``, which
# decides at which q it exists): scheme checks its axioms and tables,
# section6 and isolation run on its dense matrices
CONCRETE_SCHEME_SUITES = ("scheme", "section6", "isolation")


def cmd_report(args):
    names = SUITE_ORDER if args.suite == "all" else [args.suite]
    concrete = [name for name in names if name in CONCRETE_SCHEME_SUITES]
    if concrete:
        needs = "suite needs" if len(concrete) == 1 else "suites need"
        concrete_scheme(args.q, f"the {', '.join(concrete)} {needs} "
                                "the concrete scheme")
    if args.out:  # an unwritable path fails before the suites run
        open(args.out, "a").close()
    bound = args.sweep_bound
    if bound is None and "sweeps" in names:
        bound = DEFAULT_SWEEP_BOUND
    records, unexpected = [], False
    for name in names:
        try:
            items = SUITES[name](q=args.q, n_range=args.range, bound=bound)
        except Exception as exc:  # a bug, not a verdict: one failed record
            unexpected = True
            items = [(f"{name}.unexpected_error", False,
                      f"{type(exc).__name__}: {exc}")]
        for item in items:
            check_id, status, witness = item[0], item[1], item[2]
            q_range = item[3] if len(item) > 3 else None
            records.append(serialize.check_record(
                check_id, status,
                witness=_jsonable(witness), q_range=q_range))
    records.sort(key=lambda r: r["check_id"])
    passed = all(r["status"] for r in records)
    payload = {
        "format": serialize.FORMAT_VERSION,
        "kind": "report",
        "suite": args.suite,
        "q": args.q,
        "sweep_bound": bound,
        "checks": records,
        "passed": passed,
    }
    _write_out(serialize.dump_json(payload), args.out)
    if args.pretty:
        for r in records:
            mark = "PASS" if r["status"] else "FAIL"
            sys.stderr.write(f"{mark}  {r['check_id']}\n")
    if passed:
        return 0
    if unexpected:
        return 1
    first = next(r for r in records if not r["status"])
    return _exit_code_for(first["check_id"])


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="bmhadamard",
        description="exact type-II / complex Hadamard matrices in a "
                    "3-class Bose-Mesner algebra")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write one family to a file")
    p.add_argument("--case", required=True, type=normalize_case)
    p.add_argument("--q", type=_even_q, default=4)
    p.add_argument("--branch", type=_sign, default=1)
    p.add_argument("--r-sign", dest="r_sign", type=_sign, default=1)
    p.add_argument("--weights-only", action="store_true")
    p.add_argument("--dense", action="store_true",
                   help="require the dense matrix (q = 4 only)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--precision", type=_precision, default=30)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="certificates for one family")
    p.add_argument("--case", required=True, type=normalize_case)
    p.add_argument("--q", type=_even_q, default=4)
    p.add_argument("--branch", type=_sign, default=1)
    p.add_argument("--r-sign", dest="r_sign", type=_sign, default=1)
    p.add_argument("--span", action="store_true",
                   help="also run the isolation test (q = 4)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="run a verification suite")
    p.add_argument("--suite", choices=list(SUITES) + ["all"], required=True)
    p.add_argument("--q", type=_even_q, default=4)
    p.add_argument("--range", type=_n_range, default=(-2, 2),
                   help="unit-power range for the appendixB suite, LO..HI")
    p.add_argument("--sweep-bound", type=_sweep_bound, default=None)
    p.add_argument("--pretty", action="store_true",
                   help="also print one PASS/FAIL line per check to stderr")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)
    return parser


def _merge_negative_range(argv):
    """Let ``--range -3..3`` parse (argparse reads -3..3 as an option)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--range" and i + 1 < len(argv) and ".." in argv[i + 1]:
            out.append(f"--range={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_negative_range(list(argv)))
    if args.command == "construct" and args.weights_only and \
            (args.dense or args.format == "csv"):
        flag = "--dense" if args.dense else "--format csv"
        parser.error(f"--weights-only cannot be combined with {flag}")
    try:
        return args.fn(args)
    except NoConcreteScheme as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:  # the one file a command opens is --out
        sys.stderr.write(f"error: cannot write {args.out or 'stdout'}: "
                         f"{exc.strerror or exc}\n")
        return 2
    except RankUndecided as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CLASSES["isolation"]
    except Exception as exc:  # a bug, not a verdict, as in cmd_report
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
