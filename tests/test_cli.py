import json
from pathlib import Path

import pytest

from bmhadamard import cli, identities, nomura
from bmhadamard.cli import main
from bmhadamard.exactfield import TowerElement
from bmhadamard.identities import CASES, ViolationFound, scan_nonvanishing
from bmhadamard.ratfunc import RF_DESC
from bmhadamard.serialize import decode_element
from bmhadamard.typeii import RankUndecided

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_construct_dense_chan1(tmp_path):
    out = tmp_path / "chan1.json"
    code = main(["construct", "--case", "iv", "--q", "4",
                 "--branch", "+", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "dense_matrix" and data["n"] == 15
    # entries lie in the quadratic field with radicand -15
    w2 = decode_element(data["weights"][2])
    assert w2.desc.levels[0] == -15
    assert data["format"] == "bmhadamard/1"


def test_construct_case_vi_depth_two(capsys):
    code, data = run_json(capsys, "construct", "--case", "vi", "--q", "4",
                          "--r-sign", "+")
    assert code == 0
    assert len(data["tower"]) == 2  # depth-2 tower over sqrt(201)


def test_construct_weights_only_at_q10(capsys):
    code, data = run_json(capsys, "construct", "--case", "i", "--q", "10",
                          "--weights-only")
    assert code == 0
    assert data["kind"] == "weight_family"
    assert data["q"] == "10"


def test_construct_dense_fails_off_q4(capsys):
    for flags in (["--dense"], ["--format", "csv"]):
        code = main(["construct", "--case", "i", "--q", "10", *flags])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert f"no concrete scheme at q = 10; {' '.join(flags)} needs" in err


@pytest.mark.parametrize("flags", [["--dense"], ["--format", "csv"]])
def test_construct_weights_only_conflict_is_a_usage_error(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--case", "iv", "--q", "4", "--weights-only",
              *flags])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"--weights-only cannot be combined with {' '.join(flags)}" in err


def test_construct_csv(tmp_path):
    out = tmp_path / "m.csv"
    code = main(["construct", "--case", "v", "--q", "4", "--format", "csv",
                 "--precision", "15", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 15


def test_construct_csv_matches_the_golden_matrix(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["construct", "--case", "v", "--q", "4", "--format", "csv",
                 "--out", str(out)]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "construct_v_q4.csv"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("command, flag", [("construct", "--dense"),
                                           ("verify", "--span")])
def test_dense_request_off_q4_refuses_before_any_work(capsys, monkeypatch,
                                                      command, flag):
    monkeypatch.setattr(cli, "family_coefficients", None)  # a call fails
    code = main([command, "--case", "i", "--q", "6", flag])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "no concrete scheme at q = 6" in err


def test_verify_case_iv(capsys):
    code, data = run_json(capsys, "verify", "--case", "iv", "--q", "4")
    assert code == 0
    assert data["type_ii"] and data["hadamard"] and data["dense_identity"]
    assert data["non_butson_witness"]["pair"] == [0, 2]


def test_verify_case_i(capsys):
    code, data = run_json(capsys, "verify", "--case", "i", "--q", "4")
    assert code == 0
    assert data["type_ii"] and not data["hadamard"]
    assert data["non_butson_witness"] is None


def test_verify_case_vi_negative_sign(capsys):
    code, data = run_json(capsys, "verify", "--case", "vi", "--q", "4",
                          "--r-sign", "-")
    assert code == 0
    assert data["type_ii"] and not data["hadamard"]


def test_verify_span_smoke(capsys):
    code, data = run_json(capsys, "verify", "--case", "iv", "--q", "4",
                          "--span")
    assert code == 0
    assert data["isolated"] and data["span_rank"] == 196


def test_report_scheme_suite(capsys):
    code, data = run_json(capsys, "report", "--suite", "scheme")
    assert code == 0
    assert data["passed"]
    ids = [c["check_id"] for c in data["checks"]]
    assert ids == sorted(ids)
    assert "scheme.axioms" in ids


def test_report_pretty_lists_every_record_on_stderr(capsys):
    assert main(["report", "--suite", "families"]) == 0
    plain = capsys.readouterr().out
    assert main(["report", "--suite", "families", "--pretty"]) == 0
    out, err = capsys.readouterr()
    assert out == plain
    ids = [c["check_id"] for c in json.loads(out)["checks"]]
    assert err.splitlines() == [f"PASS  {i}" for i in ids]


def test_wrong_fusion_table_fails_only_its_check(capsys, monkeypatch):
    # a wrong claimed table is a failed record, not a traceback: f13's
    # eigenmatrix is no certificate for the {R1 u R2}, {R3} fusion
    monkeypatch.setattr(cli, "fused_eigenmatrix_12",
                        cli.fused_eigenmatrix_13)
    code, data = run_json(capsys, "report", "--suite", "scheme")
    failed = {c["check_id"] for c in data["checks"] if not c["status"]}
    assert code == 2 and not data["passed"]
    assert failed == {"scheme.fusion_eigenmatrices"}


def test_report_deterministic_output(capsys):
    code1, _ = run_json(capsys, "report", "--suite", "appendixB")
    text1 = None
    code1 = main(["report", "--suite", "appendixB"])
    text1 = capsys.readouterr().out
    code2 = main(["report", "--suite", "appendixB"])
    text2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert text1 == text2


def test_report_appendix_b_range(capsys):
    code, data = run_json(capsys, "report", "--suite", "appendixB",
                          "--range", "-3..3")
    assert code == 0
    qcheck = next(c for c in data["checks"] if c["check_id"] == "pell.q_values")
    assert len(qcheck["witness"]) == 7


def test_unexpected_exception_is_a_failed_record(capsys, monkeypatch):
    # a bug inside a suite ends neither the report nor the process in a
    # traceback: the suite gives one failed record, and the exit code is 1
    def broken(expr, case, q_set):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "scan_nonvanishing", broken)
    code, data = run_json(capsys, "report", "--suite", "sweeps",
                          "--sweep-bound", "6")
    assert code == 1 and not data["passed"]
    assert data["checks"] == [{
        "check_id": "sweeps.unexpected_error", "status": False,
        "witness": "ZeroDivisionError: division by zero"}]


def test_report_sweeps_small_bound(capsys):
    code, data = run_json(capsys, "report", "--suite", "sweeps",
                          "--sweep-bound", "8")
    assert code == 0 and data["passed"]
    rec = data["checks"][0]
    assert rec["q_range"] == [4, 8]


def test_report_sweeps_default_bound(capsys, monkeypatch):
    # without --sweep-bound the sweeps run to q = 200; a stub scan keeps
    # the test fast and records the q values it was handed
    seen = []
    monkeypatch.setattr(cli, "scan_nonvanishing",
                        lambda expr, case, q_set: seen.append(list(q_set)))
    code, data = run_json(capsys, "report", "--suite", "sweeps")
    assert code == 0 and data["passed"]
    assert data["sweep_bound"] == 200
    assert all(c["q_range"] == [4, 200] for c in data["checks"])
    assert len(seen) == 18
    assert all(qs == list(range(4, 201, 2)) for qs in seen)


def test_report_section5_off_q4(capsys):
    code, data = run_json(capsys, "report", "--suite", "section5", "--q", "6")
    assert code == 0 and data["passed"]
    assert len(data["checks"]) == 11


def test_report_isolation_off_q4_is_a_usage_error(capsys):
    code = main(["report", "--suite", "isolation", "--q", "8"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "no concrete scheme at q = 8" in err


def test_report_section6_off_q4_is_a_usage_error(capsys):
    code = main(["report", "--suite", "section6", "--q", "6"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "no concrete scheme at q = 6" in err


@pytest.mark.parametrize("q", ["8", "6"])
def test_report_scheme_off_q4_is_a_usage_error(capsys, q):
    # the scheme suite checks the concrete q = 4 scheme only
    code = main(["report", "--suite", "scheme", "--q", q])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert f"no concrete scheme at q = {q}" in err


@pytest.mark.parametrize("suite", ["identities", "families", "scheme",
                                   "section5", "section6", "appendixB"])
def test_report_bytes_match_the_golden_report(tmp_path, suite):
    out = tmp_path / f"{suite}.json"
    assert main(["report", "--suite", suite, "--q", "4",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{suite}.json").read_bytes()


def test_section6_builds_one_jones_graph_per_family(monkeypatch):
    # the structure replay of iv and vi r+ reuses the graph that the
    # component count built and searched: 7 graphs for 7 families
    built = []
    init = nomura.JonesGraph.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(nomura.JonesGraph, "__init__", counting_init)
    checks = cli.suite_section6(q=4)
    assert len(built) == 7
    assert_section6_golden(checks)


def assert_section6_golden(checks):
    golden = json.loads((GOLDEN / "section6.json").read_text())["checks"]
    assert sorted([c, ok, w] for c, ok, w in checks) == \
        sorted([r["check_id"], r["status"], r.get("witness")] for r in golden)


def test_section6_evaluates_the_symmetry_functional_once_per_family(
        monkeypatch):
    # the nomura.symmetric record is component_report's own check
    calls = []
    honest = nomura.check_symmetric

    def counting(family):
        calls.append(family)
        return honest(family)

    monkeypatch.setattr(nomura, "check_symmetric", counting)
    checks = cli.suite_section6(q=4)
    assert len(calls) == 7
    assert_section6_golden(checks)


def test_section6_records_a_vanished_symmetry_functional(monkeypatch):
    monkeypatch.setattr(nomura, "check_symmetric",
                        lambda family: family.case != "iv")
    checks = {c: (ok, w) for c, ok, w in cli.suite_section6(q=4)}
    assert checks["nomura.symmetric.case_iv"] == (False, None)
    ok, witness = checks["nomura.dimension.case_iv"]
    assert not ok and "symmetry functional vanished" in witness
    assert checks["nomura.symmetric.case_v"] == (True, None)
    assert checks["nomura.dimension.case_v"][0]


def test_report_sweeps_bound_below_4_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--suite", "sweeps", "--sweep-bound", "3"])
    assert exc.value.code == 2
    assert "the sweep bound must be >= 4" in capsys.readouterr().err


def test_cli_rejects_odd_q():
    with pytest.raises(SystemExit):
        main(["construct", "--case", "i", "--q", "5"])


def test_construct_negative_precision_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--case", "iv", "--format", "csv",
              "--precision", "-1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "the precision must be >= 0" in err


def test_report_reversed_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--suite", "appendixB", "--range", "2..-2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "LO <= HI" in err


def test_sweep_zero_is_a_failed_check(capsys, monkeypatch):
    # a symmetry functional that vanishes identically meets a zero at
    # every q: the scan raises, and the report records it as exit 9
    monkeypatch.setattr(identities, "ns_symbolic",
                        lambda case: [TowerElement.rational(0, RF_DESC)] * 3)
    with pytest.raises(ViolationFound, match="nomura_symmetric_k/iv"):
        scan_nonvanishing("nomura_symmetric_k", "iv", [4, 6])
    code, data = run_json(capsys, "report", "--suite", "sweeps",
                          "--sweep-bound", "6")
    failed = {c["check_id"] for c in data["checks"] if not c["status"]}
    assert code == 9 and not data["passed"]
    assert failed == {f"sweep.nomura_symmetric_k.case_{case}"
                      for case in CASES}


def undecided(dense, desc, return_rank=False):
    raise RankUndecided("no rank certificate in 2000 primes")


def test_undecided_span_rank_is_an_isolation_failure(capsys, monkeypatch):
    # a span rank left undecided is a failed isolation check (exit 10) in
    # a report, and an error line with exit 10 from verify --span
    monkeypatch.setattr(cli, "span_condition", undecided)
    code, data = run_json(capsys, "report", "--suite", "isolation")
    assert code == 10 and not data["passed"]
    assert {c["check_id"] for c in data["checks"]} == {
        "isolation.chan1", "isolation.chan2", "isolation.chan3",
        "isolation.case_vi_r_plus"}
    assert all(not c["status"] and "2000 primes" in c["witness"]
               for c in data["checks"])
    code = main(["verify", "--case", "iv", "--span"])
    out, err = capsys.readouterr()
    assert code == 10 and out == ""
    assert err == "error: no rank certificate in 2000 primes\n"


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_unexpected_exception_is_an_error_line(capsys, monkeypatch, command):
    # a bug in construct or verify ends in one error line and exit 1, the
    # class of a report's unexpected_error record, not in a traceback
    def broken(*_):
        raise RuntimeError("family builder broke")

    monkeypatch.setattr(cli, "family_coefficients", broken)
    code = main([command, "--case", "iv"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: RuntimeError: family builder broke\n"


@pytest.mark.parametrize("argv", [["construct", "--case", "iv"],
                                  ["report", "--suite", "scheme"]])
def test_unwritable_out_path_is_an_error(capsys, monkeypatch, tmp_path, argv):
    # a path under a missing directory ends in one error line and exit 2,
    # and report finds out before it runs a suite
    def never(**_):
        raise AssertionError("a suite ran before the --out check")

    monkeypatch.setitem(cli.SUITES, "scheme", never)
    path = tmp_path / "missing" / "x.json"
    code = main(argv + ["--out", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert not path.parent.exists()
