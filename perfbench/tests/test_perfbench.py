"""Tests of the benchmark itself: seeded inputs, tracer hygiene, and
that tracing changes neither the verdicts nor, for one seed, the counts.

    python3 -m pytest perfbench/tests -q      (about a minute on 2 cores)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent.parent
WORKDIR = BENCH / "out" / "tests"


@pytest.fixture
def workdir():
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    yield WORKDIR
    shutil.rmtree(WORKDIR, ignore_errors=True)


# -- seeded inputs ---------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_the_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


def test_inputs_do_not_depend_on_the_hash_seed():
    code = ("import json, workloads; print(json.dumps([workloads.make_inputs(w, 3)"
            " for w in workloads.WORKLOADS]))")
    outs = {subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                           env={**run.child_env(), "PYTHONHASHSEED": h},
                           capture_output=True, text=True, check=True).stdout
            for h in ("1", "2")}
    assert len(outs) == 1


def test_sweep_q_set():
    sets = [workloads.make_inputs("sweep", s)["q_set"] for s in range(1, 21)]
    assert len({tuple(q) for q in sets}) > 1
    for q_set in sets:
        assert len(q_set) == len(set(q_set)) == workloads.SWEEP_Q_COUNT
        assert all(q % 2 == 0 and 4 <= q <= 200 for q in q_set)


def test_isolation_permutations():
    fams = workloads.make_inputs("isolation", 1)["families"]
    assert [(f[0], tuple(f[1:4])) for f in fams] == \
        list(workloads.ISOLATION_VERDICTS)
    for *_, rows, cols in fams:
        assert sorted(rows) == sorted(cols) == list(range(15))
    assert fams != workloads.make_inputs("isolation", 2)["families"]


def test_certify_order_is_a_permutation():
    order = workloads.make_inputs("certify_q4", 1)["order"]
    assert sorted(order) == sorted(workloads.CERTIFY_SUITES)


# -- tracer hygiene ----------------------------------------------------------

def _bindings():
    """Identity of every module global, module-level dict item and
    attribute of the patched classes in the package."""
    from bmhadamard import cli, exactfield, fastfield, nomura, ratfunc, scheme

    out = {}
    for mod in tracer._package_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = id(value)
            if isinstance(value, dict) and not name.startswith("__"):
                for key, item in value.items():
                    out[(mod.__name__, name, repr(key))] = id(item)
    for cls in (exactfield.TowerElement, fastfield.FlatTower, ratfunc.RatQ,
                scheme.ParametricScheme, nomura.JonesGraph):
        for name, value in vars(cls).items():
            out[(cls.__qualname__, name)] = id(value)
    assert cli.SUITES
    return out


def test_every_binding_is_patched_and_restored():
    from bmhadamard import cli, exactfield, identities, typeii

    before = _bindings()
    orig_fc = typeii.family_coefficients
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = typeii.family_coefficients
        assert wrapped is not orig_fc and wrapped.__wrapped__ is orig_fc
        assert identities.family_coefficients is wrapped
        assert cli.family_coefficients is wrapped
        assert cli.span_condition is typeii.span_condition
        assert cli.span_condition.__wrapped__ is not None
        assert cli.SUITES["scheme"] is cli.suite_scheme
        assert hasattr(cli.SUITES["scheme"], "__wrapped__")
        te = exactfield.TowerElement
        assert te.__rmul__ is te.__mul__ and hasattr(te.__mul__, "__wrapped__")
    finally:
        t.uninstall()
    assert _bindings() == before


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _ in tracer.LAYER_METRICS] + ["trace.wall_s",
                                                      "trace.overhead_s"]
    metrics, _ = run.end_to_end([0.1], [{
        "peak_rss_mb": 1.0,
        "verdicts": [{"id": "a", "start": 0.0, "elapsed_s": 1.0}]}])
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)


# -- traced runs -------------------------------------------------------------

def _child(workdir, workload, tag, trace):
    result = workdir / f"{tag}.json"
    cmd = [sys.executable, "-s", str(BENCH / "child.py"), "--workload",
           workload, "--seed", "5", "--result", str(result)]
    if trace:
        cmd += ["--trace", str(workdir / f"{tag}.trace.json")]
    subprocess.run(cmd, cwd=BENCH.parent, env=run.child_env(), check=True)
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload", ["sweep", "certify_q4"])
def test_traced_runs_match_untraced_and_each_other(workdir, workload):
    plain = _child(workdir, workload, "plain", trace=False)
    first = _child(workdir, workload, "first", trace=True)
    second = _child(workdir, workload, "second", trace=True)

    def verdicts(out):
        return [(v["id"], v["result"], v["error"]) for v in out["verdicts"]]

    assert all(v["error"] is None for v in plain["verdicts"])
    assert verdicts(first) == verdicts(second) == verdicts(plain)
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert first["trace"]["counts"]["verdict"] == \
        workloads.verdict_count(workload)


def test_traced_isolation_verdict_and_rank_counters():
    from bmhadamard import typeii

    dense = typeii.TypeIIMatrix(typeii.family_coefficients("iv", 4, 1, 1)).dense()
    rows = list(range(15))
    verdicts = workloads.build_verdicts(
        "isolation", {"families": [["iv", "iv", 1, 1, rows[::-1], rows]]}, None)
    plain = child.run_verdicts(verdicts)
    t = tracer.Tracer()
    t.install()
    try:
        traced = child.run_verdicts(verdicts, t)
    finally:
        t.uninstall()
    assert plain[0]["result"] == traced[0]["result"] == [True, 196]
    layers = tracer.layer_metrics(t.summary())
    assert layers["fastfield.sparse_rank.rows"]["value"] == len(dense) ** 2
    assert layers["fastfield.sparse_rank.pivot_yield"]["value"] == 196 / 225
    assert layers["exactfield.complex_conj.count"]["value"] == 225


def test_run_refuses_a_directory_without_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "sweep", "--seed", "1", "--seconds", "1"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
