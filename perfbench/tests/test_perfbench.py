"""Tests of the benchmark itself: tracer, input generator, checker, metric lists."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

import qwl.cli  # noqa: E402
from qwl import limits  # noqa: E402


def _bindings():
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "qwl" or name.startswith("qwl.")}
    out = {(name, attr): id(obj) for name, mod in mods.items() for attr, obj in vars(mod).items()}
    out.update({("Atom", attr): id(obj) for attr, obj in vars(limits.Atom).items()})
    return out


def test_tracer_restores_every_binding(tmp_path):
    before = _bindings()
    tr = tracer.Tracer("t0")
    tr.install()
    try:
        assert _bindings() != before
        code = qwl.cli.main(["converge", "--walk", "cycle:4", "--protocol", "strauch",
                             "--m-list", "8,16", "--out", str(tmp_path / "r.csv")])
    finally:
        tr.uninstall()
    assert code == 0
    assert _bindings() == before
    names = {span[3] for span in tr.spans}
    assert {"cli.main", "limits.Atom.init", "limits.effective_hamiltonian",
            "linalg.expm_hermitian", "walks.shift_matrix"} <= names
    roots = [span for span in tr.spans if span[2] is None]
    assert [span[3] for span in roots] == ["cli.main"]
    metrics = tracer.layer_metrics(tr.spans)
    assert metrics["limits.single_step_error.calls"] == 2
    assert 0 < metrics["limits.hamiltonian_reuse"] <= 1
    total_self = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    root = roots[0]
    assert abs(total_self - (root[5] - root[4]) / 1e9) < 1e-6


def test_self_time_subtracts_children():
    spans = [("a", 1, 0, "linalg.frob", 20, 50, None),
             ("a", 0, None, "cli.main", 0, 100, None),
             ("b", 0, None, "cli.main", 0, 10, None)]
    assert tracer.self_times(spans) == {("a", 1): 30e-9, ("a", 0): 70e-9, ("b", 0): 10e-9}


def test_generator_is_deterministic(tmp_path):
    a, meta_a = inputs.write_inputs(7, tmp_path / "a")
    b, meta_b = inputs.write_inputs(7, tmp_path / "b")
    c, _ = inputs.write_inputs(8, tmp_path / "c")
    assert sorted(a) == sorted(b)
    assert all(a[name].read_bytes() == b[name].read_bytes() for name in a)
    assert meta_a == meta_b
    assert a["composite_cycle32.json"].read_bytes() != c["composite_cycle32.json"].read_bytes()


def test_checker_rejects_wrong_dimension_and_verdict():
    assert checks.expect_closure(136)({"dimension": 136}) == []
    assert checks.expect_closure(136)({"dimension": 135})
    good = {"simulable": True, "closure_dimension": 61, "residual": 1e-16}
    assert checks.expect_simulable(True, 61)(good) == []
    assert checks.expect_simulable(True, 61)(dict(good, simulable=False))
    assert checks.expect_simulable(True, 61)(dict(good, closure_dimension=60))


def test_checker_tolerates_last_digit_changes():
    ref = checks.REFERENCE["strauch_cycle64"]
    rep = {"fitted_exponent": ref["fitted_exponent"],
           "samples": [{"m": s["m"], "single_step_error": s["single_step_error"] * (1 + 1e-12),
                        "repeated_error": s["repeated_error"]} for s in ref["samples"]]}
    check = checks.expect_converge(1.0, 0.15, ref["samples"])
    assert check(rep) == []
    rep["samples"][0]["repeated_error"] *= 1.001
    assert check(rep)


def test_times_are_scaled_to_the_reference_probe_time():
    # Each report is scaled by the probe run right after it: a host 1.5 times
    # slower (second report) scales set-up and probe alike and leaves its
    # scaled set-up unchanged; its CPU time is scaled by 1.5**PASS_ELASTICITY.
    ref = run.PROBE_REF_S
    reports = [{"kind": "closure", "setup_cpu_s": 1.5 * ref * f, "setup_wall_s": 0.0,
                "probe_s": ref * f, "cpu_s": 2.0 * f, "duration_s": 2.0 * f} for f in (1.0, 1.5)]
    passes = [{"reports": reports, "pass_s": 5.0, "pass_cpu_s": 5.0, "peak_rss_mb": 60.0,
               "closure_s": 5.0}]
    e2e = run.end_to_end(passes, {"closure"}, 0, 2)
    assert abs(e2e["setup_s"][0] - 1.5 * ref) < 1e-12
    assert abs(e2e["pass_ref_s"][0] - (2.0 + 3.0 / 1.5 ** run.PASS_ELASTICITY)) < 1e-12
    assert abs(e2e["probe_s"][0] - 1.25 * ref) < 1e-12 and e2e["probe_s"][1:3] == ("s", 2)
    assert set(run.E2E) <= set(e2e)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.E2E.values())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [run.layer_unit(n) for n in run.PER_LAYER]
