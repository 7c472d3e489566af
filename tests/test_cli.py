"""Command-line surface: specs, report formats, determinism, exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwl import cli, graphs, limits, walks
from qwl.errors import BadSpec, DimMismatch, NotScalarAtZero, QwlError
from qwl.rng import seeded_state
from walk_cases import (
    CYCLE8_CHORDS,
    relabelled_cycle,
    relabelled_cycle_json,
    relabelled_json,
    repeated_target_json,
    turn_or_flip_cycle_json,
    two_triangles,
)


def run(args, out=None):
    argv = list(args)
    if out is not None:
        argv += ["--out", str(out)]
    return cli.main(argv)


def matrix_json(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def test_resolve_walk_specs():
    assert cli.resolve_walk("cycle:6").walker_dim == 6
    assert cli.resolve_walk("lattice:3,2").dim == 36
    assert cli.resolve_walk("example").coin_dim == 3
    for bad in ("cycle:x", "lattice:3", "ring:4", ""):
        with pytest.raises(BadSpec):
            cli.resolve_walk(bad)


def _one_way_c4_json():
    """A two-coin walk on the 4-cycle whose coin 1 does not undo coin 0: both send 0 to 1."""
    return {"graph": graphs.graph_to_json(graphs.cycle_graph(4)), "coin_dim": 2,
            "moves": [[1, 2, 3, 0], [1, 0, 3, 2]]}


def test_strauch_requires_cycle_and_evencyc_takes_any_walk():
    # strauch needs two coins whose moves undo each other; the atom's own checks decide
    with pytest.raises(DimMismatch):
        cli.resolve_protocol("strauch", walks.example_walk())
    with pytest.raises(NotScalarAtZero):
        cli.resolve_protocol("strauch", walks.walk_from_json(_one_way_c4_json()))
    for w in (relabelled_cycle(), walks.walk_from_json(_coprime_cycles_json([3, 3]))):
        assert cli.resolve_protocol("strauch", w).phase == pytest.approx(-1.0)
    for w in (walks.cycle_walk(5), walks.lattice_walk(4, 2), walks.example_walk(),
              relabelled_cycle()):
        p = cli.resolve_protocol("evencyc", w)
        assert len(p.steps) == walks.shift_order(w)


def test_strauch_on_a_relabelled_cycle_is_the_r_coin_atom(tmp_path):
    walk = tmp_path / "walk.json"
    walk.write_text(json.dumps(relabelled_cycle_json()))
    atom = tmp_path / "atom.json"
    step = {"coin": matrix_json(limits.R_COIN), "generator": matrix_json(1j * limits.D_COIN)}
    atom.write_text(json.dumps({"kind": "atom", "steps": [step, step]}))
    texts = []
    for proto in ("strauch", f"file:{atom}"):
        out = tmp_path / "conv.json"
        assert run(["converge", "--walk", f"file:{walk}", "--protocol", proto,
                    "--m-list", "32,64,128", "--format", "json"], out) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert abs(json.loads(texts[0])["fitted_exponent"] - 1) <= 0.15


def test_info_reports(tmp_path):
    out = tmp_path / "info.csv"
    assert run(["info", "--walk", "example"], out) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    data = {r[0]: r[1:] for r in rows[1:]}
    assert data["coin_dim"] == ["3"]
    assert data["shift_order"] == ["2"]
    assert data["regular_degree"] == ["3"]
    spectra = [(float(r[1]), int(r[2])) for r in rows if r[0] == "spectrum"]
    assert spectra == [(3.0, 1), (-1.0, 3)]

    out2 = tmp_path / "info.json"
    assert run(["info", "--walk", "cycle:8", "--format", "json"], out2) == 0
    rep = json.loads(out2.read_text())
    assert rep["coin_dim"] == 2 and rep["walker_dim"] == 8 and rep["shift_order"] == 8


def test_info_bad_walk_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run(["info", "--walk", "cycle:2"], out) == 2
    assert not out.exists()
    assert "n >= 3" in capsys.readouterr().err


def test_converge_report_roundtrip(tmp_path):
    out = tmp_path / "conv.csv"
    code = run(["converge", "--walk", "cycle:6", "--protocol", "strauch",
                "--m-list", "32,64,128,256"], out)
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["m", "x", "single_step_error", "repeated_error"]
    data = rows[1:-1]
    assert [int(r[0]) for r in data] == [32, 64, 128, 256]
    p = limits.strauch_protocol(6)
    for r in data:
        m = int(r[0])
        assert float(r[1]) == 1.0 / m
        _, expected = limits.repeated_limit(p, 1.0, 1.0, m)
        assert float(r[3]) == expected  # 17 significant digits round-trip exactly
    assert rows[-1][0] == "fitted_exponent"
    assert 0.9 <= float(rows[-1][1]) <= 1.1


def test_converge_t_zero(tmp_path):
    out = tmp_path / "conv0.json"
    assert run(["converge", "--walk", "cycle:4", "--protocol", "strauch",
                "--t", "0", "--m-list", "2,4,8", "--format", "json"], out) == 0
    rep = json.loads(out.read_text())
    for sample in rep["samples"]:
        assert sample["single_step_error"] <= 1e-12
        assert sample["repeated_error"] <= 1e-12


def test_converge_same_target_for_both_protocols(tmp_path):
    reps = {}
    for proto in ("strauch", "evencyc"):
        out = tmp_path / f"{proto}.json"
        assert run(["converge", "--walk", "cycle:6", "--protocol", proto,
                    "--m-list", "256,512", "--format", "json"], out) == 0
        reps[proto] = json.loads(out.read_text())
    pairs = zip(reps["strauch"]["samples"], reps["evencyc"]["samples"])
    for s, e in pairs:
        # both converge to the same propagator, so the repeated errors
        # agree within twice the larger one
        assert abs(s["repeated_error"] - e["repeated_error"]) \
            <= 2 * max(s["repeated_error"], e["repeated_error"])


@pytest.mark.parametrize("walk", ["lattice:4,2", "example"])
def test_evencyc_converges_on_any_walk(tmp_path, walk):
    out = tmp_path / "conv.json"
    assert run(["converge", "--walk", walk, "--protocol", "evencyc",
                "--m-list", "32,64,128,256,512,1024", "--format", "json"], out) == 0
    assert abs(json.loads(out.read_text())["fitted_exponent"] - 1) <= 0.15


def _coprime_cycles_json(lengths):
    """A 2-regular walk on disjoint cycles; its shift order is the lcm of their lengths."""
    edges, forward, start = [], [], 0
    for n in lengths:
        forward += [start + (j + 1) % n for j in range(n)]
        edges += [[start + j, start + (j + 1) % n] for j in range(n)]
        start += n
    backward = [0] * start
    for j, f in enumerate(forward):
        backward[f] = j
    return {"graph": {"n": start, "edges": edges}, "coin_dim": 2, "moves": [forward, backward]}


@pytest.mark.parametrize("argv", [["closure"], ["converge", "--protocol", "evencyc",
                                                "--m-list", "8"]], ids=["closure", "evencyc"])
def test_long_shift_orbit_is_refused(tmp_path, capsys, argv):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(_coprime_cycles_json([3, 4, 5, 7, 11, 13, 17, 19, 23])))
    assert walks.shift_order(cli.resolve_walk(f"file:{path}")) == 446185740
    out = tmp_path / "never.csv"
    assert run([argv[0], "--walk", f"file:{path}", *argv[1:]], out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds MAX_DIM" in captured.err
    assert not out.exists()


def test_converge_needs_m_list(tmp_path):
    assert run(["converge", "--walk", "cycle:4", "--protocol", "strauch"]) == 2
    assert run(["converge", "--walk", "cycle:4", "--protocol", "strauch",
                "--m-list", "64,32"]) == 2
    # an integer too large for a float, so gamma * t / m would overflow
    assert run(["converge", "--walk", "cycle:4", "--protocol", "strauch",
                "--m-list", "1" + "0" * 400]) == 2


def test_protocol_from_file(tmp_path):
    spec = {
        "walk": "cycle:4",
        "kind": "atom",
        "steps": [
            {"coin": matrix_json(limits.R_COIN),
             "generator": matrix_json(1j * limits.D_COIN), "slope": 1.0},
            {"coin": matrix_json(limits.R_COIN),
             "generator": matrix_json(1j * limits.D_COIN), "slope": 1.0},
        ],
    }
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(spec))
    p = cli.resolve_protocol(f"file:{path}", walks.cycle_walk(4))
    assert p.phase == pytest.approx(-1.0)
    comp = {"kind": "concat", "children": [spec, spec]}
    path2 = tmp_path / "comp.json"
    path2.write_text(json.dumps(comp))
    c = cli.resolve_protocol(f"file:{path2}", walks.cycle_walk(4))
    expected = 2 * limits.effective_hamiltonian(p)
    assert np.allclose(limits.effective_hamiltonian(c), expected)


def test_project_residuals(tmp_path):
    out = tmp_path / "proj.json"
    assert run(["project", "--walk", "cycle:8", "--t", "0.7", "--seed", "0",
                "--format", "json"], out) == 0
    rep = json.loads(out.read_text())
    assert rep["psi_adjacency_residual"] <= 1e-10
    assert rep["phi_laplacian_residual"] <= 1e-10
    assert rep["reconstruction_residual"] <= 1e-12
    assert rep["pass"] is True
    # a relabelled 7-cycle: its move rows are not j+1 and j-1, but they undo each other
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(relabelled_cycle_json()))
    assert run(["project", "--walk", f"file:{path}", "--format", "json"], out) == 0
    assert json.loads(out.read_text())["pass"] is True
    never = tmp_path / "never.json"
    for spec in ("example", "lattice:4,2"):
        assert run(["project", "--walk", spec], never) == 2
        assert not never.exists()


@pytest.mark.parametrize("walk, code", [
    (_coprime_cycles_json([3, 3]), 0),
    (_one_way_c4_json(), 3),
], ids=["disjoint-triangles", "one-way-c4"])
def test_project_on_two_coin_walks(tmp_path, walk, code):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(walk))
    out = tmp_path / "proj.json"
    assert run(["project", "--walk", f"file:{path}", "--format", "json"], out) == code
    rep = json.loads(out.read_text())
    assert rep["pass"] is (code == 0)
    assert rep["reconstruction_residual"] <= 1e-14
    if code:
        # the one-way walk's chiral blocks do not follow the adjacency dynamics
        assert rep["psi_adjacency_residual"] > 0.1


def test_project_eigendecomposes_blocks_or_two_real_matrices(tmp_path, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        calls.append((np.shape(a), np.asarray(a).dtype))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    # a translation walk decomposes its momentum blocks, nothing larger than c x c
    assert run(["project", "--walk", "cycle:16"], tmp_path / "proj.csv") == 0
    assert calls and all(shape[-2:] in ((1, 1), (2, 2)) for shape, _ in calls)
    # a walk with no group: H and A once each, as float64; L's eigenpairs are A's, shifted
    # (its coins do not undo each other, so the chiral blocks miss A and it exits 3)
    calls.clear()
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(turn_or_flip_cycle_json()))
    assert run(["project", "--walk", f"file:{path}"], tmp_path / "proj.csv") == 3
    assert calls == [((12, 12), np.float64), ((6, 6), np.float64)]


def test_info_without_a_group_forms_no_eigenvectors(tmp_path, monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("info needs eigenvalues only")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(turn_or_flip_cycle_json()))
    out = tmp_path / "info.json"
    assert run(["info", "--walk", f"file:{path}", "--format", "json"], out) == 0
    spectrum = json.loads(out.read_text())["graph_spectrum"]
    assert spectrum == [[2.0, 1], [1.0, 2], [-1.0, 2], [-2.0, 1]]


def _run_with_and_without_group(monkeypatch, tmp_path, args):
    """[(exit code, JSON report or None)] of args as given, then with no walk given a group.

    Without a group every walk takes the dense eigendecompositions.
    """
    results = []
    for dense in (False, True):
        out = tmp_path / f"report_{dense}.json"
        with monkeypatch.context() as m:
            if dense:
                m.setattr(walks, "_translation_group", lambda moves: None)
            code = run([*args, "--format", "json"], out)
        results.append((code, json.loads(out.read_text()) if out.exists() else None))
        out.unlink(missing_ok=True)
    return results


def _assert_as_dense(monkeypatch, tmp_path, spec):
    """info, evolve and project on spec report what the dense path reports.

    info spectra are equal, evolve states and project residuals are within
    1e-12, and exit codes are equal.
    """
    (code, rep), (dense_code, dense) = _run_with_and_without_group(
        monkeypatch, tmp_path, ["info", "--walk", spec])
    assert code == dense_code == 0 and rep == dense
    (code, rep), (dense_code, dense) = _run_with_and_without_group(
        monkeypatch, tmp_path, ["evolve", "--walk", spec, "--gamma", "0.8", "--t", "1.7"])
    assert code == dense_code == 0
    assert np.abs(np.array(rep["state"]) - np.array(dense["state"])).max() <= 1e-12
    assert rep["norm_residual"] <= 1e-12
    (code, rep), (dense_code, dense) = _run_with_and_without_group(
        monkeypatch, tmp_path, ["project", "--walk", spec, "--t", "0.9", "--seed", "2"])
    assert code == dense_code
    if rep is not None:
        for key in ("psi_adjacency_residual", "phi_laplacian_residual",
                    "reconstruction_residual"):
            assert abs(rep[key] - dense[key]) <= 1e-12
        assert rep["pass"] is dense["pass"]


@pytest.mark.parametrize("walk", ["cycle:8", "lattice:4,2", "example", "relabelled cycle:7",
                                  "relabelled lattice:3,3"])
def test_translation_walks_report_as_the_dense_path(tmp_path, monkeypatch, walk):
    spec = walk
    if walk.startswith("relabelled"):
        w = cli.resolve_walk(walk.split()[1])
        path = tmp_path / "walk.json"
        rng = np.random.default_rng(3)
        path.write_text(json.dumps(relabelled_json(w, rng.permutation(w.walker_dim))))
        spec = f"file:{path}"
    _assert_as_dense(monkeypatch, tmp_path, spec)


@pytest.mark.parametrize("c, chords", [(3, CYCLE8_CHORDS), (2, ())],
                         ids=["three-coins-with-chords", "two-coins"])
def test_coins_that_repeat_a_target_take_the_dense_adjacency(tmp_path, monkeypatch, c, chords):
    obj = repeated_target_json(c, chords)
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(obj))
    _assert_as_dense(monkeypatch, tmp_path, f"file:{path}")
    w = walks.walk_from_json(obj)
    # the walk has a group, yet its adjacency eigenpairs are the dense ones
    vals, vecs = walks.adjacency_eig(w)
    assert w.group is not None and vals.shape == (8,) and vecs.shape == (8, 8)
    # the chords make A neither the sum of the moves nor translation-invariant
    a = graphs.adjacency(w.graph)
    p = np.eye(8)[w.moves[0]].T
    assert not chords or np.abs(a @ p - p @ a).max() > 0


def test_project_t_zero(tmp_path):
    out = tmp_path / "proj0.json"
    assert run(["project", "--walk", "cycle:4", "--t", "0", "--format", "json"], out) == 0
    rep = json.loads(out.read_text())
    assert rep["reconstruction_residual"] <= 1e-14


def test_closure_reports(tmp_path):
    out = tmp_path / "cl.json"
    assert run(["closure", "--walk", "example", "--format", "json"], out) == 0
    rep = json.loads(out.read_text())
    assert rep == {"ambient_dim": 12, "dimension": 33,
                   "tolerance": rep["tolerance"], "generator_count": 18,
                   "passes": rep["passes"]}
    # golden value for the 4-cycle walk, stable across the tolerance grid
    for tol in ("1e-10", "1e-9", "1e-8"):
        out2 = tmp_path / f"c4_{tol}.json"
        assert run(["closure", "--walk", "cycle:4", "--tol", tol,
                    "--format", "json"], out2) == 0
        assert json.loads(out2.read_text())["dimension"] == 7
    assert run(["closure", "--walk", "cycle:4", "--tol", "1e-3"]) == 2


def test_closure_basis_dump(tmp_path):
    out = tmp_path / "basis.json"
    assert run(["closure", "--walk", "example", "--format", "json",
                "--dump-basis"], out) == 0
    rep = json.loads(out.read_text())
    assert len(rep["basis"]) == 33
    first = np.array([[complex(re, im) for re, im in row] for row in rep["basis"][0]])
    assert first.shape == (12, 12)
    assert run(["closure", "--walk", "example", "--dump-basis"]) == 2


@pytest.mark.parametrize("spec", ["example", "cycle:5"])
def test_dumped_basis_matches_the_dense_closure(tmp_path, spec):
    out = tmp_path / "basis.json"
    assert run(["closure", "--walk", spec, "--format", "json", "--dump-basis"], out) == 0
    dumped = np.array([[[complex(re, im) for re, im in row] for row in b]
                       for b in json.loads(out.read_text())["basis"]])
    w = cli.resolve_walk(spec)
    dense = cli.liealg.lie_closure(cli.liealg.generators(w))
    assert dumped.shape == dense.elements.shape
    # as many elements, orthonormal, and each in the dense span: the same span
    rows = dumped.reshape(len(dumped), -1).view(float)
    assert np.abs(rows @ rows.T - np.eye(len(rows))).max() <= 1e-12
    assert max(cli.liealg.member_residual(dense, x) for x in dumped) <= 1e-10


def test_dump_basis_over_the_byte_cap_is_refused_before_the_dense_basis(tmp_path, capsys,
                                                                        monkeypatch):
    def no_dense(self):
        raise AssertionError("the dense basis was formed")

    # lattice:3,3: 946 elements of 162 x 162, 397 MB dense
    monkeypatch.setattr(cli.liealg.LieBasis, "dense_elements", no_dense)
    out = tmp_path / "basis.json"
    start = time.process_time()
    assert run(["closure", "--walk", "lattice:3,3", "--format", "json", "--dump-basis"],
               out) == 2
    assert time.process_time() - start < 1.0
    assert not out.exists()
    assert run(["closure", "--walk", "lattice:3,3", "--format", "json", "--dump-basis"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "MAX_DUMP_BYTES" in captured.err


@pytest.mark.parametrize("spec", ["example", "cycle:6"])
def test_dump_under_the_byte_cap_keeps_its_bytes(tmp_path, spec):
    """The dump is the closure report plus every dense element, rendered as before the cap."""
    out = tmp_path / "basis.json"
    assert run(["closure", "--walk", spec, "--format", "json", "--dump-basis"], out) == 0
    w = cli.resolve_walk(spec)
    basis = cli.liealg.walk_closure(w, cli.liealg.DEFAULT_TOL)
    elements = basis.dense_elements()
    assert elements.nbytes <= cli.MAX_DUMP_BYTES
    report = {"ambient_dim": w.dim, "dimension": len(elements), "tolerance": basis.tol,
              "generator_count": w.coin_dim ** 2 * walks.shift_order(w), "passes": basis.passes,
              "basis": [matrix_json(b) for b in elements]}
    got, want = out.read_text(), cli._json_dumps(report) + "\n"
    # the index of the first difference first: pytest's diff of two texts this long stalls
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert first == len(got) == len(want)
    assert got == want


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@st.composite
def float_arrays(draw):
    """Float arrays of 1 to 4 dimensions with axes of length 0 to 3, edge values, now and then
    one NaN or infinity, and as a C-ordered, transposed, reversed or strided view."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    view = draw(st.sampled_from(["c", "transposed", "reversed", "strided"]))
    if view == "strided":
        shape[-1] *= 2
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(_EDGE_FLOATS))
    a = np.array(draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape))),
                 dtype=float).reshape(shape)
    if a.size and draw(st.booleans()):
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from(_NON_FINITE))
    return {"c": a, "transposed": a.T, "reversed": a[::-1], "strided": a[..., ::2]}[view]


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(float_arrays(), st.integers(0, 3))
def test_an_array_renders_as_its_nested_lists(a, indent):
    assert cli._json_dumps(a, indent) == cli._json_dumps(a.tolist(), indent)
    in_dict = {"n": 1, "array": a, "after": [a[..., :1], 2.5]}
    as_lists = {"n": 1, "array": a.tolist(), "after": [a[..., :1].tolist(), 2.5]}
    assert cli._json_dumps(in_dict, indent + 1) == cli._json_dumps(as_lists, indent + 1)


def test_a_finite_float_array_is_rendered_without_the_per_float_path(monkeypatch):
    def no_fmt(x):
        raise AssertionError("a finite float array was rendered one float at a time")

    monkeypatch.setattr(cli, "_fmt", no_fmt)
    a = np.arange(24.0).reshape(2, 3, 2, 2) - 7.5
    assert json.loads(cli._json_dumps({"a": a})) == {"a": a.tolist()}


def test_simulable_command(tmp_path):
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps(matrix_json(limits.limit_hamiltonian_cycle(4))))
    out = tmp_path / "sim.json"
    assert run(["simulable", "--walk", "cycle:4", "--hamiltonian", str(h_path),
                "--format", "json", "--tol", "1e-7"], out) == 0
    rep = json.loads(out.read_text())
    assert rep["simulable"] is True and rep["residual"] <= 1e-7

    diag_path = tmp_path / "diag.json"
    diag_path.write_text(json.dumps(matrix_json(
        np.kron(np.diag([-3.0, 1.0, 2.0]), np.eye(4)))))
    out2 = tmp_path / "sim2.json"
    assert run(["simulable", "--walk", "example", "--hamiltonian", str(diag_path),
                "--format", "json", "--tol", "1e-7"], out2) == 0
    assert json.loads(out2.read_text())["simulable"] is True

    loc = np.zeros((12, 12))
    loc[0, 0] = 1.0
    loc_path = tmp_path / "loc.json"
    loc_path.write_text(json.dumps(matrix_json(loc)))
    out3 = tmp_path / "sim3.json"
    assert run(["simulable", "--walk", "example", "--hamiltonian", str(loc_path),
                "--format", "json", "--tol", "1e-6"], out3) == 0
    assert json.loads(out3.read_text())["simulable"] is False

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(matrix_json(np.eye(3))))
    assert run(["simulable", "--walk", "example", "--hamiltonian", str(bad)]) == 2


def _simulable_report(tmp_path, walk, h):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(matrix_json(h)))
    out = tmp_path / "sim.json"
    assert run(["simulable", "--walk", walk, "--hamiltonian", str(path), "--format", "json"],
               out) == 0
    return json.loads(out.read_text())


@pytest.mark.filterwarnings("error")
def test_simulable_verdict_does_not_depend_on_the_scale_of_h(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h = (m + m.conj().T) / 2  # exactly Hermitian, and so is every real multiple
    base = _simulable_report(tmp_path, "example", h)
    assert base["simulable"] is False
    for scale in (1e-170, 1e200, 2.0 ** -900):
        rep = _simulable_report(tmp_path, "example", scale * h)
        assert rep["simulable"] is False
        assert rep["residual"] == pytest.approx(base["residual"], rel=1e-12, abs=0)
    orbit = limits.orbit_hamiltonian(walks.cycle_walk(5))
    assert _simulable_report(tmp_path, "cycle:5", 1e300 * orbit)["simulable"] is True


def test_example_command(tmp_path):
    out = tmp_path / "ex.json"
    assert run(["example", "--format", "json"], out) == 0
    rep = json.loads(out.read_text())
    assert rep["all_pass"] is True
    names = [item["name"] for item in rep["items"]]
    assert names == ["shift_order", "adjacency_spectrum", "closure_dimension",
                     "diagonal_membership", "subspace_element"]
    sub = rep["items"][-1]
    assert sub["actual_spectrum"] == [[3.0, 1], [1.0, 3], [0.0, 4], [-1.0, 3], [-3.0, 1]]
    # identical dimension at a tighter tolerance
    out2 = tmp_path / "ex2.json"
    assert run(["example", "--format", "json", "--tol", "1e-10"], out2) == 0
    rep2 = json.loads(out2.read_text())
    assert rep2["items"][2]["actual"] == 33


def test_evolve_norm(tmp_path):
    out = tmp_path / "ev.csv"
    assert run(["evolve", "--walk", "cycle:6", "--t", "0.5", "--seed", "3"], out) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["vertex", "re", "im", "probability"]
    probs = [float(r[3]) for r in rows[1:-1]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    assert rows[-1][0] == "norm_residual" and float(rows[-1][1]) <= 1e-12


@pytest.mark.parametrize("spec", ["cycle:6", "example", "lattice:4,2"])
def test_evolve_matches_the_dense_propagator(tmp_path, spec):
    out = tmp_path / "ev.json"
    assert run(["evolve", "--walk", spec, "--gamma", "0.7", "--t", "1.3", "--seed", "5",
                "--format", "json"], out) == 0
    state = np.array([complex(re, im) for re, im in json.loads(out.read_text())["state"]])
    w = cli.resolve_walk(spec)
    a = graphs.adjacency(w.graph)
    expected = walks.ctqw_propagator(a, 0.7, 1.3) @ seeded_state(w.walker_dim, 5)
    assert np.abs(state - expected).max() <= 1e-12


@pytest.mark.parametrize("walk", ["cycle:5", "lattice:4,2", "relabelled lattice:3,2",
                                  "two triangles"])
def test_evolve_json_keeps_the_bytes_of_its_per_element_state(tmp_path, walk):
    if walk == "relabelled lattice:3,2":
        perm = np.random.default_rng(4).permutation(9)
        spec = "file:" + _write_json(tmp_path, "walk.json",
                                     relabelled_json(walks.lattice_walk(3, 2), perm))
    elif walk == "two triangles":
        spec = "file:" + _write_json(tmp_path, "walk.json", walks.walk_to_json(two_triangles()))
    else:
        spec = walk
    out = tmp_path / "ev.json"
    assert run(["evolve", "--walk", spec, "--gamma", "0.7", "--t", "1.3", "--seed", "5",
                "--format", "json"], out) == 0
    w = cli.resolve_walk(spec)
    psit = walks.expm_state(w, walks.adjacency_eig(w), 0.7 * 1.3, seeded_state(w.graph.n, 5))
    report = {"walk": spec, "gamma": 0.7, "t": 1.3, "seed": 5,
              "state": [[float(z.real), float(z.imag)] for z in psit],
              "norm_residual": abs(np.linalg.norm(psit) - 1.0)}
    assert out.read_text() == cli._json_dumps(report) + "\n"


def test_determinism(tmp_path):
    cases = [
        ["info", "--walk", "lattice:3,2"],
        ["converge", "--walk", "cycle:6", "--protocol", "evencyc",
         "--m-list", "16,32,64", "--format", "json"],
        ["project", "--walk", "cycle:8", "--t", "0.7", "--seed", "5"],
        ["closure", "--walk", "example", "--format", "json"],
        ["example", "--format", "json"],
        ["evolve", "--walk", "cycle:5", "--seed", "9", "--format", "json"],
        ["closure", "--walk", "example", "--dump-basis", "--format", "json"],
        ["evolve", "--walk", "file:" + _write_json(tmp_path, "walk.json", relabelled_cycle_json()),
         "--seed", "2", "--format", "json"],
    ]
    for i, args in enumerate(cases):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert run(args, a) == run(args, b)
        assert a.read_bytes() == b.read_bytes()


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qwl", "info", "--walk", "cycle:5", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert out.read_text().startswith("key,value")
    proc2 = subprocess.run(
        [sys.executable, "-m", "qwl", "info", "--walk", "nope"],
        capture_output=True, text=True, env=env)
    assert proc2.returncode == 2
    # flags read from sys.argv: help exits 0, a flag error exits 2 with one qwl: line
    proc3 = subprocess.run([sys.executable, "-m", "qwl", "--help"],
                           capture_output=True, text=True, env=env)
    assert proc3.returncode == 0 and "closure" in proc3.stdout and proc3.stderr == ""
    proc4 = subprocess.run(
        [sys.executable, "-m", "qwl", "converge", "--walk", "cycle:4", "--gamma"],
        capture_output=True, text=True, env=env)
    assert proc4.returncode == 2 and proc4.stdout == ""
    assert proc4.stderr == "qwl: --gamma needs a value\n"


def test_importing_the_cli_loads_only_numpy_json_and_qwl(tmp_path):
    script = ("import json, sys\nimport numpy\nbefore = set(sys.modules)\nimport qwl.cli\n"
              "new = sorted(set(sys.modules) - before)\n"
              "print(json.dumps([new, qwl.cli.main(sys.argv[1:])]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    args, out = ["evolve", "--walk", "cycle:5", "--seed", "9"], tmp_path / "fresh.csv"
    proc = subprocess.run([sys.executable, "-c", script, *args, "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    new, code = json.loads(proc.stdout)
    assert code == 0
    assert [m for m in new if m != "qwl" and not m.startswith("qwl.")] == []
    # the CSV report, its writer loaded on first use, keeps its bytes
    w = cli.resolve_walk("cycle:5")
    psit = walks.expm_state(w, walks.adjacency_eig(w), 1.0, seeded_state(5, 9))
    expected = "".join(f"{j},{z.real:.16e},{z.imag:.16e},{abs(z) ** 2:.16e}\n"
                       for j, z in enumerate(psit))
    norm_residual = abs(np.linalg.norm(psit) - 1.0)
    expected = f"vertex,re,im,probability\n{expected}norm_residual,{norm_residual:.16e}\n"
    assert out.read_text() == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["evolve", "project"])
def test_an_overflowing_phase_exits_2_and_writes_nothing(tmp_path, capsys, command, fmt):
    out = tmp_path / "never"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--walk", "cycle:3", "--gamma", "1e308", "--format", fmt], out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qwl: the phase s * eigenvalue must be finite, got s = 1e+308\n"
    assert not out.exists()


def test_simulable_hermiticity_is_relative_to_the_largest_entry(tmp_path, capsys):
    rng = np.random.default_rng(3)
    g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h_path, out = tmp_path / "h.json", tmp_path / "sim.json"
    # a non-Hermitian matrix is refused however small its entries
    h_path.write_text(json.dumps(matrix_json(1e-12 * g)))
    assert run(["simulable", "--walk", "example", "--hamiltonian", str(h_path)], out) == 2
    assert "not Hermitian" in capsys.readouterr().err and not out.exists()
    # a Hermitian one is accepted however large, with the report of scale 1 but its residual
    reports = []
    for scale in (1.0, 1e6):
        h_path.write_text(json.dumps(matrix_json(scale * (g + g.conj().T))))
        assert run(["simulable", "--walk", "example", "--hamiltonian", str(h_path),
                    "--format", "json"], out) == 0
        reports.append(json.loads(out.read_text()))
    for rep in reports:
        assert rep["simulable"] is False and rep["closure_dimension"] == 33
        assert abs(rep["residual"] - reports[0]["residual"]) <= 1e-12


def test_gamma_validation():
    assert run(["info", "--walk", "cycle:4", "--gamma", "0"]) == 2
    assert run(["info", "--walk", "cycle:4", "--t", "-1"]) == 2


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    from qwl.errors import IterationCapExceeded

    def exploding_closure(gens, tol):
        raise IterationCapExceeded("closure did not stabilize")

    monkeypatch.setattr(cli.liealg, "lie_closure", exploding_closure)
    # a walk without a translation group, so the closure brackets densely
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(turn_or_flip_cycle_json()))
    out = tmp_path / "never.json"
    assert run(["closure", "--walk", f"file:{path}", "--format", "json"], out) == 3
    assert not out.exists()


def test_non_finite_floats_rejected(tmp_path, capsys):
    out = tmp_path / "never.csv"
    flags = (["--t", "inf"], ["--gamma", "nan"], ["--tol", "inf"],
             ["--gamma", "1e200", "--t", "1e200"])  # finite flags whose product overflows
    for command in ("evolve", "project"):
        for extra in flags:
            assert run([command, "--walk", "cycle:5", *extra], out) == 2
            assert capsys.readouterr().out == ""
            assert not out.exists()


def test_out_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "info.csv"
    assert run(["info", "--walk", "cycle:5"], out) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_malformed_protocol_file(tmp_path, capsys):
    step = {"generator": matrix_json(1j * limits.D_COIN)}
    out = tmp_path / "never.csv"
    for i, spec in enumerate(([{"kind": "atom"}],
                              {"kind": "atom", "walk": "cycle:4", "steps": [step, step]})):
        path = tmp_path / f"proto{i}.json"
        path.write_text(json.dumps(spec))
        assert run(["converge", "--walk", "cycle:4", "--protocol", f"file:{path}",
                    "--m-list", "8,16"], out) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()
    # a file that is not UTF-8, read as a protocol, a walk and a Hamiltonian
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "atom", "walk": "cycle:4", "name": "\u00e9"}'.encode("latin-1"))
    for argv in (["converge", "--walk", "cycle:4", "--protocol", f"file:{path}",
                  "--m-list", "8,16"],
                 ["info", "--walk", f"file:{path}"],
                 ["simulable", "--walk", "cycle:4", "--hamiltonian", str(path)]):
        assert run(argv, out) == 2
        assert "invalid JSON" in capsys.readouterr().err
        assert not out.exists()


def _strauch_atom_json(slope=1.0, first_coin_entry=None):
    steps = [{"coin": matrix_json(limits.R_COIN), "generator": matrix_json(1j * limits.D_COIN)}
             for _ in range(2)]
    steps[0]["slope"] = slope
    if first_coin_entry is not None:
        steps[0]["coin"][0][0] = first_coin_entry
    return json.dumps({"kind": "atom", "walk": "cycle:4", "steps": steps})


def _nested_concat_json(depth):
    # built as text: json.dumps itself recurses too deeply at a depth of 900
    atom = text = _strauch_atom_json()
    for _ in range(depth):
        text = f'{{"kind": "concat", "children": [{text}, {atom}]}}'
    return text


@pytest.mark.parametrize("text", [
    json.dumps({"kind": "atom", "walk": "cycle:4", "steps": 5}),
    json.dumps({"kind": "concat", "children": 7}),
    _strauch_atom_json("abc"),
    _strauch_atom_json(float("nan")),
    _strauch_atom_json(True),
    _strauch_atom_json(first_coin_entry=[False, False]),
    _strauch_atom_json(first_coin_entry=["0", "0"]),
    _strauch_atom_json(first_coin_entry=[0.0, 0.0, 99.0]),
    _nested_concat_json(900),
    _nested_concat_json(cli.MAX_PROTOCOL_DEPTH + 1),
], ids=["steps-int", "children-int", "slope-string", "slope-nan", "slope-bool",
        "coin-entry-bool", "coin-entry-string", "coin-entry-three-numbers", "nested-900",
        "nested-over-cap"])
def test_protocol_json_boundary(tmp_path, capsys, text):
    path = tmp_path / "proto.json"
    path.write_text(text)
    out = tmp_path / "never.csv"
    assert run(["converge", "--walk", "cycle:4", "--protocol", f"file:{path}",
                "--m-list", "8,16"], out) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_protocol_depth_cap_is_inclusive(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_nested_concat_json(cli.MAX_PROTOCOL_DEPTH))
    p = cli.resolve_protocol(f"file:{path}", walks.cycle_walk(4))
    # each strauch atom has phase -1 and the tree holds depth + 1 of them
    assert p.phase == pytest.approx((-1.0) ** (cli.MAX_PROTOCOL_DEPTH + 1))


@pytest.mark.parametrize("edit", [
    lambda w: w["moves"][0].__setitem__(0, 1.7),
    lambda w: w["graph"].__setitem__("n", 4.9),
    lambda w: w.__setitem__("coin_dim", 2.5),
    lambda w: w.__setitem__("coin_dim", True),
    # integral, but beyond int64
    lambda w: w["moves"][0].__setitem__(0, 10 ** 29),
    lambda w: w["moves"][0].__setitem__(0, 1e300),
], ids=["move-float", "n-float", "coin-dim-float", "coin-dim-bool", "move-huge-int",
        "move-huge-float"])
def test_walk_file_non_integers_rejected(tmp_path, capsys, edit):
    spec = walks.walk_to_json(walks.cycle_walk(4))
    edit(spec)
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "never.csv"
    assert run(["info", "--walk", f"file:{path}"], out) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    ('"{\\"n\\": 3}"', "a walk must be a JSON object, got str"),
    ("[1, 2]", "a walk must be a JSON object, got list"),
    ('{"graph": 5, "coin_dim": 2, "moves": [[1, 0]]}', "a graph must be a JSON object, got int"),
], ids=["string", "list", "graph-int"])
def test_walk_file_must_hold_objects(tmp_path, capsys, content, message):
    path = tmp_path / "walk.json"
    path.write_text(content)
    out = tmp_path / "never.csv"
    assert run(["info", "--walk", f"file:{path}"], out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["cycle:5", "lattice:3,2", "file"])
def test_walk_over_size_cap_writes_nothing(tmp_path, capsys, monkeypatch, spec):
    if spec == "file":
        path = tmp_path / "walk.json"
        path.write_text(json.dumps(walks.walk_to_json(walks.cycle_walk(5))))
        spec = f"file:{path}"
    monkeypatch.setattr(walks, "MAX_DIM", 8)
    out = tmp_path / "never.csv"
    assert run(["info", "--walk", spec], out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_DIM" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, element_shape", [
    ("closure", (5, 2, 2)),                # cycle:5 in momentum blocks
    ("simulable", (4, 3, 3)),              # example in momentum blocks
    ("file-closure", (12, 12)),            # turn-or-flip 6-cycle moves do not commute: dense
    ("relabelled-file-closure", (7, 2, 2)),  # a relabelled 7-cycle file walk: blocks
], ids=["closure", "simulable", "file-closure", "relabelled-file-closure"])
def test_closure_over_memory_cap_writes_nothing(tmp_path, capsys, monkeypatch, command,
                                                element_shape):
    spec = "cycle:5"
    argv = ["closure", "--walk", spec]
    if command == "simulable":
        spec = "example"
        h_path = tmp_path / "h.json"
        h_path.write_text(json.dumps(matrix_json(np.diag([1.0] + [0.0] * 11))))
        argv = ["simulable", "--walk", spec, "--hamiltonian", str(h_path)]
    if command.endswith("file-closure"):
        path = tmp_path / "walk.json"
        path.write_text(json.dumps(relabelled_cycle_json() if command.startswith("relabelled")
                                   else turn_or_flip_cycle_json()))
        spec = f"file:{path}"
        argv = ["closure", "--walk", spec]
    basis = cli.liealg.walk_closure(cli.resolve_walk(spec))
    assert basis.elements.shape[1:] == element_shape
    # one byte short of the finished basis, whichever form its elements take
    monkeypatch.setattr(cli.liealg, "MAX_CLOSURE_BYTES", basis.elements.nbytes - 1)
    out = tmp_path / "never.csv"
    assert run(argv, out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_CLOSURE_BYTES" in captured.err
    assert not out.exists()
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


def test_simulable_refuses_an_oversize_closure_before_reading_the_hamiltonian(
        tmp_path, capsys, monkeypatch):
    """lattice:7,3's closed-form basis is over MAX_CLOSURE_BYTES, so the matrix file is never read."""
    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "_load_json", unread)
    out = tmp_path / "never.csv"
    assert run(["simulable", "--walk", "lattice:7,3", "--hamiltonian", "h.json"], out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_CLOSURE_BYTES" in captured.err
    assert not out.exists()


def test_relabelled_file_walk_closure_report_is_the_cycles(tmp_path):
    path = tmp_path / "walk.json"
    perm = np.random.default_rng(40).permutation(40)
    path.write_text(json.dumps(relabelled_json(walks.cycle_walk(40), perm)))
    reports = []
    for spec in ("cycle:40", f"file:{path}"):
        out = tmp_path / "closure.json"
        assert run(["closure", "--walk", spec, "--format", "json"], out) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["dimension"] == 61


@pytest.mark.parametrize("entry", [[True, False], ["1", "0"], [1.0, 0.0, 99.0]],
                         ids=["bool", "string", "three-numbers"])
def test_simulable_hamiltonian_entries_must_be_numbers(tmp_path, capsys, entry):
    h = matrix_json(np.diag([1.0] + [0.0] * 11))
    h[0][0] = entry
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps(h))
    out = tmp_path / "never.csv"
    assert run(["simulable", "--walk", "example", "--hamiltonian", str(h_path)], out) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def _csv_and_json(tmp_path, args):
    """The CSV rows and the JSON report of one command, run in both formats."""
    csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
    code = run(args, csv_out)
    assert run(args + ["--format", "json"], json_out) == code == 0
    return list(csv.reader(csv_out.read_text().splitlines())), json.loads(json_out.read_text())


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.16e}" if isinstance(value, float) else str(value)


@pytest.mark.parametrize("args, keys", [
    (["project", "--walk", "cycle:8", "--t", "0.7", "--seed", "5"],
     ["psi_adjacency_residual", "phi_laplacian_residual", "reconstruction_residual",
      "tolerance", "pass"]),
    (["closure", "--walk", "example"],
     ["ambient_dim", "dimension", "tolerance", "generator_count", "passes"]),
    (["simulable", "--walk", "example", "--tol", "1e-7"],
     ["residual", "tolerance", "simulable", "closure_dimension"]),
], ids=["project", "closure", "simulable"])
def test_key_value_csv_reports(tmp_path, args, keys):
    if args[0] == "simulable":
        h_path = tmp_path / "diag.json"
        h_path.write_text(json.dumps(matrix_json(np.kron(np.diag([-3.0, 1.0, 2.0]), np.eye(4)))))
        args = args + ["--hamiltonian", str(h_path)]
    rows, rep = _csv_and_json(tmp_path, args)
    assert rows[0] == ["key", "value"]
    assert [r[0] for r in rows[1:]] == keys == list(rep)
    for key, value in rows[1:]:
        assert value == _csv_cell(rep[key])
        if isinstance(rep[key], float):
            assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d\d\d?", value)


def test_example_csv_report(tmp_path):
    rows, rep = _csv_and_json(tmp_path, ["example"])
    assert rows == [["item", "pass"],
                    *([item["name"], _csv_cell(item["pass"])] for item in rep["items"]),
                    ["all_pass", _csv_cell(rep["all_pass"])]]
    assert [r[1] for r in rows[1:]] == ["true"] * 6
    assert [r[0] for r in rows[1:-1]] == ["shift_order", "adjacency_spectrum",
                                          "closure_dimension", "diagonal_membership",
                                          "subspace_element"]


def test_dump_basis_needs_json_before_the_closure(tmp_path, capsys, monkeypatch):
    def no_closure(w, tol):
        raise AssertionError("the closure ran before the format was checked")

    monkeypatch.setattr(cli.liealg, "walk_closure", no_closure)
    out = tmp_path / "never.csv"
    assert run(["closure", "--walk", "example", "--dump-basis"], out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--dump-basis needs --format json" in captured.err
    assert not out.exists()


def _strauch_atom_on(walk):
    steps = [{"coin": matrix_json(limits.R_COIN), "generator": matrix_json(1j * limits.D_COIN)}
             for _ in range(2)]
    return {"kind": "atom", "walk": walk, "steps": steps}


@pytest.mark.parametrize("walk", ["cycle:3", walks.walk_to_json(walks.cycle_walk(3))],
                         ids=["spec", "object"])
def test_an_atom_on_another_walk_than_walk_is_refused(tmp_path, capsys, walk):
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(_strauch_atom_on(walk)))
    out = tmp_path / "never.csv"
    assert run(["converge", "--walk", "cycle:8", "--protocol", f"file:{path}",
                "--m-list", "32,64"], out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "moves of --walk" in captured.err
    assert not out.exists()


def test_an_atom_naming_walk_itself_gives_the_same_report(tmp_path):
    texts = []
    for walk in (None, "cycle:8", walks.walk_to_json(walks.cycle_walk(8))):
        atom = _strauch_atom_on(walk)
        if walk is None:
            del atom["walk"]
        path = tmp_path / "proto.json"
        path.write_text(json.dumps(atom))
        out = tmp_path / "conv.json"
        assert run(["converge", "--walk", "cycle:8", "--protocol", f"file:{path}",
                    "--m-list", "32,64", "--format", "json"], out) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("m_list", ["--m-list=0,8", "--m-list=-4,8"])
def test_m_list_below_one_is_refused_before_the_walk(tmp_path, capsys, monkeypatch, m_list):
    def no_walk(spec):
        raise AssertionError("the walk was built before --m-list was checked")

    monkeypatch.setattr(cli, "resolve_walk", no_walk)
    out = tmp_path / "never.csv"
    assert run(["converge", "--walk", "lattice:8,3", "--protocol", "evencyc", m_list], out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "at least 1" in captured.err
    assert not out.exists()


def _write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _walk_json_without_moves():
    spec = walks.walk_to_json(walks.cycle_walk(4))
    del spec["moves"]
    return spec


def _walk_json_with_one_move_row():
    spec = walks.walk_to_json(walks.cycle_walk(4))
    spec["moves"] = spec["moves"][:1]
    return spec


@pytest.mark.parametrize("argv, message", [
    (lambda d: ["converge", "--walk", "cycle:4", "--protocol", "strauch", "--m-list", "8,x"],
     None),
    (lambda d: ["converge", "--walk", "cycle:4", "--protocol", "foo", "--m-list", "8,16"], None),
    (lambda d: ["converge", "--walk", "cycle:4", "--m-list", "8,16", "--protocol",
                "file:" + _write_json(d, "p.json", {"kind": "loop"})], None),
    (lambda d: ["converge", "--walk", "cycle:4", "--m-list", "8,16", "--protocol",
                "file:" + _write_json(d, "p.json", _strauch_atom_on(5))],
     "qwl: atom 'walk' must be a walk spec or a walk object, got int\n"),
    (lambda d: ["converge", "--walk", "cycle:4", "--m-list", "8,16", "--protocol",
                "file:" + _write_json(d, "p.json", {"kind": "atom", "steps": [
                    {"coin": [], "generator": matrix_json(1j * limits.D_COIN)}]})], None),
    (lambda d: ["simulable", "--walk", "cycle:4"], None),
    (lambda d: ["simulable", "--walk", "cycle:4", "--hamiltonian",
                _write_json(d, "w.json", walks.walk_to_json(walks.cycle_walk(4)))],
     "qwl: a matrix must be a JSON list of rows, got dict\n"),
    (lambda d: ["converge", "--walk", "cycle:4", "--m-list", "8,16", "--protocol",
                "file:" + _write_json(d, "p.json", {"kind": "atom", "steps": [
                    {"coin": "ab", "generator": matrix_json(1j * limits.D_COIN)}]})],
     "qwl: a matrix must be a JSON list of rows, got str\n"),
    (lambda d: ["converge", "--walk", "cycle:4", "--m-list", "8,16", "--protocol",
                "file:" + _write_json(d, "p.json", {"kind": "atom", "steps": [
                    {"coin": matrix_json(limits.R_COIN), "generator": {"a": 1}}]})],
     "qwl: a matrix must be a JSON list of rows, got dict\n"),
    (lambda d: ["info", "--walk", "file:" + _write_json(d, "w.json", _walk_json_without_moves())],
     None),
    (lambda d: ["info", "--walk",
                "file:" + _write_json(d, "w.json", _walk_json_with_one_move_row())], None),
    (lambda d: ["info", "--walk", "cycle:4", "--bogus", "1"],
     "qwl: unknown flag --bogus (see qwl --help)\n"),
    (lambda d: ["closure", "--wlk", "cycle:4"], "qwl: unknown flag --wlk (see qwl --help)\n"),
    (lambda d: ["closure", "--wal=cycle:4"], "qwl: unknown flag --wal (see qwl --help)\n"),
    (lambda d: ["converge", "--walk", "cycle:4", "--gamma"], "qwl: --gamma needs a value\n"),
    (lambda d: ["evolve", "--walk", "cycle:4", "--seed", "1.5"],
     "qwl: --seed must be int, got '1.5'\n"),
    (lambda d: ["evolve", "--walk", "cycle:4", "--gamma", "x"],
     "qwl: --gamma must be float, got 'x'\n"),
    (lambda d: ["info", "--walk", "cycle:4", "--format", "xml"],
     "qwl: --format must be csv or json, got 'xml'\n"),
    (lambda d: ["--walk", "cycle:4"],
     "qwl: a command is needed: info, converge, evolve, project, closure, simulable, example\n"),
    (lambda d: ["walk", "--walk", "cycle:4"],
     "qwl: unknown command 'walk'; commands: info, converge, evolve, project, closure, "
     "simulable, example\n"),
    (lambda d: ["info", "example", "--walk", "cycle:4"],
     "qwl: unexpected argument 'example' after the command\n"),
    (lambda d: ["closure", "--walk", "example", "--format", "json", "--dump-basis=1"],
     "qwl: --dump-basis takes no value\n"),
], ids=["m-list-not-int", "protocol-unknown", "protocol-kind-loop", "atom-walk-int",
        "step-coin-empty", "simulable-without-hamiltonian", "simulable-hamiltonian-object",
        "step-coin-string", "step-generator-object", "walk-without-moves",
        "walk-with-too-few-move-rows", "unknown-flag", "misspelt-flag", "abbreviated-flag",
        "missing-value", "seed-not-int", "gamma-not-float", "format-xml", "no-command",
        "unknown-command", "second-command", "switch-with-value"])
def test_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "never.csv"
    # --out goes first, so that a flag missing its value is the last token
    assert cli.main(["--out", str(out), *argv(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("qwl: ")
    assert message is None or captured.err == message
    assert not out.exists()


def _cycle_json_with_move(n, k, j, t):
    spec = walks.walk_to_json(walks.cycle_walk(n))
    spec["moves"][k][j] = t
    return spec


def _cycle_json_with_ragged_moves():
    spec = walks.walk_to_json(walks.cycle_walk(5))
    spec["moves"][1].pop()
    return spec


@pytest.mark.parametrize("spec, message", [
    (_cycle_json_with_move(5, 0, 0, 7), "move at vertex 0, coin result 0 does not follow an edge"),
    (_cycle_json_with_move(5, 1, 3, -1), "move at vertex 3, coin result 1 does not follow an edge"),
    (_cycle_json_with_move(5, 1, 2, 2), "moves for coin result 1 are not a bijection on vertices"),
    (dict(walks.walk_to_json(walks.cycle_walk(5)), moves=[[2, 3, 4, 0, 1], [4, 0, 1, 2, 3]]),
     "move at vertex 0, coin result 0 does not follow an edge"),
    (_cycle_json_with_ragged_moves(), "walk JSON needs 'graph', 'coin_dim', 'moves': "),
    (_cycle_json_with_move(1000, 1, 999, True), "move must be an integer, got True"),
], ids=["past-n-aliasing-an-edge-key", "negative", "repeated", "non-neighbour", "ragged",
        "true-last-of-1000"])
def test_bad_move_tables_exit_2_and_write_nothing(tmp_path, capsys, spec, message):
    out = tmp_path / "never.csv"
    assert run(["info", "--walk", "file:" + _write_json(tmp_path, "w.json", spec)], out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("qwl: " + message)
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", [
    ["info", "--walk", "example"],
    ["converge", "--walk", "cycle:6", "--protocol", "strauch", "--m-list", "32,64"],
], ids=["info", "converge"])
def test_stdout_holds_the_bytes_out_writes(tmp_path, capsys, args, fmt):
    out = tmp_path / "report"
    assert run(args + ["--format", fmt], out) == 0
    assert capsys.readouterr().out == ""
    assert run(args + ["--format", fmt]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_closure_dump_on_a_walk_without_a_group(tmp_path):
    w = two_triangles()
    assert w.group is None
    path = _write_json(tmp_path, "walk.json", walks.walk_to_json(w))
    out = tmp_path / "basis.json"
    assert run(["closure", "--walk", f"file:{path}", "--format", "json", "--dump-basis"],
               out) == 0
    rep = json.loads(out.read_text())
    basis = np.array([[[complex(re, im) for re, im in row] for row in b] for b in rep["basis"]])
    assert basis.shape == (rep["dimension"], 12, 12) and rep["dimension"] == 10
    assert np.abs(basis + basis.conj().swapaxes(1, 2)).max() <= 1e-12
    rows = basis.reshape(len(basis), -1).view(float)
    assert np.abs(rows @ rows.T - np.eye(len(rows))).max() <= 1e-12


# a value of every flag that takes one, each unlike its default
FLAG_VALUES = {"--walk": "cycle:5", "--protocol": "evencyc", "--gamma": "0.5", "--t": "-1",
               "--m-list": "8,16", "--tol": "1e-7", "--seed": "7", "--out": "r=1.csv",
               "--format": "json", "--hamiltonian": "h.json"}


@pytest.mark.parametrize("flag", FLAG_VALUES)
def test_each_flag_reads_the_same_in_both_spellings(flag):
    value = FLAG_VALUES[flag]
    spaced = cli.parse_args(["converge", flag, value])
    assert spaced == cli.parse_args(["converge", f"{flag}={value}"])
    assert spaced == cli.parse_args([flag, value, "converge"])  # the command goes anywhere
    attr, kind = cli._FLAGS[flag][:2]
    assert getattr(spaced, attr) == kind(value) != getattr(cli.parse_args(["converge"]), attr)


def test_every_flag_is_covered_and_values_are_taken_verbatim():
    assert set(FLAG_VALUES) | {"--dump-basis"} == set(cli._FLAGS)
    assert cli.parse_args(["closure", "--dump-basis"]).dump_basis is True
    # a value is the next token verbatim, even one that looks like a flag
    assert cli.parse_args(["info", "--walk", "--t", "--t", "-2"]).walk == "--t"
    assert cli.parse_args(["info", "--t", "1", "--t=3"]).t == 3.0  # the last one counts


def test_flag_defaults_are_pinned():
    assert vars(cli.parse_args(["info"])) == {
        "command": "info", "walk": "", "protocol": "", "gamma": 1.0, "t": 1.0, "m_list": "",
        "tol": 1e-9, "seed": 0, "out": "", "format": "csv", "hamiltonian": "",
        "dump_basis": False}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["closure", "--walk", "cycle:4", "-h"]])
def test_help_names_every_command_and_flag(tmp_path, capsys, argv):
    out = tmp_path / "never.csv"
    assert cli.main(["--out", str(out), *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and not out.exists()
    for name in [*cli._DISPATCH, *cli._FLAGS]:
        assert name in captured.out


def per_entry_matrix(obj):
    """A JSON matrix read one entry at a time: cli._matrix_from_json without its fast path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_flat_matrix", lambda obj: None)
        return cli._matrix_from_json(obj)


_json_numbers = st.one_of(
    st.integers(min_value=-2 ** 1023, max_value=2 ** 1023),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, -0.0, 2 ** 53 + 1, -(2 ** 63) - 1, 2 ** 64 + 3, 1e308, -1e308,
                     5e-324]))


@st.composite
def json_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pair = st.lists(_json_numbers, min_size=2, max_size=2)
    return draw(st.lists(st.lists(pair, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(json_matrices())
def test_matrix_from_json_is_the_per_entry_reading_bitwise(obj):
    m, oracle = cli._matrix_from_json(obj), per_entry_matrix(obj)
    assert m.dtype == oracle.dtype and m.shape == oracle.shape
    assert m.tobytes() == oracle.tobytes()


def _big_matrix_with(i, j, entry):
    obj = matrix_json(np.arange(36.0).reshape(6, 6) * (1 + 0.5j))
    obj[i][j] = entry
    return obj


def _ragged():
    obj = _big_matrix_with(0, 0, [0.0, 0.0])
    obj[3].pop()
    return obj


@pytest.mark.parametrize("obj", [
    _big_matrix_with(5, 5, [True, 0.0]), _big_matrix_with(5, 5, [1.0, "0"]),
    _big_matrix_with(5, 5, [float("nan"), 0.0]), _big_matrix_with(2, 3, [0.0, float("inf")]),
    _big_matrix_with(0, 0, [-float("inf"), 1]), _big_matrix_with(4, 1, [10 ** 400, 0]),
    _big_matrix_with(5, 5, [1.0, 0.0, 2.0]), _ragged(),
    _big_matrix_with(0, 0, [0.0, 0.0])[:5] + [5], [[[1, 0]], {"re": 1}], [], [[1.0, 0.0]],
], ids=["bool", "string", "nan", "inf", "minus-inf", "int-past-float-max", "three-numbers",
        "ragged-row", "non-list-row", "object-row", "empty", "row-of-numbers"])
def test_bad_matrix_json_gets_the_per_entry_message(obj):
    with pytest.raises(BadSpec) as oracle:
        per_entry_matrix(obj)
    with pytest.raises(BadSpec) as got:
        cli._matrix_from_json(obj)
    assert str(got.value) == str(oracle.value)


def test_a_well_formed_matrix_is_read_as_one_array(monkeypatch):
    def no_entry(z):
        raise AssertionError("a well-formed matrix was read one entry at a time")

    monkeypatch.setattr(cli, "_matrix_entry", no_entry)
    m = np.arange(12.0).reshape(3, 4) - 2j
    assert np.array_equal(cli._matrix_from_json(matrix_json(m)), m)


def per_step_steps(items):
    """Protocol steps read one at a time, each its own ProtocolStep: the oracle for
    cli._protocol_steps_from_json, which shares one object among equal steps."""
    steps = []
    for item in items:
        if not isinstance(item, dict) or "coin" not in item or "generator" not in item:
            raise BadSpec("each protocol step must be an object with 'coin' and 'generator'")
        steps.append(limits.ProtocolStep(per_entry_matrix(item["coin"]),
                                         per_entry_matrix(item["generator"]),
                                         cli._json_float(item.get("slope", 1.0), "step slope")))
    return steps


def _signed_zeros(draw, m):
    """matrix_json(m) with each zero part drawn as 0.0 or -0.0."""
    zero = st.sampled_from([0.0, -0.0])
    return [[[z.real or draw(zero), z.imag or draw(zero)] for z in row]
            for row in np.asarray(m, dtype=complex)]


@st.composite
def protocol_steps_json(draw):
    """An atom's 'steps' as read from JSON: a pool of one to three valid steps, which may differ
    only in the signs of their zeros or in their slopes, drawn with repeats in any order."""
    u2 = [1j * limits.D_COIN, 0.25j * np.array([[1.0, 2 - 1j], [2 + 1j, -0.5]])]
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        step = {"coin": _signed_zeros(draw, draw(st.sampled_from([limits.R_COIN, np.eye(2)]))),
                "generator": _signed_zeros(draw, draw(st.sampled_from(u2 + [np.zeros((2, 2))])))}
        slope = draw(st.one_of(st.none(), st.sampled_from([1.0, 0.0, -0.0, 2, -3]),
                               st.floats(-4, 4)))
        if slope is not None:
            step["slope"] = slope
        pool.append(step)
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
    return json.loads(json.dumps([pool[j] for j in order]))


def _step_bytes(step):
    return step.coin.tobytes(), step.generator.tobytes(), np.float64(step.slope).tobytes()


_R_JSON = matrix_json(limits.R_COIN)
_D_JSON = matrix_json(1j * limits.D_COIN)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(protocol_steps_json())
@example([{"coin": _R_JSON, "generator": _D_JSON},
          {"coin": _R_JSON, "generator": [[[0.0, 0.0], [-0.0, -1.0]], [[0.0, -1.0], [0.0, 0.0]]]},
          {"coin": _R_JSON, "generator": _D_JSON, "slope": -0.0},
          {"coin": _R_JSON, "generator": _D_JSON, "slope": 0.0},
          {"coin": _R_JSON, "generator": _D_JSON}])
def test_protocol_steps_are_the_per_step_reading_bitwise(items):
    steps, oracle = cli._protocol_steps_from_json(items), per_step_steps(items)
    assert len(steps) == len(oracle) == len(items)
    for got, want in zip(steps, oracle):
        assert got.coin.dtype == want.coin.dtype and got.coin.shape == want.coin.shape
        assert got.generator.shape == want.generator.shape
        assert _step_bytes(got) == _step_bytes(want)
    # one step object per distinct (coin, generator, slope) bytes
    for a in steps:
        for b in steps:
            assert (a is b) == (_step_bytes(a) == _step_bytes(b))


def _flatten(step, name):
    step[name] = [[z for row in step[name] for z in row]]


_BAD_STEP_EDITS = {
    "coin-not-unitary": lambda step: step.__setitem__("coin", matrix_json(2 * limits.R_COIN)),
    "generator-not-skew": lambda step: step.__setitem__("generator", matrix_json(limits.D_COIN)),
    "generator-3x3": lambda step: step.__setitem__("generator", matrix_json(np.zeros((3, 3)))),
    "both-3x3": lambda step: step.update(coin=matrix_json(np.eye(3)),
                                         generator=matrix_json(np.zeros((3, 3)))),
    "coin-2x3": lambda step: step.__setitem__("coin", matrix_json(np.eye(2, 3))),
    "entry-bool": lambda step: step["coin"][0].__setitem__(0, [False, False]),
    "entry-string": lambda step: step["generator"][1].__setitem__(1, ["0", "0"]),
    "slope-string": lambda step: step.__setitem__("slope", "1"),
    "slope-bool": lambda step: step.__setitem__("slope", True),
    "slope-huge-int": lambda step: step.__setitem__("slope", 10 ** 400),
    "no-generator": lambda step: step.pop("generator"),
    "not-an-object": lambda step: step.clear(),
    # the same bytes as the step unedited, in a 1 x 4 matrix
    "coin-flattened": lambda step: _flatten(step, "coin"),
    "generator-flattened": lambda step: _flatten(step, "generator"),
}


def _reading(read, items):
    """The steps' bytes that read makes of items, or the type and message of its error."""
    try:
        return [_step_bytes(step) for step in read(items)]
    except QwlError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@example([{"coin": _R_JSON, "generator": _D_JSON}] * 2, [(1, "coin-flattened")])
@example([{"coin": _R_JSON, "generator": _D_JSON}] * 2, [(1, "generator-flattened")])
@given(protocol_steps_json(), st.lists(st.tuples(st.integers(0, 9),
                                                  st.sampled_from(sorted(_BAD_STEP_EDITS))),
                                        min_size=1, max_size=3))
def test_a_bad_protocol_step_gets_the_per_step_message(items, edits):
    """A step or two edited, each alone (not its repeats): the per-step error, or steps."""
    edits = {at % len(items): name for at, name in edits}
    for j, name in edits.items():
        items[j] = json.loads(json.dumps(items[j]))
        _BAD_STEP_EDITS[name](items[j])
    oracle = _reading(per_step_steps, items)
    assert _reading(cli._protocol_steps_from_json, items) == oracle
    # every edit but "both-3x3" (a valid step of another coin space) is an error
    assert isinstance(oracle, tuple) or set(edits.values()) == {"both-3x3"}


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(protocol_steps_json())
def test_regular_steps_are_read_as_two_arrays(items):
    """An atom's steps whose matrices are all plain pairs of one shape are read by one
    _flat_matrix call for the coins and one for the generators, never entry by entry."""
    calls = []
    flat = cli._flat_matrix

    def counting_flat_matrix(obj, stacked=False):
        calls.append(stacked)
        return flat(obj, stacked)

    def no_per_step_read(obj):
        raise AssertionError("a regular step was read on its own")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_flat_matrix", counting_flat_matrix)
        mp.setattr(cli, "_matrix_from_json", no_per_step_read)
        steps = cli._protocol_steps_from_json(items)
    assert calls == [True, True]
    assert [_step_bytes(step) for step in steps] == \
        [_step_bytes(step) for step in per_step_steps(items)]
