"""Command-line surface: specs, report formats, determinism, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qwl import cli, graphs, limits, walks
from qwl.errors import BadSpec, DimMismatch, NotScalarAtZero
from qwl.rng import seeded_state
from walk_cases import (
    CYCLE8_CHORDS,
    relabelled_cycle,
    relabelled_cycle_json,
    relabelled_json,
    repeated_target_json,
    turn_or_flip_cycle_json,
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

    # lattice:3,3: 946 elements of 162 x 162, 397 MB dense, 4.3 GB as JSON lists
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
    assert out.read_text() == cli._json_dumps(report) + "\n"


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


def test_determinism(tmp_path):
    cases = [
        ["info", "--walk", "lattice:3,2"],
        ["converge", "--walk", "cycle:6", "--protocol", "evencyc",
         "--m-list", "16,32,64", "--format", "json"],
        ["project", "--walk", "cycle:8", "--t", "0.7", "--seed", "5"],
        ["closure", "--walk", "example", "--format", "json"],
        ["example", "--format", "json"],
        ["evolve", "--walk", "cycle:5", "--seed", "9", "--format", "json"],
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
