"""End-to-end and per-layer benchmark of the ``qwl`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload closure|limit|files --seed N \\
        --seconds S --trace 0|1

Each report of a workload runs as one ``qwl.cli.main(argv)`` call in a fresh
interpreter (``worker.py``), one at a time, as a CLI user would run it, so
no state carries over from one report to the next.  A pass is one run of
the workload's report list; passes repeat until ``--seconds`` is spent.
Every report's output is checked (``checks.py``).

Set-up and pass times are gated as CPU time scaled to a fixed host speed
(GLOSSARY.md says why); the raw CPU and wall times are printed beside them.  With ``--trace 0`` the last line
of stdout holds the end-to-end metrics; with ``--trace 1`` passes alternate
untraced and traced and it holds the per-layer metrics from the traced ones.
The lines before it print every metric of GLOSSARY.md with its unit and
sample count.  A JSON result file with provenance, and the spans of a traced
run, go to ``perfbench/out/``.
Exit code: 0 when every report passed its check, 1 when one failed, 2 when
the program under test is missing.
"""

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

REPORT_TIMEOUT_S = 150
# Reports run one at a time on a shared machine; one BLAS thread (at most
# nproc) made pass_s and setup_s several times steadier than nproc threads.
BLAS_THREADS = 1
# The shared host's speed drifts by tens of percent within minutes.  A
# report's set-up is mostly the interpreter starting and importing numpy; this
# probe does just that, right after each report, and the report's times are
# scaled to a host on which the probe takes PROBE_REF_S of CPU time (about what
# it takes on the 2-vCPU Xeon host the bounds were set on).  Set-up time is
# scaled by the probe's ratio itself, a report's CPU time by that ratio to the
# power PASS_ELASTICITY: report CPU time moved less than the probe when the
# host's speed changed, and this power made runs at different host speeds
# agree best (GLOSSARY.md).  A change in the host's speed then mostly cancels;
# a change in qwl's CPU time moves the scaled times in proportion.
PROBE = "import time, numpy; print(time.process_time())"
PROBE_REF_S = 0.18
PASS_ELASTICITY = 0.6
E2E = {"setup_s": "s", "pass_ref_s": "s", "peak_rss_mb": "MB"}
KIND_METRICS = ("closure", "simulable", "converge", "project", "evolve", "info")
PER_LAYER = (
    "liealg.self_s", "liealg.lie_closure.self_s", "liealg.lie_closure.calls",
    "liealg.generators.self_s", "liealg.member_residual.self_s",
    "liealg.spectrum_multiset.self_s", "liealg.closure.dimension", "liealg.closure.passes",
    "limits.self_s", "limits.Atom.init.self_s",
    "limits.Atom.unitary.calls", "limits.Atom.unitary.self_s",
    "limits.Atom.hamiltonian.calls", "limits.Atom.hamiltonian.self_s",
    "limits.protocol_unitary.calls", "limits.protocol_unitary.self_s",
    "limits.effective_hamiltonian.calls", "limits.effective_hamiltonian.self_s",
    "limits.repeated_limit.self_s",
    "limits.single_step_error.calls", "limits.single_step_error.self_s",
    "limits.hamiltonian_reuse",
    "walks.self_s", "walks.shift_matrix.calls", "walks.shift_matrix.self_s",
    "walks.shift_matrix.bytes", "walks.graph_coined_walk.self_s",
    "walks.walk_from_json.self_s", "walks.shift_order.self_s",
    "walks.ctqw_propagator.calls", "walks.ctqw_propagator.self_s",
    "linalg.self_s", "linalg.hermitian_eig.calls", "linalg.hermitian_eig.self_s",
    "linalg.hermitian_eig.n3", "linalg.expm_hermitian.calls", "linalg.expm_hermitian.self_s",
    "linalg.kron.calls", "linalg.kron.self_s", "linalg.kron.bytes",
    "linalg.frob.calls", "linalg.frob.self_s", "linalg.hs_inner.calls",
    "linalg.hs_inner.self_s", "linalg.checks.self_s",
    "graphs.self_s", "graphs.adjacency.self_s", "graphs.laplacian.self_s",
    "graphs.cartesian_product.self_s", "graphs.graph_from_json.self_s",
    "cli.self_s", "cli.resolve_walk.self_s", "cli.resolve_protocol.self_s",
    "rng.seeded_state.self_s",
    "trace.overhead_s",
)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("hamiltonian_reuse"):
        return "ratio"
    return "count"


def provenance(threads, nproc):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"numpy": np.__version__, "blas": blas_name, "blas_threads": threads,
            "nproc": nproc, "python": platform.python_version(),
            "git_commit": commit or "unknown (not a git checkout)",
            "src_lines": src_lines}


def run_report(report, out_path, trace_id, env):
    """Run one report in a fresh interpreter; return its record."""
    argv = [sys.executable, str(HERE / "worker.py"), str(SRC), trace_id or "-",
            *report.argv, "--format", "json", "--out", str(out_path)]
    record = {"label": report.label, "kind": report.kind, "traced": bool(trace_id),
              "problems": []}
    out_path.unlink(missing_ok=True)  # never check a previous pass's output
    launch = time.monotonic()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, cwd=str(out_path.parent)) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=REPORT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            record["problems"].append(f"timed out after {REPORT_TIMEOUT_S} s")
            return record, []
    try:
        result = json.loads(stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        record["problems"].append(f"worker exited {proc.returncode}: {stderr.decode()[-2000:]}")
        return record, []
    record.update(setup_cpu_s=result["ready_cpu"], setup_wall_s=result["ready"] - launch,
                  duration_s=result["duration"], cpu_s=result["cpu"],
                  rss_mb=result["maxrss_kb"] / 1024, code=result["code"])
    if result["error"] or result["code"] != 0:
        record["problems"].append(
            f"qwl exited {result['code']}: {result['error'] or stderr.decode()[-2000:]}")
        return record, result["spans"]
    try:
        report_obj = json.loads(out_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        record["problems"].append(f"unreadable report: {exc}")
        return record, result["spans"]
    try:
        record["problems"] = report.check(report_obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        record["problems"].append(f"malformed report: {exc!r}")
    return record, result["spans"]


def run_pass(reports, run_dir, index, traced, env):
    """One pass over the report list; returns (pass record, spans)."""
    records, spans = [], []
    for k, report in enumerate(reports):
        trace_id = f"p{index}r{k}" if traced else None
        rec, rep_spans = run_report(report, run_dir / f"report{k}.json", trace_id, env)
        if not traced:
            rec["probe_s"] = float(subprocess.run(
                [sys.executable, "-c", PROBE], env=env, check=True, capture_output=True,
                text=True, timeout=REPORT_TIMEOUT_S).stdout)
        records.append(rec)
        spans.extend(rep_spans)
    done = [r for r in records if "duration_s" in r]
    summary = {
        "index": index, "traced": traced, "reports": records,
        "pass_s": sum(r["duration_s"] for r in done),
        "pass_cpu_s": sum(r["cpu_s"] for r in done),
        "peak_rss_mb": max((r["rss_mb"] for r in done), default=0.0),
    }
    for kind in KIND_METRICS:
        summary[f"{kind}_s"] = sum(r["duration_s"] for r in done if r["kind"] == kind)
    return summary, spans


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes, kinds, failed, attempted):
    """Every end-to-end metric of GLOSSARY.md as {name: (value, unit, n, note)}."""
    done = [r for p in passes for r in p["reports"] if "setup_cpu_s" in r]
    times = sorted(p["pass_s"] for p in passes)
    out = {"setup_s": (median([r["setup_cpu_s"] / r["probe_s"] for r in done]) * PROBE_REF_S,
                       "s", len(done), f"set-up CPU time at probe_s = {PROBE_REF_S} s"),
           "setup_cpu_s": (median([r["setup_cpu_s"] for r in done]), "s", len(done), ""),
           "setup_wall_s": (median([r["setup_wall_s"] for r in done]), "s", len(done), ""),
           "probe_s": (median([r["probe_s"] for r in done]), "s", len(done), ""),
           "pass_ref_s": (median([sum(r["cpu_s"] * (PROBE_REF_S / r["probe_s"]) ** PASS_ELASTICITY
                                      for r in p["reports"] if "cpu_s" in r) for p in passes]),
                          "s", len(passes), f"pass CPU time at probe_s = {PROBE_REF_S} s"),
           "pass_cpu_s": (median([p["pass_cpu_s"] for p in passes]), "s", len(passes), ""),
           "pass_s": (median(times), "s", len(times), "")}
    if len(times) > 10:
        k = len(times) - 10  # the k-th smallest has exactly 10 passes above it
        out["pass_s_tail"] = (times[k - 1], "s", len(times),
                              f"rank {k} of {len(times)}, p{100 * k / len(times):.0f}")
    else:
        out["pass_s_tail"] = (None, "s", len(times), "needs at least 11 passes")
    for kind in KIND_METRICS:
        if kind in kinds:
            out[f"{kind}_s"] = (median([p[f"{kind}_s"] for p in passes]), "s", len(passes), "")
        else:
            out[f"{kind}_s"] = (None, "s", 0, f"no {kind} report in this workload")
    out["peak_rss_mb"] = (median([p["peak_rss_mb"] for p in passes]), "MB", len(passes), "")
    out["failed_frac"] = (failed / attempted, "ratio", attempted, "")
    return out


def per_layer(traced, untraced):
    """Median over traced passes of each per-layer metric, plus trace.overhead_s."""
    per_pass = [tracer.layer_metrics(spans) for _, spans in traced]
    out = {name: median([m.get(name, 0) for m in per_pass]) for name in PER_LAYER}
    out["trace.overhead_s"] = (median([p["pass_s"] for p, _ in traced])
                               - median([p["pass_s"] for p in untraced]))
    return out


def print_table(title, rows):
    print(title)
    for name, (value, unit, n, note) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {unit:6s} n={n:<4d} {note}")


def write_spans(path, passes):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for _, spans in passes:
            for tid, sid, parent, name, start, end, counts in spans:
                fh.write(json.dumps({"trace": tid, "span": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "counts": counts}) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark the qwl command line.")
    ap.add_argument("--workload", required=True, choices=("closure", "limit", "files"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qwl" / "cli.py").is_file():
        print(f"perfbench: no qwl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the files workload builds its reference state with qwl.rng
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    paths, meta = inputs.write_inputs(args.seed, run_dir / "inputs")
    reports = workloads.reports(args.workload, paths, meta)
    threads, nproc = BLAS_THREADS, len(os.sched_getaffinity(0))
    # Reports read compiled bytecode from one cache under OUT, filled by an
    # untimed import first, as an installed package's would be: setup_s then
    # never includes compiling, whether or not the environment lets Python
    # write bytecode next to the sources.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads), PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import qwl.cli"], env=env, check=True, timeout=REPORT_TIMEOUT_S)

    untraced, traced = [], []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        untraced.append(run_pass(reports, run_dir, len(untraced) + len(traced), False, env)[0])
        if args.trace:
            traced.append(run_pass(reports, run_dir, len(untraced) + len(traced), True, env))
        spent = time.monotonic() - start
        if spent + (time.monotonic() - round_start) > args.seconds:
            break

    all_passes = untraced + [p for p, _ in traced]
    attempted = sum(len(p["reports"]) for p in all_passes)
    failures = [dict(r, pass_index=p["index"]) for p in all_passes
                for r in p["reports"] if r["problems"]]
    e2e = end_to_end(untraced, {r.kind for r in reports}, len(failures), attempted)
    print(f"workload {args.workload}, seed {args.seed}, {len(all_passes)} passes, "
          f"{attempted} reports, BLAS threads {threads} of nproc {nproc}")
    print_table("end to end (untraced passes):", e2e)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(threads, nproc),
              "end_to_end": {k: {"value": v, "unit": u, "n": n, "note": note}
                             for k, (v, u, n, note) in e2e.items()},
              "failures": failures, "passes": all_passes}
    if args.trace:
        layers = per_layer(traced, untraced)
        print_table("per layer (median over traced passes):",
                    {k: (v, layer_unit(k), len(traced), "") for k, v in layers.items()})
        shares = {k: v for k, v in layers.items() if k.count(".") == 1 and k.endswith("self_s")}
        total = sum(shares.values()) or 1.0
        print("self-time share by layer: " + ", ".join(
            f"{k.split('.')[0]} {100 * v / total:.1f}%"
            for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        result["per_layer"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        metrics = result["per_layer"]
        write_spans(OUT / f"{run_dir.name}.spans.jsonl.gz", traced)
    else:
        metrics = {k: {"value": e2e[k][0], "unit": unit} for k, unit in E2E.items()}
    for problem in failures:
        print(f"FAILED {problem['label']} (pass {problem['pass_index']}): "
              f"{'; '.join(problem['problems'])}", file=sys.stderr)
    (OUT / f"{run_dir.name}.json").write_text(json.dumps(result, indent=1) + "\n",
                                               encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
