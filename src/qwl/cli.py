"""Command-line front end.

Builds walks and protocols from inline shorthand ("cycle:8", "strauch") or
JSON files, runs convergence studies, chiral projections of two-coin walks,
Lie closures and the complete-graph example, and writes CSV or JSON
reports.  All numeric output uses scientific notation with 17 significant
digits and seeded states come from the fixed stream in ``qwl.rng``, so
identical flags give byte-identical files.

``main`` reads the flags from one table (``_FLAGS``: flag, attribute, type,
default) with ``parse_args`` and validates them once (``_validate``, before
any work); a flag error is ``BadSpec`` like any other bad input.  Each
``cmd_*`` returns its report dict, its CSV rows and its exit code, and
``main`` renders the format asked for.  A report may hold float arrays,
written as their nested lists would be; a nonempty finite float64 array is
formatted in one pass over its entries (``_array_json``).  JSON numbers
read, matrix entries included, must be finite numbers: bools and strings
are rejected.  A matrix of plain [re, im] number pairs is read as one
array, anything else entry by entry; so are an atom's coins, and its
generators, when all are such matrices of one shape.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

import io
import json
import math
import sys
from itertools import chain
from types import SimpleNamespace

import numpy as np

from . import graphs, liealg, limits, walks
from .errors import (
    BadSpec,
    DimMismatch,
    DomainExceeded,
    NonHermitian,
    NumericalError,
    QwlError,
)
from .linalg import is_hermitian
from .rng import seeded_state

__all__ = ["main"]

PROJECT_TOL = 1e-10
EXAMPLE_CLOSURE_DIM = 33
EXAMPLE_MEMBER_TOL = 1e-8
# protocol trees are parsed and evaluated recursively; keep clear of the recursion limit
MAX_PROTOCOL_DEPTH = 256
# bytes of the dense complex basis that ``closure --dump-basis`` may write; rendering it as JSON
# text takes about 23 times that in memory (lattice:4,2, 7.9 MB dense, grows the peak by 183 MB)
MAX_DUMP_BYTES = 2 ** 23


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _array_json(a: np.ndarray, indent: int) -> str:
    """A finite float array as ``_json_dumps(a.tolist(), indent)`` renders it: every entry
    formatted in one pass, then each axis's rows joined, innermost first."""
    items = list(map("{:.16e}".format, a.ravel().tolist()))
    for depth in range(indent + a.ndim - 1, indent - 1, -1):
        pad = "\n" + "  " * depth
        head, sep, tail = "[" + pad + "  ", "," + pad + "  ", pad + "]"
        m = a.shape[depth - indent]
        items = [head + sep.join(items[k:k + m]) + tail for k in range(0, len(items), m)]
    return items[0]


def _json_dumps(obj, indent: int = 0) -> str:
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.size and np.isfinite(obj).all():
            return _array_json(obj, indent)
        return _json_dumps(obj.tolist(), indent)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(k)}: {_json_dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj) if math.isfinite(obj) else "null"
    return json.dumps(obj)


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return _fmt(v) if isinstance(v, (float, np.floating)) else v


def _csv_text(rows) -> str:
    """CSV with lowercase booleans, %.16e floats and anything else as is."""
    import csv  # loaded only for CSV output
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadSpec(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise BadSpec(f"{path}: JSON nested too deeply") from exc


def _json_float(value, what: str) -> float:
    """A finite real number read from JSON; bools and strings are rejected."""
    # abs(v) <= max compares big ints exactly and is false for nan and inf
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise BadSpec(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _matrix_entry(z) -> complex:
    if not isinstance(z, list) or len(z) != 2:
        raise BadSpec(f"matrix entry must be an [re, im] pair, got {z!r}")
    return complex(_json_float(z[0], "matrix entry"), _json_float(z[1], "matrix entry"))


def _flat_matrix(obj, stacked=False):
    """obj as a complex array when it is equal rows of [re, im] pairs of finite ints and floats
    only, or, stacked, a list of such matrices of one shape; None for anything else, which the
    per-entry path then reads or refuses."""
    shape, items = [], [obj]
    for _ in range(2 + stacked):  # each level nonempty lists of one length
        if set(map(type, items)) != {list} or len(lengths := set(map(len, items))) != 1 \
                or 0 in lengths:
            return None
        shape.append(lengths.pop())
        items = list(chain.from_iterable(items))
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    flat = list(chain.from_iterable(items))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        a = np.array(flat, dtype=float)
    except OverflowError:  # an int past the largest float
        return None
    return a.view(complex).reshape(shape) if np.isfinite(a).all() else None


def _matrix_from_json(obj) -> np.ndarray:
    m = _flat_matrix(obj)
    if m is not None:
        return m
    if not isinstance(obj, list):
        raise BadSpec(f"a matrix must be a JSON list of rows, got {type(obj).__name__}")
    try:
        m = np.array([[_matrix_entry(z) for z in row] for row in obj], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise BadSpec(f"matrix JSON must be rows of [re, im] pairs: {exc}") from exc
    if m.ndim != 2:
        raise BadSpec("matrix JSON must be two-dimensional")
    return m


def resolve_walk(spec: str) -> walks.CoinedWalk:
    """Build a walk from "cycle:N", "lattice:N,D", "example" or "file:PATH"."""
    if spec == "example":
        return walks.example_walk()
    if spec.startswith("cycle:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise BadSpec(f"bad cycle size in {spec!r}") from exc
        return walks.cycle_walk(n)
    if spec.startswith("lattice:"):
        try:
            n, d = (int(v) for v in spec.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise BadSpec(f"lattice spec must be lattice:N,D, got {spec!r}") from exc
        return walks.lattice_walk(n, d)
    if spec.startswith("file:"):
        return walks.walk_from_json(_load_json(spec[5:]))
    raise BadSpec(f"unrecognized walk spec {spec!r}")


def _protocol_steps_from_json(items):
    """An atom's steps, read and checked in order.

    When every step is an object whose coins, and whose generators, are matrices of one shape
    of plain number pairs, all coins are read as one array and all generators as another;
    otherwise each step is read on its own, so a bad step is named as it comes.  One
    ``ProtocolStep`` is built per distinct step, keyed by the shapes of its coin and
    generator and the bytes of its coin, generator and slope: -0.0 and 0.0 differ, and a
    reshaped matrix of the same bytes is checked on its own.  A repeat is that same object,
    which T(x) exponentiates once.
    """
    if not isinstance(items, list):
        raise BadSpec(f"protocol 'steps' must be a list, got {type(items).__name__}")
    coins = gens = None
    if all(isinstance(item, dict) and "coin" in item and "generator" in item for item in items):
        coins = _flat_matrix([item["coin"] for item in items], stacked=True)
        gens = _flat_matrix([item["generator"] for item in items], stacked=True)
    whole = coins is not None and gens is not None
    made = {}
    steps = []
    for j, item in enumerate(items):
        if whole:
            coin, gen = coins[j], gens[j]
        elif not isinstance(item, dict) or "coin" not in item or "generator" not in item:
            raise BadSpec("each protocol step must be an object with 'coin' and 'generator'")
        else:
            coin, gen = _matrix_from_json(item["coin"]), _matrix_from_json(item["generator"])
        slope = _json_float(item.get("slope", 1.0), "step slope")
        key = (coin.shape, gen.shape, coin.tobytes(), gen.tobytes(), np.float64(slope).tobytes())
        if key not in made:
            made[key] = limits.ProtocolStep(coin=coin, generator=gen, slope=slope)
        steps.append(made[key])
    return steps


def _protocol_from_json(obj, walk, depth=0):
    """A protocol on walk; an atom that names its walk must name one with walk's moves."""
    if not isinstance(obj, dict):
        raise BadSpec(f"a protocol must be a JSON object, got {type(obj).__name__}")
    if depth > MAX_PROTOCOL_DEPTH:
        raise BadSpec(f"protocol nesting is deeper than {MAX_PROTOCOL_DEPTH}")
    kind = obj.get("kind")
    if kind == "atom":
        wspec = obj.get("walk")
        if isinstance(wspec, str):
            named = resolve_walk(wspec)
        elif isinstance(wspec, dict):
            named = walks.walk_from_json(wspec)
        elif wspec is None:
            named = walk
        else:
            raise BadSpec("atom 'walk' must be a walk spec or a walk object, "
                          f"got {type(wspec).__name__}")
        if not np.array_equal(named.moves, walk.moves):
            raise DimMismatch("an atom's walk must have the moves of --walk's walk")
        return limits.Atom(walk, _protocol_steps_from_json(obj.get("steps", [])))
    if kind in ("concat", "commutator"):
        children = obj.get("children")
        if not isinstance(children, list) or len(children) != 2:
            raise BadSpec(f"{kind} protocol needs a list of exactly two children")
        left, right = (_protocol_from_json(c, walk, depth + 1) for c in children)
        return limits.Concat(left, right) if kind == "concat" else limits.Commutator(left, right)
    raise BadSpec(f"protocol kind must be atom/concat/commutator, got {kind!r}")


def resolve_protocol(spec: str, walk: walks.CoinedWalk):
    """Build a protocol on walk from "strauch", "evencyc" or "file:PATH".

    "strauch" is two R-coin steps, refused by ``limits.Atom`` unless walk has
    two coins whose moves undo each other; "evencyc" is the shift orbit of any walk.
    """
    if spec == "strauch":
        return limits.two_step_protocol(walk)
    if spec == "evencyc":
        return limits.orbit_protocol(walk)
    if spec.startswith("file:"):
        return _protocol_from_json(_load_json(spec[5:]), walk)
    raise BadSpec(f"unrecognized protocol spec {spec!r}")


def cmd_info(args):
    w = resolve_walk(args.walk)
    spectrum = liealg.eigenvalue_multiset(walks.adjacency_spectrum(w), 8)
    report = {
        "walk": args.walk,
        "coin_dim": w.coin_dim,
        "walker_dim": w.walker_dim,
        "shift_order": walks.shift_order(w),
        "regular_degree": graphs.regular_degree(w.graph),
    }
    rows = [["key", "value"], *report.items()]
    rows += [["spectrum", val, mult] for val, mult in spectrum]
    report["graph_spectrum"] = spectrum
    return report, rows, 0


def cmd_converge(args):
    w = resolve_walk(args.walk)
    p = resolve_protocol(args.protocol, w)
    study = limits.convergence_study(p, args.gamma, args.t, args.m_list)
    samples = [(m, x, ss, rep_err) for m, (x, rep_err), ss
               in zip(args.m_list, study.samples, study.single_step_errors)]
    report = {
        "samples": [{"m": m, "x": x, "single_step_error": ss, "repeated_error": re}
                    for m, x, ss, re in samples],
        "fitted_exponent": study.fitted_exponent,
    }
    rows = [["m", "x", "single_step_error", "repeated_error"], *samples,
            ["fitted_exponent", study.fitted_exponent]]
    return report, rows, 0


def cmd_evolve(args):
    w = resolve_walk(args.walk)
    psi0 = seeded_state(w.graph.n, args.seed)
    psit = walks.expm_state(w, walks.adjacency_eig(w), args.gamma * args.t, psi0)
    norm_residual = abs(np.linalg.norm(psit) - 1.0)
    report = {
        "walk": args.walk,
        "gamma": args.gamma,
        "t": args.t,
        "seed": args.seed,
        "state": psit.view(float).reshape(-1, 2),
        "norm_residual": norm_residual,
    }
    rows = chain([["vertex", "re", "im", "probability"]],
                 ([j, z.real, z.imag, abs(z) ** 2] for j, z in enumerate(psit)),
                 [["norm_residual", norm_residual]])  # built only if CSV is written
    return report, rows, 0


def cmd_project(args):
    w = resolve_walk(args.walk)
    if w.coin_dim != 2:
        raise DimMismatch(f"project needs a two-coin walk, got coin_dim {w.coin_dim}")
    gamma, t = args.gamma, args.t
    psi0 = seeded_state(w.dim, args.seed)
    psit = walks.expm_state(w, limits.orbit_eig(w), gamma * t, psi0)
    pair0, pairt = limits.chiral_pair(w, psi0), limits.chiral_pair(w, psit)

    # each coin block of psi + sign X S^T psi evolves as exp(-i*sign*gamma*A*t), its phi under
    # L, which is A - 2 on the 2-regular graph and so has A's eigenvectors
    eig_a = walks.adjacency_eig(w)
    eig_l = (eig_a[0] - 2, eig_a[1])
    psi_res = 0.0
    phi_res = 0.0
    for sign, x0, xt in zip((1, -1), pair0, pairt):
        s = sign * gamma * t
        for b0, bt in zip(np.split(x0, 2), np.split(xt, 2)):
            psi_res = max(psi_res, float(np.linalg.norm(bt - walks.expm_state(w, eig_a, s, b0))))
            phi_t = limits.phi_transform(bt, gamma, t, sign)
            phi_0 = limits.phi_transform(b0, gamma, 0.0, sign)
            phi_err = phi_t - walks.expm_state(w, eig_l, s, phi_0)
            phi_res = max(phi_res, float(np.linalg.norm(phi_err)))
    rec_res = float(np.linalg.norm(0.5 * (pairt[0] + pairt[1]) - psit))

    ok = psi_res <= PROJECT_TOL and phi_res <= PROJECT_TOL and rec_res <= PROJECT_TOL
    report = {
        "psi_adjacency_residual": psi_res,
        "phi_laplacian_residual": phi_res,
        "reconstruction_residual": rec_res,
        "tolerance": PROJECT_TOL,
        "pass": ok,
    }
    return report, [["key", "value"], *report.items()], 0 if ok else 3


def cmd_closure(args):
    w = resolve_walk(args.walk)
    basis = liealg.walk_closure(w, args.tol)
    report = {
        "ambient_dim": basis.dim_ambient,
        "dimension": basis.dimension,
        "tolerance": basis.tol,
        "generator_count": w.coin_dim ** 2 * walks.shift_order(w),
        "passes": basis.passes,
    }
    rows = [["key", "value"], *report.items()]
    if args.dump_basis:
        size = basis.dimension * basis.dim_ambient ** 2 * 16
        if size > MAX_DUMP_BYTES:
            raise DomainExceeded(f"the dense basis dump would take {size} bytes, over "
                                 f"MAX_DUMP_BYTES = {MAX_DUMP_BYTES}")
        elements = basis.dense_elements()
        report["basis"] = elements.view(float).reshape(elements.shape + (2,))
    return report, rows, 0


def cmd_simulable(args):
    if not args.hamiltonian:
        raise BadSpec("simulable needs --hamiltonian PATH")
    w = resolve_walk(args.walk)
    basis = liealg.walk_closure(w, args.tol)
    h = _matrix_from_json(_load_json(args.hamiltonian))
    if h.shape != (w.dim, w.dim):
        raise DimMismatch(f"Hamiltonian is {h.shape}, walk space is {w.dim}x{w.dim}")
    if not is_hermitian(h):
        raise NonHermitian("Hamiltonian file is not Hermitian within 1e-10 of its largest entry")
    residual = liealg.member_residual(basis, -1j * h)
    report = {
        "residual": residual,
        "tolerance": args.tol,
        "simulable": residual <= args.tol,
        "closure_dimension": basis.dimension,
    }
    return report, [["key", "value"], *report.items()], 0


def cmd_example(args):
    w = walks.example_walk()
    items = []

    order = walks.shift_order(w)
    items.append({"name": "shift_order", "expected": 2, "actual": order,
                  "pass": order == 2})

    spectrum = liealg.eigenvalue_multiset(walks.adjacency_spectrum(w), 8)
    expected_spec = [(3.0, 1), (-1.0, 3)]
    items.append({"name": "adjacency_spectrum", "expected": expected_spec,
                  "actual": spectrum, "pass": spectrum == expected_spec})

    basis = liealg.walk_closure(w, args.tol)
    items.append({"name": "closure_dimension", "expected": EXAMPLE_CLOSURE_DIM,
                  "actual": basis.dimension,
                  "pass": basis.dimension == EXAMPLE_CLOSURE_DIM})

    diag = np.kron(np.diag([-3j, 1j, 2j]), np.eye(4))
    res_diag = liealg.member_residual(basis, diag)
    items.append({"name": "diagonal_membership", "residual": res_diag,
                  "tolerance": EXAMPLE_MEMBER_TOL,
                  "pass": res_diag <= EXAMPLE_MEMBER_TOL})

    el = liealg.example_subspace_element()
    el_spec = liealg.spectrum_multiset(el, 8)
    expected_el = [(3.0, 1), (1.0, 3), (0.0, 4), (-1.0, 3), (-3.0, 1)]
    res_el = liealg.member_residual(basis, el)
    items.append({"name": "subspace_element", "expected_spectrum": expected_el,
                  "actual_spectrum": el_spec, "membership_residual": res_el,
                  "pass": el_spec == expected_el and res_el <= EXAMPLE_MEMBER_TOL})

    all_pass = all(item["pass"] for item in items)
    rows = [["item", "pass"], *([item["name"], item["pass"]] for item in items),
            ["all_pass", all_pass]]
    return {"items": items, "all_pass": all_pass}, rows, 0 if all_pass else 3


_DISPATCH = {
    "info": cmd_info,
    "converge": cmd_converge,
    "evolve": cmd_evolve,
    "project": cmd_project,
    "closure": cmd_closure,
    "simulable": cmd_simulable,
    "example": cmd_example,
}


# flag: (attribute, type, default, help); a bool flag is a bare switch
_FLAGS = {
    "--walk": ("walk", str, "", "SPEC: cycle:N | lattice:N,D | example | file:PATH"),
    "--protocol": ("protocol", str, "", "SPEC: strauch | evencyc | file:PATH"),
    "--gamma": ("gamma", float, 1.0, "rate gamma > 0"),
    "--t": ("t", float, 1.0, "time t >= 0"),
    "--m-list": ("m_list", str, "", "A,B,C: ascending step counts (converge)"),
    "--tol": ("tol", float, 1e-9, "closure and membership tolerance"),
    "--seed": ("seed", int, 0, "seed of the random initial state (evolve, project)"),
    "--out": ("out", str, "", "PATH: write the report there, not to stdout"),
    "--format": ("format", str, "csv", "csv | json"),
    "--hamiltonian": ("hamiltonian", str, "", "PATH: JSON matrix of [re, im] pairs (simulable)"),
    "--dump-basis": ("dump_basis", bool, False, "add the closure basis (closure, json only)"),
}


def usage() -> str:
    """The help text: the commands, then each flag with its default."""
    lines = ["usage: qwl COMMAND [--flag VALUE | --flag=VALUE ...]", "",
             "commands: " + ", ".join(_DISPATCH), "", "flags [default]:"]
    for flag, (_, kind, default, text) in _FLAGS.items():
        shown = "off" if kind is bool else "none" if default == "" else default
        lines.append(f"  {flag:<14} {text} [{shown}]")
    return "\n".join(lines) + "\n"


def parse_args(argv):
    """The command and flags of argv as a namespace, or None when argv asks for help.

    A value is the next token verbatim or follows "="; flags are never abbreviated."""
    args = SimpleNamespace(command=None, **{a: d for a, _, d, _ in _FLAGS.values()})
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("-"):
            if args.command is not None:
                raise BadSpec(f"unexpected argument {token!r} after the command")
            if token not in _DISPATCH:
                raise BadSpec(f"unknown command {token!r}; commands: {', '.join(_DISPATCH)}")
            args.command = token
            continue
        flag, eq, value = token.partition("=")
        if flag not in _FLAGS:
            raise BadSpec(f"unknown flag {flag} (see qwl --help)")
        attr, kind, _, _ = _FLAGS[flag]
        if kind is bool:
            if eq:
                raise BadSpec(f"{flag} takes no value")
            setattr(args, attr, True)
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise BadSpec(f"{flag} needs a value")
        try:
            setattr(args, attr, kind(value))
        except ValueError:
            raise BadSpec(f"{flag} must be {kind.__name__}, got {value!r}") from None
    if args.command is None:
        raise BadSpec(f"a command is needed: {', '.join(_DISPATCH)}")
    return args


def _validate(args):
    """Checks of the flags' values, before any work; also parses --m-list into a list."""
    if args.format not in ("csv", "json"):
        raise BadSpec(f"--format must be csv or json, got {args.format!r}")
    try:
        args.m_list = [int(v) for v in args.m_list.split(",") if v.strip()]
    except ValueError as exc:
        raise BadSpec(f"--m-list must be comma-separated integers: {args.m_list!r}") from exc
    if any(abs(m) > sys.float_info.max for m in args.m_list):
        raise BadSpec("--m-list entries must not exceed the largest float")
    for name in ("gamma", "t", "tol"):
        if not np.isfinite(getattr(args, name)):
            raise BadSpec(f"{name} must be finite, got {getattr(args, name)}")
    if not np.isfinite(args.gamma * args.t):
        raise BadSpec(f"gamma * t must be finite, got {args.gamma} * {args.t}")
    if args.gamma <= 0:
        raise BadSpec(f"gamma must be positive, got {args.gamma}")
    if args.t < 0:
        raise BadSpec(f"t must be nonnegative, got {args.t}")
    if args.command == "converge":
        if not args.m_list:
            raise BadSpec("converge needs --m-list")
        if any(b <= a for a, b in zip(args.m_list, args.m_list[1:])):
            raise BadSpec("--m-list must be strictly ascending")
        if args.m_list[0] < 1:
            raise BadSpec(f"--m-list entries must be at least 1, got {args.m_list[0]}")
    if args.command == "closure" and args.dump_basis and args.format != "json":
        raise BadSpec("--dump-basis needs --format json")


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(usage())
            return 0
        _validate(args)
        report, rows, code = _DISPATCH[args.command](args)
        text = _json_dumps(report) + "\n" if args.format == "json" else _csv_text(rows)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except NumericalError as exc:
        print(f"qwl: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (QwlError, OSError) as exc:
        print(f"qwl: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
