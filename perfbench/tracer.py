"""Outside-in span tracer for the ``qwl`` layers.

``qwl`` modules import functions by name (``from .linalg import
expm_hermitian``), so wrapping ``qwl.linalg.expm_hermitian`` alone would
miss the calls made through ``qwl.limits.expm_hermitian``.  ``Tracer.install``
therefore rebinds every attribute of every loaded ``qwl.*`` module that
holds one of the traced function objects, plus the public ``Atom``
methods, and ``uninstall`` puts every original object back.

A span is (trace id, span id, parent span id, name, start ns, end ns,
counts).  Spans stay in memory; the caller writes them out at the end.
"""

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "graphs", "walks", "limits", "liealg", "linalg", "rng")
ATOM_METHODS = {"__init__": "init", "unitary": "unitary", "hamiltonian": "hamiltonian"}
CHECKS = ("is_hermitian", "is_skew_hermitian", "is_unitary", "is_permutation")


def _square_bytes(*dims):
    """Bytes of a dense complex128 square matrix of side prod(dims)."""
    side = int(np.prod(dims))
    return side * side * 16


# Counts computed from argument shapes or return values, never measured,
# keyed by span name; each returns {metric name: value}.  PROTOCOL is the
# identity of the protocol an effective Hamiltonian was computed for.
PROTOCOL = "protocol"
COUNTERS = {
    "walks.shift_matrix": lambda args, result: {
        "walks.shift_matrix.bytes": _square_bytes(args[0].dim)},
    "linalg.kron": lambda args, result: {
        "linalg.kron.bytes": _square_bytes(np.shape(args[0])[0], np.shape(args[1])[0])},
    "linalg.hermitian_eig": lambda args, result: {
        "linalg.hermitian_eig.n3": int(np.shape(args[0])[0]) ** 3},
    "liealg.lie_closure": lambda args, result: {
        "liealg.closure.dimension": result.dimension,
        "liealg.closure.passes": result.passes},
    "limits.effective_hamiltonian": lambda args, result: {PROTOCOL: id(args[0])},
}


def traced_functions(modules):
    """{function object: span name} for the public functions of each layer.

    A function is public when its name has no leading underscore and it is
    defined in that layer's module (re-exports are traced under the module
    that defines them).
    """
    out = {}
    for layer in LAYERS:
        mod = modules[f"qwl.{layer}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[obj] = f"{layer}.{name}"
    return out


class Tracer:
    """Records one span per call of a traced ``qwl`` function."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._restore = []

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = ok = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                counts = counter(args, result) if counter and ok else None
                self.spans.append((self.trace_id, span_id, parent, name, start, end, counts))

        return traced

    def install(self):
        """Rebind every traced function in every loaded ``qwl`` module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "qwl" or name.startswith("qwl.")}
        originals = traced_functions(modules)
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        atom = modules["qwl.limits"].Atom
        for attr, short in ATOM_METHODS.items():
            original = atom.__dict__[attr]
            self._restore.append((atom, attr, original))
            setattr(atom, attr, self._wrap(original, f"limits.Atom.{short}"))

    def uninstall(self):
        """Put back every object ``install`` replaced, in reverse order."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """{(trace id, span id): self seconds}, a span's duration minus its children's.

    Calls are synchronous on one thread, so children nest inside their
    parent without overlapping and their durations can simply be summed.
    """
    child = {}
    for tid, _, parent, _, start, end, _ in spans:
        if parent is not None:
            child[tid, parent] = child.get((tid, parent), 0) + (end - start)
    return {(tid, sid): (end - start - child.get((tid, sid), 0)) / 1e9
            for tid, sid, _, _, start, end, _ in spans}


def layer_metrics(spans):
    """Per-layer metrics of one pass, from the spans of all its reports.

    Names are ``<layer>.<function>.<stat>`` with stats ``calls``,
    ``self_s`` and the computed counts, plus ``<layer>.self_s``,
    ``linalg.checks.self_s`` and ``limits.hamiltonian_reuse`` (distinct
    protocols per ``effective_hamiltonian`` call, 0 when it is never called).
    """
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out["linalg.checks.self_s"] = 0.0
    selfs = self_times(spans)
    protocols = set()
    for trace_id, sid, _, name, _, _, counts in spans:
        layer, func = name.split(".", 1)
        s = selfs[trace_id, sid]
        out[f"{layer}.self_s"] += s
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + s
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if func in CHECKS:
            out["linalg.checks.self_s"] += s
        for key, value in (counts or {}).items():
            if key == PROTOCOL:
                protocols.add((trace_id, value))
            else:
                out[key] = out.get(key, 0) + value
    calls = out.get("limits.effective_hamiltonian.calls", 0)
    out["limits.hamiltonian_reuse"] = len(protocols) / calls if calls else 0.0
    return out
