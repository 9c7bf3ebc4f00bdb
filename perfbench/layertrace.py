"""Outside-in per-module tracing of upb3q, installed from the benchmark.

Every public function of each upb3q module is wrapped in a span, in every
module namespace that binds it (the modules import each other's functions by
name, so patching only the defining module would miss most calls).  A span's
self time is its duration minus the durations of the spans it directly
contains.  The eigensolver also records its inputs, so that the sweeps it
needed can be counted afterwards through its public max_sweeps budget,
without a hook inside the program.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("pauli", "linalg", "states", "entanglement", "dynamics", "claims", "cli")

# The functions whose calls and self time are reported for every workload.
NAMED = {
    "pauli": ("to_coherence", "from_coherence", "lambda_tensor", "ket_from_string",
              "coherence_product"),
    "linalg": ("jacobi_eigh", "conjugation_flow", "frobenius_distance"),
    "states": ("reflect", "partial_reflect", "in_set_C", "check_upb", "complement_map"),
    "entanglement": ("partial_transpose", "min_pt_eig", "lhv_oracle",
                     "verify_triple_structure"),
    "dynamics": ("orbit", "prepare_upb", "rodrigues_flow", "orbit_swap_report",
                 "byproduct_preparation", "stationarity"),
    "claims": ("run_claims", "write_reports_json", "write_orbit_csv"),
    "cli": ("main", "build_parser"),
}
EIGEN = "linalg.jacobi_eigh"
ORBIT = "dynamics.orbit"

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    (f"{mod}.{fn}.{kind}", unit, "lower")
    for mod, fns in NAMED.items()
    for fn in fns
    for kind, unit in (("calls", "count/op"), ("self_s", "s/op"))
] + [
    (f"{EIGEN}.matrices", "count/op", "lower"),
    (f"{EIGEN}.vector_calls", "count/op", "lower"),
    (f"{EIGEN}.distinct_ratio", "ratio", "higher"),
    (f"{EIGEN}.errors", "count/op", "lower"),
    (f"{EIGEN}.sweeps", "count/op", "lower"),
    (f"{ORBIT}.samples", "count/op", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.invariant_errors", "count", "lower"),
]


def public_functions():
    """{'module.function': function} for every public function upb3q defines."""
    out = {}
    for mod in MODULES:
        module = importlib.import_module(f"upb3q.{mod}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                out[f"{mod}.{attr}"] = obj
    return out


class Tracer:
    """Span and counter totals over the traced ops of one benchmark run."""

    def __init__(self):
        functions = public_functions()
        self._names = {id(fn): name for name, fn in functions.items()}
        self._signatures = {name: inspect.signature(functions[name]) for name in (EIGEN, ORBIT)}
        self._stack = []
        self.ops = 0
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()
        self.counts = Counter()  # matrices, vector_calls, distinct, samples
        # eigensolver input key -> [matrix, times it was solved]
        self.eigen_inputs = {}

    def snapshot(self):
        """Counters that the per-op invariants compare."""
        return {
            f"{EIGEN}.matrices": self.counts["matrices"],
            f"{ORBIT}.samples": self.counts["samples"],
            "entanglement.min_pt_eig.calls": self.calls["entanglement.min_pt_eig"],
        }

    @contextlib.contextmanager
    def op(self, probe):
        """Trace one op: every public function is wrapped while the block runs.

        Self times are scaled to nominal machine speed by the op's speed probe,
        and the probe's own in-op time is charged to no span.
        """
        seen = set()
        op_self = Counter()
        patches = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "upb3q" or module_name.startswith("upb3q.")):
                continue
            for attr, obj in list(vars(module).items()):
                name = self._names.get(id(obj)) if inspect.isfunction(obj) else None
                if name is not None:
                    patches.append((module, attr, obj))
                    setattr(module, attr, self._wrap(name, obj, seen, op_self))
        probe.on_tick = self._exclude
        try:
            yield
        finally:
            probe.on_tick = None
            for module, attr, obj in patches:
                setattr(module, attr, obj)
            scale = probe.scale()
            for name, seconds in op_self.items():
                self.self_s[name] += seconds * scale
            self.ops += 1
            self.counts["distinct"] += len(seen)

    def _exclude(self, seconds):
        if self._stack:
            self._stack[-1] += seconds

    def _wrap(self, name, fn, seen, op_self):
        stack = self._stack
        calls, errors = self.calls, self.errors
        before = {EIGEN: self._before_eigen, ORBIT: self._before_orbit}.get(name)
        sig = self._signatures.get(name)

        def wrapper(*args, **kwargs):
            on_success = None
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_success = before(bound.arguments, seen)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                span = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += span
                calls[name] += 1
                op_self[name] += span - child
            if on_success is not None:
                on_success()
            return result

        return wrapper

    def _before_eigen(self, arguments, seen):
        mat = np.array(arguments["mat"], dtype=complex)
        stack = mat.reshape((-1,) + mat.shape[-2:]) if mat.ndim >= 2 else [mat]
        self.counts["matrices"] += len(stack)
        if arguments["want_vectors"]:
            self.counts["vector_calls"] += 1
        budget = (arguments["herm_tol"], arguments["conv_tol"], arguments["max_sweeps"])

        def record():
            for m in stack:
                key = (m.shape, m.tobytes()) + budget
                seen.add(key)
                self.eigen_inputs.setdefault(key, [m, 0])[1] += 1

        return record

    def _before_orbit(self, arguments, seen):
        self.counts["samples"] += arguments["samples"]
        return None

    def count_sweeps(self):
        """Total Jacobi sweeps over every recorded solve, found from outside.

        Each distinct input is re-solved, eigenvalues only, with the public
        max_sweeps budget; the smallest budget that does not raise
        NoConvergence is the number of sweeps the solve took (the rotation
        sequence does not depend on want_vectors).  The search starts at the
        previous input's answer, since neighbouring inputs mostly need the same
        count.  Each count is weighted by how often the input was solved.
        """
        from upb3q.linalg import NoConvergence, jacobi_eigh

        def converges(m, herm_tol, conv_tol, budget):
            try:
                jacobi_eigh(m, herm_tol=herm_tol, conv_tol=conv_tol,
                            max_sweeps=budget, want_vectors=False)
            except NoConvergence:
                return False
            return True

        total = 0
        guess = 1
        for (_, _, herm_tol, conv_tol, max_sweeps), (m, times) in self.eigen_inputs.items():
            sweeps = min(guess, max_sweeps)
            if converges(m, herm_tol, conv_tol, sweeps):
                while sweeps > 0 and converges(m, herm_tol, conv_tol, sweeps - 1):
                    sweeps -= 1
            else:
                sweeps += 1
                while sweeps < max_sweeps and not converges(m, herm_tol, conv_tol, sweeps):
                    sweeps += 1
            guess = sweeps
            total += sweeps * times
        return total

    def metrics(self, sweeps, overhead, invariant_errors):
        """Every per-layer metric, per traced op where the unit says so."""
        ops = max(self.ops, 1)
        values = {}
        for mod, fns in NAMED.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                values[f"{name}.calls"] = self.calls[name] / ops
                values[f"{name}.self_s"] = self.self_s[name] / ops
        matrices = self.counts["matrices"]
        values.update({
            f"{EIGEN}.matrices": matrices / ops,
            f"{EIGEN}.vector_calls": self.counts["vector_calls"] / ops,
            f"{EIGEN}.distinct_ratio": self.counts["distinct"] / matrices if matrices else 0.0,
            f"{EIGEN}.errors": self.errors[EIGEN] / ops,
            f"{EIGEN}.sweeps": sweeps / ops,
            f"{ORBIT}.samples": self.counts["samples"] / ops,
            "trace.overhead": overhead,
            "trace.invariant_errors": invariant_errors,
        })
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def table(self):
        """Lines for every wrapped function that was called, by self time."""
        ops = max(self.ops, 1)
        total = sum(self.self_s.values()) or 1.0
        lines = [f"{'function':40s} {'calls/op':>10s} {'self_s/op':>11s} {'share':>7s}"]
        for name, self_s in self.self_s.most_common():
            lines.append(f"{name:40s} {self.calls[name] / ops:10.1f} "
                         f"{self_s / ops:11.6f} {self_s / total:7.1%}")
        return lines
