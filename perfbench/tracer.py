"""Span tracer for the dklb layers, installed from outside the package.

The tracer replaces every public function (and every public method of a
class) defined in a traced module, and every function a layer imports from
its private helper module, by a wrapper that records one span per call:
name, start, end and parent span.  ``from .grid import apply_multiplier``
binds a second name to the same function object, so every dklb module
attribute that holds a wrapped function is rebound, not just the defining
one.  Closures (Picard's ``duhamel``, ETDRK4's ``nl_coeffs``) are not module
attributes and stay inside their parent's self time.

Self time is a span's duration minus the durations of its direct children.
The tracer's own bookkeeping (and the argument probes that feed the computed
counts) is charged to no span: each parent is credited with the whole
wrapper interval of a child, of which only the child's call is the child's
span.  What remains of the tracing cost shows in ``trace.overhead_share``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> layer name
LAYERS = {
    "dklb.config": "config",
    "dklb.symbols": "symbols",
    "dklb.fields": "fields",
    "dklb.grid": "grid",
    "dklb.solver": "solver",
    "dklb.norms": "norms",
    "dklb.conjugation": "conjugation",
}
# A private helper module belongs to the layer that imports it.  Its
# functions that layer imports are traced under the layer's name; the
# double-double arithmetic they call stays in their self time.
HELPERS = {"dklb.conjugation": "dklb._seam"}

# find_M scans the symbol point by point, about 16k symbol evaluations per
# build.  Spans stop at find_M, so the scan stays in its self time: an exact
# find_M would replace the scan as a whole, and a span per point would
# multiply the tracing cost.
LEAF_SPANS = {"symbols.find_M"}

# The cli module has no public functions (its subcommands are click
# objects), so the benchmark opens the cli span itself around each call.
CLI_SPAN = "cli.main"

# bytes one length-n complex128 transform reads and writes: 16n in, 16n out
BYTES_PER_TRANSFORM_POINT = 32


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def duhamel_terms_per_sweep(nt: int) -> int:
    """Length-n multiply-adds in one Picard Duhamel sweep on nt+1 nodes.

    Node i (1 <= i <= nt) sums over its i+1 quadrature nodes, all of whose
    composite Simpson / 3/8 weights are nonzero; node 0 sums nothing.
    """
    return nt * (nt + 3) // 2


class Tracer:
    """Collects spans, per-function calls and self times, and computed counts."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._muted = [False]
        self._multiplier_keys: set = set()
        self._bindings: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._probes = {
            "symbols.semigroup_multiplier": self._probe_semigroup,
            "grid.to_values": self._probe_to_values,
            "grid.from_values": self._probe_from_values,
            "grid.dealiased_product": self._probe_product,
            "solver.etdrk4_solve": self._probe_etdrk4,
            "solver.picard_solve": self._probe_picard,
            "conjugation.dd_field_values": self._probe_seam,
        }

    # --- recording -------------------------------------------------------

    def wrap(self, fn, name: str):
        """fn wrapped so that each call records a span called name."""
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        ids, muted = self._ids, self._muted
        probe = self._probes.get(name)
        leaf = name in LEAF_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if muted[0]:
                return fn(*args, **kwargs)
            w0 = perf_counter()
            frame = [next(ids), 0.0]
            stack.append(frame)
            muted[0] = leaf
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                muted[0] = False
                stack.pop()
                parent = stack[-1] if stack else None
                spans.append((frame[0], parent[0] if parent else -1, name, t0, t1))
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[1]
                if probe is not None:
                    probe(args, kwargs, result)
                if parent is not None:
                    parent[1] += perf_counter() - w0

        return traced

    # --- installing into the package --------------------------------------

    def install(self) -> None:
        """Rebind every traced function and method in every loaded dklb module."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        functions: dict[object, str] = {}
        methods: list[tuple[type, str, object, str]] = []
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for attr, obj in vars(module).items():
                owner = getattr(obj, "__module__", None)
                if attr.startswith("_") or owner not in (modname, HELPERS.get(modname)):
                    continue
                if inspect.isfunction(obj):
                    functions[obj] = f"{layer}.{attr}"
                elif inspect.isclass(obj) and owner == modname:
                    methods += [(obj, mname, meth, f"{layer}.{mname}")
                                for mname, meth in vars(obj).items()
                                if not mname.startswith("_") and inspect.isfunction(meth)]
        names = list(functions.values()) + [m[3] for m in methods]
        self.names = names
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise RuntimeError(f"ambiguous span names: {sorted(duplicates)}")
        for cls, mname, meth, name in methods:
            self._bindings.append((cls, mname, meth))
            setattr(cls, mname, self.wrap(meth, name))
        wrappers = {id(fn): (fn, self.wrap(fn, name))
                    for fn, name in functions.items()}
        for modname in [m for m in sys.modules if m == "dklb" or m.startswith("dklb.")]:
            module = sys.modules[modname]
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # --- probes feeding the computed counts --------------------------------

    def _probe_semigroup(self, args, kwargs, result) -> None:
        t = _arg(args, kwargs, 1, "t")
        xi = _arg(args, kwargs, 2, "xi")
        n = len(xi)
        self._multiplier_keys.add((float(t), n, float(xi[1]) if n > 1 else 0.0))

    def _probe_to_values(self, args, kwargs, result) -> None:
        f = _arg(args, kwargs, 0, "f")
        self.counts["fft_bytes"] += BYTES_PER_TRANSFORM_POINT * f.grid.n
        self.counts["complex_calls"] += not f.is_real
        self.counts["transform_calls"] += 1

    def _probe_from_values(self, args, kwargs, result) -> None:
        grid = _arg(args, kwargs, 0, "grid")
        self.counts["fft_bytes"] += BYTES_PER_TRANSFORM_POINT * grid.n

    def _probe_product(self, args, kwargs, result) -> None:
        f = _arg(args, kwargs, 0, "f")
        g = _arg(args, kwargs, 1, "g")
        # two inverse transforms and one forward transform
        self.counts["fft_bytes"] += 3 * BYTES_PER_TRANSFORM_POINT * f.grid.n
        self.counts["complex_calls"] += not (f.is_real and g.is_real)
        self.counts["transform_calls"] += 1

    def _probe_etdrk4(self, args, kwargs, result) -> None:
        T = _arg(args, kwargs, 2, "T")
        dt = _arg(args, kwargs, 3, "dt")
        self.counts["etdrk4_steps"] += int(round(T / dt))

    def _probe_picard(self, args, kwargs, result) -> None:
        if result is None:
            return
        iterations = result[1].iterations
        nt = _arg(args, kwargs, 3, "nt", 64)
        self.counts["picard_iterations"] += iterations
        if _arg(args, kwargs, 7, "nonlinear", True):
            self.counts["picard_sweep_terms"] += iterations * duhamel_terms_per_sweep(nt)

    def _probe_seam(self, args, kwargs, result) -> None:
        coeffs = _arg(args, kwargs, 0, "coeffs")
        idx = _arg(args, kwargs, 2, "idx")
        mult = _arg(args, kwargs, 3, "mult")
        live = coeffs != 0
        if mult is not None:
            # a double-double is zero exactly when its high word is
            live &= (mult[0][0] != 0) | (mult[1][0] != 0)
        self.counts["seam_products"] += int(idx.size) * int(live.sum())

    # --- results ------------------------------------------------------------

    @property
    def distinct_multiplier_calls(self) -> int:
        return len(self._multiplier_keys)

    def write_spans(self, path) -> None:
        """Write the recorded spans as tab-separated id, parent, name, start, end."""
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tstart\tend\n")
            for span_id, parent, name, t0, t1 in self.spans:
                handle.write(f"{span_id}\t{parent}\t{name}\t{t0!r}\t{t1!r}\n")

