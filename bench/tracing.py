"""In-memory tracing of the k3dw layers, installed from outside the library.

``Tracer.install`` replaces every public function of each layer module, in
every ``k3dw.*`` namespace that binds it (so ``from .lattice import pair``
and ``lattice.pair`` are both caught), with a wrapper that counts the call
and times it.  A few methods are wrapped on their class as well: ``Vector``
construction and the ``SeriesTable`` lookups.

Each call outside ``lattice`` records a span ``[name, start_ns, end_ns,
parent, op]``; ``parent`` is the index of the enclosing span (-1 for none)
and ``op`` the operation it belongs to.  ``lattice`` primitives run millions
of times, so they only add to counts and times.  A layer's self time is the
time its calls take minus the time of the wrapped calls nested in them.

A target that no longer exists is skipped, and the metrics that need it are
reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter

LAYERS = (
    "arith", "lattice", "series", "closed", "relative", "walls",
    "periods", "sampling", "checks", "intlinalg", "jsonio", "cli",
)
METHODS = (
    ("lattice", "Vector", "__init__"),
    ("series", "SeriesTable", "coefficient"),
    ("series", "SeriesTable", "coefficients"),
)
AGGREGATED = {"lattice"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        # calls of an aggregated function, by the name of the enclosing span
        self.under: Counter = Counter()
        self.counts: Counter = Counter()
        self.profiles: set = set()
        self.order_max = 0
        self.op = -1
        self.installed: set[str] = set()
        self.import_ms: list[float] = []
        self.spawn_ms: list[float] = []
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- hooks: counters read from arguments and results ---------------------

    def _hooks(self):
        def liftings(args, kwargs, result):
            self.counts["liftings_valid"] += len(result)

        def records(args, kwargs, result):
            self.counts["records"] += len(result)

        def profile(args, kwargs, result):
            key = tuple(args[:2]) + tuple(
                kwargs[k] for k in ("beta_square", "divisibility") if k in kwargs
            )
            self.profiles.add(key)

        def dumped(args, kwargs, result):
            self.counts["bytes_out"] += len(result.encode())

        def suite(args, kwargs, result):
            self.counts["trials"] += result.get("trials", 0)

        def lookup(args, kwargs, result):
            self.order_max = max(self.order_max, args[0].order)

        return {
            "relative.valid_liftings": liftings,
            "walls.valid_hyperplanes": records,
            "closed.reduced_gw_profile": profile,
            "jsonio.dumps": dumped,
            "checks.run_suite": suite,
            "series.SeriesTable.coefficient": lookup,
            "series.SeriesTable.coefficients": lookup,
        }

    def _wrap(self, layer: str, name: str, fn, hook):
        spans, stack, calls, self_ns, under = (
            self.spans, self._stack, self.calls, self.self_ns, self.under
        )
        aggregated = layer in AGGREGATED
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if aggregated:
                index = parent
                if parent >= 0:
                    under[name, spans[parent][0]] += 1
            else:
                index = len(spans)
                span = [name, 0, 0, parent, tracer.op]
                spans.append(span)
            frame = [0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                self_ns[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                if not aggregated:
                    span[1], span[2] = t0, t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        namespaces = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "k3dw" or n.startswith("k3dw."))
        ]
        for layer in LAYERS:
            module = sys.modules.get(f"k3dw.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(layer, name, fn, hooks.get(name))
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, bound, fn))
                            setattr(ns, bound, wrapper)
                self.installed.add(name)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(f"k3dw.{layer}"), cls_name, None)
            fn = getattr(cls, "__dict__", {}).get(method)
            if fn is None:
                continue
            name = f"{layer}.{cls_name}.{method}"
            self._undo.append((cls, method, fn))
            setattr(cls, method, self._wrap(layer, name, fn, hooks.get(name)))
            self.installed.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- child processes ------------------------------------------------------

    def dump(self) -> dict:
        """A JSON-ready summary, written by the traced CLI child."""
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "under": [[a, b, n] for (a, b), n in self.under.items()],
            "counts": dict(self.counts),
            "profiles": [list(p) for p in self.profiles],
            "order_max": self.order_max,
            "installed": sorted(self.installed),
            "import_ms": self.import_ms,
        }

    def merge(self, child: dict, spawn_ms: float) -> None:
        """Add a child's summary; its root spans become children of none."""
        offset = len(self.spans)
        for name, start, end, parent, _ in child["spans"]:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, self.op]
            )
        self.calls.update(child["calls"])
        self.self_ns.update(child["self_ns"])
        self.under.update({(a, b): n for a, b, n in child["under"]})
        self.counts.update(child["counts"])
        self.profiles.update(tuple(p) for p in child["profiles"])
        self.order_max = max(self.order_max, child["order_max"])
        self.installed.update(child["installed"])
        self.import_ms.extend(child["import_ms"])
        self.spawn_ms.append(spawn_ms)


def _layer_calls(tracer: Tracer, layer: str) -> int:
    return sum(n for name, n in tracer.calls.items() if name.startswith(layer + "."))


def layer_metrics(ops: Tracer, setup: Tracer, op_count: int) -> dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit)}, over the traced operations.

    ``sampling`` is read from a traced set-up pass plus the operations, since
    set-up is where it runs.  A metric whose wrapped target was not found is
    left out.
    """
    have = ops.installed.__contains__
    ms = lambda t, layer: t.self_ns[layer] / 1e6  # noqa: E731
    out: dict[str, tuple] = {}

    def put(name, unit, needs, value):
        if all(have(n) for n in needs):
            out[name] = (value() if callable(value) else value, unit)

    put("lattice.vector_new", "count", ["lattice.Vector.__init__"],
        lambda: ops.calls["lattice.Vector.__init__"])
    put("lattice.pair", "count", ["lattice.pair"], lambda: ops.calls["lattice.pair"])
    put("lattice.self_ms", "ms", [], lambda: ms(ops, "lattice"))

    enum = ["relative.valid_liftings"]
    scanned = lambda: ops.under["lattice.content", "relative.valid_liftings"]  # noqa: E731
    put("relative.enumerations", "count", enum, lambda: ops.calls[enum[0]])
    put("relative.liftings_scanned", "count", enum + ["lattice.content"], scanned)
    put("relative.liftings_valid", "count", enum, lambda: ops.counts["liftings_valid"])
    put("relative.valid_ratio", "ratio", enum + ["lattice.content"],
        lambda: ops.counts["liftings_valid"] / scanned() if scanned() else 0.0)
    put("relative.self_ms", "ms", [], lambda: ms(ops, "relative"))

    put("walls.validations", "count", ["walls.validate_kahler"],
        lambda: ops.calls["walls.validate_kahler"])
    put("walls.records", "count", ["walls.valid_hyperplanes"],
        lambda: ops.counts["records"])
    put("walls.enumerations_per_op", "count/op", ["walls.valid_hyperplanes"],
        lambda: ops.calls["walls.valid_hyperplanes"] / op_count)
    put("walls.self_ms", "ms", [], lambda: ms(ops, "walls"))

    put("closed.profiles", "count", ["closed.reduced_gw_profile"],
        lambda: ops.calls["closed.reduced_gw_profile"])
    put("closed.distinct_profiles", "count", ["closed.reduced_gw_profile"],
        lambda: len(ops.profiles))
    put("closed.self_ms", "ms", [], lambda: ms(ops, "closed"))

    lookups = ["series.SeriesTable.coefficient", "series.SeriesTable.coefficients"]
    put("series.lookups", "count", lookups,
        lambda: sum(ops.calls[n] for n in lookups))
    put("series.order_max", "count", lookups, lambda: ops.order_max)
    put("series.self_ms", "ms", [], lambda: ms(ops, "series"))

    put("arith.calls", "count", [], lambda: _layer_calls(ops, "arith"))
    put("arith.self_ms", "ms", [], lambda: ms(ops, "arith"))

    put("jsonio.calls", "count", [], lambda: _layer_calls(ops, "jsonio"))
    put("jsonio.bytes_out", "bytes", ["jsonio.dumps"], lambda: ops.counts["bytes_out"])
    put("jsonio.self_ms", "ms", [], lambda: ms(ops, "jsonio"))
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    put("cli.import_ms", "ms", [], lambda: med(ops.import_ms))
    put("cli.spawn_ms", "ms", [], lambda: med(ops.spawn_ms))
    put("cli.self_ms", "ms", [], lambda: ms(ops, "cli"))

    for layer in ("periods", "checks", "intlinalg"):
        put(f"{layer}.calls", "count", [], lambda layer=layer: _layer_calls(ops, layer))
        put(f"{layer}.self_ms", "ms", [], lambda layer=layer: ms(ops, layer))
    put("checks.trials", "count", ["checks.run_suite"], lambda: ops.counts["trials"])
    put("sampling.calls", "count", [],
        lambda: _layer_calls(ops, "sampling") + _layer_calls(setup, "sampling"))
    put("sampling.self_ms", "ms", [],
        lambda: ms(ops, "sampling") + ms(setup, "sampling"))
    return out
