"""In-memory span tracer that wraps the package's layers from outside.

A traced run replaces the module-level public functions of each layer
module, and the two public methods that do the hot work, with wrappers
that record one span per call: name, start, end, parent span and counts.
Nothing inside the package is edited.  A function that another module
imported by name (``experiments`` imports ``solve_discrete_pekar``) is
patched wherever it is bound, and every patch is undone on uninstall.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

# Modules whose public functions are traced.  ``modes`` does no measurable
# work and ``config``/``cli`` only write a few KB of CSV, so neither gets a
# layer metric.
LAYERS = ("grid", "pekar", "resolvent", "quasifree", "fock", "experiments")

# Public methods that do the hot work, traced under names of their own.
METHODS = {
    "fock.matvec": ("fock", "CoupledHamiltonian", "apply"),
    "resolvent.apply": ("resolvent", "ResolventHandle", "apply"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its children.

    The tracer is single-threaded and stack-based, so children nest inside
    their parent and follow one another without overlap.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def aggregate(spans: list[Span]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, and the sum
    and the largest value of each count."""
    agg: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        a = agg.setdefault(
            s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "sum": {}, "max": {}}
        )
        a["calls"] += 1
        a["s"] += s.end - s.start
        a["self_s"] += self_s
        for k, v in s.counts.items():
            a["sum"][k] = a["sum"].get(k, 0) + v
            a["max"][k] = max(a["max"].get(k, v), v)
    return agg


# ---------------------------------------------------------------------------
# counts recorded at span boundaries (bytes are computed from array sizes)
# ---------------------------------------------------------------------------


def _krylov_bytes(fn):
    sig = inspect.signature(fn)

    def counter(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return {"krylov_bytes": a["psi0"].size * a["krylov_dim"] * 16}

    return counter


def _io_bytes(first_array_arg: int):
    def counter(args, kwargs, result):
        return {"bytes": args[first_array_arg].nbytes + result.nbytes}

    return counter


def _iterations(args, kwargs, result):
    return {"iters": result.iterations}


COUNTERS = {
    "fock.matvec": lambda fn: _io_bytes(1),  # args[0] is the Hamiltonian
    "grid.fft": lambda fn: _io_bytes(0),
    "fock.evolve_state": _krylov_bytes,
    "pekar.minimize_pekar": lambda fn: _iterations,
    "pekar.solve_discrete_pekar": lambda fn: _iterations,
}

# (metric, span name, statistic, unit); a statistic "sum:key" or "max:key"
# reads a count recorded on the span.
LAYER_METRICS = [
    ("fock.matvec.calls", "fock.matvec", "calls", "count"),
    ("fock.matvec.s", "fock.matvec", "s", "s"),
    ("fock.matvec.bytes", "fock.matvec", "sum:bytes", "B"),
    ("fock.evolve.s", "fock.evolve_state", "s", "s"),
    ("fock.evolve.self_s", "fock.evolve_state", "self_s", "s"),
    ("fock.krylov_bytes", "fock.evolve_state", "max:krylov_bytes", "B"),
    ("fock.trace_distance.s", "fock.trace_distance_to_ground", "s", "s"),
    ("experiments.compare.self_s", "experiments.compare_trajectory", "self_s", "s"),
    ("experiments.bogoliubov_table.self_s", "experiments.bogoliubov_table", "self_s", "s"),
    ("fock.quadratic_build.s", "fock.build_quadratic_hamiltonian", "s", "s"),
    ("fock.direct_build.s", "fock.build_effective_operator_direct", "s", "s"),
    ("fock.reduced_densities.s", "fock.reduced_densities", "s", "s"),
    ("quasifree.propagate_map.calls", "quasifree.propagate_map", "calls", "count"),
    ("quasifree.propagate_map.s", "quasifree.propagate_map", "s", "s"),
    ("quasifree.evolve_odes.s", "quasifree.evolve_odes", "s", "s"),
    ("pekar.minimize.s", "pekar.minimize_pekar", "s", "s"),
    ("pekar.minimize.iters", "pekar.minimize_pekar", "sum:iters", "count"),
    ("pekar.discrete.s", "pekar.solve_discrete_pekar", "s", "s"),
    ("pekar.discrete.iters", "pekar.solve_discrete_pekar", "sum:iters", "count"),
    ("resolvent.eigsh.calls", "resolvent.lowest_eigenpairs", "calls", "count"),
    ("resolvent.eigsh.s", "resolvent.lowest_eigenpairs", "s", "s"),
    ("resolvent.build_kernels.s", "resolvent.build_kernels", "s", "s"),
    ("resolvent.apply.calls", "resolvent.apply", "calls", "count"),
    ("resolvent.apply.s", "resolvent.apply", "s", "s"),
    ("resolvent.cg_iters", "resolvent.apply", "sum:cg_iters", "count"),
    ("experiments.build_bundle.s", "experiments.build_bundle", "s", "s"),
    ("grid.fft.calls", "grid.fft", "calls", "count"),
    ("grid.fft.s", "grid.fft", "s", "s"),
    ("grid.fft.bytes", "grid.fft", "sum:bytes", "B"),
]


def layer_metrics(agg: dict) -> dict:
    """Every LAYER_METRICS entry as {"value", "unit"}; 0 where the layer
    did no work."""
    out = {}
    for metric, span, stat, unit in LAYER_METRICS:
        a = agg.get(span)
        if a is None:
            value = 0
        elif ":" in stat:
            kind, key = stat.split(":")
            value = a[kind].get(key, 0)
        else:
            value = a[stat]
        out[metric] = {"value": value, "unit": unit}
    return out


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, counts: dict | None = None):
        self.spans[idx].end = self.clock()
        if counts:
            self.spans[idx].counts.update(counts)
        self._stack.pop()

    def count(self, key: str):
        """Add one to a count on the innermost open span."""
        if self._stack:
            c = self.spans[self._stack[-1]].counts
            c[key] = c.get(key, 0) + 1

    def wrap(self, name: str, fn):
        """A wrapper recording one span per call of fn, with the counts
        COUNTERS defines for that span name."""
        make = COUNTERS.get(name)
        counter = make(fn) if make else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                raise
            self._close(idx, counter(args, kwargs, result) if counter else None)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: dict, np_fft):
        """Patch the layers of ``package`` (layer name -> module).

        numpy's n-d FFTs are traced as ``grid.fft``, because every layer
        calls them directly; scipy's ``cg`` as bound in ``resolvent`` gets
        an iteration-counting callback, read as ``cg_iters`` on the
        enclosing resolvent span.
        """
        for layer in LAYERS:
            mod = package[layer]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for other in package.values():
                    for oattr, oval in list(vars(other).items()):
                        if oval is fn:
                            self._set(other, oattr, wrapped)
        for name, (layer, cls, meth) in METHODS.items():
            owner = getattr(package[layer], cls)
            self._set(owner, meth, self.wrap(name, getattr(owner, meth)))
        for fft in ("fftn", "ifftn"):
            self._set(np_fft, fft, self.wrap("grid.fft", getattr(np_fft, fft)))

        cg = package["resolvent"].cg

        @functools.wraps(cg)
        def counted_cg(*args, callback=None, **kwargs):
            def step(xk):
                self.count("cg_iters")
                if callback is not None:
                    callback(xk)

            return cg(*args, callback=step, **kwargs)

        self._set(package["resolvent"], "cg", counted_cg)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        """Spans as plain lists, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "counts"],
            "spans": [
                [s.name, s.start - t0, s.end - t0, s.parent, s.counts]
                for s in self.spans
            ],
        }
