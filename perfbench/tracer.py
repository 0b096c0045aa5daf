"""Spans around calls into natset's modules, recorded from the benchmark side.

`Tracer.install` rebinds public names in the module that calls them (for
example ``natset.cli.load_trajectories`` or ``natset.projection.solve``) to
wrappers that open a span around each call; `uninstall` puts the originals
back.  Nothing in the package is edited.  A name a module no longer has is
listed in `Tracer.absent` and skipped, so a renamed function costs its span
and nothing else.

Spans are kept in memory.  Each holds its name, start, end, parent index,
the operation id it belongs to and counts taken from the call's arguments
or return value.  Only this module knows natset's internal call graph; the
rest of the benchmark reads spans by name.
"""

import importlib
import os
import time

# (module, attribute, span name, counts function)
#
# The module is the caller: rebinding `natset.natset.quickhull` times the
# calls that build_natset makes, not every quickhull call in the package.
TARGETS = (
    ("natset", "read_natset", "natset.read", "_read_bytes"),
    ("natset", "project", "projection.project", "_active_rows"),
    ("natset.cli", "load_trajectories", "data.load", "_rows"),
    ("natset.cli", "filter_task", "data.filter", "_kept"),
    ("natset.cli", "build_natset", "natset.build", None),
    ("natset.cli", "write_natset", "natset.write", "_written_bytes"),
    ("natset.cli", "read_natset", "natset.read", "_read_bytes"),
    ("natset.cli", "project", "projection.project", "_active_rows"),
    ("natset.cli", "write_projection", "projection.write", None),
    ("natset.natset", "slice_at", "data.slice", None),
    ("natset.natset", "quickhull", "geometry.quickhull", "_hull_points"),
    ("natset.natset", "to_halfspaces", "geometry.halfspaces", None),
    ("natset.projection", "condense", "dynamics.condense", "_condense_bytes"),
    ("natset.projection", "rollout", "dynamics.rollout", None),
    ("natset.projection", "QuadraticProgram", "qpsolver.program", None),
    ("natset.projection", "solve", "qpsolver.solve", "_solve_counts"),
    ("natset.projection", "naturalism_report", "projection.report", None),
)


def _rows(args, kwargs, result):
    return {"rows": sum(len(tr) for tr in result), "tracks": len(result)}


def _kept(args, kwargs, result):
    given = len(args[0]) if args else len(kwargs["trajectories"])
    return {"kept": len(result), "dropped": given - len(result)}


def _hull_points(args, kwargs, result):
    return {"points": len(args[0])}


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _written_bytes(args, kwargs, result):
    return _file_bytes(args[1] if len(args) > 1 else kwargs["path"])


def _read_bytes(args, kwargs, result):
    return _file_bytes(args[0] if args else kwargs["path"])


def _condense_bytes(args, kwargs, result):
    # computed from the returned arrays, not measured traffic
    return {"bytes_computed": result.Phi.nbytes + result.Gamma.nbytes}


def _solve_counts(args, kwargs, result):
    qp = args[0] if args else kwargs["qp"]
    return {
        "iterations": result.iterations,
        "optimal": int(result.status.value == "Optimal"),
        "n": qp.n,
        "k": qp.k,
    }


def _active_rows(args, kwargs, result):
    return {"active_rows": sum(len(rows) for rows in result.active_constraints)}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, end=None, parent=None, op=None, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.counts = counts or {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._saved = []
        self.op = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counts is not None:
                self.spans[index].counts = counts(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Rebind every target that exists; remember the rest as absent."""
        self.absent = []
        for module_name, attr, span, counts in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            count_fn = globals()[counts] if counts else None
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span, count_fn))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_time(span, children):
    """Duration of `span` minus the part of it that `children` cover."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, reach)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def per_op_totals(spans):
    """{op: {span name: {"time", "self", "calls", counts...}}} summed per op."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for i, sp in enumerate(spans):
        entry = out.setdefault(sp.op, {}).setdefault(
            sp.name, {"time": 0.0, "self": 0.0, "calls": 0}
        )
        entry["time"] += sp.duration
        entry["self"] += self_time(sp, children.get(i, []))
        entry["calls"] += 1
        for key, value in sp.counts.items():
            entry[key] = entry.get(key, 0) + value
    return out
