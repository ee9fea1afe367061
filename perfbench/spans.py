"""Outside-in span recorder for the traced benchmark run.

The recorder wraps curvemine's public functions from outside the package:
every module-level name in a layer's ``__all__`` that is a function defined
in that layer is replaced, in every curvemine module that has bound it by
name, with a wrapper that records a span. ``Dataset.from_points`` and the
``xs``/``ys``/``weights`` column properties are wrapped on the class. Each
op's root span is opened by the benchmark around ``cli.main``.

A span is (name, start, end, parent, op). Spans stay in memory, in flat
arrays, until the run ends; ``save`` writes them out. A span's self time is
its duration minus the durations of its direct children, so the self times
of all spans of one op sum to the op's root span by construction.

Metrics are computed over a fixed set of ops, given as {op index: factor};
every duration of an op is multiplied by its factor (the benchmark passes
the op's kernel normalization), and counts are summed over those ops only.
"""

from __future__ import annotations

import collections
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("dataset", "synth", "models", "fit", "validate", "analyze",
          "plotting", "cli")
COLUMN_PROPERTIES = ("xs", "ys", "weights")
# Every command the workloads issue; each gets a cli.<command>_s metric.
COMMANDS = ("rank", "synth", "ingest", "describe", "validate", "analyze",
            "plot")
# Counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = ("models.eval_calls", "models.grad_calls", "fit.lm_iterations",
                "fit.families_failed", "dataset.rows_ingested")

_now = time.perf_counter


class Recorder:
    """Spans and counters for one benchmark process; one thread only."""

    def __init__(self, modules):
        self.modules = modules          # layer name -> imported module
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1                   # index of the open op, -1 outside ops
        self._root = -1                 # span index of the open op's root
        self.counts: collections.Counter = collections.Counter()  # (op, key)
        self._lm: dict[int, list] = collections.defaultdict(list)
        self._restore: list = []

    # --- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, t: float) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.start.append(t)
        self.end.append(math.nan)       # stays NaN if the span is never closed
        self._stack.append(i)
        return i

    def _close(self, i: int, t: float) -> None:
        self.end[i] = t
        self._stack.pop()

    def open_op(self, op_index: int, command: str, t: float) -> None:
        """Open the root span of one CLI op at time t."""
        self._op = op_index
        self._root = self._open(self._name_id(f"cli.{command}"), t)

    def close_op(self, t: float) -> None:
        self._close(self._root, t)
        self._op = -1

    def _count(self, key: str, n=1) -> None:
        self.counts[(self._op, key)] += n

    # --- wrapping --------------------------------------------------------

    def _wrap(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        name_id = self._name_id(name)
        on_result = _ON_RESULT.get(name)
        on_error = _ON_ERROR.get(name)
        rec = self

        if name == "analyze.peak_age":
            def call(objective, *args, **kwargs):
                def counted(x):
                    rec._count("analyze.objective_calls")
                    return objective(x)
                return fn(counted, *args, **kwargs)
        else:
            call = fn

        def wrapper(*args, **kwargs):
            i = rec._open(name_id, _now())
            try:
                out = call(*args, **kwargs)
            except BaseException:
                rec._close(i, _now())
                if on_error is not None:
                    on_error(rec, i)
                raise
            rec._close(i, _now())
            if on_result is not None:
                on_result(rec, i, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every public function binding in the package with a wrapper."""
        wrappers = {}
        for layer, mod in self.modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(layer, attr, fn)
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        dataset_cls = self.modules["dataset"].Dataset
        raw = dataset_cls.__dict__["from_points"]
        self._restore.append((dataset_cls, "from_points", raw))
        dataset_cls.from_points = staticmethod(
            self._wrap("dataset", "from_points", raw.__func__))
        for attr in COLUMN_PROPERTIES:
            prop = dataset_cls.__dict__[attr]
            self._restore.append((dataset_cls, attr, prop))
            setattr(dataset_cls, attr,
                    property(self._wrap("dataset", attr, prop.fget)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # --- output ----------------------------------------------------------

    def _arrays(self, ops: dict[int, float]):
        """Name id, op id, scaled duration, scaled self time and has-parent
        flag of the spans of ``ops``."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        lut = np.zeros(max(ops) + 1)
        lut[list(ops)] = list(ops.values())
        factor = np.where((op >= 0) & (op < lut.size),
                          lut[np.clip(op, 0, lut.size - 1)], 0.0)
        sel = factor > 0
        return (names[sel], op[sel], (dur * factor)[sel],
                ((dur - covered) * factor)[sel], has_parent[sel])

    def verify(self) -> list[str]:
        """Check the span tree of every op; return what is wrong with it."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        problems = []
        unclosed = int(np.isnan(end).sum())
        if unclosed:
            problems.append(f"trace: {unclosed} spans never closed")
        child = parent >= 0
        p = parent[child]
        if np.any(op[child] != op[p]):
            problems.append("trace: a span's parent belongs to another op")
        if (np.any((start[child] < start[p]) | (end[child] > end[p]))
                or np.any(end < start)):
            problems.append("trace: a span lies outside its parent")
        ops, roots = np.unique(op[~child], return_counts=True)
        if np.any(roots != 1) or not np.array_equal(ops, np.unique(op)):
            problems.append("trace: an op has no single root span")
        return problems

    def op_times(self, ops) -> dict[int, float]:
        """Scaled root span duration of each op in ``ops``."""
        _, op, dur, _, has_parent = self._arrays(ops)
        roots = ~has_parent
        return {int(o): float(d) for o, d in zip(op[roots], dur[roots])}

    def layer_self(self, ops) -> dict[int, dict[str, float]]:
        """Per op in ``ops``, the scaled self time of each layer."""
        names, op, _, self_t, _ = self._arrays(ops)
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0])
                             for n in self.names], dtype=np.int64)
        out = {}
        for o in np.unique(op):
            sel = op == o
            sums = np.bincount(layer_of[names[sel]], weights=self_t[sel],
                               minlength=len(LAYERS))
            out[int(o)] = dict(zip(LAYERS, map(float, sums)))
        return out

    def metrics(self, ops: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics summed over ``ops``, with times scaled per op."""
        names, _, dur, self_t, _ = self._arrays(ops)
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        incl = np.bincount(names, weights=dur, minlength=n_names)
        own = np.bincount(names, weights=self_t, minlength=n_names)

        def by(vec, *fn_names):
            return sum(vec[self._name_ids[n]].item() for n in fn_names
                       if n in self._name_ids)

        total = collections.Counter()
        for (o, key), n in self.counts.items():
            if o in ops:
                total[key] += n
        columns = [f"dataset.{a}" for a in COLUMN_PROPERTIES]
        m = {
            "fit.lm_self_s": by(own, "fit.fit_least_squares"),
            "fit.lm_starts": by(calls, "fit.fit_least_squares"),
            "fit.lm_iterations": total["fit.lm_iterations"],
            "fit.start_failures": total["fit.start_failures"],
            "fit.duplicate_start_ratio": self._duplicate_start_ratio(ops),
            "fit.families_failed": total["fit.families_failed"],
            "fit.families_excluded": total["fit.families_excluded"],
            "models.eval_calls": by(calls, "models.evaluate"),
            "models.eval_s": by(incl, "models.evaluate"),
            "models.grad_calls": by(calls, "models.gradient"),
            "models.grad_s": by(incl, "models.gradient"),
            "models.guess_s": by(incl, "models.initial_guess"),
            "models.plausibility_s": by(incl, "models.check_plausibility"),
            "dataset.column_reads": by(calls, *columns),
            "dataset.column_s": by(incl, *columns),
            "dataset.ingest_s": by(incl, "dataset.ingest_csv"),
            "dataset.rows_ingested": total["dataset.rows_ingested"],
            "dataset.write_s": by(incl, "dataset.write_csv"),
            "dataset.normalize_s": by(incl, "dataset.normalize_units"),
            "dataset.describe_s": by(incl, "dataset.describe"),
            "synth.replicate_s": by(incl, "synth.replicate"),
            "synth.points_drawn": total["synth.points_drawn"],
            "validate.split_s": by(incl, "validate.split"),
            "validate.holdout_s": by(incl, "validate.holdout_validate"),
            "analyze.peak_s": by(incl, "analyze.peak_age"),
            "analyze.objective_calls": total["analyze.objective_calls"],
            "analyze.band_s": by(incl, "analyze.prediction_band"),
            "plotting.svg_s": by(incl, "plotting.render_svg"),
            "plotting.svg_bytes": total["plotting.svg_bytes"],
        }
        layer_totals = collections.Counter()
        for per_op in self.layer_self(ops).values():
            layer_totals.update(per_op)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = float(layer_totals[layer])
        for command in COMMANDS:
            m[f"cli.{command}_s"] = by(incl, f"cli.{command}")
        m["trace.op_s"] = float(sum(self.op_times(ops).values()))
        m["trace.spans"] = int(names.size)
        return m

    def _duplicate_start_ratio(self, ops) -> float:
        """Share of non-first starts in ``ops`` that end on an earlier start's optimum."""
        later = duplicates = 0
        for parent, starts in self._lm.items():
            if self.op[parent] not in ops:
                continue
            seen = []
            for k, params in enumerate(starts):
                if k > 0:
                    later += 1
                    if params is not None and any(
                            np.all(np.abs(params - q)
                                   <= 1e-6 * np.maximum(np.abs(params), np.abs(q)))
                            for q in seen):
                        duplicates += 1
                if params is not None:
                    seen.append(params)
        return duplicates / later if later else 0.0

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


# --- counters fed from results, keyed by span name --------------------------

def _lm_done(rec, i, result):
    rec._count("fit.lm_iterations", result.iterations)
    rec._lm[rec.parent[i]].append(np.asarray(result.params, dtype=float))


def _lm_failed(rec, i):
    rec._count("fit.start_failures")
    rec._lm[rec.parent[i]].append(None)


def _plausibility_done(rec, i, result):
    if not result[0]:
        rec._count("fit.families_excluded")


_ON_RESULT = {
    "fit.fit_least_squares": _lm_done,
    "models.check_plausibility": _plausibility_done,
    "dataset.ingest_csv": lambda rec, i, d: rec._count("dataset.rows_ingested", len(d)),
    "synth.reconstruct_row": lambda rec, i, v: rec._count("synth.points_drawn", len(v)),
    "plotting.render_svg": lambda rec, i, svg: rec._count("plotting.svg_bytes", len(svg)),
}
_ON_ERROR = {
    "fit.fit_least_squares": _lm_failed,
    "fit.multi_start": lambda rec, i: rec._count("fit.families_failed"),
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"
