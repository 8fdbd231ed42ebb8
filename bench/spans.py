"""Span tracing of rieszfrac's layers, installed from outside the library.

`install` wraps every public function of the layer modules, plus
`Similitude.apply` and `Fractal.apply_word`, and rebinds each wrapped name in
every rieszfrac module that holds it: several modules import functions by
value (`minimize` holds `point_energy_sums` and `riesz_energy`, `cli` holds
`min_pairwise_distance` and `write_table`), so patching only the defining
module would miss those calls.  Tasks that `parallel_map` runs are wrapped
from outside as spans whose parent is the map span, so self times stay
correct when restarts run on the thread pool.

Spans stay in memory as tuples
(id, name, start, end, parent, task, thread, work) and are written out once
the pass ends; `layer_metrics` turns them into the per-layer table.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import math
import os
import sys
import threading
from time import perf_counter

LAYERS = ("cli", "serialize", "asymptotics", "minimize", "energy", "fractal", "parallel")
METHODS = (("fractal", "Similitude", "apply"), ("fractal", "Fractal", "apply_word"))

POINT_SUMS = ("energy.point_energy_sums",)
PAIR = ("energy.riesz_energy", "energy.min_pairwise_distance", "energy.cross_energy")
APPLY = ("fractal.Similitude.apply", "fractal.Fractal.apply_word")
SUBSETS = ("minimize.exhaustive_minimize", "minimize.best_packing")
MOVES = ("minimize.local_search_minimize", "minimize.lift_chain")
WRITES = ("serialize.write_table", "serialize.configuration_to_csv")
MAP = "parallel.parallel_map"
TASK_SUFFIX = ".task"

# Per-layer metrics in report order, with units.  `trace.overhead_s` is
# filled in by the runner from the untraced and traced pass times.
METRICS = (
    ("energy.point_sums.calls", "count"),
    ("energy.point_sums.evals", "count"),
    ("energy.point_sums_s", "s"),
    ("energy.pair.calls", "count"),
    ("energy.pair.evals", "count"),
    ("energy.pair_s", "s"),
    ("energy.pair.bytes_computed", "B"),
    ("fractal.apply.calls", "count"),
    ("fractal.apply.rows", "count"),
    ("fractal.apply_word.calls", "count"),
    ("fractal.apply_s", "s"),
    ("minimize.self_s", "s"),
    ("minimize.subsets", "count"),
    ("minimize.moves_accepted", "count"),
    ("minimize.accept_ratio", "ratio"),
    ("parallel.map.calls", "count"),
    ("parallel.tasks", "count"),
    ("parallel.map_s", "s"),
    ("parallel.task_s", "s"),
    ("parallel.speedup", "ratio"),
    ("asymptotics.self_s", "s"),
    ("cli.self_s", "s"),
    ("serialize.write_s", "s"),
    ("serialize.bytes", "B"),
    ("trace.overhead_s", "s"),
)


def _rows(points) -> int:
    """Point count as rieszfrac's energy functions read it (1-D = column)."""
    n = getattr(points, "n", None)
    if n is not None:
        return int(n)
    shape = getattr(points, "shape", None)
    return int(shape[0]) if shape else len(points)


def _apply_rows(args, kwargs, result) -> int:
    return 1 if getattr(result, "ndim", 2) == 1 else int(result.shape[0])


def _best_packing_subsets(args, kwargs, result) -> int:
    if result.strategy != "exhaustive":
        return 0
    fractal, n, depth = args[0], args[1], args[2]
    # the packing mesh holds the M fixed-point images in each depth-l cell
    return math.comb(len(fractal.maps) ** (depth + 1), n)


# work(args, kwargs, result) -> int, the count a span contributes
WORK = {
    "energy.point_energy_sums": lambda a, k, r: len(r) * _rows(a[1]),
    "energy.riesz_energy": lambda a, k, r: _rows(a[0]) ** 2,
    "energy.min_pairwise_distance": lambda a, k, r: _rows(a[0]) ** 2,
    "energy.cross_energy": lambda a, k, r: _rows(a[0]) * _rows(a[1]),
    "fractal.Similitude.apply": _apply_rows,
    "minimize.exhaustive_minimize": lambda a, k, r: r.iterations,
    "minimize.best_packing": _best_packing_subsets,
    # a lift-seeded result is the last stage of a lift_chain counted on its own
    "minimize.local_search_minimize":
        lambda a, k, r: r.iterations if r.strategy == "local-search" else 0,
    "minimize.lift_chain": lambda a, k, r: sum(st.iterations for st in r),
    "serialize.write_table":
        lambda a, k, r: os.path.getsize(a[0] if a else k["path"]),
}


class Recorder:
    """In-memory span log with one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        self.task = 0  # the CLI task (request) new root spans belong to
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def call(self, name, fn, args, kwargs, work=None, parent=None, bind=None):
        """Run fn(*args, **kwargs) inside a span; `parent` is (id, task).

        bind(me) may build the arguments once the span's own (id, task) is
        known, which is how parallel tasks learn their parent.
        """
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else (0, self.task)
        me = (self._next_id(), parent[1])
        if bind is not None:
            args = bind(me)
        stack.append(me)
        done = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = perf_counter()
            stack.pop()
            count = work(args, kwargs, result) if (done and work is not None) else 0
            self.spans.append((me[0], name, start, end, parent[0], me[1],
                               threading.get_ident(), count))


def _wrap(rec: Recorder, name: str, fn):
    work = WORK.get(name)

    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, work)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


def _wrap_parallel_map(rec: Recorder, fn):
    def parallel_map(task_fn, items):
        task_name = task_fn.__module__.rsplit(".", 1)[-1] + TASK_SUFFIX

        def bind(me):
            def task(item):
                return rec.call(task_name, task_fn, (item,), {}, parent=me)
            return (task, items)

        return rec.call(MAP, fn, (), {}, bind=bind)

    parallel_map.__wrapped__ = fn
    return parallel_map


def install(rec: Recorder):
    """Wrap the layers' public functions everywhere they are bound."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"rieszfrac.{layer}")
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[fn] = _wrap_parallel_map(rec, fn) if name == MAP else _wrap(rec, name, fn)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rieszfrac" or mod_name.startswith("rieszfrac.")):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"rieszfrac.{layer}"), cls_name)
        setattr(cls, meth, _wrap(rec, f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """id -> span duration minus the part of it that child spans cover.

    Children on other threads may overlap each other, so their cover is the
    length of the union of their intervals (clipped to the parent's).
    """
    kids = {}
    for sid, _, start, end, parent, *_ in spans:
        kids.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, *_ in spans:
        children = kids.get(sid)
        cover = 0.0
        if children:
            cover = _union_length((max(a, start), min(b, end))
                                  for a, b in children if b > start and a < end)
        out[sid] = (end - start) - cover
    return out


def covered_time(spans, names) -> float:
    """Time inside spans named in `names`, without counting nested ones twice.

    `spans` must be in id order; ids grow with span entry, so a parent comes
    before its children.  Sums the durations of spans whose ancestors carry
    none of the names, so time on different threads adds up.
    """
    names = set(names)
    inside = {0: False}
    total = 0.0
    for sid, name, start, end, parent, *_ in spans:
        outer = inside.get(parent, False)
        hit = name in names
        if hit and not outer:
            total += end - start
        inside[sid] = outer or hit
    return total


def layer_metrics(spans) -> dict:
    """The per-layer metrics (all of METRICS except trace.overhead_s).

    Times of spans on pool threads add up, so a layer's time can exceed the
    pass's wall time when restarts run in parallel.
    """
    spans = sorted(spans)
    calls, work = {}, {}
    for _, name, *_, count in spans:
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + count
    selfs = self_times(spans)
    layer_self = {}
    task_s = 0.0
    tasks = 0
    for sid, name, start, end, *_ in spans:
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[sid]
        if name.endswith(TASK_SUFFIX):
            tasks += 1
            task_s += end - start

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    point_calls = total(calls, POINT_SUMS)
    pair_evals = total(work, PAIR)
    moves = total(work, MOVES)
    map_s = covered_time(spans, (MAP,))
    return {
        "energy.point_sums.calls": point_calls,
        "energy.point_sums.evals": total(work, POINT_SUMS),
        "energy.point_sums_s": covered_time(spans, POINT_SUMS),
        "energy.pair.calls": total(calls, PAIR),
        "energy.pair.evals": pair_evals,
        "energy.pair_s": covered_time(spans, PAIR),
        # computed from array sizes: one float64 per pair, no temporaries
        "energy.pair.bytes_computed": 8 * pair_evals,
        "fractal.apply.calls": calls.get(APPLY[0], 0),
        "fractal.apply.rows": work.get(APPLY[0], 0),
        "fractal.apply_word.calls": calls.get(APPLY[1], 0),
        "fractal.apply_s": covered_time(spans, APPLY),
        "minimize.self_s": layer_self.get("minimize", 0.0),
        "minimize.subsets": total(work, SUBSETS),
        "minimize.moves_accepted": moves,
        "minimize.accept_ratio": moves / point_calls if point_calls else 0.0,
        "parallel.map.calls": calls.get(MAP, 0),
        "parallel.tasks": tasks,
        "parallel.map_s": map_s,
        "parallel.task_s": task_s,
        "parallel.speedup": task_s / map_s if map_s > 0.0 else 0.0,
        "asymptotics.self_s": layer_self.get("asymptotics", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "serialize.write_s": covered_time(spans, WRITES),
        "serialize.bytes": work.get(WRITES[0], 0),
    }
