"""The benchmark's own tests: tiny smoke runs, a planted wrong energy, span arithmetic.

    python3 -m pytest bench
"""

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import checks
import run
import spans
import workloads


@pytest.fixture
def quick(monkeypatch):
    # two passes still exercise the byte-identity check
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload, tmp_path, quick):
    report = run.run_workload(workload, 7, 0, False, size="tiny", workdir=tmp_path)
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] == 2 * len(workloads.configs(workload, 7, "tiny"))
    table = run.metric_table(report, trace=False)
    assert set(table) == {name for name, _ in run.END_TO_END}
    assert all(v["value"] > 0.0 and math.isfinite(v["value"]) for v in table.values())

    traced = run.run_workload(workload, 7, 0, True, size="tiny", workdir=tmp_path)
    assert traced["failed"] == 0, traced["failures"]
    assert set(run.metric_table(traced, trace=True)) == {name for name, _ in spans.METRICS}


def test_corrupted_energy_is_counted(tmp_path, quick):
    report = run.run_workload("search", 7, 0, False, size="tiny", workdir=tmp_path)
    assert report["failed"] == 0
    docs = workloads.configs("search", 7, "tiny")
    passes = []
    for k in range(report["passes"]):
        out = tmp_path / "search" / f"pass{k}"
        summary_path = out / "task0" / "minimize_summary.json"
        summary = json.loads(summary_path.read_text())
        summary["energy"] *= 1.0 + 1e-9
        summary_path.write_text(json.dumps(summary))
        passes.append({"out": out, "result": json.loads((out / "result.json").read_text())})
    again = run.evaluate(docs, passes)
    assert again["failed"] == report["passes"]
    assert all("re-evaluated" in line for line in again["failures"])
    assert again["failed"] / again["attempted"] == pytest.approx(1 / len(docs))


def test_pair_energy_and_dimension():
    # ordered pairs: 2 * (1 + 1 + 1/2^s) on {0, 1, 2}
    pts = np.array([[0.0], [1.0], [2.0]])
    assert checks.pair_energy(pts, 2.0) == 2 * (2 + 0.25)
    assert checks.moran_dimension([1 / 3, 1 / 3]) == pytest.approx(math.log(2) / math.log(3),
                                                                   rel=1e-15)


def _span(sid, name, start, end, parent, thread=0, work=0):
    return (sid, name, start, end, parent, 1, thread, work)


def test_self_times_nested_and_threaded():
    rows = [
        _span(1, "cli.main", 0.0, 10.0, 0),
        _span(2, "minimize.local_search_minimize", 1.0, 9.0, 1),
        _span(3, "energy.point_energy_sums", 2.0, 4.0, 2, work=6),
        _span(4, "fractal.Fractal.apply_word", 5.0, 8.0, 2),
        _span(5, "fractal.Similitude.apply", 6.0, 7.0, 4, work=3),
        # a pool map whose two tasks overlap on two threads
        _span(6, "parallel.parallel_map", 10.0, 20.0, 0),
        _span(7, "minimize.task", 11.0, 17.0, 6, thread=1),
        _span(8, "minimize.task", 12.0, 19.0, 6, thread=2),
        _span(9, "energy.point_energy_sums", 13.0, 15.0, 8, thread=2, work=4),
    ]
    selfs = spans.self_times(rows)
    assert selfs == {1: 2.0, 2: 3.0, 3: 2.0, 4: 2.0, 5: 1.0,
                     6: 2.0, 7: 6.0, 8: 5.0, 9: 2.0}
    m = spans.layer_metrics(rows)
    assert m["minimize.self_s"] == 3.0 + 6.0 + 5.0
    assert m["cli.self_s"] == 2.0
    assert m["energy.point_sums_s"] == 4.0
    assert m["energy.point_sums.calls"] == 2 and m["energy.point_sums.evals"] == 10
    # apply_word contains Similitude.apply: the nested second counts once
    assert m["fractal.apply_s"] == 3.0
    assert m["fractal.apply.calls"] == 1 and m["fractal.apply.rows"] == 3
    assert m["parallel.map_s"] == 10.0 and m["parallel.task_s"] == 13.0
    assert m["parallel.tasks"] == 2 and m["parallel.speedup"] == 1.3
    # self times add up to the main thread's 20 s, minus the 8 s the map
    # waited on its tasks, plus the 6 + 7 s the two pool threads worked
    assert sum(selfs.values()) == pytest.approx(20.0 - 8.0 + 6.0 + 7.0)


def test_recorder_keeps_one_stack_per_thread():
    rec = spans.Recorder()
    rec.task = 4
    barrier = threading.Barrier(2, timeout=10)

    def leaf(x):
        return x

    def task(x):
        barrier.wait()  # both tasks are open at once
        return rec.call("energy.leaf", leaf, (x,), {})

    def pool_map(fn, items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, items))

    traced_map = spans._wrap_parallel_map(rec, pool_map)
    assert rec.call("cli.main", traced_map, (task, [1, 2]), {}) == [1, 2]
    by_id = {s[0]: s for s in rec.spans}
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s[1], []).append(s)
    (root,), (pmap,) = by_name["cli.main"], by_name[spans.MAP]
    assert root[4] == 0 and pmap[4] == root[0]
    tasks = by_name[task.__module__ + spans.TASK_SUFFIX]
    assert [t[4] for t in tasks] == [pmap[0], pmap[0]]
    assert len({t[6] for t in tasks}) == 2  # ran on two threads
    for leaf_span in by_name["energy.leaf"]:
        parent = by_id[leaf_span[4]]
        assert parent in tasks and parent[6] == leaf_span[6]
    assert {s[5] for s in rec.spans} == {4}
    assert all(v >= 0.0 for v in spans.self_times(rec.spans).values())
