"""parallel_map: results in item order, errors with their own types, and no
worker process left behind.

The fork cases run in a child interpreter with a timeout, so that a
deadlock fails a test instead of hanging the suite, and with the core count
forced through the private helper, so that they fork on a 1-core runner too.
"""

import json
import os
import subprocess
import sys

import rieszfrac as rf

_SCRIPT = r"""
import json, os, signal, sys, time
from rieszfrac import minimize, parallel
from rieszfrac.errors import DomainError
from rieszfrac.fractal import cantor


def no_children():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def call(cores, task_fn, items):
    parallel._usable_cores = lambda: cores
    start = time.monotonic()
    try:
        out = {"value": parallel.parallel_map(task_fn, items)}
    except BaseException as exc:
        out = {"error": type(exc).__name__, "message": str(exc)}
    out["seconds"] = time.monotonic() - start
    out["reaped"] = no_children()
    return out


def order():
    rows = []
    for cores in (1, 2, 3, 8):
        for n in range(8):
            out = call(cores, lambda x: (x, x * x, os.getpid()), range(n))
            value = out.pop("value")
            out.update(cores=cores, n=n, squares=[v[:2] for v in value],
                       workers=len({v[2] for v in value}),
                       here=all(v[2] == os.getpid() for v in value[::min(n, cores) or 1]))
            rows.append(out)
    return rows


def raise_on(failing):
    def task(x):
        if x in failing:
            raise failing[x](f"bad {x}")
        return x
    return task


def errors():
    return [call(2, raise_on({1: DomainError, 2: ValueError}), range(3)),
            call(2, raise_on({0: ValueError, 1: DomainError}), range(3)),
            call(3, raise_on({2: DomainError}), range(6))]


def killed():
    def task(x):
        if x == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return x
    return [call(2, task, range(2)), call(3, task, range(5))]


def interrupted():
    def task(x):
        if x == 0:
            raise KeyboardInterrupt
        time.sleep(60)
    return [call(3, task, range(3))]


def search():
    # one search in order, and fanned out over 2, 3 and 4 workers
    fractal, opts = cantor(1 / 3), minimize.SearchOptions(restarts=4, seed=3)
    runs = []
    for cores, gate in ((1, 1 << 60), (2, 0), (3, 0), (8, 0)):
        minimize._FAN_OUT_MIN = gate
        parallel._usable_cores = lambda: cores
        state, pair, moves, _ = minimize._local_search_state(fractal, 24, 3.0, opts,
                                                             minimize._Mesh(fractal))
        runs.append([[list(w) for w in state.words], state.pts.tobytes().hex(),
                     [pair[0].hex(), pair[1].hex()], moves, no_children()])
    return runs


print(json.dumps(globals()[sys.argv[1]]()))
"""


def _run(case):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rf.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, case],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_parallel_map_returns_results_in_item_order():
    rows = _run("order")
    assert len(rows) == 32
    for row in rows:
        n, cores = row["n"], row["cores"]
        assert "error" not in row, row
        assert row["squares"] == [[x, x * x] for x in range(n)], row
        # one process per worker, and the caller runs items 0, w, 2w, ...
        assert row["workers"] == min(n, cores) and row["here"], row
        assert row["reaped"], row


def test_parallel_map_raises_the_first_failing_items_error_with_its_type():
    child_first, parent_first, later = _run("errors")
    assert child_first["error"] == "DomainError" and child_first["message"] == "bad 1"
    assert parent_first["error"] == "ValueError" and parent_first["message"] == "bad 0"
    assert later["error"] == "DomainError" and later["message"] == "bad 2"
    assert all(out["reaped"] for out in (child_first, parent_first, later))


def test_a_worker_killed_by_a_signal_raises():
    for out in _run("killed"):
        assert out["error"] == "RuntimeError" and "signal 9" in out["message"], out
        assert out["reaped"], out


def test_workers_are_killed_when_the_caller_is_interrupted():
    (out,) = _run("interrupted")
    assert out["error"] == "KeyboardInterrupt", out
    assert out["seconds"] < 30 and out["reaped"], out


def test_fanned_out_search_is_bit_identical_to_the_search_in_order():
    runs = _run("search")
    assert all(run[-1] for run in runs)
    for run in runs[1:]:
        assert run == runs[0]

