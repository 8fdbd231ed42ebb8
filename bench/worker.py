"""One benchmark pass in a fresh process: set up, run the task list, report.

    python3 bench/worker.py --out DIR --spawned T [--trace] [--setup-only] CONFIG...

Set-up is `import rieszfrac` (numpy and jsonschema), schema validation of
every config and construction of every fractal the configs name; setup_s runs
from T (the parent's time.monotonic() just before it started this process,
a clock shared by all processes on Linux) until the first task can run.
Each config then runs through `rieszfrac.cli.main(["run", ...])` in order,
its artifacts in DIR/task<i>.  The pass writes DIR/result.json and, when
traced, the spans to DIR/spans.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def _setup(configs):
    import rieszfrac

    docs = []
    for path in configs:
        with open(path, "r", encoding="utf-8") as fh:
            docs.append(json.load(fh))
    fractals = {}
    for doc in docs:
        rieszfrac.ExperimentConfig.from_dict(doc)
        key = json.dumps(doc["fractal"], sort_keys=True)
        if key not in fractals:
            fractals[key] = rieszfrac.load_fractal(doc["fractal"])
    return rieszfrac


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--out", required=True)
    p.add_argument("--spawned", required=True, type=float)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("configs", nargs="+")
    args = p.parse_args(argv)

    rieszfrac = _setup(args.configs)
    setup_s = time.monotonic() - args.spawned
    result = {
        "setup_s": setup_s,
        "rieszfrac": os.path.dirname(os.path.abspath(rieszfrac.__file__)),
        "threads": os.environ.get("RIESZ_THREADS"),
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
    }
    os.makedirs(args.out, exist_ok=True)
    if not args.setup_only:
        rec = None
        if args.trace:
            import spans

            rec = spans.Recorder()
            spans.install(rec)
        cli = sys.modules["rieszfrac.cli"]
        tasks = []
        printed = []
        start = time.perf_counter()
        for i, config in enumerate(args.configs):
            if rec is not None:
                rec.task = i + 1
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["run", "--config", config,
                                     "--out", os.path.join(args.out, f"task{i}")])
                error = None if code == 0 else f"exit code {code}"
            except Exception as exc:  # noqa: BLE001  a failed task is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            tasks.append({"seconds": time.perf_counter() - t0, "error": error})
            printed.append(buf.getvalue())
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["tasks"] = tasks
        for i, text in enumerate(printed):
            task_dir = os.path.join(args.out, f"task{i}")
            os.makedirs(task_dir, exist_ok=True)
            with open(os.path.join(task_dir, "stdout.txt"), "w", encoding="utf-8") as fh:
                fh.write(text)
        if rec is not None:
            threads = {}
            rows = [row[:6] + (threads.setdefault(row[6], len(threads)), row[7])
                    for row in rec.spans]
            with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "start", "end", "parent", "task",
                                      "thread", "work"],
                           "spans": rows}, fh, separators=(",", ":"))
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
