"""rieszfrac benchmark: the library driven through its CLI, one workload per run.

    python3 bench/run.py --workload {search,gcurve,lift,certify,all} --seed N \
        --seconds S --trace {0,1}

Run from a checkout; the program is imported from its `src/`.  A run writes
the workload's configs (generated from --seed, see workloads.py), then runs
passes of the task list, each in a fresh process (worker.py) with
RIESZ_THREADS pinned to the usable core count.  Passes continue while the
next one is expected to end within --seconds, with at least MIN_PASSES.

--trace 0 reports the end-to-end metrics: wall_s (median pass time),
setup_s (median of the passes' and SETUP_PROBES extra set-ups), peak_rss_mb
(median peak resident memory of a pass process) and normalized_energy
(geometric mean of the normalized energies the tasks report).  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
spans.py, with trace.overhead_s the difference of their median pass times.

Every pass's artifacts go through checks.py outside the timed region and
must be byte-identical across the passes of a run; a task that errors or
fails a check counts in `failed` and failed_frac.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Artifacts, results and spans of the latest run stay in .benchwork/<workload>.

BENCHMARK.json lists search and lift.  gcurve and certify measure the
per-call fixed costs and the subset loop that no listed workload isolates;
they run the same way but are not listed because their wall_s spread over
ten seeds on a shared 2-vCPU VM exceeded what the bound allows (see
baseline.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
SETUP_PROBES = 9
# passes stop, and a hung pass is killed, this long after measuring starts,
# which keeps a whole run inside three minutes
RUN_LIMIT_S = 140.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("normalized_energy", "1"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a broken worker)."""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["RIESZ_THREADS"] = str(usable_cores())
    return env


def _spawn(config_paths, out: Path, trace=False, setup_only=False,
           timeout=RUN_LIMIT_S) -> dict:
    """Run one worker process; returns its result.json or {'error': ...}."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())] + [str(p) for p in config_paths]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass killed after {timeout:.0f} s"}
    finally:
        # also reached on SIGTERM (see main): no worker outlives the run
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": f"worker failed: {tail[0]}"}
    with open(out / "result.json", "r", encoding="utf-8") as fh:
        result = json.load(fh)
    if Path(result["rieszfrac"]).resolve() != ROOT / "src" / "rieszfrac":
        raise BenchError(f"worker imported rieszfrac from {result['rieszfrac']}")
    return result


def _digest(task_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in task_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(task_dir)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def evaluate(docs, passes) -> dict:
    """Check every task of every pass; failures and the reported energies.

    A task fails when it errors, fails its check, or writes artifacts that
    differ from the first pass that ran it.
    """
    attempted = failed = 0
    failures = []
    digests = {}
    normalized = {}
    for k, p in enumerate(passes):
        for i, doc in enumerate(docs):
            attempted += 1
            task_dir = p["out"] / f"task{i}"
            fails = []
            if "error" in p["result"]:
                fails.append(p["result"]["error"])
            else:
                error = p["result"]["tasks"][i]["error"]
                if error:
                    fails.append(error)
                task_fails, values = checks.check_task(doc, str(task_dir))
                fails += task_fails
                normalized.setdefault(i, values)
                digest = _digest(task_dir)
                if digests.setdefault(i, digest) != digest:
                    fails.append("artifacts differ from an earlier pass")
            if fails:
                failed += 1
                failures.append(f"pass {k} task {i} ({doc['experiment']}): " + "; ".join(fails))
    values = [v for i in sorted(normalized) for v in normalized[i]]
    geo = math.exp(statistics.fmean(math.log(v) for v in values)) \
        if values and all(v > 0.0 for v in values) else math.nan
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "normalized_energy": geo}


def _summary(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return statistics.median(values), q1, q3, len(values)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", workdir: Path = None) -> dict:
    """Measure one workload; returns the metrics, their samples and the checks."""
    run_dir = (workdir or ROOT / ".benchwork") / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    docs = workloads.configs(workload, seed, size)
    config_paths = []
    for i, doc in enumerate(docs):
        path = run_dir / f"config{i}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        config_paths.append(path)

    # fills bytecode caches so that set-up times what users pay on every run
    warm = _spawn(config_paths, run_dir / "warmup", setup_only=True)
    if "error" in warm:
        raise BenchError(warm["error"])

    modes = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_PASSES
    passes = []
    start = time.monotonic()
    while True:
        for traced in modes:
            out = run_dir / f"pass{len(passes)}"
            left = max(1.0, start + RUN_LIMIT_S - time.monotonic())
            passes.append({"traced": traced, "out": out,
                           "result": _spawn(config_paths, out, trace=traced, timeout=left)})
        rounds = len(passes) // len(modes)
        elapsed = time.monotonic() - start
        if elapsed >= RUN_LIMIT_S or (rounds >= min_rounds
                                      and elapsed * (rounds + 1) / rounds > seconds):
            break

    ok = [p for p in passes if "error" not in p["result"]]
    report = evaluate(docs, passes)
    report.update(workload=workload, seed=seed, passes=len(passes), samples={},
                  machine=_machine(ok))
    untraced = [p["result"] for p in ok if not p["traced"]]
    if not untraced:
        return report
    walls = [r["wall_s"] for r in untraced]
    if not trace:
        setups = [r["setup_s"] for r in untraced]
        for j in range(SETUP_PROBES):
            probe = _spawn(config_paths, run_dir / f"setup{j}", setup_only=True)
            if "error" in probe:
                raise BenchError(probe["error"])
            setups.append(probe["setup_s"])
        report["samples"] = {
            "wall_s": walls,
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "normalized_energy": [report["normalized_energy"]],
        }
        return report
    traced = [p for p in ok if p["traced"]]
    if not traced:
        return report
    per_pass = []
    for p in traced:
        with open(p["out"] / "spans.json", "r", encoding="utf-8") as fh:
            rows = [tuple(row) for row in json.load(fh)["spans"]]
        per_pass.append(spans.layer_metrics(rows))
    samples = {name: [m[name] for m in per_pass] for name in per_pass[0]}
    overhead = statistics.median(p["result"]["wall_s"] for p in traced) \
        - statistics.median(walls)
    samples["trace.overhead_s"] = [overhead]
    report["samples"] = samples
    return report


def _machine(ok_passes) -> dict:
    r = ok_passes[0]["result"] if ok_passes else {}
    return {"nproc": os.cpu_count(), "usable_cores": usable_cores(),
            "RIESZ_THREADS": r.get("threads"), "python": r.get("python"),
            "numpy": r.get("numpy")}


def metric_table(report: dict, trace: bool) -> dict:
    units = spans.METRICS if trace else END_TO_END
    out = {}
    for name, unit in units:
        values = report["samples"].get(name)
        if values:
            out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def print_report(report: dict, trace: bool):
    m = report["machine"]
    print(f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']}  "
          f"nproc {m['nproc']}  RIESZ_THREADS={m['RIESZ_THREADS']}  "
          f"python {m['python']}  numpy {m['numpy']}")
    units = dict(spans.METRICS if trace else END_TO_END)
    for name, values in report["samples"].items():
        med, q1, q3, n = _summary(values)
        print(f"  {name:<28} {med:>14.6g} {units[name]:<6} q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    frac = report["failed"] / report["attempted"] if report["attempted"] else math.nan
    print(f"  {'failed_frac':<28} {frac:>14.6g} {'1':<6} "
          f"({report['failed']} of {report['attempted']} tasks)")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    print(f"  correct: {'yes' if report['failed'] == 0 else 'no'}")


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)

    if not (ROOT / "src" / "rieszfrac" / "__init__.py").is_file():
        print(f"bench: no rieszfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print_report(report, trace)
        table = metric_table(report, trace)
        wanted = len(spans.METRICS if trace else END_TO_END)
        if len(table) != wanted or any(not math.isfinite(v["value"]) for v in table.values()):
            print(f"bench: workload {name} produced no complete measurement", file=sys.stderr)
            return 1
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in table.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
