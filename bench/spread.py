"""Run-to-run spread of the benchmark: one run per seed, then quartiles.

    python3 bench/spread.py --workload search [--seeds 1-10] [--seconds S] [--json OUT]

For each end-to-end metric prints the median of the per-run values, their
first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, which must stay below the metric's bound in
BENCHMARK.json.  Each run is a separate `run.py` process; --seconds defaults
to BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--json", help="write the per-run values and quartiles here")
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(BENCH.parent / "BENCHMARK.json", "r", encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in _seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH.parent, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "elapsed_s": time.monotonic() - t0, **result})
        print(f"seed {seed}: {time.monotonic() - t0:.1f} s  correct={result['correct']}  "
              + "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                       "n": len(values), "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name:<20} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / med:.4f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "metrics": table, "runs": runs}, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
