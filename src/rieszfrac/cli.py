"""Command line front end: catalog fractals and run experiments.

Every run is a pure function of its flags (or config document): numeric CSV
columns are printed at 17 significant digits, summaries are sorted JSON, and
no timestamps or environment details are written, so reruns are
byte-identical.  Multi-start searches of N points on a K-row mesh run
their restarts in order while N K is below minimize._FAN_OUT_MIN, and on
forked workers, one per usable core, from there on (parallel.parallel_map);
the artifacts are the same for every core count, and `taskset -c 0` keeps
a run in one process.

An experiment's subcommand in build_parser is the one declaration of its
params: the flags' dests are the keys of a `run` document, and a document
is read by those flags alone (_document_params): a key no flag declares is
a UsageError (experiment, s and seed may be in any document), the dests of
the required flags must be present, and each value must be one its flag
could read.  Ranges are checked by the library, as for flags, and a bad
flag is a UsageError, printed by main as JSON.  _dispatch and run then
share one executor, _execute: load the fractal, create the output
directory, call the runner from _RUNNERS.  An unset flag is no param, so
each default is stated once, by the parser, the runner or the library.
Which search runs, and what its budget caps, is decided by
minimize._minima alone, for one N (local_search_minimize) or for the whole
N range of g-curve and monotonicity.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
from dataclasses import asdict, dataclass, fields

from .asymptotics import (
    _DEFAULT_STRATEGY,
    empirical_cell_measure,
    g_curve,
    gap_certificate,
    geometric_limit,
    monotonicity_check,
)
from .errors import (
    ClassificationError,
    DomainError,
    HypothesisError,
    ResourceBudgetError,
    RieszFracError,
    SingularConfigurationError,
    UsageError,
)
from .fractal import _read_json, load_fractal, moran_dimension, parse_number
from .minimize import (
    _STRATEGIES,
    SearchOptions,
    best_packing,
    local_search_minimize,
)
from .serialize import configuration_to_csv, fmt_float, write_table

_ENERGY_NOTE = "energy convention: ordered pairs, sum over i != j of |xi - xj|^(-s)"


@dataclass(frozen=True)
class ExperimentConfig:
    """The runner params read from an experiment document."""

    params: dict

    @classmethod
    def from_dict(cls, doc) -> "ExperimentConfig":
        """Check doc: strict JSON, read by the flags of its experiment's
        subcommand (_document_params)."""
        try:
            json.dumps(doc, allow_nan=False)
        except ValueError as exc:  # json.dumps: a NaN or an infinity
            raise UsageError("experiment config rejected: it holds NaN or Infinity") from exc
        except TypeError as exc:  # a number JSON cannot hold, such as np.int64
            raise UsageError(f"experiment config rejected: {exc}") from exc
        return cls(_document_params(doc))

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(_read_json(path, "config"))


def _search_options(params: dict) -> SearchOptions:
    """The params that name a SearchOptions field; the rest keep its defaults."""
    return SearchOptions(**{f.name: params[f.name] for f in fields(SearchOptions)
                            if f.name in params})


def _summary_json(summary: dict, indent: int = None) -> str:
    """Sorted strict JSON of a summary (scalars and lists): a number that is
    not finite is written as null."""
    def strict(v):
        if isinstance(v, list):
            return [strict(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps({k: strict(v) for k, v in summary.items()}, sort_keys=True,
                      indent=indent, allow_nan=False)


def _write_row(out_dir: str, name: str, row: dict, comment: str):
    """A one-row table: the keys of row are its columns."""
    write_table(os.path.join(out_dir, name), list(row), [list(row.values())], comment=comment)


def _run_minimize(fractal, params: dict, out_dir: str) -> dict:
    n, s = params["n"], params["s"]
    opts = _search_options(params)
    result = local_search_minimize(fractal, n, s, opts)
    row = {"N": n, "s": s, "depth": result.depth, "strategy": result.strategy, "seed": opts.seed,
           "energy": result.record.energy, "normalized": result.record.normalized,
           "min_distance": result.min_distance, "certified": result.certified}
    _write_row(out_dir, "minimize_results.csv", row, _ENERGY_NOTE)
    configuration_to_csv(result.config, os.path.join(out_dir, "minimize_points.csv"))
    return dict(row, iterations=result.iterations)


def _run_packing(fractal, params: dict, out_dir: str) -> dict:
    n = params["n"]
    result = best_packing(fractal, n, params.get("depth"), params.get("budget"))
    summary = {"N": n, "depth": result.depth, "delta": result.delta,
               "certified": result.certified, "strategy": result.strategy}
    _write_row(out_dir, "packing_results.csv", summary,
               "delta: best found minimum pairwise distance")
    configuration_to_csv(result.config, os.path.join(out_dir, "packing_points.csv"))
    return summary


def _run_geometric_limit(fractal, params: dict, out_dir: str) -> dict:
    s = params["s"]
    n0 = params.get("n0", 2)
    k_max = params.get("k_max", 6)
    polish = params.get("polish", True)
    opts = _search_options(params)
    report = geometric_limit(fractal, s, n0, k_max, opts, polish=polish)
    rows = []
    for j in range(len(report.n_values)):
        delta = math.nan if j == 0 else report.deltas[j - 1]
        rows.append([j, report.n_values[j], report.energies[j], report.normalized[j],
                     delta, report.tail_bounds[j], report.min_distances[j]])
    write_table(
        os.path.join(out_dir, "geometric_limit.csv"),
        ["k", "N", "energy", "normalized", "delta", "tail_bound", "min_distance"],
        rows,
        comment=_ENERGY_NOTE + "; normalized = energy / N^(1+s/d)",
    )
    summary = {
        "limit_estimate": report.limit_estimate, "s": s, "d": report.d,
        "n0": n0, "k_max": k_max, "polish": polish,
        "last_delta": report.deltas[-1], "tail_at_n0": report.tail_bounds[0],
    }
    return summary


def _run_g_curve(fractal, params: dict, out_dir: str) -> dict:
    s = params["s"]
    bins = params.get("bins", 16)
    n_min, n_max = params["n_min"], params["n_max"]
    opts = _search_options(params)
    points = g_curve(fractal, s, bins, n_min, n_max, opts)
    rows = []
    sample_rows = []
    for i, pt in enumerate(points):
        rows.append([i, pt.theta, len(pt.N_list), pt.estimate, pt.spread])
        for n, v in zip(pt.N_list, pt.normalized_values):
            sample_rows.append([n, pt.theta, v])
    sample_rows.sort(key=lambda r: r[0])
    write_table(
        os.path.join(out_dir, "g_curve.csv"),
        ["bin", "theta", "count", "estimate", "spread"],
        rows,
        comment=_ENERGY_NOTE + "; theta = bin center of {log_M N}",
    )
    write_table(
        os.path.join(out_dir, "g_curve_samples.csv"),
        ["N", "theta", "normalized"],
        sample_rows,
        comment=_ENERGY_NOTE,
    )
    estimates = [pt.estimate for pt in points]
    filled = [e for e in estimates if not math.isnan(e)]
    summary = {
        "bins": bins, "n_min": n_min, "n_max": n_max, "s": s,
        "estimates": estimates, "empty_bins": len(estimates) - len(filled),
        "max_adjacent_jump": max((abs(b - a) for a, b in zip(filled, filled[1:])),
                                 default=math.nan),
    }
    return summary


def _run_gap(fractal, params: dict, out_dir: str) -> dict:
    summary = asdict(gap_certificate(fractal, params["s"]))
    _write_row(out_dir, "gap_certificate.csv", summary,
               "closed-form certificate; sigma is rescaled to diameter 1")
    return summary


def _run_weakstar(fractal, params: dict, out_dir: str) -> dict:
    n, s = params["n"], params["s"]
    depth = params.get("measure_depth", 2)
    opts = _search_options(params)
    result = local_search_minimize(fractal, n, s, opts)
    report = empirical_cell_measure(fractal, result.config, depth)
    rows = []
    for cell in sorted(report.counts):
        rows.append([cell, report.counts[cell], report.empirical[cell],
                     report.target[cell],
                     abs(report.empirical[cell] - report.target[cell])])
    write_table(
        os.path.join(out_dir, "weakstar.csv"),
        ["cell", "count", "empirical", "target", "abs_dev"],
        rows,
        comment="empirical = count/N; target = prod r_mi^d over the cell word",
    )
    summary = {"N": n, "s": s, "measure_depth": depth,
               "max_abs_dev": report.max_abs_dev,
               "energy": result.record.energy}
    return summary


def _run_monotonicity(fractal, params: dict, out_dir: str) -> dict:
    s = params["s"]
    n_min = params.get("n_min", 2)
    n_max = params["n_max"]
    opts = _search_options(params)
    report = monotonicity_check(fractal, s, range(n_min, n_max + 1), opts)
    rows = []
    for j, N in enumerate(report.N_values):
        inc = math.nan if j == 0 else report.increments[j - 1]
        c = math.nan if j == 0 else report.c_values[j - 1]
        rows.append([N, report.energies[j], inc, c])
    write_table(
        os.path.join(out_dir, "monotonicity.csv"),
        ["N", "energy", "increment", "c_value"],
        rows,
        comment=_ENERGY_NOTE + "; c_value = increment / N^(s/d) at the lower N",
    )
    summary = {"s": s, "n_min": n_min, "n_max": n_max,
               "violations": list(report.violations),
               "monotone": not report.violations,
               "fitted_C": report.fitted_C}
    return summary


_RUNNERS = {
    "minimize": _run_minimize,
    "packing": _run_packing,
    "geometric-limit": _run_geometric_limit,
    "g-curve": _run_g_curve,
    "gap": _run_gap,
    "weakstar": _run_weakstar,
    "monotonicity": _run_monotonicity,
}


# namespace entries and flags that steer the executor rather than the experiment
_NOT_PARAMS = ("command", "func", "help", "out")


def _execute(given: dict, out_dir: str) -> dict:
    """The executor of both entry points: load given["fractal"], create
    out_dir, run given["experiment"] and write the summary it returns to
    <experiment>_summary.json; every other entry that is set and steers the
    experiment is a runner param."""
    params = {k: v for k, v in given.items() if k not in _NOT_PARAMS and v is not None}
    fractal = load_fractal(params["fractal"])
    os.makedirs(out_dir, exist_ok=True)
    experiment = params["experiment"]
    summary = _RUNNERS[experiment](fractal, params, out_dir)
    path = os.path.join(out_dir, experiment.replace("-", "_") + "_summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_summary_json(summary, indent=2) + "\n")
    return summary


def _flag_value(key: str, value, flag: argparse.Action):
    """value read as flag reads its text: an int flag takes an int or an
    integral float (read as that int), a parse_number flag a number (kept
    as given), a flag with choices one of them, a switch a bool and any
    other flag a string (--fractal also a fractal description).  Bools are
    no numbers; any other value is a UsageError."""
    if flag.type is int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        kind, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif flag.type is not None:  # parse_number, which a tracer may have wrapped
        kind, ok = "a number", isinstance(value, (int, float)) and not isinstance(value, bool)
    elif flag.choices:
        kind, ok = f"one of {', '.join(flag.choices)}", value in flag.choices
    elif flag.nargs == 0:
        kind, ok = "true or false", isinstance(value, bool)
    else:
        kind = "a string" + (" or a fractal description" if key == "fractal" else "")
        ok = isinstance(value, str) or key == "fractal" and isinstance(value, dict)
    if not ok:
        raise UsageError(f"{key} must be {kind}, got {value!r}")
    return value


def _document_params(doc) -> dict:
    """A run document read as the flags of its experiment's command in
    _main_parser.

    Each key but experiment must be the dest of one of those flags, s or
    seed (any document may carry both; where the command has no such flag,
    they are read as minimize's and range-checked here).  The dests of the
    required flags must be present, each value is read by _flag_value, and
    an unset flag takes its default.
    """
    if not isinstance(doc, dict):
        raise UsageError(f"an experiment config is a JSON object, not {doc!r}")
    experiment = doc.get("experiment")
    if not (isinstance(experiment, str) and experiment in _RUNNERS):
        raise UsageError(f"experiment must be one of {', '.join(_RUNNERS)}, got {experiment!r}")
    commands = next(a for a in _main_parser()._actions if a.dest == "command").choices
    command = next(p for p in commands.values() if p.get_default("experiment") == experiment)
    flags = {a.dest: a for a in command._actions if a.dest not in _NOT_PARAMS}
    unread = {a.dest: a for a in commands["minimize"]._actions
              if a.dest in ("s", "seed") and a.dest not in flags}
    known = {**flags, **unread}
    unknown = [k for k in doc if k not in known and k != "experiment"]
    if unknown:
        raise UsageError(f"{experiment} takes no parameter {', '.join(unknown)}")
    missing = [a.dest for a in command._actions if a.required and a.dest not in doc]
    if missing:
        raise UsageError(f"{experiment} needs {', '.join(missing)}")
    params = {a.dest: a.default for a in command._actions}
    for key, value in doc.items():
        params[key] = value if key == "experiment" else _flag_value(key, value, known[key])
    if "s" in unread and params.get("s", 1) <= 0:
        raise DomainError("exponent s must be positive")
    if "seed" in unread and params.get("seed", 0) < 0:
        raise DomainError("seed must be nonnegative")
    return params


def run(config, out_dir: str = ".") -> dict:
    """Read one experiment document (a path, a dict or an ExperimentConfig)
    and execute it; returns the summary."""
    if isinstance(config, str):
        config = ExperimentConfig.from_file(config)
    elif not isinstance(config, ExperimentConfig):
        config = ExperimentConfig.from_dict(config)
    return _execute(config.params, out_dir)


# ---------------------------------------------------------------------------
# argument parsing


def _experiment(sub, name: str, help_text: str, experiment: str = None):
    """An experiment subcommand: its flags' dests are the runner's params."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--fractal", required=True,
                   help="catalog name like 'cantor(1/3)' or a fractal JSON path")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_dispatch, experiment=experiment or name)
    return p


def _add_search(p, strategy: bool = True):
    """Search flags; strategy=False leaves out --strategy (local search only)."""
    p.add_argument("--seed", type=int, help="seed for all randomness")
    p.add_argument("--depth", type=int, default=None, help="initial cell depth")
    p.add_argument("--max-depth", type=int, default=None, help="refinement cap")
    p.add_argument("--restarts", type=int)
    p.add_argument("--budget", type=int, default=None,
                   help="subset budget (exhaustive) or move budget (otherwise)")
    if strategy:
        p.add_argument("--strategy", choices=_STRATEGIES)
        p.set_defaults(strategy=_DEFAULT_STRATEGY[p.get_default("experiment")])


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subparsers included, whose errors are
    UsageErrors, so that main prints them as JSON like every other error."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """A new rieszfrac argument parser on every call (main and run reuse its first)."""
    parser = _Parser(
        prog="rieszfrac",
        description="Riesz energy minimization and asymptotics on self-similar fractals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dimension", help="solve the Moran equation")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--ratios", help="comma-separated contraction ratios, e.g. 1/3,1/3")
    source.add_argument("--fractal", help="catalog name or fractal JSON path")
    p.set_defaults(func=_cmd_dimension)

    p = _experiment(sub, "minimize", "minimize the Riesz s-energy of N points")
    p.add_argument("--s", required=True, type=parse_number)
    p.add_argument("--n", required=True, type=int)
    _add_search(p)

    p = _experiment(sub, "pack", "best-packing (maximin) search", "packing")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--depth", type=int, default=None, help="mesh depth")
    p.add_argument("--budget", type=int, default=None,
                   help="subset budget for the certified enumeration; "
                        "greedy exchange beyond it")

    p = _experiment(sub, "geometric-limit", "normalized energies along N = n0*M^k")
    p.add_argument("--s", required=True, type=parse_number)
    p.add_argument("--n0", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--no-polish", dest="polish", action="store_false",
                   help="report raw iterated lifts without per-stage search")
    _add_search(p, strategy=False)

    p = _experiment(sub, "g-curve", "normalized energy vs fractional log_M N")
    p.add_argument("--s", required=True, type=parse_number)
    p.add_argument("--bins", type=int)
    p.add_argument("--n-min", required=True, type=int)
    p.add_argument("--n-max", required=True, type=int)
    _add_search(p)

    p = _experiment(sub, "gap", "closed-form liminf/limsup gap certificate")
    p.add_argument("--s", required=True, type=parse_number)

    p = _experiment(sub, "weakstar",
                    "cell counts of a minimizer vs the self-similar measure")
    p.add_argument("--s", required=True, type=parse_number)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--measure-depth", type=int)
    _add_search(p)

    p = _experiment(sub, "monotonicity", "minimized energies over consecutive N")
    p.add_argument("--s", required=True, type=parse_number)
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", required=True, type=int)
    _add_search(p)

    p = sub.add_parser("run", help="run an experiment from a JSON config")
    p.add_argument("--config", required=True, help="experiment JSON path")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_run)

    return parser


# the parser main parses with and run checks documents against: built on
# the first call of either, not at import, and kept
_main_parser = functools.cache(build_parser)


def _cmd_dimension(args) -> int:
    if args.ratios is not None:
        d = moran_dimension([parse_number(tok) for tok in args.ratios.split(",") if tok.strip()])
    else:
        d = load_fractal(args.fractal).dimension
    print(fmt_float(d))
    return 0


def _dispatch(args) -> int:
    """Run one experiment subcommand; every set flag is a runner param."""
    print(_summary_json(_execute(vars(args), args.out)))
    return 0


def _cmd_run(args) -> int:
    print(_summary_json(run(args.config, args.out)))
    return 0


_EXIT_CODES = (
    (UsageError, 2),
    (HypothesisError, 3),
    (ResourceBudgetError, 4),
    (DomainError, 5),
    (SingularConfigurationError, 5),
    (ClassificationError, 5),
)


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)  # a bad flag raises UsageError
        return args.func(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2
    except Exception as exc:  # noqa: BLE001  CLI boundary
        code = 1
        for klass, c in _EXIT_CODES:
            if isinstance(exc, klass):
                code = c
                break
        if not isinstance(exc, (RieszFracError, OSError, ValueError)):
            raise
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc),
                                    "exit_code": code}}, sort_keys=True))
        return code


if __name__ == "__main__":
    raise SystemExit(main())
