"""Command line behavior: artifacts, exit codes, determinism.

Everything runs in-process through main(argv), except the check that a run
never imports numpy.random and the comparison of repeated in-process calls
with separate runs; the thread-count independence check lives in the
acceptance tests where it uses real subprocesses.
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rieszfrac as rf

D_CANTOR = math.log(2.0) / math.log(3.0)


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def _read_files(dirpath):
    out = {}
    for name in sorted(os.listdir(dirpath)):
        with open(os.path.join(dirpath, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ------------------------------------------------------------------ dimension

def test_dimension_from_ratios(capsys):
    assert rf.main(["dimension", "--ratios", "1/3,1/3"]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == pytest.approx(D_CANTOR, abs=1e-12)


def test_dimension_from_catalog(capsys):
    assert rf.main(["dimension", "--fractal", "uniform(2, 0.1)"]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == pytest.approx(math.log(2) / math.log(10), abs=1e-12)


def test_dimension_needs_an_argument(capsys):
    code = rf.main(["dimension"])
    assert code == 2
    err = _last_json(capsys)["error"]
    assert err["type"] == "UsageError" and err["exit_code"] == 2


def test_dimension_takes_one_source(capsys):
    assert rf.main(["dimension", "--ratios", "1/3,1/3", "--fractal", "cantor(1/4)"]) == 2
    err = _last_json(capsys)["error"]
    assert err["type"] == "UsageError" and "--ratios" in err["message"]


# ------------------------------------------------------------------- minimize

def test_minimize_artifacts(tmp_path, capsys):
    out = str(tmp_path)
    code = rf.main(["minimize", "--fractal", "cantor(1/3)", "--s", "2",
                    "--n", "3", "--depth", "2", "--max-depth", "2",
                    "--out", out])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["energy"] == pytest.approx(24.5, rel=1e-12)
    assert summary["N"] == 3 and not summary["certified"]
    for name in ("minimize_results.csv", "minimize_points.csv",
                 "minimize_summary.json"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "minimize_summary.json")) as fh:
        assert json.load(fh) == summary


def test_minimize_exhaustive(tmp_path, capsys):
    code = rf.main(["minimize", "--fractal", "cantor(1/3)", "--s", "2",
                    "--n", "3", "--depth", "2", "--strategy", "exhaustive",
                    "--out", str(tmp_path)])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["energy"] == pytest.approx(47.53125, rel=1e-13)
    assert summary["certified"]


@pytest.mark.parametrize("depth_flag, depth", [([], 3), (["--depth", "2"], 4)])
def test_lift_seeded_reports_the_depth_its_last_stage_lies_on(depth_flag, depth, tmp_path,
                                                               capsys):
    # n = 8 is n0 = 2 lifted twice: stage 0 searches from depth d0 (1 when
    # automatic, 2 when given) and the last stage lies at depth d0 + 2
    code = rf.main(["minimize", "--fractal", "cantor(1/3)", "--s", "3", "--n", "8",
                    "--strategy", "lift-seeded", *depth_flag, "--out", str(tmp_path)])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["strategy"] == "lift-seeded" and summary["depth"] == depth
    _, rows = rf.serialize.read_table(os.path.join(str(tmp_path), "minimize_results.csv"))
    assert rows[0][2] == str(depth)


def test_minimize_results_table_layout(tmp_path, capsys):
    rf.main(["minimize", "--fractal", "cantor(1/3)", "--s", "3", "--n", "4",
             "--out", str(tmp_path)])
    capsys.readouterr()
    header, rows = rf.serialize.read_table(
        os.path.join(str(tmp_path), "minimize_results.csv"))
    assert header == ["N", "s", "depth", "strategy", "seed", "energy",
                      "normalized", "min_distance", "certified"]
    assert len(rows) == 1 and rows[0][0] == "4"


# ----------------------------------------------------------------------- pack

def test_pack_artifacts(tmp_path, capsys):
    code = rf.main(["pack", "--fractal", "cantor(1/3)", "--n", "3",
                    "--depth", "4", "--out", str(tmp_path)])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["delta"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert os.path.exists(os.path.join(str(tmp_path), "packing_results.csv"))
    assert os.path.exists(os.path.join(str(tmp_path), "packing_points.csv"))


def test_pack_budget_is_the_subset_budget(tmp_path, capsys):
    # C(32, 3) = 4960 endpoint subsets exceed 10: greedy exchange instead
    code = rf.main(["pack", "--fractal", "cantor(1/3)", "--n", "3",
                    "--depth", "4", "--budget", "10", "--out", str(tmp_path)])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["strategy"] == "greedy-exchange"
    assert summary["certified"] is False
    assert rf.main(["pack", "--fractal", "cantor(1/3)", "--n", "3",
                    "--budget", "0", "--out", str(tmp_path)]) == 5


@pytest.mark.parametrize("argv", [
    ["pack", "--n", "3", "--restarts", "1"],
    ["pack", "--n", "3", "--strategy", "exhaustive"],
    ["pack", "--n", "3", "--max-depth", "5"],
    ["geometric-limit", "--s", "3", "--strategy", "exhaustive"],
    ["pack", "--n", "3", "--seed", "1"],
    ["gap", "--s", "3", "--seed", "1"],
])
def test_unread_flags_are_rejected(argv, tmp_path, capsys):
    assert rf.main(argv + ["--fractal", "cantor(1/3)", "--out", str(tmp_path)]) == 2


# ------------------------------------------------------------------------ gap

def test_gap_command(tmp_path, capsys):
    code = rf.main(["gap", "--fractal", "uniform(2, 0.1)", "--s", "4",
                    "--out", str(tmp_path)])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["R"] == pytest.approx(0.4806982197421137, rel=1e-13)
    assert summary["certified"] is True
    assert os.path.exists(os.path.join(str(tmp_path), "gap_certificate.csv"))


def test_gap_uncertified_for_ternary(tmp_path, capsys):
    rf.main(["gap", "--fractal", "cantor(1/3)", "--s", "4",
             "--out", str(tmp_path)])
    summary = _last_json(capsys)
    assert summary["certified"] is False


@pytest.mark.parametrize("fractal, s", [
    ("cantor(1/3)", "2000"), ("uniform(2, 0.1)", "1000"),
    # two maps of ratio 1e-300: d is about 0.001, so s/d is about 4000
    ({"label": "tiny", "ambient_dim": 1, "diameter": 1.0, "sigma": 0.5,
      "maps": [{"ratio": 1e-300, "translation": [0.0]},
               {"ratio": 1e-300, "translation": [1.0]}]}, "4"),
], ids=["cantor", "uniform", "tiny-ratios"])
def test_a_gap_beyond_the_float_range_exits_5(fractal, s, tmp_path, capsys):
    if isinstance(fractal, dict):
        (tmp_path / "spec.json").write_text(json.dumps(fractal))
        fractal = str(tmp_path / "spec.json")
    code = rf.main(["gap", "--fractal", fractal, "--s", s, "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 5 and len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "DomainError" and "s/d" in error["message"]


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("doc, name", [
    ({"experiment": "g-curve", "s": 3, "n_min": 2, "n_max": 8, "bins": 64},
     "g_curve_summary.json"),
    ({"experiment": "gap", "s": 4}, "gap_summary.json"),
], ids=["g-curve", "gap"])
def test_summaries_are_strict_json(doc, name, tmp_path, capsys):
    # a number that is not finite is written as null, in the file and on stdout
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in doc.items() if k != "experiment"]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(dict(doc, fractal="cantor(1/3)")))
    for argv, out in (([doc["experiment"], "--fractal", "cantor(1/3)"] + flags, "cli"),
                      (["run", "--config", str(cfg)], "run")):
        out = str(tmp_path / out)
        assert rf.main(argv + ["--out", out]) == 0
        printed = _strict_json(capsys.readouterr().out.strip().splitlines()[-1])
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            assert _strict_json(fh.read()) == printed
        if doc["experiment"] == "gap":
            assert printed["s_threshold"] is None and not printed["threshold_defined"]
        else:
            assert printed["estimates"].count(None) == printed["empty_bins"] == 60
            header, rows = rf.serialize.read_table(os.path.join(out, "g_curve.csv"))
            assert sum(r[header.index("estimate")] == "nan" for r in rows) == 60


# -------------------------------------------------------------- geometric limit

def test_geometric_limit_artifacts(tmp_path, capsys):
    out = str(tmp_path)
    code = rf.main(["geometric-limit", "--fractal", "cantor(1/3)", "--s", "3",
                    "--n0", "2", "--k-max", "4", "--out", out])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["limit_estimate"] == pytest.approx(0.06211, rel=1e-3)
    header, rows = rf.serialize.read_table(os.path.join(out, "geometric_limit.csv"))
    assert header[:3] == ["k", "N", "energy"]
    assert [r[1] for r in rows] == ["2", "4", "8", "16", "32"]


@pytest.mark.parametrize("flags", [["--no-polish"], []])
def test_geometric_limit_builds_no_configuration(monkeypatch, tmp_path, capsys, flags):
    made = []
    real = rf.Configuration.__post_init__

    def counted(config):
        real(config)
        made.append(config.n)

    monkeypatch.setattr(rf.Configuration, "__post_init__", counted)
    assert rf.main(["geometric-limit", "--fractal", "cantor(1/3)", "--s", "3", "--n0", "2",
                    "--k-max", "4", "--seed", "1", "--out", str(tmp_path)] + flags) == 0
    capsys.readouterr()
    assert made == []
    # the count sees the configuration a config read builds
    stage = rf.lift_chain(rf.cantor("1/3"), 3.0, 2, 2, polish=not flags)[-1]
    assert stage.config.n == 8 and made == [8]


# --------------------------------------------------------------- cell addresses

def test_cell_addresses_in_artifacts(tmp_path, capsys):
    # the exact dotted words these runs write; artifacts are compared byte
    # for byte across versions, so how a word is written must not drift
    c = ["--fractal", "cantor(1/3)"]
    for argv in (["minimize", *c, "--s", "3", "--n", "6", "--seed", "1"],
                 ["pack", *c, "--n", "5"],
                 ["weakstar", *c, "--s", "3", "--n", "8", "--measure-depth", "3", "--seed", "1"]):
        assert rf.main(argv + ["--out", str(tmp_path / argv[0])]) == 0
    capsys.readouterr()

    def column(name, key):
        header, rows = rf.serialize.read_table(os.path.join(tmp_path, name))
        return [row[header.index(key)] for row in rows]

    assert column("minimize/minimize_points.csv", "address") == [
        "1.1.1", "2.2.2", "1.2.2", "2.1.1", "2.2.1", "1.1.2"]
    assert column("pack/packing_points.csv", "address") == [
        "1.1.1", "1.2.1", "2.1.1", "2.1.2", "2.2.1"]
    assert column("weakstar/weakstar.csv", "cell") == [
        "1.1.1", "1.1.2", "1.2.1", "1.2.2", "2.1.1", "2.1.2", "2.2.1", "2.2.2"]


# -------------------------------------------------------------------- g-curve

def test_g_curve_artifacts(tmp_path, capsys):
    out = str(tmp_path)
    code = rf.main(["g-curve", "--fractal", "cantor(1/3)", "--s", "3",
                    "--bins", "4", "--n-min", "2", "--n-max", "8",
                    "--out", out])
    assert code == 0
    header, rows = rf.serialize.read_table(os.path.join(out, "g_curve.csv"))
    assert header == ["bin", "theta", "count", "estimate", "spread"]
    assert len(rows) == 4
    assert os.path.exists(os.path.join(out, "g_curve_samples.csv"))


# ------------------------------------------------------------------- weakstar

def test_weakstar_artifacts(tmp_path, capsys):
    out = str(tmp_path)
    code = rf.main(["weakstar", "--fractal", "cantor(1/3)", "--s", "3",
                    "--n", "16", "--measure-depth", "2", "--out", out])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["max_abs_dev"] <= 0.05
    header, rows = rf.serialize.read_table(os.path.join(out, "weakstar.csv"))
    assert header == ["cell", "count", "empirical", "target", "abs_dev"]
    assert len(rows) == 4


# --------------------------------------------------------------- monotonicity

def test_monotonicity_artifacts(tmp_path, capsys):
    out = str(tmp_path)
    code = rf.main(["monotonicity", "--fractal", "cantor(1/3)", "--s", "3",
                    "--n-min", "2", "--n-max", "6", "--out", out])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["violations"] == []
    header, rows = rf.serialize.read_table(os.path.join(out, "monotonicity.csv"))
    assert header == ["N", "energy", "increment", "c_value"]
    assert len(rows) == 5


def test_monotonicity_reports_a_violation(tmp_path, capsys):
    # one accepted move per search: N = 24 on the dust is stage 1 of the
    # n0 = 6 lift chain, and its energy falls below that of N = 23
    out = str(tmp_path)
    code = rf.main(["monotonicity", "--fractal", "cantor-dust-2d(1/4)", "--s", "3",
                    "--n-max", "24", "--strategy", "lift-seeded", "--budget", "1",
                    "--restarts", "1", "--seed", "0", "--out", out])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["violations"] == [24] and summary["monotone"] is False
    with open(os.path.join(out, "monotonicity_summary.json"), encoding="utf-8") as fh:
        assert json.load(fh) == summary
    opts = rf.SearchOptions(strategy="lift-seeded", budget=1, restarts=1, seed=0)
    report = rf.monotonicity_check(rf.cantor_dust_2d("1/4"), 3.0, range(2, 25), opts)
    assert report.violations == (24,)
    assert report.energies[-2:] == pytest.approx((34882.7551, 32989.7066), abs=1e-4)
    assert report.increments[-1] < 0.0 and min(report.increments[:-1]) > 0.0
    header, rows = rf.serialize.read_table(os.path.join(out, "monotonicity.csv"))
    assert [float(row[1]) for row in rows] == list(report.energies)


# --------------------------------------------------------------- run + config

def test_run_from_config_file(tmp_path, capsys):
    cfg = {"fractal": "cantor(1/3)", "s": 2.0, "experiment": "minimize",
           "n": 3, "depth": 2, "max_depth": 2, "seed": 0}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    code = rf.main(["run", "--config", str(cfg_path), "--out", out])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["energy"] == pytest.approx(24.5, rel=1e-12)


def test_run_api_accepts_dict(tmp_path):
    summary = rf.run({"fractal": "cantor(1/3)", "s": 4.0,
                      "experiment": "gap"}, str(tmp_path))
    assert summary["certified"] is False


def test_run_rejects_unknown_experiment(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(
        {"fractal": "cantor(1/3)", "s": 2.0, "experiment": "explode"}))
    code = rf.main(["run", "--config", str(cfg_path)])
    assert code == 2
    assert _last_json(capsys)["error"]["type"] == "UsageError"


class _Searched(Exception):
    pass


def test_strategy_and_experiment_names_agree(monkeypatch, cantor13):
    from rieszfrac.cli import _RUNNERS, build_parser
    from rieszfrac.minimize import _STRATEGIES

    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    experiments = set()
    cli_default = {}
    for name, p in subparsers.choices.items():
        for action in p._actions:
            if action.dest == "strategy":
                assert tuple(action.choices) == _STRATEGIES, name
                cli_default[p.get_default("experiment")] = p.get_default("strategy")
        experiments.add(p.get_default("experiment"))
    assert experiments - {None} == set(_RUNNERS)

    # the strategy each library entry searches with when given no options
    def first_search(fractal, N, s, opts=None):
        raise _Searched((opts or rf.SearchOptions()).strategy)

    monkeypatch.setattr(rf.asymptotics, "_minima", first_search)
    library_default = {"minimize": rf.SearchOptions().strategy}
    for experiment, call in [("g-curve", lambda: rf.g_curve(cantor13, 3.0, 4, 2, 8)),
                             ("monotonicity",
                              lambda: rf.monotonicity_check(cantor13, 3.0, range(2, 4)))]:
        with pytest.raises(_Searched) as searched:
            call()
        library_default[experiment] = searched.value.args[0]
    # weakstar has no search entry of its own in the library
    assert set(cli_default) == set(library_default) | {"weakstar"}
    for experiment, strategy in library_default.items():
        assert cli_default[experiment] == strategy, experiment


def test_run_rejects_extra_keys(tmp_path):
    with pytest.raises(rf.UsageError, match="gap takes no parameter surprise"):
        rf.ExperimentConfig.from_dict(
            {"fractal": "cantor(1/3)", "s": 2.0, "experiment": "gap",
             "surprise": 1})
    # an inline description is read by fractal_from_spec, as from a file
    maps = [{"ratio": 0.5, "translation": [0.0]}, {"ratio": 1.5, "translation": [1.0]}]
    with pytest.raises(rf.DomainError, match=re.escape("must lie in (0, 1), got 1.5")):
        rf.run({"fractal": {"label": "x", "ambient_dim": 1, "maps": maps},
                "s": 2.0, "experiment": "gap"}, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


# small documents of each experiment, with every integer parameter set
_INTEGER_DOCS = {
    "minimize": {"n": 6, "restarts": 2, "seed": 1, "depth": 3},
    "geometric-limit": {"n0": 2, "k_max": 3, "polish": False},
    "g-curve": {"n_min": 2, "n_max": 8, "bins": 4},
    "monotonicity": {"n_min": 2, "n_max": 4},
    "packing": {"n": 3, "depth": 2},
    "weakstar": {"n": 6, "measure_depth": 1},
}


def _run_document(tmp_path, name, doc, capsys):
    """(exit code, stdout, artifacts) of `rieszfrac run` on doc."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / name
    code = rf.main(["run", "--config", str(path), "--out", str(out)])
    return code, capsys.readouterr().out, _read_files(out) if out.exists() else None


@pytest.mark.parametrize("experiment, key", [
    (experiment, key) for experiment, params in _INTEGER_DOCS.items()
    for key in params if key != "polish"])
def test_integral_floats_run_as_their_integers(experiment, key, tmp_path, capsys):
    doc = dict(_INTEGER_DOCS[experiment], experiment=experiment, fractal="cantor(1/3)", s=3)
    as_int = _run_document(tmp_path, "int", doc, capsys)
    as_float = _run_document(tmp_path, "float", dict(doc, **{key: float(doc[key])}), capsys)
    assert as_int[0] == 0 and as_int[2]
    assert as_float == as_int


@pytest.mark.parametrize("experiment, key, value", [
    ("geometric-limit", "strategy", "lift-seeded"),
    ("gap", "n", 4),
    ("minimize", "polish", False),
    ("packing", "restarts", 2),
    # --budget's dest is budget, in a document as on the command line
    ("minimize", "moves_budget", 1),
    ("minimize", "subset_budget", 1),
    ("geometric-limit", "subset_budget", 1),
    ("packing", "subset_budget", 10),
])
def test_run_rejects_keys_its_command_does_not_take(experiment, key, value, tmp_path,
                                                    capsys):
    doc = dict(_INTEGER_DOCS.get(experiment, {}), experiment=experiment,
               fractal="cantor(1/3)", s=3, **{key: value})
    code, printed, files = _run_document(tmp_path, "doc", doc, capsys)
    error = json.loads(printed)["error"]
    assert code == 2 and error["type"] == "UsageError" and files is None
    assert key in error["message"].split()


@pytest.mark.parametrize("experiment, key", [
    ("minimize", "n"), ("g-curve", "n_max"), ("monotonicity", "n_max")])
def test_run_rejects_documents_without_a_required_parameter(experiment, key, tmp_path,
                                                            capsys):
    doc = dict(_INTEGER_DOCS[experiment], experiment=experiment, fractal="cantor(1/3)", s=3)
    del doc[key]
    code, printed, files = _run_document(tmp_path, "doc", doc, capsys)
    error = json.loads(printed)["error"]
    assert code == 2 and error["type"] == "UsageError" and files is None
    assert key in error["message"].split()


@pytest.mark.parametrize("experiment", ["packing", "gap"])
def test_documents_of_commands_without_seed_or_s_flags_may_carry_both(experiment, tmp_path,
                                                                      capsys):
    # the shape of the benchmark's certify packing config
    doc = dict(_INTEGER_DOCS.get(experiment, {}), experiment=experiment,
               fractal="cantor(1/3)", s=3, seed=12345)
    code, _, files = _run_document(tmp_path, "doc", doc, capsys)
    assert code == 0 and files


def _argv(doc: dict) -> list:
    """The flags of the subcommand that runs doc (pack for packing)."""
    argv = ["pack" if doc["experiment"] == "packing" else doc["experiment"]]
    for key, value in doc.items():
        if key != "experiment":
            argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


@pytest.mark.parametrize("experiment, params", [
    # under the exhaustive strategy the budget caps subsets: C(16, 3) = 560
    # anchor subsets at depth 4, and 2 of them end in exit 4
    ("minimize", {"n": 3, "depth": 4, "strategy": "exhaustive", "budget": 560}),
    ("minimize", {"n": 3, "depth": 4, "strategy": "exhaustive", "budget": 2}),
    # under every other strategy it caps the accepted moves of each search
    ("minimize", {"n": 9, "seed": 1, "budget": 1}),
    ("minimize", {"n": 12, "seed": 1, "strategy": "lift-seeded", "budget": 1}),
    ("monotonicity", {"n_max": 4, "budget": 100}),
    ("monotonicity", {"n_max": 4, "strategy": "local-search", "budget": 1}),
    ("weakstar", {"n": 4, "depth": 3, "strategy": "exhaustive", "budget": 70}),
    ("weakstar", {"n": 6, "measure_depth": 1, "budget": 1}),
    ("g-curve", {"n_min": 2, "n_max": 8, "bins": 4, "depth": 3, "strategy": "exhaustive",
                 "budget": 100}),
    ("g-curve", {"n_min": 2, "n_max": 8, "bins": 4, "budget": 1}),
    ("geometric-limit", {"k_max": 2, "budget": 1}),
    # pack's budget caps subsets: C(32, 3) = 4960 endpoint subsets at depth 4
    ("packing", {"n": 3, "depth": 4, "budget": 4960}),
    ("packing", {"n": 3, "depth": 4, "budget": 10}),
], ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={x}" for k, x in v.items()))
def test_a_budget_key_runs_as_its_flag(experiment, params, tmp_path, capsys):
    doc = dict(params, experiment=experiment, fractal="cantor(1/3)")
    if experiment != "packing":
        doc["s"] = 3.0
    as_document = _run_document(tmp_path, "doc", doc, capsys)
    out = tmp_path / "flags"
    code = rf.main(_argv(doc) + ["--out", str(out)])
    as_flags = code, capsys.readouterr().out, _read_files(out) if out.exists() else None
    assert as_document == as_flags
    assert as_document[0] == (4 if params["budget"] == 2 else 0)


def test_a_search_stops_at_its_budget(tmp_path, capsys):
    doc = {"experiment": "minimize", "fractal": "cantor(1/3)", "s": 3, "n": 9, "seed": 1,
           "restarts": 1}
    code, printed, _ = _run_document(tmp_path, "free", doc, capsys)
    assert code == 0 and json.loads(printed)["iterations"] > 1
    code, printed, _ = _run_document(tmp_path, "capped", dict(doc, budget=1), capsys)
    assert code == 0 and json.loads(printed)["iterations"] <= 1


# values a JSON document or a Python caller may put anywhere: bools, strings
# and lists where numbers go, numbers JSON cannot hold
_ODD = st.sampled_from([True, False, 0, 1, -1, 1.0, 0.5, 2.5, 1.5, np.int64(2),
                        np.float64(2.0), np.float64(0.25), "", "x", None, [], {}, (0.5,),
                        math.nan, math.inf])


def _rarely() -> st.SearchStrategy:
    """True one time in sixteen."""
    return st.sampled_from(range(16)).map(lambda i: i == 7)


def _mostly(valid):
    """A value of the valid strategy, now and then an odd one."""
    return _rarely().flatmap(lambda odd: _ODD if odd else valid)


def _with_odd_keys(draw, doc: dict) -> dict:
    """doc with, now and then, a key dropped or an extra key added."""
    for key in list(doc):
        if draw(_rarely()):
            del doc[key]
    if draw(_rarely()):
        doc[draw(st.sampled_from(["surprise", "rotation", "maps", "n", "label"]))] = draw(_ODD)
    return doc


@st.composite
def _similitudes(draw, p: int):
    coords = st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)
    ratios = st.one_of(st.sampled_from([0.25, 0.4]), st.floats(0.0, 1.0))
    sim = {"ratio": draw(_mostly(ratios)), "translation": draw(_mostly(coords))}
    if draw(st.booleans()):  # the identity or a point reflection, row-major
        flips = st.sampled_from([1.0, -1.0]).map(lambda sign: (sign * np.eye(p)).ravel().tolist())
        sim["rotation"] = draw(_mostly(flips))
    return _with_odd_keys(draw, sim)


@st.composite
def _fractal_specs(draw):
    p = draw(st.integers(1, 3))
    spec = {"label": draw(_mostly(st.sampled_from(["x", "two-scale"]))),
            "ambient_dim": draw(_mostly(st.just(p))),
            "maps": draw(_mostly(st.lists(_similitudes(p), min_size=1, max_size=3)))}
    if draw(st.booleans()):
        spec["diameter"] = draw(_mostly(st.floats(0.0, 2.0)))
    if draw(st.booleans()):
        spec["sigma"] = draw(_mostly(st.floats(0.0, 1.0)))
    return _with_odd_keys(draw, spec)


def _outcome(argv):
    """(exit code, error type or None) of main(argv), stdout captured; an
    error main does not map to an exit code is (None, its type)."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            code = rf.main(argv)
        except Exception as exc:  # noqa: BLE001  main re-raised it
            return None, type(exc).__name__
    return code, json.loads(out.getvalue().splitlines()[-1]).get("error", {}).get("type")


_MINIMIZE = {"experiment": "minimize", "fractal": "cantor(1/3)", "s": 3, "n": 4}


@pytest.mark.parametrize("change", [
    {"n": "eight"}, {"n": True}, {"n": 2.5},  # a string, a bool, a non-integral float
    {"s": "three"}, {"s": True},
    {"n": 0}, {"seed": -1}, {"s": -1},  # out of range
    {"strategy": "anneal"},  # a bad choice
    {"polish": False}, {"experiment": "explode"},  # an unknown key or experiment
], ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()))
def test_a_document_and_its_flags_fail_alike(change, tmp_path):
    doc = dict(_MINIMIZE, **change)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [doc["experiment"]]
    for key, value in doc.items():
        if key != "experiment":
            argv += [f"--{key}", str(value)]
    as_document = _outcome(["run", "--config", str(path), "--out", str(tmp_path / "doc")])
    as_flags = _outcome(argv + ["--out", str(tmp_path / "flags")])
    assert as_document == as_flags and as_document[0] in (2, 5)


_TWO_MAPS_SPEC = {"label": "x", "ambient_dim": 1,
                  "maps": [{"ratio": 0.3, "translation": [0.0]},
                           {"ratio": 0.3, "translation": [0.7]}]}


def _inline_and_file(spec, tmp):
    """The outcomes of gap on spec, inline in a run document and from a file."""
    doc, path = os.path.join(tmp, "doc.json"), os.path.join(tmp, "spec.json")
    with open(doc, "w", encoding="utf-8") as fh:
        json.dump({"experiment": "gap", "s": 4, "fractal": spec}, fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return (_outcome(["run", "--config", doc, "--out", os.path.join(tmp, "inline")]),
            _outcome(["gap", "--fractal", path, "--s", "4", "--out", os.path.join(tmp, "file")]))


@pytest.mark.parametrize("change", [
    {"sigmaa": 0.4}, {"ambient_dim": True}, {"diameter": 0}, {"diameter": "1"},
    {"label": ""}, {"sigma": None},
    {"maps": [{"ratio": "0.3", "translation": [0.0]}, {"ratio": 0.3, "translation": [0.7]}]},
    {"maps": [{"ratio": 1.5, "translation": [0.0]}, {"ratio": 0.3, "translation": [0.7]}]},
    {"maps": [{"ratio": 0.3, "translation": [0.0], "rot": [1.0]},
              {"ratio": 0.3, "translation": [0.7]}]},
], ids=["typo-key", "bool-ambient-dim", "zero-diameter", "string-diameter", "empty-label",
        "null-sigma", "string-ratio", "ratio-above-1", "typo-map-key"])
def test_an_inline_spec_and_its_file_fail_alike(change, tmp_path):
    inline, from_file = _inline_and_file(dict(_TWO_MAPS_SPEC, **change), str(tmp_path))
    assert inline == from_file == (5, "DomainError")


@pytest.mark.filterwarnings("ignore::UserWarning")  # degenerate or unseparated sets
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fractal_specs())
def test_every_spec_reads_alike_inline_and_from_a_file(spec):
    try:  # a spec a JSON file can hold; NaN in a run document is a usage error
        json.dumps(spec, allow_nan=False)
    except (TypeError, ValueError):
        return
    with tempfile.TemporaryDirectory() as tmp:
        inline, from_file = _inline_and_file(spec, tmp)
    assert inline == from_file


def test_a_run_never_imports_numpy_random(tmp_path):
    # the minimize run takes the default 3 restarts, so it draws two random
    # starts; numpy.random is compared before and after because numpy 1.x
    # imports it together with numpy
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"fractal": "cantor(1/3)", "s": 3.0,
                               "experiment": "minimize", "n": 3, "seed": 0}))
    script = ("import sys, rieszfrac.cli\n"
              "before = 'numpy.random' in sys.modules\n"
              "code = rieszfrac.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
              "print(code, not before and 'numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rf.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


def test_run_rejects_missing_config_file(capsys):
    assert rf.main(["run", "--config", "/nonexistent/exp.json"]) == 2


def test_run_rejects_malformed_json(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    assert rf.main(["run", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("content", [None, "directory", '{"experiment": "gap", ', b"\xff\xfe"],
                         ids=["missing", "directory", "truncated", "not-utf8"])
def test_unreadable_config_files_are_usage_errors(content, tmp_path, capsys):
    path = tmp_path / "exp.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    out = tmp_path / "out"
    assert rf.main(["run", "--config", str(path), "--out", str(out)]) == 2
    error = _last_json(capsys)["error"]
    assert error["type"] == "UsageError" and str(path) in error["message"]
    assert not out.exists()


# ----------------------------------------------------------------- exit codes

def test_exit_code_hypothesis_violation(tmp_path, capsys):
    # unequal ratios break the equal-ratio hypothesis of the lift chain
    spec = {"label": "two-scale", "ambient_dim": 1,
            "maps": [{"ratio": 0.5, "translation": [0.0]},
                     {"ratio": 0.25, "translation": [0.75]}],
            "diameter": 1.0, "sigma": 0.25}
    spec_path = tmp_path / "two_scale.json"
    spec_path.write_text(json.dumps(spec))
    code = rf.main(["geometric-limit", "--fractal", str(spec_path),
                    "--s", "3", "--out", str(tmp_path)])
    assert code == 3
    assert _last_json(capsys)["error"]["type"] == "HypothesisError"


@pytest.mark.parametrize("argv", [
    ["geometric-limit", "--s", "3", "--k-max", "2"],
    ["minimize", "--s", "3", "--n", "8", "--strategy", "lift-seeded"],
], ids=["geometric-limit", "minimize"])
def test_a_sigma_the_lift_contradicts_is_a_hypothesis_error(argv, tmp_path, capsys):
    # cantor(1/3)'s maps with a declared sigma far above their true gap
    spec = {"label": "liar", "ambient_dim": 1,
            "maps": [{"ratio": 1 / 3, "translation": [0.0]},
                     {"ratio": 1 / 3, "translation": [2 / 3]}],
            "diameter": 1.0, "sigma": 10.0}
    spec_path = tmp_path / "liar.json"
    spec_path.write_text(json.dumps(spec))
    code = rf.main(argv + ["--fractal", str(spec_path), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3 and len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "HypothesisError"
    assert "lift energy bound violated" in error["message"]


def test_exit_code_budget(tmp_path, capsys):
    for argv in (
        ["minimize", "--s", "2", "--n", "3", "--depth", "4",
         "--strategy", "exhaustive", "--budget", "2"],
        # exhaustive by default: C(8, 2) = 28 anchor subsets already at N = 2
        ["monotonicity", "--s", "3", "--n-max", "5", "--budget", "10"],
        ["weakstar", "--s", "3", "--strategy", "exhaustive", "--n", "4",
         "--depth", "4", "--budget", "10"],
        ["g-curve", "--s", "3", "--strategy", "exhaustive", "--n-min", "2",
         "--n-max", "8", "--bins", "4", "--budget", "10"],
    ):
        code = rf.main(argv + ["--fractal", "cantor(1/3)", "--out", str(tmp_path)])
        assert code == 4, argv
        assert _last_json(capsys)["error"]["type"] == "ResourceBudgetError"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fractal, s, n", [("cantor(1/3)", 400, 5), ("cantor(1/3)", 110, 64),
                                          ("cantor-dust-2d(1/4)", 400, 16)])
def test_a_normalization_beyond_the_float_range_is_a_domain_error(fractal, s, n, tmp_path,
                                                                  capsys):
    # N**(1 + s/d) overflows: a typed error naming s/d, exit 5, no traceback
    code = rf.main(["minimize", "--fractal", fractal, "--s", str(s), "--n", str(n),
                    "--seed", "1", "--out", str(tmp_path)])
    assert code == 5
    error = _last_json(capsys)["error"]
    assert error["type"] == "DomainError" and "overflows float64 at s/d" in error["message"]
    with pytest.raises(rf.DomainError, match="overflows float64 at s/d"):
        rf.exhaustive_minimize(rf.cantor("1/3"), 5, 300.0, 4)


def test_exit_code_domain(tmp_path, capsys):
    for argv in (
        ["--s", "-1", "--n", "3"],
        ["--s", "3", "--n", "3", "--seed", "-1"],
    ):
        code = rf.main(["minimize", "--fractal", "cantor(1/3)", "--out", str(tmp_path)] + argv)
        assert code == 5, argv
        assert _last_json(capsys)["error"]["type"] == "DomainError"


_TWO_MAPS = [{"ratio": 0.3, "translation": [0.0]}, {"ratio": 0.3, "translation": [0.7]}]


@pytest.mark.parametrize("fractal, message", [
    ({"ambient_dim": 1, "maps": [{"translation": [0.0]}] + _TWO_MAPS[1:]},
     r"maps\[0\] missing key 'ratio'"),
    ({"ambient_dim": 1, "maps": [{"ratio": 0.3}] + _TWO_MAPS[1:]},
     r"maps\[0\] missing key 'translation'"),
    ({"ambient_dim": 1, "maps": 5}, "maps must be a list"),
    ({"ambient_dim": 1, "maps": [0.3] + _TWO_MAPS[1:]}, r"maps\[0\] must be an object"),
    ({"ambient_dim": 1, "maps": [{"ratio": "a third", "translation": [0.0]}] + _TWO_MAPS[1:]},
     r"cannot read maps\[0\]\.ratio"),
    ({"ambient_dim": 1, "maps": _TWO_MAPS, "sigma": "wide"}, "cannot read sigma"),
    ({"ambient_dim": 1.5, "maps": _TWO_MAPS}, "ambient_dim must be a positive integer"),
    ({"ambient_dim": 1, "maps": _TWO_MAPS[:1] + [{"ratio": 0.3, "translation": [1e999]}]},
     r"maps\[1\]\.translation = \[inf\] is not finite"),
    ({"ambient_dim": 2, "maps": [{"ratio": 0.3, "rotation": [1.0, 0.0, 0.0],
                                  "translation": [0.0, 0.0]}]},
     r"cannot read maps\[0\]\.rotation"),
    ({"ambient_dim": 2, "maps": [{"ratio": 0.3, "translation": [0.0]}]},
     r"cannot read maps\[0\]\.translation"),
    ("uniform(2.5, 0.1)", "needs an integer M"),
    ("cantor(a third)", "not a number"),
])
def test_malformed_fractals_are_domain_errors(fractal, message, tmp_path, capsys):
    if isinstance(fractal, dict):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(fractal))
        fractal = str(path)
    code = rf.main(["minimize", "--fractal", fractal, "--s", "3", "--n", "4",
                    "--out", str(tmp_path / "out")])
    assert code == 5
    error = _last_json(capsys)["error"]
    assert error["type"] == "DomainError"
    assert re.search(message, error["message"]), error["message"]


@pytest.mark.parametrize("content", [None, '{"ambient_dim": 1, "maps": [', b"\xff\xfe"],
                         ids=["missing", "truncated", "not-utf8"])
@pytest.mark.parametrize("command", [["gap", "--s", "3"], ["dimension"]], ids=["gap", "dimension"])
def test_unreadable_fractal_files_are_usage_errors(command, content, tmp_path, capsys):
    path = tmp_path / "spec.json"  # missing, truncated JSON, not UTF-8
    if content is not None:
        (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    out = tmp_path / "out"
    argv = [command[0], "--fractal", str(path), *command[1:]]
    if command[0] != "dimension":
        argv += ["--out", str(out)]
    assert rf.main(argv) == 2
    error = _last_json(capsys)["error"]
    assert error["type"] == "UsageError" and str(path) in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["minimize", "--fractal", "cantor(1/3)", "--s", "nan", "--n", "4"],
    ["minimize", "--fractal", "cantor(1/3)", "--s", "1/0", "--n", "4"],
    ["gap", "--fractal", "uniform(2, 0.1)", "--s", "inf"],
    ["gap", "--fractal", "uniform(2, 0.1)", "--s", "1e999"],
])
def test_non_finite_flags_are_usage_errors(argv, tmp_path, capsys):
    assert rf.main(argv + ["--out", str(tmp_path)]) == 2
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_run_rejects_non_finite_config_numbers(value, tmp_path, capsys):
    for doc in ('{"fractal": "cantor(1/3)", "experiment": "minimize", "n": 4, "s": %s}',
                '{"fractal": "uniform(2, 0.1)", "experiment": "gap", "s": %s}',
                '{"fractal": {"label": "x", "ambient_dim": 1, "diameter": 1.0, "maps": ['
                '{"ratio": 0.25, "translation": [0.0]}, {"ratio": 0.25, "translation": '
                '[%s]}]}, "experiment": "gap", "s": 3}'):
        path = tmp_path / "cfg.json"
        path.write_text(doc % value)
        out = tmp_path / "out"
        assert rf.main(["run", "--config", str(path), "--out", str(out)]) == 2, doc
        assert _last_json(capsys)["error"]["type"] == "UsageError"
        assert not out.exists()


def test_config_numbers_json_cannot_hold_are_usage_errors():
    # np.int64 is a number to draft 7 but no JSON value
    with pytest.raises(rf.UsageError, match="rejected: .*int64"):
        rf.ExperimentConfig.from_dict(
            {"fractal": "cantor(1/3)", "s": np.int64(3), "experiment": "gap"})


def test_every_call_builds_a_new_parser():
    assert rf.cli.build_parser() is not rf.cli.build_parser()


_REUSED = (
    ["minimize", "--fractal", "cantor(1/3)", "--s", "3", "--n", "8", "--seed", "2"],
    ["geometric-limit", "--fractal", "cantor-dust-2d(1/4)", "--s", "4", "--n0", "4",
     "--k-max", "3", "--no-polish"],
    ["minimize", "--fractal", "cantor(1/3)", "--n", "8"],  # no --s: usage error
    ["--help"],
)


def test_repeated_main_calls_in_one_process_match_separate_runs(tmp_path):
    # one interpreter reuses main's parser across calls, including after a
    # usage error and --help
    calls = [argv + ["--out", str(tmp_path / "one" / str(i))]
             for i, argv in enumerate(_REUSED + _REUSED[:1])]
    script = ("import contextlib, io, json, sys\n"
              "from rieszfrac import cli\n"
              "runs = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        runs.append([cli.main(argv), out.getvalue()])\n"
              "print(json.dumps(runs))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rf.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    together = json.loads(proc.stdout)
    for i, argv in enumerate(_REUSED):
        out = tmp_path / "apart" / str(i)
        apart = subprocess.run([sys.executable, "-m", "rieszfrac"] + argv + ["--out", str(out)],
                               capture_output=True, text=True, env=env, timeout=120)
        assert together[i] == [apart.returncode, apart.stdout], argv
        for again in {i, len(_REUSED)} if i == 0 else {i}:
            one = tmp_path / "one" / str(again)
            assert os.path.isdir(out) == os.path.isdir(one), argv
            if os.path.isdir(out):
                assert _read_files(one) == _read_files(out), argv
    assert [code for code, _ in together] == [0, 0, 2, 0, 0]
    assert together[0][1] == together[-1][1] and "usage:" in together[3][1]


def test_help_exits_cleanly(capsys):
    assert rf.main(["--help"]) == 0
    assert "rieszfrac" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert rf.main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["minimize", "--fractal", "cantor(1/3)", "--n", "8"],  # no --s
    ["minimize", "--fractal", "cantor(1/3)", "--s", "3", "--n", "eight"],
    ["frobnicate"],
], ids=["missing-s", "n-eight", "unknown-subcommand"])
def test_flag_errors_print_one_json_error(argv, tmp_path, capsys):
    assert rf.main(argv + ["--out", str(tmp_path / "out")]) == 2
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1
    error = json.loads(printed[0])["error"]
    assert error["type"] == "UsageError" and error["exit_code"] == 2 and error["message"]
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------ plot data

def test_plot_data_from_geometric_limit(tmp_path, capsys):
    out = str(tmp_path)
    rf.main(["geometric-limit", "--fractal", "cantor(1/3)", "--s", "3",
             "--k-max", "3", "--out", out])
    capsys.readouterr()
    code = rf.main(["plot-data", "--from", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "plot_limit.dat" in printed and "plot_separation.dat" in printed
    with open(os.path.join(out, "plot_limit.dat")) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    # k = 0 row is dropped: the limit plot starts at the first lift
    assert [ln.split()[0] for ln in lines] == ["1", "2", "3"]


def test_plot_data_missing_artifact(tmp_path, capsys):
    os.makedirs(str(tmp_path / "empty"), exist_ok=True)
    code = rf.main(["plot-data", "--from", str(tmp_path / "empty"),
                    "--kind", "gcurve"])
    assert code == 2


def test_plot_data_gcurve(tmp_path, capsys):
    out = str(tmp_path)
    rf.main(["g-curve", "--fractal", "cantor(1/3)", "--s", "3",
             "--bins", "4", "--n-min", "2", "--n-max", "8", "--out", out])
    capsys.readouterr()
    assert rf.main(["plot-data", "--from", out, "--kind", "gcurve"]) == 0
    with open(os.path.join(out, "plot_gcurve.dat")) as fh:
        rows = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    assert len(rows) == 4


# --------------------------------------------------------------- determinism

def test_rerun_is_byte_identical(tmp_path, capsys):
    argv = ["geometric-limit", "--fractal", "cantor(1/3)", "--s", "3",
            "--k-max", "4", "--seed", "1"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert rf.main(argv + ["--out", out1]) == 0
    assert rf.main(argv + ["--out", out2]) == 0
    capsys.readouterr()
    files1, files2 = _read_files(out1), _read_files(out2)
    assert files1.keys() == files2.keys() and len(files1) > 0
    for name in files1:
        assert files1[name] == files2[name], name
