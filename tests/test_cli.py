"""End-to-end checks for the command line interface.

Every test drives ``main`` in process with an explicit argv, so the suite
exercises argument parsing, config-file merging, report emission, and the
exit-code contract (0 done, 2 invalid input, 3 numerical failure) without
spawning subprocesses.
"""

import argparse
import inspect
import json
import warnings

import numpy as np
import pytest

from semireg import cli, cosine, interp, linalg, rbound, semigroup, zoo
from semireg.cli import build_parser, main, read_matrix_file, write_matrix_file
from semireg.errors import BadParams

BEURLING_SMALL = ["beurling", "--zoo", "diag_ray", "--dim", "8",
                  "--decades", "2", "--points-per-decade", "4"]

SMOKE_ARGVS = {
    "beurling": BEURLING_SMALL,
    "sector": ["sector", "--zoo", "diag_ray", "--dim", "8",
               "--zeta", "[-1,0]", "--t0", "1.0", "--alpha-points", "4"],
    "rbound": ["rbound", "--zoo", "diag_ray", "--dim", "8",
               "--mode", "exact", "--budget", "2"],
    "r-beurling": ["r-beurling", "--zoo", "diag_ray", "--dim", "8",
                   "--decades", "2", "--points-per-decade", "4",
                   "--mode", "exact", "--budget", "2"],
    "cosine": ["cosine", "--zoo", "tridiag_laplacian", "--dim", "8",
               "--pairs", "3", "--lam", "1.0"],
    "zero-two": ["zero-two", "--zoo", "skew_diag", "--dims", "[8,16]"],
    "fattorini": ["fattorini", "--zoo", "tridiag_laplacian", "--dim", "8",
                  "--omega", "0.5", "--n-max", "4", "--t", "0.8",
                  "--nodes", "64"],
    "interpolate": ["interpolate", "--zoo", "heat_conv", "--dim", "8",
                    "--p1", "2", "--p2", "inf", "--theta", "0.5",
                    "--trials", "20", "--decades", "2",
                    "--points-per-decade", "4"],
    "extrapolate": ["extrapolate", "--zoo", "heat_conv", "--dim", "8",
                    "--poly", "[-1,1]", "--p1", "2", "--p2", "inf",
                    "--p-target", "4", "--n-range", "[1,2]",
                    "--decades", "2", "--points-per-decade", "4"],
    "gaussian": ["gaussian", "--points", "32", "--period", "20",
                 "--t-list", "[0.2,0.4]", "--trials", "4"],
    "maxreg": ["maxreg", "--zoo", "tridiag_laplacian", "--dim", "16",
               "--tau-list", "[0.25]"],
    "zoo": ["zoo", "list"],
}


def run_json(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    rc = main(list(argv) + ["--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        return json.load(fh)


def comparable(report):
    """Strip the fields that legitimately vary between identical runs."""
    report = dict(report)
    report.pop("wall_time_s")
    config = dict(report["config"])
    config.pop("out", None)
    report["config"] = config
    return report


# ------------------------------------------------------------ envelope

def test_report_envelope(tmp_path):
    rep = run_json(BEURLING_SMALL, tmp_path)
    assert sorted(rep) == ["command", "config", "results", "tolerances",
                           "wall_time_s"]
    assert rep["command"] == "beurling"
    assert rep["config"]["dim"] == 8
    assert rep["config"]["seed"] == 0
    assert rep["config"]["format"] == "json"
    assert isinstance(rep["wall_time_s"], float)
    assert rep["wall_time_s"] >= 0.0


def test_report_pins_tolerances(tmp_path):
    tol = run_json(BEURLING_SMALL, tmp_path)["tolerances"]
    assert tol["dalembert"] == 1e-8
    assert tol["zero_two_high"] == 1.95
    assert tol["zero_two_low"] == 0.05
    assert tol["mc_se_rel"] == 0.02
    assert tol["bt_pole_distance"] == 1e-3


def test_stdout_json_when_no_out(capsys):
    rc = main(BEURLING_SMALL)
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "beurling"
    assert len(rep["results"]["t"]) == 9


def test_out_file_note_on_stdout(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(BEURLING_SMALL + ["--out", str(out)]) == 0
    assert f"wrote json report to {out}" in capsys.readouterr().out


# ----------------------------------------------------------- csv output

def test_csv_inferred_from_suffix(tmp_path):
    out = tmp_path / "rep.csv"
    assert main(BEURLING_SMALL + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) >= 0.0


def test_csv_format_flag_on_stdout(capsys):
    rc = main(SMOKE_ARGVS["sector"] + ["--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alpha,resolvent_sup,bound,admissible"
    assert len(lines) == 1 + 8
    assert lines[1].split(",")[3] in ("True", "False")


# ------------------------------------------------------- command smokes

@pytest.mark.parametrize("name", sorted(SMOKE_ARGVS))
def test_command_smoke(name, tmp_path):
    rep = run_json(SMOKE_ARGVS[name], tmp_path)
    assert rep["command"] == name
    assert isinstance(rep["results"], dict)
    assert rep["results"]


def test_beurling_results_shape(tmp_path):
    res = run_json(BEURLING_SMALL, tmp_path)["results"]
    assert len(res["t"]) == 9
    assert len(res["values"]) == 9
    assert res["t"][0] == 1.0
    assert res["disc_value"] == pytest.approx(2.0)
    assert res["verdict"] in ("separated", "not_separated")
    assert res["estimate"] in ("lower_bound", "exact")


def test_interpolate_from_target_echo(tmp_path):
    argv = ["interpolate", "--zoo", "heat_conv", "--dim", "8",
            "--p1", "2", "--p2", "inf", "--p-target", "4",
            "--trials", "10", "--decades", "2", "--points-per-decade", "4"]
    rep = run_json(argv, tmp_path)
    assert rep["config"]["theta"] == pytest.approx(0.5)
    assert rep["results"]["p"] == pytest.approx(4.0)
    assert rep["results"]["ok"] is True


def test_extrapolate_results_shape(tmp_path):
    res = run_json(SMOKE_ARGVS["extrapolate"], tmp_path)["results"]
    assert res["status"] == "ok"
    assert 0.0 < res["rho"] < 1.0
    assert res["all_bounds_hold"] is True
    assert isinstance(res["smallest_passing_n"], int)
    assert res["smallest_passing_n"] >= 1


def test_extrapolate_compares_over_rho_window(tmp_path):
    # ||f(T(t))||_2 peaks at t = 0.67, above rho's window (the smallest
    # decade, t in {0.067, 0.0067}), where ||f^2(T(t))||_4 exceeds the
    # chain; inside the window every measured value stays below it.
    argv = ["extrapolate", "--zoo", "tridiag_laplacian", "--dim", "8",
            "--poly", "[[-0.6121,0.7908],[0.6121,-0.7908]]", "--p1", "2",
            "--p2", "inf", "--p-target", "4", "--t-max", "0.67",
            "--decades", "2", "--points-per-decade", "1", "--n-range", "[1,2]"]
    out = tmp_path / "rep.csv"
    assert main(argv + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[3] for r in rows] == ["True", "True"]
    assert all(float(m) <= float(c) for _, c, m, _ in rows)
    res = run_json(argv, tmp_path)["results"]
    assert res["status"] == "ok"
    assert res["all_bounds_hold"] is True


def test_beurling_at_large_p_matches_sup_norm(tmp_path, capsys):
    # At n = 8 the p = 400 and p = inf norms differ by at most 8^(1/400) on
    # vectors, so the operator norms by at most 8^(2/400) < 1.1%.
    argv = ["beurling", "--zoo", "tridiag_laplacian", "--dim", "8", "--p", "400",
            "--decades", "2", "--points-per-decade", "1"]
    res = run_json(argv, tmp_path)["results"]
    assert capsys.readouterr().err == ""
    assert res["t"][-1] == 0.01
    assert res["values"][-1] == pytest.approx(0.03941, rel=0.011)


def test_maxreg_at_large_p_matches_sup_norm(tmp_path, capsys):
    argv = ["maxreg", "--zoo", "tridiag_laplacian", "--dim", "32", "--p", "400",
            "--tau-list", "[0.5]"]
    res = run_json(argv, tmp_path)["results"]
    assert capsys.readouterr().err == ""
    assert res["ratios"]["0.5"] == pytest.approx(0.5451, rel=0.01)


# ------------------------------------------------------------------ zoo

def test_zoo_list_entries(tmp_path):
    res = run_json(["zoo", "list"], tmp_path)["results"]
    names = [e["name"] for e in res["entries"]]
    assert names == list(zoo.entry_names())
    by_name = {e["name"]: e for e in res["entries"]}
    assert by_name["skew_diag"]["expected"] == "not_holomorphic_in_limit"
    assert by_name["mult_symbol"]["expected"] == "unknown"
    assert all(e["notes"] for e in res["entries"])


def test_zoo_build_writes_matrix(tmp_path, capsys):
    out = tmp_path / "jordan.mat"
    rc = main(["zoo", "build", "--zoo", "jordan", "--dim", "8",
               "--out", str(out)])
    assert rc == 0
    assert f"wrote matrix file {out}" in capsys.readouterr().out
    M = read_matrix_file(str(out))
    assert np.array_equal(M, zoo.build("jordan", 8).matrix)


def test_zoo_build_forwards_param(tmp_path):
    out = tmp_path / "jordan.mat"
    assert main(["zoo", "build", "--zoo", "jordan", "--dim", "8",
                 "--param", "lam=-2", "--out", str(out)]) == 0
    M = read_matrix_file(str(out))
    assert np.array_equal(M, zoo.build("jordan", 8, {"lam": -2}).matrix)


def test_reused_parser_keeps_no_param(tmp_path):
    # main parses with one parser per process; an appended --param must
    # not reach the next call.
    assert main(["zoo", "build", "--zoo", "jordan", "--dim", "8",
                 "--param", "lam=-2", "--out", str(tmp_path / "a.mat")]) == 0
    assert main(["zoo", "build", "--zoo", "jordan", "--dim", "8",
                 "--out", str(tmp_path / "b.mat")]) == 0
    M = read_matrix_file(str(tmp_path / "b.mat"))
    assert np.array_equal(M, zoo.build("jordan", 8).matrix)


def test_zero_two_forwards_param(tmp_path):
    argv = ["zero-two", "--zoo", "tridiag_laplacian", "--dims", "[8,16]"]
    plain = run_json(argv, tmp_path, "a.json")
    scaled = run_json(argv + ["--param", "h=0.01"], tmp_path, "b.json")
    assert "param" not in plain["config"]
    assert scaled["config"]["param"] == {"h": 0.01}
    assert scaled["results"]["plateaus"] != plain["results"]["plateaus"]


def test_zoo_build_needs_name_and_out(tmp_path):
    assert main(["zoo", "build", "--dim", "8",
                 "--out", str(tmp_path / "m.mat")]) == 2
    assert main(["zoo", "build", "--zoo", "jordan", "--dim", "8"]) == 2


# ----------------------------------------------------------- matrix io

def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    path = tmp_path / "m.mat"
    write_matrix_file(str(path), M)
    assert np.array_equal(read_matrix_file(str(path)), M)


def test_matrix_file_rejects_bad_contents(tmp_path):
    short = tmp_path / "short.mat"
    short.write_text("2\n1.0 0.0 2.0 0.0\n")
    with pytest.raises(BadParams):
        read_matrix_file(str(short))
    empty = tmp_path / "empty.mat"
    empty.write_text("")
    with pytest.raises(BadParams):
        read_matrix_file(str(empty))
    with pytest.raises(BadParams):
        read_matrix_file(str(tmp_path / "missing.mat"))


def test_matrix_file_as_generator(tmp_path):
    path = tmp_path / "gen.mat"
    write_matrix_file(str(path), -np.eye(3, dtype=complex))
    rep = run_json(["beurling", "--matrix-file", str(path),
                    "--decades", "2", "--points-per-decade", "4"], tmp_path)
    assert rep["config"]["dim"] == 3
    assert rep["command"] == "beurling"


# -------------------------------------------------------- config files

def test_config_file_fills_defaults_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"zoo": "diag_ray", "dim": 16, "seed": 3, "t_max": 2.0,
         "decades": 2.0, "points_per_decade": 4}))
    rep = run_json(["beurling", "--config", str(cfg), "--dim", "8"], tmp_path)
    assert rep["config"]["dim"] == 8
    assert rep["config"]["seed"] == 3
    assert rep["config"]["t_max"] == 2.0
    assert rep["results"]["t"][0] == 2.0


def test_config_file_accepts_flag_spelling(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"zoo": "diag_ray", "dim": 8, "t-max": 2.0, "decades": 2.0,
         "points-per-decade": 4}))
    rep = run_json(["beurling", "--config", str(cfg)], tmp_path)
    assert rep["config"]["t_max"] == 2.0
    assert rep["config"]["points_per_decade"] == 4
    assert rep["results"]["t"][0] == 2.0
    assert len(rep["results"]["t"]) == 9


def test_config_value_failing_its_cast_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"zoo": "diag_ray", "dim": "eight"}))
    assert main(["beurling", "--config", str(cfg)]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_config_file_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert main(["beurling", "--config", str(cfg)]) == 2


def test_config_file_missing(tmp_path):
    assert main(["beurling", "--zoo", "diag_ray",
                 "--config", str(tmp_path / "nope.json")]) == 2


def test_param_flag_reaches_builder(tmp_path):
    rep = run_json(BEURLING_SMALL + ["--param", "phi=1.0"], tmp_path)
    assert rep["config"]["param"] == {"phi": 1.0}


def test_param_flag_requires_key_value(tmp_path):
    assert main(BEURLING_SMALL + ["--param", "phi"]) == 2


# ------------------------------------------------------------ exit codes

@pytest.mark.parametrize("argv", [
    ["zero-two"],
    ["beurling", "--zoo", "diag_ray", "--dim", "8", "--poly", "[]"],
    ["beurling", "--zoo", "not_a_name", "--dim", "8"],
    ["beurling", "--dim", "8"],
    ["rbound", "--zoo", "diag_ray", "--dim", "8",
     "--mode", "exact", "--exact-cap", "0"],
    ["sector", "--zoo", "diag_ray", "--dim", "8", "--zeta", "[0.5,0]"],
    ["beurling", "--zoo", "diag_ray", "--dim", "eight"],
    ["rbound", "--zoo", "diag_ray", "--dim", "8", "--mode", "quasi"],
    ["zero-two", "--zoo", "skew_diag", "--dims", "8"],
    ["sector", "--zoo", "diag_ray", "--dim", "8", "--zeta", "[1,2,3]"],
    ["zoo", "frobnicate"],
], ids=["no-zoo", "empty-poly", "unknown-zoo", "no-generator",
        "bad-exact-cap", "zeta-inside-disc", "dim-not-int", "bad-mode",
        "dims-not-list", "zeta-not-pair", "bad-zoo-action"])
def test_invalid_input_exits_two(argv, capsys):
    assert main(argv) == 2
    assert "invalid input" in capsys.readouterr().err


def test_periodization_failure_exits_three(capsys):
    rc = main(["gaussian", "--points", "8", "--period", "8",
               "--t-list", "[0.5]"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["beurling", "--zoo", "jordan", "--dim", "16", "--param", "lam=50",
     "--t-max", "100", "--decades", "2", "--points-per-decade", "1"],
    ["sector", "--zoo", "jordan", "--dim", "16", "--param", "lam=50",
     "--t0", "100"],
    ["beurling", "--zoo", "jordan", "--dim", "8", "--t-max", "1e308",
     "--decades", "2", "--points-per-decade", "1"],
], ids=["beurling", "sector", "beurling-tA"])
def test_exponential_overflow_exits_three(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not caught


def test_series_divergence_exits_three(tmp_path, capsys):
    path = tmp_path / "one.mat"
    write_matrix_file(str(path), np.array([[1.0 + 0.0j]]))
    rc = main(["fattorini", "--matrix-file", str(path),
               "--omega", "6.0", "--n-max", "2", "--t", "1.0"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gaussian", "--zoo", "jordan"],
    ["interpolate", "--zoo", "heat_conv", "--dim", "8", "--poly", "[1]"],
    ["cosine", "--zoo", "diag_ray", "--dim", "8", "--poly", "[1]"],
    ["zoo", "build", "--zoo", "jordan", "--dim", "8", "--weights", "w.txt"],
    # Prefixes of flags the command does read.
    ["cosine", "--zoo", "tridiag_laplacian", "--dim", "8", "--pairs", "2",
     "--t", "0.5"],
    ["zero-two", "--zoo", "skew_diag", "--dim", "16"],
], ids=["gaussian-zoo", "interpolate-poly", "cosine-poly", "zoo-weights",
        "cosine-t-prefix", "zero-two-dim-prefix"])
def test_unread_flags_rejected(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def _accepted_flags(name):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[name]._actions if a.dest != "help"}


# Runs that reach the keys the smoke runs leave unread.
BRANCH_ARGVS = {
    "interpolate": [["interpolate", "--zoo", "heat_conv", "--dim", "8",
                     "--p1", "2", "--p2", "inf", "--p-target", "4",
                     "--trials", "10", "--decades", "2",
                     "--points-per-decade", "4"]],
    "zero-two": [["zero-two", "--zoo", "tridiag_laplacian", "--dims", "[8,16]",
                  "--param", "h=0.5"]],
    "zoo": [["zoo", "build", "--zoo", "jordan", "--dim", "8",
             "--param", "lam=-2"]],
}


@pytest.mark.parametrize("name", sorted(SMOKE_ARGVS))
def test_subparser_flags_are_the_keys_read(name, tmp_path, monkeypatch):
    resolvers = []

    class Recording(cli.Resolver):
        def __init__(self, ns):
            super().__init__(ns)
            resolvers.append(self)

    monkeypatch.setattr(cli, "Resolver", Recording)
    for i, argv in enumerate([SMOKE_ARGVS[name]] + BRANCH_ARGVS.get(name, [])):
        assert main(argv + ["--out", str(tmp_path / f"{i}.out")]) == 0
    read = set().union(*(r.echo for r in resolvers))
    assert _accepted_flags(name) == read | {"config"}


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


# ----------------------------------------------------------- determinism

def test_rbound_report_is_deterministic(tmp_path):
    first = run_json(SMOKE_ARGVS["rbound"], tmp_path, "a.json")
    second = run_json(SMOKE_ARGVS["rbound"], tmp_path, "b.json")
    assert comparable(first) == comparable(second)


def test_gaussian_report_is_deterministic(tmp_path):
    argv = SMOKE_ARGVS["gaussian"] + ["--seed", "1"]
    first = run_json(argv, tmp_path, "a.json")
    second = run_json(argv, tmp_path, "b.json")
    assert comparable(first) == comparable(second)


def test_weights_file_matches_unit_space(tmp_path):
    wpath = tmp_path / "w.txt"
    np.savetxt(wpath, np.ones(8))
    base = run_json(BEURLING_SMALL, tmp_path, "a.json")
    weighted = run_json(BEURLING_SMALL + ["--weights", str(wpath)],
                        tmp_path, "b.json")
    assert weighted["results"] == base["results"]


def test_tolerance_echo_is_the_value_applied():
    series = inspect.signature(cosine.fattorini_series).parameters
    applied = {
        "bt_pole_distance": rbound._BT_MIN_POLE_DIST,
        "bt_residual": rbound._BT_RESIDUAL_TOL,
        "fattorini_refine": series["refine_tol"].default,
        "fattorini_tail": series["tail_tol"].default,
        "mc_se_rel": rbound._SE_REL_CAP,
        "periodization": interp._PERIODIZATION_TOL,
        "phase": semigroup._PHASE_TOL,
        "quad_frobenius": linalg._QUAD_TOL,
        "resolvent_cond_cap": linalg._COND_CAP,
        "zero_two_high": cosine._PLATEAU_HIGH,
        "zero_two_low": cosine._PLATEAU_LOW,
    }
    for key, value in applied.items():
        assert cli.TOLERANCES[key] == value, key
