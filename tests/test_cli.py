"""Command surface: settings, artifacts, manifests and exit codes."""
import argparse
import contextlib
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nclab
import nclab.cli
import nclab.manifest
from nclab import (
    TOOL_VERSION,
    PhysicalParams,
    QuantumNumbers,
    UnreachableRatio,
    derived_constants,
    file_sha256,
    make_gauge,
    params_from_ratio,
    stargen_residual,
)
from nclab.cli import MAX_ROWS, METHODS, MODES, build_parser, main
from nclab.manifest import RunManifest
from nclab.observables import SOURCES
from nclab.states import PhaseState
from test_output_bytes import GOLDEN

ROOT = Path(__file__).resolve().parents[1]


def read_manifest(path):
    with open(path) as fh:
        return json.load(fh)


def check_map(man):
    return {c["name"]: c for c in man["checks"]}


def assert_all_passed(man):
    failed = [c["name"] for c in man["checks"] if not c["passed"]]
    assert not failed, f"failed checks: {failed}"


# ---------------------------------------------------------------------------
# ratio -> parameters


def test_ratio_single_theta_frozen():
    p = params_from_ratio(0.002, "single_theta")
    g = 0.002 / math.sqrt(1.0 - 0.002**2)
    assert abs(p.theta - 2.0 * g) < 1e-15
    assert p.eta == 0.0
    gamma_over = g / math.sqrt(1.0 + g * g)
    assert abs(gamma_over - 0.002) < 1e-12


def test_ratio_symmetric_frozen():
    p = params_from_ratio(0.01, "symmetric")
    assert abs(p.theta - 0.01) < 1e-15
    assert p.theta == p.eta


def test_ratio_zero_is_commutative():
    for mode in ("single_theta", "symmetric"):
        p = params_from_ratio(0.0, mode)
        assert p.theta == 0.0 and p.eta == 0.0


def test_ratio_validation():
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(UnreachableRatio):
            params_from_ratio(bad, "single_theta")
    with pytest.raises(ValueError):
        params_from_ratio(0.5, "diagonal")


# ---------------------------------------------------------------------------
# constants


def test_constants_command(tmp_path):
    assert main(["constants", "--theta", "0.05", "--eta", "0.02", "--out", str(tmp_path)]) == 0
    man = read_manifest(tmp_path / "constants_manifest.json")
    assert man["command"] == "constants"
    assert_all_passed(man)
    names = set(check_map(man))
    assert {"gauge_product_residual", "omega_identity", "algebra_residual"} <= names
    assert "gamma_theta" in man["measured_constants"]
    assert "gamma_eta" in man["measured_constants"]


def test_manifest_physics_blocks_come_from_the_derived_constants(tmp_path):
    argv = ["constants", "--theta", "0.05", "--eta", "-0.02", "--gauge-ratio", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    man = read_manifest(tmp_path / "constants_manifest.json")
    params = PhysicalParams(1.0, 1.0, 1.0, 0.05, -0.02)
    dc = derived_constants(params, make_gauge(params, 2.0))
    assert man["params"] == {"m": 1.0, "omega": 1.0, "hbar": 1.0, "theta": 0.05, "eta": -0.02}
    assert man["gauge"] == {"lam": dc.gauge.lam, "mu": dc.gauge.mu}
    assert man["derived_constants"] == {
        "alpha": dc.alpha,
        "beta": dc.beta,
        "gamma": dc.gamma,
        "omega_big": dc.omega_big,
        "product_lm": dc.product_lm,
    }


def test_constants_ratio_match(tmp_path):
    assert main(["constants", "--ratio", "0.002", "--out", str(tmp_path)]) == 0
    man = read_manifest(tmp_path / "constants_manifest.json")
    assert_all_passed(man)
    got = man["measured_constants"]["gamma_over_omega_big"]
    assert abs(got - 0.002) < 1e-12
    assert check_map(man)["ratio_match"]["passed"]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_analytic_artifacts(tmp_path):
    rc = main(
        ["simulate", "--theta", "0.04", "--eta", "0.01", "--t-max", "20", "--out", str(tmp_path)]
    )
    assert rc == 0
    man = read_manifest(tmp_path / "simulate_manifest.json")
    assert_all_passed(man)
    outputs = {o["path"]: o["sha256"] for o in man["outputs"]}
    assert "trajectory_analytic.csv" in outputs
    assert outputs["trajectory_analytic.csv"] == file_sha256(tmp_path / "trajectory_analytic.csv")


def test_simulate_both_methods_agree(tmp_path):
    rc = main(
        [
            "simulate",
            "--theta",
            "0.03",
            "--eta",
            "0.02",
            "--method",
            "both",
            "--t-max",
            "12",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    man = read_manifest(tmp_path / "simulate_manifest.json")
    assert_all_passed(man)
    checks = check_map(man)
    assert checks["rk4_matches_analytic"]["value"] < 1e-8
    assert (tmp_path / "trajectory_rk4.csv").exists()


def test_simulate_custom_ic(tmp_path):
    rc = main(
        ["simulate", "--ic", "1,0,0,0.5", "--t-max", "6.283185307179586", "--out", str(tmp_path)]
    )
    assert rc == 0
    man = read_manifest(tmp_path / "simulate_manifest.json")
    assert check_map(man)["periodic_return"]["passed"]


# ---------------------------------------------------------------------------
# xi


@pytest.mark.parametrize("source", ["closed_form", "degenerate_form", "first_order", "trajectory"])
def test_xi_sources(tmp_path, source):
    rc = main(
        ["xi", "--ratio", "0.002", "--source", source, "--grid-points", "400", "--out", str(tmp_path)]
    )
    assert rc == 0
    man = read_manifest(tmp_path / "xi_manifest.json")
    assert_all_passed(man)
    assert (tmp_path / f"xi_{source}.csv").exists()
    assert check_map(man)["energy_partition"]["value"] < 1e-12


def test_xi_trajectory_matches_paper_form_for_position_deformation(tmp_path):
    rc = main(
        [
            "xi",
            "--ratio",
            "0.002",
            "--mode",
            "single_theta",
            "--source",
            "trajectory",
            "--grid-points",
            "400",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    man = read_manifest(tmp_path / "xi_manifest.json")
    assert_all_passed(man)
    # g_theta > g_eta here, and the ground mode starts in the paper's phase
    # all the same: the check compares with the paper's form, and nothing
    # is left to measure.
    assert man["measured_constants"] == {}
    checks = check_map(man)
    assert set(checks) == {"energy_partition", "trajectory_matches_closed"}
    assert checks["trajectory_matches_closed"]["value"] < 1e-12


def test_xi_trajectory_symmetric_matches_closed(tmp_path):
    rc = main(
        [
            "xi",
            "--ratio",
            "0.01",
            "--mode",
            "symmetric",
            "--source",
            "trajectory",
            "--grid-points",
            "400",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    man = read_manifest(tmp_path / "xi_manifest.json")
    checks = check_map(man)
    assert "trajectory_matches_closed" in checks
    assert checks["trajectory_matches_closed"]["passed"]


def test_xi_first_order_records_error(tmp_path):
    rc = main(
        ["xi", "--ratio", "0.002", "--source", "first_order", "--grid-points", "400", "--out", str(tmp_path)]
    )
    assert rc == 0
    man = read_manifest(tmp_path / "xi_manifest.json")
    assert 0.0 < man["measured_constants"]["first_order_rel_err"] < 0.1


# ---------------------------------------------------------------------------
# wigner


def test_wigner_command(tmp_path):
    rc = main(
        [
            "wigner",
            "--theta",
            "0.05",
            "--eta",
            "0.02",
            "--grid-points",
            "21",
            "--residual-points",
            "3",
            "--nodes",
            "30",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    man = read_manifest(tmp_path / "wigner_manifest.json")
    assert_all_passed(man)
    assert abs(man["measured_constants"]["wigner_normalization"] - 1.0) < 1e-9
    assert check_map(man)["normalization_unit"]["value"] <= 1e-9
    with open(tmp_path / "wigner_residuals.json") as fh:
        res = json.load(fh)
    assert len(res["records"]) == 3
    rec = res["records"][0]
    assert {"point", "n1", "n2", "residual_re", "residual_im", "rel"} <= set(rec)
    with open(tmp_path / "wigner_slice.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["Q1", "Q2", "P1", "P2", "rho"]


def test_wigner_records_hold_each_point_residual_alone(tmp_path):
    # The residual points are the seeded stream drawn four values at a time,
    # and each record holds the residual of its point evaluated on its own.
    argv = ["wigner", "--theta", "0.05", "--eta", "-0.02", "--hbar", "1.3",
            "--gauge-ratio", "2.0", "--n1", "2", "--n2", "1", "--grid-points", "5",
            "--residual-points", "7", "--nodes", "20", "--seed", "9"]
    # The points are drawn and the residuals formed on the model's core, then
    # multiplied by their units: (l_q, l_q, l_p, l_p) and omega/hbar.
    assert main(argv + ["--out", str(tmp_path)]) == 0
    records = read_manifest(tmp_path / "wigner_residuals.json")["records"]
    params = PhysicalParams(1.0, 1.0, 1.3, 0.05, -0.02)
    dc = derived_constants(params, make_gauge(params, 2.0))
    core, per_action = dc.core, dc.omega / dc.hbar
    w_q = math.sqrt(core.beta / core.alpha)
    w_p = math.sqrt(core.alpha / core.beta)
    rng = np.random.default_rng(9)
    assert len(records) == 7
    for rec in records:
        u = rng.uniform(-2.0, 2.0, 4)
        pt = PhaseState(u[0] * w_q, u[1] * w_q, u[2] * w_p, u[3] * w_p)
        point = np.array([pt.Q1, pt.Q2, pt.P1, pt.P2]) * dc.state_unit
        assert rec["point"] == point.tolist()
        res = stargen_residual(pt, QuantumNumbers(2, 1), core)
        want = (res.real * per_action, res.imag * per_action)
        assert (rec["residual_re"], rec["residual_im"]) == want


def test_normalization_unit_catches_wrong_prefactor(tmp_path, monkeypatch):
    # A prefactor off by 2 integrates to 2 at every node count: stable, not 1.
    exact = nclab.wigner.wigner_from_invariants

    def doubled(*args):
        return 2.0 * exact(*args)

    monkeypatch.setattr(nclab.wigner, "wigner_from_invariants", doubled)
    argv = ["wigner", "--grid-points", "5", "--residual-points", "2", "--nodes", "20"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    checks = check_map(read_manifest(tmp_path / "wigner_manifest.json"))
    assert checks["normalization_stable"]["passed"]
    assert not checks["normalization_unit"]["passed"]
    assert abs(checks["normalization_unit"]["value"] - 1.0) < 1e-9


def test_nan_residual_fails_its_check(tmp_path, monkeypatch):
    monkeypatch.setattr(nclab.cli, "stargen_residual", lambda *a, **k: complex(math.nan, math.nan))
    argv = ["wigner", "--grid-points", "5", "--residual-points", "2", "--nodes", "20"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    checks = check_map(read_manifest(tmp_path / "wigner_manifest.json"))
    assert not checks["stargen_residual_bound"]["passed"]


def test_wigner_excited_state(tmp_path):
    rc = main(
        [
            "wigner",
            "--theta",
            "0.04",
            "--eta",
            "0.01",
            "--n1",
            "1",
            "--n2",
            "0",
            "--grid-points",
            "11",
            "--residual-points",
            "2",
            "--nodes",
            "30",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    man = read_manifest(tmp_path / "wigner_manifest.json")
    assert_all_passed(man)
    with open(tmp_path / "wigner_residuals.json") as fh:
        res = json.load(fh)
    assert res["n1"] == 1 and res["n2"] == 0


# ---------------------------------------------------------------------------
# figures


def test_figure1_command(tmp_path):
    rc = main(["figure", "1", "--out", str(tmp_path)])
    assert rc == 0
    man = read_manifest(tmp_path / "figure1_manifest.json")
    assert_all_passed(man)
    measured = man["measured_constants"]
    assert abs(measured["zoom_start_xi1"] - 0.501) < 1e-6
    assert abs(measured["zoom_start_xi2"] - 0.499) < 1e-6
    checks = check_map(man)
    assert 0.999 <= checks["envelope_max_xi1"]["value"] <= 1.001
    assert -0.001 <= checks["envelope_min_xi2"]["value"] <= 0.001
    assert (tmp_path / "figure1_full.csv").exists()
    assert (tmp_path / "figure1_zoom.csv").exists()


def test_figure2_command(tmp_path):
    rc = main(["figure", "2", "--out", str(tmp_path)])
    assert rc == 0
    man = read_manifest(tmp_path / "figure2_manifest.json")
    assert_all_passed(man)
    checks = check_map(man)
    assert checks["rate_amplitude_match"]["passed"]
    assert 3.2 <= checks["first_order_truncation_ratio"]["value"] <= 4.8
    with open(tmp_path / "figure2.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["Omega_t", "xi1_rate_over_hOmega2", "first_order_amplitude"]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_command(tmp_path):
    rc = main(
        ["sweep", "--ratios", "0.001,0.002,0.004", "--grid-points", "800", "--out", str(tmp_path)]
    )
    assert rc == 0
    with open(tmp_path / "index.json") as fh:
        index = json.load(fh)
    assert [c["ratio"] for c in index["cells"]] == [0.001, 0.002, 0.004]
    errs = [c["first_order_rel_err"] for c in index["cells"]]
    assert errs[0] < errs[1] < errs[2]
    for check in index["checks"]:
        assert check["passed"]
    for cell in index["cells"]:
        cell_man = read_manifest(tmp_path / cell["dir"] / "manifest.json")
        assert_all_passed(cell_man)
        assert (tmp_path / cell["dir"] / "xi_closed_form.csv").exists()
        assert (tmp_path / cell["dir"] / "xi_first_order.csv").exists()


# ---------------------------------------------------------------------------
# check records


def test_check_record_carries_its_bound():
    man = RunManifest("unit", {})
    cases = [
        # (value, hi, lo, passed)
        (0.5, 1.0, None, True),
        (1.5, 1.0, None, False),
        (1.0, 1.0, None, True),
        (0.5, 1.0, 0.0, True),
        (-0.5, 1.0, 0.0, False),
        (1.5, 1.0, 0.0, False),
        (0.0, 1.0, 0.0, True),
        (1.0, 1.0, 0.0, True),
        (math.nan, 1.0, None, False),
        (math.nan, 1.0, 0.0, False),
        (math.inf, 1.0, None, False),
        (math.inf, 1.0, 0.0, False),
    ]
    for k, (value, hi, lo, _) in enumerate(cases):
        man.check("case_%d" % k, value, hi, lo)
    for (value, hi, lo, passed), record in zip(cases, man.checks):
        assert set(record) == {"name", "passed", "value", "bound"}
        assert record["passed"] is passed, (value, hi, lo)
        assert record["bound"] == [lo, hi]
        assert record["value"] == value or math.isnan(value)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_written_check_agrees_with_its_bound(tmp_path, name):
    argv, _ = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    manifests = [p for p in tmp_path.rglob("*.json") if p.name != "wigner_residuals.json"]
    checks = [c for path in manifests for c in read_manifest(path)["checks"]]
    assert checks
    for c in checks:
        lo, hi = c["bound"]
        assert c["passed"] == ((lo is None or lo <= c["value"]) and c["value"] <= hi), c


# ---------------------------------------------------------------------------
# settings plumbing


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_max": 10.0, "grid_points": 200, "ratio": 0.002}))
    out = tmp_path / "out"
    rc = main(["xi", "--config", str(cfg), "--t-max", "20", "--out", str(out)])
    assert rc == 0
    man = read_manifest(out / "xi_manifest.json")
    assert man["arguments"]["t_max"] == 20.0
    assert man["arguments"]["grid_points"] == 200


def test_out_env_var(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("NCLAB_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["constants"]) == 0
    assert (target / "constants_manifest.json").exists()


def test_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("NCLAB_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["constants"]) == 0
    assert (tmp_path / "nclab_out" / "constants_manifest.json").exists()


def test_determinism_across_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 0.03, "eta": 0.01, "t_max": 8.0}))
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert (
            main(
                ["xi", "--config", str(cfg), "--grid-points", "200", "--out", str(out)]
            )
            == 0
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("xi_closed_form.csv", "trajectory_analytic.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    for name in ("xi_manifest.json", "simulate_manifest.json"):
        a = read_manifest(outs[0] / name)
        b = read_manifest(outs[1] / name)
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b


def manifest_text(path):
    """The manifest without its timestamp, as JSON text: 2 and 2.0 differ."""
    man = read_manifest(path)
    man.pop("timestamp")
    return json.dumps(man, sort_keys=True)


@pytest.mark.parametrize(
    "command,config,flags",
    [
        (
            "wigner",
            {
                "m": "1.5", "theta": "0.04", "eta": 0.01, "gauge_ratio": 2, "n1": 1,
                "n2": "0", "grid_points": 11.0, "residual_points": "2", "nodes": 20,
                "seed": "3", "extent": 2,
            },
            [
                "--m", "1.5", "--theta", "0.04", "--eta", "0.01", "--gauge-ratio", "2",
                "--n1", "1", "--n2", "0", "--grid-points", "11", "--residual-points", "2",
                "--nodes", "20", "--seed", "3", "--extent", "2",
            ],
        ),
        (
            "simulate",
            {"m": "1.5", "t_max": 4, "dt": "0.01", "method": "both", "ic": ["1", 0, 0.5, "0"]},
            ["--m", "1.5", "--t-max", "4", "--dt", "0.01", "--method", "both", "--ic", "1,0,0.5,0"],
        ),
    ],
    ids=["wigner", "simulate"],
)
def test_config_and_flags_record_the_same_manifest(tmp_path, command, config, flags):
    # Numbers in the config file come as JSON text and as integers; the
    # manifest records the parsed values, not the text.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outs = tmp_path / "config", tmp_path / "flags"
    assert main([command, "--config", str(cfg), "--out", str(outs[0])]) == 0
    assert main([command, *flags, "--out", str(outs[1])]) == 0
    name = "%s_manifest.json" % command
    assert manifest_text(outs[0] / name) == manifest_text(outs[1] / name)
    args = read_manifest(outs[0] / name)["arguments"]
    assert args["m"] == 1.5
    if command == "wigner":
        assert [args[k] for k in ("grid_points", "n2", "seed")] == [11, 0, 3]
        assert all(type(args[k]) is int for k in ("grid_points", "n2", "seed"))
    else:
        assert args["ic"] == [1.0, 0.0, 0.5, 0.0]


def test_config_null_leaves_unset_only_what_is_unset_by_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ratio": None, "out": None}))
    out = tmp_path / "out"
    assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_manifest(out / "constants_manifest.json")["arguments"]["ratio"] is None
    cfg.write_text(json.dumps({"mode": None}))
    line = assert_rejected_up_front(capsys, tmp_path / "out2", ["constants", "--config", str(cfg)])
    assert line == "error: mode must be one of single_theta, symmetric, got None"


def test_config_out_that_is_not_text_is_refused(tmp_path, capsys, monkeypatch):
    # It once ended in a TypeError traceback from the output path.
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": 5}))
    assert main(["constants", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: out must be text, got 5"]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [cfg]


def test_every_default_comes_back_through_its_own_parser():
    # So no default is a value its own flag would refuse.
    tables = [nclab.cli._PHYSICS] + [own for _, _, own in nclab.cli._COMMANDS.values()]
    checked = set()
    for table in tables:
        for key, value in table.items():
            if value is not None:
                parsed = nclab.cli._SETTINGS[key][0](value)
                assert parsed == value and type(parsed) is type(value), key
                checked.add(key)
    assert {"m", "mode", "dt", "grid_points", "nodes", "ratios"} <= checked


def test_flags_collect_text_and_the_help_names_the_allowed_values():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    allowed = {"--mode": MODES, "--method": METHODS, "--source": SOURCES}
    seen = set()
    for name, p in sub.choices.items():
        for option, action in p._option_string_actions.items():
            if option.startswith("--") and option != "--help":
                assert action.type is None and action.choices is None, (name, option)
            if option in allowed:
                assert all(v in action.help for v in allowed[option]), (name, action.help)
                seen.add(option)
    assert seen == set(allowed)


# Settings every command reads, and each command's own, with a value that
# parses; together they are every flag of every subcommand.
SHARED_SETTINGS = {
    "config": "cfg.json",
    "out": "out",
    "m": "1.5",
    "omega": "1.5",
    "hbar": "1.5",
    "theta": "0.1",
    "eta": "0.1",
    "ratio": "0.01",
    "mode": "symmetric",
    "gauge_ratio": "2",
}
OWN_SETTINGS = {
    "constants": {},
    "simulate": {"t_max": "4", "dt": "0.01", "method": "both", "ic": "1,0,0,0"},
    "xi": {"t_max": "4", "grid_points": "10", "source": "trajectory"},
    "wigner": {
        "seed": "3",
        "n1": "1",
        "n2": "2",
        "grid_points": "5",
        "extent": "2",
        "residual_points": "2",
        "nodes": "20",
    },
    "figure": {"t_max": "4", "grid_points": "10"},
    "sweep": {"ratios": "0.001,0.002", "t_max": "4", "grid_points": "10"},
}
PREFIX = {"figure": ["figure", "1"]}


def flag(key):
    return "--" + key.replace("_", "-")


def subcommand_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for s in p._option_string_actions if s.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }


def test_each_subcommand_has_the_flags_of_its_settings():
    expected = {
        name: {flag(k) for k in {**SHARED_SETTINGS, **own}}
        for name, own in OWN_SETTINGS.items()
    }
    assert subcommand_flags() == expected
    assert sum(len(flags) for flags in expected.values()) == 79


@pytest.mark.parametrize("command", sorted(OWN_SETTINGS))
def test_each_subcommand_accepts_every_flag_of_its_settings(command):
    argv = PREFIX.get(command, [command])
    for key, value in {**SHARED_SETTINGS, **OWN_SETTINGS[command]}.items():
        args = build_parser().parse_args(argv + [flag(key), value])
        assert getattr(args, key) is not None, key


@pytest.mark.parametrize("command", sorted(OWN_SETTINGS))
def test_each_subcommand_refuses_every_setting_it_does_not_read(tmp_path, capsys, command):
    argv = PREFIX.get(command, [command])
    others = {k: v for own in OWN_SETTINGS.values() for k, v in own.items()}
    unread = sorted(set(others) - set(OWN_SETTINGS[command]))
    assert unread
    for key in unread:
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag(key), others[key]])
        assert exc.value.code == 2, key
        cfg = tmp_path / ("%s.json" % key)
        cfg.write_text(json.dumps({key: others[key]}))
        out = tmp_path / ("out_" + key)
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2, key
        assert not out.exists()
        assert "unknown config keys: %s" % key in capsys.readouterr().err


def test_readme_names_only_flags_the_parser_accepts():
    text = (ROOT / "README.md").read_text()
    flags = subcommand_flags()
    shared = re.search(r"^Every subcommand accepts (.*?)\n\n", text, re.M | re.S)
    shared = set(re.findall(r"--[a-z][a-z0-9-]*", shared.group(1)))
    assert shared == {flag(k) for k in SHARED_SETTINGS}
    rows = dict(re.findall(r"^\| `([a-z]+)[^`]*` \|(.*)$", text, re.M))
    assert set(rows) == set(flags)
    for name, row in rows.items():
        named = set(re.findall(r"--[a-z][a-z0-9-]*", row))
        assert named <= flags[name], (name, named - flags[name])
        assert shared | named == flags[name], (name, flags[name] - shared - named)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes(tmp_path):
    out = ["--out", str(tmp_path)]
    assert main(["constants", "--theta", "1.2", "--eta", "1.0"] + out) == 3
    assert main(["constants", "--gauge-ratio", "0"] + out) == 4
    assert main(["constants", "--ratio", "1.5"] + out) == 5
    degenerate_out = tmp_path / "degenerate"
    argv = ["xi", "--theta", "0.02", "--eta", "0.01", "--source", "degenerate_form"]
    assert main(argv + ["--out", str(degenerate_out)]) == 7
    assert not degenerate_out.exists()
    # fd_scale is no setting of any command: an unknown config key.
    fd_cfg = tmp_path / "fd.json"
    fd_cfg.write_text(json.dumps({"fd_scale": 1e-3}))
    fd_out = tmp_path / "fd_out"
    assert main(["wigner", "--config", str(fd_cfg), "--out", str(fd_out)]) == 2
    assert not fd_out.exists()
    assert main(["constants", "--config", str(tmp_path / "missing.json")] + out) == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"tmax": 5.0}))
    assert main(["constants", "--config", str(cfg)] + out) == 2


@pytest.mark.parametrize("ratio", ["inf", "1e-320"])
def test_extreme_gauge_ratio_rejected_naming_the_ratio(tmp_path, capsys, ratio):
    out = tmp_path / "out"
    assert main(["constants", "--gauge-ratio", ratio, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "InvalidGauge: gauge ratio" in err and repr(float(ratio)) in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--hbar", "1e-300", "--theta", "1e10"],
        ["constants", "--ratio", "0.002", "--m", "1e-200", "--omega", "1e-200"],
        [
            "constants", "--ratio", "0.002", "--mode", "symmetric", "--m", "1e-300",
            "--omega", "1e10", "--hbar", "1e-22",
        ],
        ["constants", "--ratio", "0.5", "--hbar", "1e300", "--m", "1e-5", "--omega", "1e-5"],
        ["wigner", "--extent", "1e308", "--grid-points", "5"],
        ["wigner", "--hbar", "1e-200"],
        ["simulate", "--hbar", "1e-320", "--m", "1e-150", "--omega", "1e-150"],
        ["constants", "--omega", "1e308", "--m", "1e-308", "--theta", "5", "--eta", "-5"],
    ],
    ids=[
        "theta-over-hbar-inf", "ratio-m-omega-zero", "symmetric-subnormal-theta",
        "ratio-theta-overflow", "wigner-slice-span", "wigner-density-unit",
        "simulate-momentum-unit", "recorded-Omega",
    ],
)
def test_scale_out_of_range_is_a_domain_error_before_output(tmp_path, capsys, argv):
    # a = theta*m*omega/hbar = inf with eta = 0 (nc_product must not be
    # inf*0 = nan), and an m*omega that underflows to 0 under --ratio: none
    # may raise ZeroDivisionError.  A symmetric --ratio whose theta = eta is
    # subnormal (4e-315): its a underflows to 0 and gamma/Omega misses r by
    # 1e-12.  A single_theta --ratio whose theta = a*hbar/m/omega overflows
    # to inf, and a wigner slice whose written span, 2*extent*width, overflows
    # (in linspace it wrote NaN axes).  Then units by which a command scales
    # what it writes: wigner's density unit 1/hbar**2 (1e400) and simulate's
    # momentum unit l_p = sqrt(hbar*m*omega) (1e-310).  Last, Omega, which
    # every manifest records, at 5.1e308.
    assert_domain_error_before_output(tmp_path, capsys, argv)


def run_all_passed(tmp_path, argv, manifest):
    """Run argv into tmp_path; it exits 0 and every check passes."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    man = read_manifest(tmp_path / manifest)
    assert_all_passed(man)
    return man


def test_tiny_theta_at_huge_mass_keeps_its_deformation(tmp_path):
    # a = theta*m*omega/hbar = 0.1; theta**2 once underflowed inside beta,
    # giving Omega = 1 and gamma/Omega = 0.05.
    argv = ["xi", "--m", "1e200", "--theta", "1e-201"]
    b = run_all_passed(tmp_path / "big", argv, "xi_manifest.json")["derived_constants"]
    argv = ["xi", "--theta", "0.1"]
    u = run_all_passed(tmp_path / "unit", argv, "xi_manifest.json")["derived_constants"]
    assert abs(b["omega_big"] - u["omega_big"]) <= 1e-15
    assert abs(b["gamma"] / b["omega_big"] - u["gamma"] / u["omega_big"]) <= 1e-15


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--ratio", "0.002", "--m", "1e200"],
        ["constants", "--ratio", "0.002", "--m", "1e-200"],
        ["constants", "--omega", "1e150", "--theta", "0.1"],
        ["constants", "--m=1e-100", "--omega=1e-100", "--hbar=1e-130", "--theta=1e76"],
        ["figure", "2", "--m", "1e-300", "--omega", "1e155", "--hbar", "1e-150"],
        ["constants", "--ratio", "0.001", "--mode", "symmetric", "--omega", "1e78"],
        ["constants", "--omega", "1e-300"],
        ["simulate", "--omega", "1e-300"],
        ["simulate", "--omega", "1e-300", "--ic", "1,0,0,0", "--method", "rk4"],
        ["constants", "--omega", "1e300"],
        ["simulate", "--omega", "1e300"],
        ["constants", "--ratio", "0.002", "--omega", "1e300"],
        ["constants", "--ratio", "0.002", "--omega", "1e-300"],
        ["figure", "1", "--omega", "1e-300"],
        ["constants", "--hbar", "1e300"],
        ["constants", "--hbar", "1e-300"],
        ["xi", "--source", "trajectory", "--omega", "1e160"],
        ["wigner", "--omega", "1e120", "--m", "1e100"],
        ["simulate", "--omega", "1e-120", "--m", "1e-100", "--method", "both"],
        ["constants", "--ratio", "0.002", "--mode", "symmetric", "--hbar", "1e300"],
        [
            "constants", "--m", "1e100", "--omega", "1e100", "--theta", "1e-203",
            "--eta", "9.9e202", "--gauge-ratio", "1000",
        ],
        ["figure", "2", "--m", "1e-100", "--omega", "1e160"],
    ],
    ids=[
        "ratio-huge-m", "ratio-tiny-m", "huge-omega", "tiny-m-omega", "figure2-huge-omega",
        "symmetric-huge-omega", "constants-tiny", "simulate-tiny", "rk4-tiny",
        "constants-huge", "simulate-huge", "ratio-huge", "ratio-tiny", "figure-tiny",
        "hbar-huge", "hbar-tiny", "xi-sector-form", "wigner-K", "rk4-subnormal-alpha2",
        "symmetric-zero-radicand", "scaled-alpha2", "figure2-rate-unit",
    ],
)
def test_admissible_extreme_scales_run_and_pass(tmp_path, argv):
    # Once: theta**2 underflowed (Omega = 1, ratio_match failed) or
    # overflowed (exit 6), an OverflowError traceback, and a
    # ZeroDivisionError in derived_constants.  A symmetric --ratio once
    # squared (m omega**2 + 1/m)/(2 hbar), 5e155 at omega = 1e78 (exit 6).
    # The rest were refused (exit 6) while the kernels computed in
    # dimensional units: omega**2, m*omega**2, hbar**2, alpha**2 or beta**2
    # left float range (in K, the sector forms, RK4's step matrix), or, in
    # figure 2, the rate unit hbar*Omega**2 (1e320 in the last case).  On the
    # model's core none of them is formed, and every unit a command writes
    # by is a normal float.
    manifest = "figure" + argv[1] if argv[0] == "figure" else argv[0]
    run_all_passed(tmp_path, argv, manifest + "_manifest.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--m", "1e6", "--method", "both"],
        ["simulate", "--ic", "1e8,0,0,5e7", "--t-max", "6.283185307179586"],
    ],
    ids=["rk4-heavy-mass", "periodic-large-state"],
)
def test_state_checks_are_relative_to_the_state(tmp_path, argv):
    # rk4_matches_analytic once read 3.12e-8 against an absolute 1e-8 at
    # m = 1e6, where max|z| is about 1000; periodic_return read 2.4e-8 here.
    run_all_passed(tmp_path, argv, "simulate_manifest.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "1", "--theta=-0.004"],
        ["figure", "1", "--ratio", "0.3", "--mode", "symmetric"],
        ["figure", "2", "--ratio", "0.3", "--mode", "symmetric"],
        ["figure", "2", "--theta=-0.004"],
    ],
    ids=["figure1-negative-gamma", "figure1-symmetric-0.3", "figure2-symmetric-0.3",
         "figure2-negative-gamma"],
)
def test_figure_checks_read_the_trajectory(tmp_path, argv):
    # Each once failed: the zoom starts and envelopes expected the small
    # gamma/Omega limits 0.5 (1 +- gamma/Omega), 1 and 0, and the rate
    # amplitude gamma/Omega; with gamma < 0 the first-order form took the
    # signed gamma/Omega as its fast coefficient (truncation ratio 1.103).
    man = run_all_passed(tmp_path, argv, "figure%s_manifest.json" % argv[1])
    if argv[1] == "1":
        # The beat is pi Omega/|gamma|, so the grid runs forward for gamma < 0.
        last = (tmp_path / "figure1_full.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) > 0.0
    else:
        assert man["measured_constants"]["rate_amplitude_target"] > 0.0


@pytest.mark.xfail(
    strict=True,
    reason="first_order_truncation_ratio measures on the fixed window "
    "Omega*t <= 40, but the (gamma/Omega)**2 law needs 40 |gamma|/Omega << 1: "
    "it reads 5.995 at gamma/Omega = 0.03 against [3.2, 4.8]",
)
def test_figure2_first_order_truncation_at_a_larger_ratio(tmp_path):
    run_all_passed(tmp_path, ["figure", "2", "--ratio", "0.03"], "figure2_manifest.json")


def assert_domain_error_before_output(tmp_path, capsys, argv):
    """Exit 6 with one error line, before the output directory exists."""
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 6
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DomainError:"), err
    assert not out.exists()


def child_env():
    """The environment of a child that imports this checkout's package."""
    src = str(Path(nclab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_reused_parser_carries_nothing_between_runs(tmp_path, capsys):
    # main parses with one parser per process.  A usage error, a domain
    # error and a run with --theta go before a golden run whose defaults
    # include theta = 0; that run matches one made in a process of its own.
    argv, hashes = GOLDEN["figure2"]
    with pytest.raises(SystemExit) as exc:
        main(["figure", "2", "--nodes", "11"])
    assert exc.value.code == 2
    domain = ["figure", "1", "--omega", "1e-300", "--m", "1e-10"]  # m*omega subnormal
    assert main(domain + ["--out", str(tmp_path / "d")]) == 6
    assert main(["figure", "2", "--theta", "0.004", "--out", str(tmp_path / "t")]) == 0
    reused = tmp_path / "reused"
    assert main(argv + ["--out", str(reused)]) == 0
    capsys.readouterr()
    alone = tmp_path / "alone"
    proc = subprocess.run(
        [sys.executable, "-m", "nclab", *argv, "--out", str(alone)],
        capture_output=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    for name, digest in hashes.items():
        assert file_sha256(reused / name) == file_sha256(alone / name) == digest
    manifests = [read_manifest(d / "figure2_manifest.json") for d in (reused, alone)]
    for man in manifests:
        man.pop("timestamp")
    assert manifests[0] == manifests[1]
    assert manifests[0]["arguments"]["theta"] == 0.0
    assert build_parser() is not build_parser()


def test_exit_code_nonfinite(tmp_path):
    rc = main(
        [
            "simulate",
            "--method",
            "rk4",
            "--dt",
            "200",
            "--t-max",
            "8000",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 8


def test_exit_code_checks_failed(tmp_path):
    # Coarse RK4 stays finite but violates the invariant-drift bound.
    rc = main(
        [
            "simulate",
            "--method",
            "rk4",
            "--dt",
            "200",
            "--t-max",
            "2000",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 1


# A run whose RK4 leg blows up after its analytic file is staged.
NONFINITE_BOTH = ["simulate", "--method", "both", "--dt", "200", "--t-max", "8000"]


def test_a_run_that_raises_after_its_first_file_writes_nothing(tmp_path):
    out = tmp_path / "out" / "deeper"
    assert main(NONFINITE_BOTH + ["--out", str(out)]) == 8
    assert list(tmp_path.iterdir()) == []


def test_a_failing_run_leaves_an_existing_out_as_it_was(tmp_path):
    argv, _ = GOLDEN["simulate_both"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(NONFINITE_BOTH + ["--out", str(tmp_path)]) == 8
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_sweep_whose_last_cell_raises_writes_nothing(tmp_path, monkeypatch):
    real = nclab.cli.sector_energy_series
    calls = []

    def last_cell_raises(dc, omega_t, source):
        calls.append(source)
        if len(calls) == 5:  # the third cell's closed form
            raise RuntimeError("forced")
        return real(dc, omega_t, source)

    monkeypatch.setattr(nclab.cli, "sector_energy_series", last_cell_raises)
    with pytest.raises(RuntimeError):
        main(["sweep", "--grid-points", "300", "--out", str(tmp_path)])
    assert len(calls) == 5
    assert list(tmp_path.iterdir()) == []


def test_a_second_file_that_fails_to_write_leaves_nothing(tmp_path, monkeypatch):
    # figure 1's full series has 1000 rows of three floats, one block; its
    # zoom has 4000 rows, more than one block, so the second call formats
    # the first block of the second file.
    block = nclab.manifest.CSV_BLOCK_VALUES // 3
    assert 1000 <= block < 4000
    format_floats = nclab.manifest._format_floats
    lengths = []

    def fail_on_second_call(x, out):
        lengths.append(len(x))
        if len(lengths) == 2:
            raise MemoryError("forced")
        format_floats(x, out)

    monkeypatch.setattr(nclab.manifest, "_format_floats", fail_on_second_call)
    with pytest.raises(MemoryError):
        main(["figure", "1", "--grid-points", "1000", "--out", str(tmp_path / "out")])
    # The first file's three float columns were formatted whole, in one
    # call; the second call was the first of the zoom's equal blocks.
    assert lengths == [3 * 1000, 3 * (4000 // math.ceil(4000 / block))]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "file-sub"])
def test_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys, below):
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"kept")
    assert main(["constants", "--out", str(blocker / below)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot make output directory"), err
    # Refused before the command ran: no constants table was printed.
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_bytes() == b"kept"


def test_a_target_that_is_a_directory_is_a_usage_error_that_commits_nothing(
    tmp_path, capsys
):
    # figure 1 stages figure1_full.csv, then figure1_zoom.csv, whose target is
    # a directory: every target is checked before the first rename, so not
    # even the full series lands, and the error is one line, not a traceback.
    out = tmp_path / "out"
    (out / "figure1_zoom.csv").mkdir(parents=True)
    assert main(["figure", "1", "--grid-points", "10", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "figure1_zoom.csv" in err[0]
    assert [p.name for p in out.iterdir()] == ["figure1_zoom.csv"]
    assert list((out / "figure1_zoom.csv").iterdir()) == []


def test_out_below_a_file_is_refused_before_the_series_is_built(tmp_path, monkeypatch):
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"kept")
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the series was built")

    monkeypatch.setattr(nclab.cli, "sector_energy_series", spy)
    assert main(["figure", "1", "--out", str(blocker / "sub")]) == 2
    assert calls == []
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_bytes() == b"kept"


def test_algebra_residual_is_relative_to_the_bracket_scale(tmp_path):
    # Roundoff in brackets of order hbar = 1e6 once failed the absolute bound.
    argv = ["constants", "--hbar", "1e6", "--theta", "0.3", "--eta", "0.2"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    check = check_map(read_manifest(tmp_path / "constants_manifest.json"))["algebra_residual"]
    assert check["passed"] and check["value"] < 1e-15


def assert_rejected_up_front(capsys, out, argv):
    """Exit 2 with one error line, before the output directory exists."""
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()
    return err[0]


def assert_refused_as_flag_and_in_config(tmp_path, capsys, argv, *flag_argv):
    """Rejected up front, naming the key, as a flag and in a config file.

    flag_argv is ["--key", text] or ["--key=text"]; the config file holds
    the text as a JSON number where it reads as one.
    """
    name, _, value = flag_argv[0].partition("=")
    key = name[2:].replace("-", "_")
    value = value or flag_argv[1]
    for parse in (json.loads, float):  # float reads nan and inf
        with contextlib.suppress(ValueError):
            value = parse(value)
            break
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    for setting in (list(flag_argv), ["--config", str(cfg)]):
        line = assert_rejected_up_front(capsys, tmp_path / "out", argv + setting)
        assert line.startswith("error: %s " % key), (setting, line)


@pytest.mark.parametrize(
    "argv",
    [["xi"], ["figure", "1"], ["figure", "2"], ["sweep"], ["wigner"]],
    ids=["xi", "figure1", "figure2", "sweep", "wigner"],
)
@pytest.mark.parametrize("points", ["0", "1", "-5"])
def test_grid_points_below_two_rejected(tmp_path, capsys, argv, points):
    assert_refused_as_flag_and_in_config(tmp_path, capsys, argv, "--grid-points", points)


@pytest.mark.parametrize(
    "flag,value",
    [("--dt", "0"), ("--dt", "-0.1"), ("--dt", "nan"), ("--t-max", "0"), ("--t-max", "inf")],
)
def test_simulate_rejects_nonpositive_step_or_span(tmp_path, capsys, flag, value):
    argv = ["simulate", "--method", "both", flag, value]
    assert_rejected_up_front(capsys, tmp_path / "out", argv)


@pytest.mark.parametrize(
    "argv",
    [["xi"], ["figure", "1"], ["figure", "2"], ["sweep"]],
    ids=["xi", "figure1", "figure2", "sweep"],
)
@pytest.mark.parametrize("t_max", ["-5", "0", "nan", "inf"])
def test_t_max_rejected_up_front(tmp_path, capsys, argv, t_max):
    # xi once wrote a backward or all-zero grid, xi and figure NaN data, and
    # sweep its cells followed by a ZeroDivisionError traceback.
    assert_refused_as_flag_and_in_config(tmp_path, capsys, argv, "--t-max", t_max)


@pytest.mark.parametrize(
    "flag,value",
    [
        # The coarsest of the three rules has nodes - 10 points per axis.
        ("--nodes", "10"),
        ("--nodes", "0"),
        # The finest has nodes + 10, at most MAX_NODES = 185.
        ("--nodes", "176"),
        ("--residual-points", "0"),
        ("--residual-points", "-1"),
        ("--extent", "0"),
        ("--extent", "nan"),
        ("--extent", "inf"),
        # numpy refuses a negative seed only when it draws the residual points.
        ("--seed", "-1"),
    ],
)
def test_wigner_rejects_bad_sizes(tmp_path, capsys, flag, value):
    assert_refused_as_flag_and_in_config(tmp_path, capsys, ["wigner"], flag, value)


@pytest.mark.parametrize("key", ["n1", "n2"])
@pytest.mark.parametrize("nodes,top", [(40, 59), (20, 19)], ids=["default-nodes", "nodes-20"])
def test_wigner_refuses_quantum_numbers_its_rules_cannot_resolve(
    tmp_path, capsys, key, nodes, top
):
    # The coarsest rule, nodes - 10 nodes, is exact up to degree
    # 2 (nodes - 10) - 1 in each action; one above it fails
    # normalization_stable (9.75 at the default 40 nodes), so it is refused.
    argv = ["wigner", "--grid-points", "5", "--residual-points", "2"]
    if nodes != 40:
        argv += ["--nodes", str(nodes)]
    assert_refused_as_flag_and_in_config(tmp_path, capsys, argv, "--" + key, str(top + 1))
    assert main(argv + ["--" + key, str(top), "--out", str(tmp_path / "top")]) == 0


def test_wigner_accepts_the_largest_node_count(tmp_path):
    argv = ["wigner", "--grid-points", "5", "--residual-points", "2", "--nodes", "175"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert check_map(read_manifest(tmp_path / "wigner_manifest.json"))["normalization_unit"][
        "passed"
    ]


def test_figure_rejects_zero_gamma_before_any_output(tmp_path, capsys):
    assert_rejected_up_front(capsys, tmp_path / "out", ["figure", "1", "--ratio", "0"])


@pytest.mark.parametrize("field", ["m", "omega", "hbar", "theta", "eta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_parameter_rejected(tmp_path, capsys, field, value):
    setting = "--%s=%s" % (field, value)
    assert_refused_as_flag_and_in_config(tmp_path, capsys, ["constants"], setting)


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["xi"], ["wigner"], ["figure", "1"], ["sweep"]],
    ids=["simulate", "xi", "wigner", "figure1", "sweep"],
)
def test_every_command_checks_physics_before_output(tmp_path, capsys, argv):
    assert_rejected_up_front(capsys, tmp_path / "out", argv + ["--m=nan"])


def test_simulate_rejects_bad_initial_conditions(tmp_path, capsys):
    # nan,0,0,0 once wrote a NaN trajectory and its manifest, then exited 1.
    for ic in ("1,2", "nan,0,0,0"):
        assert_refused_as_flag_and_in_config(tmp_path, capsys, ["simulate"], "--ic", ic)


@pytest.mark.parametrize(
    "command,key,value",
    [
        # Each ran, computing n1 = 1 on a 10 x 10 slice, a seed of 1, a gauge
        # ratio of 1 or no ratio mode, and recorded the value as given.
        ("wigner", "n1", 1.5),
        ("wigner", "grid_points", 10.7),
        ("wigner", "seed", True),
        ("constants", "gauge_ratio", True),
        ("constants", "mode", "bogus"),
        # Each ended in a TypeError traceback with exit 1.
        ("wigner", "residual_points", [3]),
        ("simulate", "t_max", None),
        ("constants", "ratio", [0.1]),
        ("sweep", "ratios", 0.002),
        # It wrote a NaN trajectory, then exited 1.
        ("simulate", "ic", [0, 0, 0, math.nan]),
    ],
    ids=[
        "n1-1.5", "grid_points-10.7", "seed-true", "gauge_ratio-true", "mode-bogus",
        "residual_points-list", "t_max-null", "ratio-list", "ratios-number", "ic-nan",
    ],
)
def test_config_values_are_refused_where_the_flag_would_be(
    tmp_path, capsys, command, key, value
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    line = assert_rejected_up_front(capsys, tmp_path / "out", [command, "--config", str(cfg)])
    assert line.startswith("error: %s must be " % key), line


def test_sweep_rejects_zero_ratio(tmp_path, capsys):
    assert_rejected_up_front(capsys, tmp_path / "out", ["sweep", "--ratios", "0,0.002"])


@pytest.mark.parametrize("ratios", ["0.001,0.001", "0.001,1e-3,0.002", "0.002,0.0020000001"])
def test_sweep_rejects_ratios_that_share_a_cell(tmp_path, capsys, ratios):
    # Two ratios with one cell directory would be checked against each other.
    assert_rejected_up_front(capsys, tmp_path / "out", ["sweep", "--ratios", ratios])


def test_sweep_without_first_order_error_fails_its_scaling_check(tmp_path):
    # So short a span leaves the lower cell no first-order error, and so no
    # power law: a failed check, not a ZeroDivisionError.
    out = tmp_path / "out"
    argv = ["sweep", "--t-max", "1e-9", "--grid-points", "3", "--out", str(out)]
    assert main(argv) == 1
    index = read_manifest(out / "index.json")
    assert index["cells"][0]["first_order_rel_err"] == 0.0
    assert index["checks"] and not any(c["passed"] for c in index["checks"])


def test_sweep_with_a_failing_cell_check_exits_one(tmp_path, monkeypatch):
    # The scaling checks pass; only the cells' energy partition fails.
    real = nclab.cli.sector_energy_series

    def leaky(dc, omega_t, source):
        series = real(dc, omega_t, source)
        return dataclasses.replace(series, xi1=series.xi1 + 1e-6)

    monkeypatch.setattr(nclab.cli, "sector_energy_series", leaky)
    out = tmp_path / "out"
    assert main(["sweep", "--ratios", "0.001,0.002", "--grid-points", "300", "--out", str(out)]) == 1
    assert all(c["passed"] for c in read_manifest(out / "index.json")["checks"])
    cell = read_manifest(out / "r_0.001" / "manifest.json")
    assert not check_map(cell)["energy_partition"]["passed"]


@pytest.mark.parametrize("field,value", [("m", "0"), ("hbar", "0"), ("hbar", "-1")])
@pytest.mark.parametrize("mode", ["single_theta", "symmetric"])
def test_ratio_with_bad_scales_rejected(tmp_path, capsys, field, value, mode):
    # m = 0 (single_theta) and hbar = 0 (symmetric) once ended in a bare
    # ZeroDivisionError from params_from_ratio.
    argv = ["constants", "--ratio", "0.1", "--mode", mode, "--%s=%s" % (field, value)]
    assert_rejected_up_front(capsys, tmp_path / "out", argv)


def test_sweep_rejects_unreachable_ratio_before_any_cell(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--ratios", "0.002,1.5", "--out", str(out)]) == 5
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--t-max", "1e15", "--dt", "1e-3"],
        # MAX_ROWS steps, so one row more than the cap with the initial state.
        ["simulate", "--method", "rk4", "--t-max", str(MAX_ROWS), "--dt", "1"],
        ["xi", "--grid-points", "100000000000"],
        ["xi", "--grid-points", str(MAX_ROWS + 1)],
        ["figure", "1", "--grid-points", str(MAX_ROWS + 1)],
        ["figure", "2", "--grid-points", str(MAX_ROWS + 1)],
        ["sweep", "--grid-points", str(MAX_ROWS + 1)],
        # The slice has grid_points**2 rows: 3163**2 > 10**7 > 3162**2.
        ["wigner", "--grid-points", "3163"],
        ["wigner", "--residual-points", str(MAX_ROWS + 1)],
    ],
)
def test_sizes_over_the_row_cap_rejected(tmp_path, capsys, argv):
    assert MAX_ROWS == 10**7
    assert_rejected_up_front(capsys, tmp_path / "out", argv)


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation(tmp_path):
    # The child finds this checkout's package however the suite was started.
    proc = subprocess.run(
        [sys.executable, "-m", "nclab", "constants", "--ratio", "0.01", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "constants_manifest.json").exists()
    assert "alpha" in proc.stdout


def test_no_exported_callable_takes_a_bare_hbar():
    # hbar enters through PhysicalParams, which validates it, and reaches
    # every other callable inside a DerivedConstants.
    exported = {
        name: obj
        for name, obj in vars(nclab).items()
        if callable(obj)
        and not name.startswith("_")
        and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert {"derived_constants", "wigner_normalization", "main"} <= set(exported)
    takers = [n for n, obj in exported.items() if "hbar" in inspect.signature(obj).parameters]
    assert takers == ["PhysicalParams"]


def test_version_defined_once():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match and match.group(1) == nclab.__version__ == TOOL_VERSION
