"""Command surface: settings, artifacts, manifests and exit codes."""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nclab
from nclab import (
    TOOL_VERSION,
    RatioSpec,
    UnreachableRatio,
    file_sha256,
    params_from_ratio,
)
from nclab.cli import main


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
    p = params_from_ratio(RatioSpec(0.002, "single_theta"))
    g = 0.002 / math.sqrt(1.0 - 0.002**2)
    assert abs(p.theta - 2.0 * g) < 1e-15
    assert p.eta == 0.0
    gamma_over = g / math.sqrt(1.0 + g * g)
    assert abs(gamma_over - 0.002) < 1e-12


def test_ratio_symmetric_frozen():
    p = params_from_ratio(RatioSpec(0.01, "symmetric"))
    assert abs(p.theta - 0.01) < 1e-15
    assert p.theta == p.eta


def test_ratio_zero_is_commutative():
    for mode in ("single_theta", "symmetric"):
        p = params_from_ratio(RatioSpec(0.0, mode))
        assert p.theta == 0.0 and p.eta == 0.0


def test_ratio_validation():
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(UnreachableRatio):
            RatioSpec(bad, "single_theta")
    with pytest.raises(ValueError):
        RatioSpec(0.5, "diagonal")


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


def test_xi_trajectory_documents_position_deformation_gap(tmp_path):
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
    measured = man["measured_constants"]
    assert abs(measured["trajectory_closed_gap"] - 0.002) < 1e-9
    assert measured["trajectory_signed_form_gap"] < 1e-12
    assert measured["trajectory_closed_gap_gauge_spread"] < 1e-9
    assert check_map(man)["trajectory_gap_documented"]["passed"]


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


def test_normalization_unit_catches_wrong_prefactor(tmp_path, monkeypatch):
    # A prefactor off by 2 integrates to 2 at every node count: stable, not 1.
    exact = nclab.wigner.wigner_eigenfunction

    def doubled(*args):
        return 2.0 * exact(*args)

    monkeypatch.setattr(nclab.wigner, "wigner_eigenfunction", doubled)
    monkeypatch.setattr(nclab.cli, "wigner_eigenfunction", doubled)
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
    cfg.write_text(json.dumps({"theta": 0.03, "eta": 0.01, "t_max": 8.0, "seed": 7}))
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


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes(tmp_path):
    out = ["--out", str(tmp_path)]
    assert main(["constants", "--theta", "1.2", "--eta", "1.0"] + out) == 3
    assert main(["constants", "--gauge-ratio", "0"] + out) == 4
    assert main(["constants", "--ratio", "1.5"] + out) == 5
    assert main(["xi", "--theta", "0.02", "--eta", "0.01", "--source", "degenerate_form"] + out) == 7
    assert (
        main(
            ["wigner", "--fd-scale", "1e-11", "--residual-points", "1", "--grid-points", "5", "--nodes", "20"]
            + out
        )
        == 9
    )
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


def assert_rejected_up_front(capsys, out, argv):
    """Exit 2 with one error line, before the output directory exists."""
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["xi"], ["figure", "1"], ["figure", "2"], ["sweep"], ["wigner"]],
    ids=["xi", "figure1", "figure2", "sweep", "wigner"],
)
@pytest.mark.parametrize("points", ["0", "1", "-5"])
def test_grid_points_below_two_rejected(tmp_path, capsys, argv, points):
    assert_rejected_up_front(capsys, tmp_path / "out", argv + ["--grid-points", points])


@pytest.mark.parametrize("flag,value", [("--dt", "0"), ("--dt", "-0.1"), ("--dt", "nan"), ("--t-max", "0")])
def test_simulate_rejects_nonpositive_step_or_span(tmp_path, capsys, flag, value):
    argv = ["simulate", "--method", "both", flag, value]
    assert_rejected_up_front(capsys, tmp_path / "out", argv)


@pytest.mark.parametrize(
    "flag,value",
    [
        # The coarsest of the three rules has nodes - 10 points per axis.
        ("--nodes", "10"),
        ("--nodes", "0"),
        ("--residual-points", "0"),
        ("--residual-points", "-1"),
        ("--extent", "0"),
        ("--extent", "nan"),
        ("--extent", "inf"),
        ("--fd-scale", "nan"),
        ("--fd-scale", "inf"),
    ],
)
def test_wigner_rejects_bad_sizes(tmp_path, capsys, flag, value):
    assert_rejected_up_front(capsys, tmp_path / "out", ["wigner", flag, value])


def test_figure_rejects_zero_gamma_before_any_output(tmp_path, capsys):
    assert_rejected_up_front(capsys, tmp_path / "out", ["figure", "1", "--ratio", "0"])


@pytest.mark.parametrize("field", ["m", "omega", "hbar", "theta", "eta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_parameter_rejected(tmp_path, capsys, field, value):
    argv = ["constants", "--%s=%s" % (field, value)]
    assert_rejected_up_front(capsys, tmp_path / "out", argv)


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["xi"], ["wigner"], ["figure", "1"], ["sweep"]],
    ids=["simulate", "xi", "wigner", "figure1", "sweep"],
)
def test_every_command_checks_physics_before_output(tmp_path, capsys, argv):
    assert_rejected_up_front(capsys, tmp_path / "out", argv + ["--m=nan"])


def test_simulate_rejects_bad_initial_conditions(tmp_path, capsys):
    assert_rejected_up_front(capsys, tmp_path / "out", ["simulate", "--ic", "1,2"])


def test_sweep_rejects_zero_ratio(tmp_path, capsys):
    assert_rejected_up_front(capsys, tmp_path / "out", ["sweep", "--ratios", "0,0.002"])


def test_sweep_rejects_unreachable_ratio_before_any_cell(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--ratios", "0.002,1.5", "--out", str(out)]) == 5
    assert not out.exists()


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation(tmp_path):
    # The child finds this checkout's package however the suite was started.
    src = str(Path(nclab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nclab", "constants", "--ratio", "0.01", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "constants_manifest.json").exists()
    assert "alpha" in proc.stdout


def test_version_defined_once():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match and match.group(1) == nclab.__version__ == TOOL_VERSION
