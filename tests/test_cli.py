import csv
import json
import math
import warnings
from pathlib import Path

import pytest

import lvfte.ode
from lvfte import State2
from lvfte.cli import main

CONFIGS = Path(__file__).parent.parent / "configs"

WEAK_ODE = """\
[model]
kind = ode

[kinetics]
a1 = 1
a2 = 2
b1 = 1
b2 = 1
c1 = 0.3
c2 = 1.8

[initial]
u = 0.5
v = 0.5

[solver]
t_end = 50
"""

TINY_SCAN = """\
[run]
name = tiny-scan
seed = 2

[model]
kind = pde-const

[kinetics]
a1 = 1.8
a2 = 3
b1 = 1
b2 = 1
c1 = 0.5
c2 = 1.8

[initial]
u = 0.9
v = 0.9

[scan]
mode = diffusion
d1_min = 1e-3
d1_max = 1e-1
d2_min = 1e-3
d2_max = 1e-1
resolution = 2
n_x = 16
t_end = 2000
dt = 0.05
check_interval = 25
"""


OVERFLOWING_PDE = """\
[model]
kind = pde-const

[kinetics]
a1 = 1
a2 = 1
b1 = 1
b2 = 1
c1 = 0.5
c2 = 0.5

[domain]
x0 = 0
x1 = 1
n_x = 16
d1 = 0.01
d2 = 0.01

[initial]
u = 1e30
v = 1

[solver]
t_end = 200
dt = 50
"""


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestEquilibriaCommand:
    def test_census_and_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "equilibria",
                "--config",
                str(CONFIGS / "equilibria_mixed_exponents.ini"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = read_summary(out)
        res = summary["results"]
        assert res["regime"] == "ExclusionUWins"
        assert res["interior_count"] == 2
        assert res["count"] == 5
        rows = read_csv(out / "equilibria.csv")
        assert rows[0] == ["u", "v", "kind", "stability", "trace", "det"]
        assert len(rows) == 6
        # unclassifiable axis states leave trace/det blank
        blank = [r for r in rows[1:] if r[3] == "Unclassifiable"]
        assert blank and all(r[4] == "" and r[5] == "" for r in blank)

    def test_summary_identifies_run(self, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "equilibria",
                "--config",
                str(CONFIGS / "equilibria_mixed_exponents.ini"),
                "--out",
                str(out),
            ]
        )
        summary = read_summary(out)
        assert summary["command"] == "equilibria"
        assert summary["name"] == "equilibria-mixed-exponents"
        assert summary["seed"] == 1
        assert len(summary["config_digest"]) == 64


class TestSimulateCommand:
    def test_extinction_event_recorded(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--config",
                str(CONFIGS / "ode_extinction_event.ini"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        res = read_summary(out)["results"]
        assert [ev["species"] for ev in res["events"]] == ["u"]
        assert res["events"][0]["t_star"] > 0.0
        assert res["terminal"]["name"] == "v-axis"
        assert abs(res["terminal"]["u"]) < 1e-9
        assert abs(res["terminal"]["v"] - 3.0) < 1e-4
        rows = read_csv(out / "trajectory.csv")
        assert rows[0] == ["t", "u", "v"]
        assert len(rows) > 10

    def test_harvest_run_reaches_steady_state(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--config",
                str(CONFIGS / "harvest_bistability.ini"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        res = read_summary(out)["results"]
        assert res["terminal"]["name"] == "steady"
        assert res["terminal"]["u"] == pytest.approx(0.96096, abs=1e-4)
        assert res["terminal"]["v"] == pytest.approx(1.67808, abs=1e-4)

    def test_override_flips_the_harvest_outcome(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--config",
                str(CONFIGS / "harvest_bistability.ini"),
                "--out",
                str(out),
                "--set",
                "initial.u=0.2",
                "--set",
                "initial.v=0.1",
            ]
        )
        assert code == 0
        res = read_summary(out)["results"]
        assert [ev["species"] for ev in res["events"]] == ["v"]
        assert res["final"]["v"] == 0.0


class TestSeparatrixCommand:
    def test_curve_and_threshold_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "separatrix",
                "--config",
                str(CONFIGS / "separatrix_threshold.ini"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        res = read_summary(out)["results"]
        assert res["saddle"]["u"] == pytest.approx(0.679287681886, abs=1e-6)
        assert res["saddle"]["v"] == pytest.approx(1.777282172605, abs=1e-6)
        assert res["files"] == ["separatrix.csv", "threshold.csv"]
        sep_rows = read_csv(out / "separatrix.csv")
        assert sep_rows[0] == ["arclength", "u", "v"]
        arcs = [float(r[0]) for r in sep_rows[1:]]
        assert arcs == sorted(arcs)
        thr_rows = read_csv(out / "threshold.csv")
        assert thr_rows[0] == ["u0", "v_threshold"]
        assert len(thr_rows) == 201
        u0, v_thr = (float(x) for x in thr_rows[1][1 - 1 :])
        assert v_thr == pytest.approx(14.4 * u0**0.6, rel=1e-12)

    def test_non_finite_branch_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(lvfte.ode, "rhs", lambda params, s: State2(math.nan, math.nan))
        code = main(
            [
                "separatrix",
                "--config",
                str(CONFIGS / "separatrix_threshold.ini"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_no_saddle_is_a_numerical_failure(self, tmp_path):
        cfg = tmp_path / "weak.ini"
        cfg.write_text(WEAK_ODE)
        code = main(
            ["separatrix", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert code == 3


class TestPdeCommand:
    def run(self, tmp_path, *extra):
        out = tmp_path / "out"
        code = main(
            [
                "pde",
                "--config",
                str(CONFIGS / "pde_extinction_vs_recovery.ini"),
                "--out",
                str(out),
                *extra,
            ]
        )
        return code, out

    def test_certified_recovery_run(self, tmp_path):
        code, out = self.run(tmp_path)
        assert code == 0
        res = read_summary(out)["results"]
        assert res["outcome"]["label"] == "VWins"
        assert res["outcome"]["fte_u"] is True
        assert res["outcome"]["fte_u_time"] > 0.0
        cond = res["conditions"]
        assert cond["all_hold"] is True
        assert cond["u_star"] == pytest.approx(0.0714285714, abs=1e-8)
        assert cond["v_star"] == pytest.approx(0.8571428571, abs=1e-8)
        names = [s["file"] for s in res["snapshots"]]
        assert names[0] == "snapshot_000.csv"
        assert len(names) == 4  # t=0, both requested times, final
        rows = read_csv(out / "snapshot_000.csv")
        assert rows[0] == ["x", "u", "v"]
        assert len(rows) == 129
        cond_rows = read_csv(out / "conditions.csv")
        assert cond_rows[0] == ["x", "u0", "v0", "lower", "upper", "cond1", "cond12"]
        assert all(r[5] == "true" and r[6] == "true" for r in cond_rows[1:])

    def test_time_step_underflow_is_a_numerical_failure(self, tmp_path, capsys):
        cfg = tmp_path / "overflow.ini"
        cfg.write_text(OVERFLOWING_PDE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["pde", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "time step underflow" in capsys.readouterr().err

    def test_unit_exponent_reverses_the_verdict(self, tmp_path):
        code, out = self.run(
            tmp_path, "--set", "kinetics.p=1", "--set", "conditions.check=false"
        )
        assert code == 0
        res = read_summary(out)["results"]
        assert res["outcome"]["label"] == "UWins"
        assert res["outcome"]["fte_u"] is False
        assert "conditions" not in res


class TestScanCommand:
    def test_diffusion_map_counts_and_determinism(self, tmp_path):
        cfg = tmp_path / "scan.ini"
        cfg.write_text(TINY_SCAN)
        outputs = []
        for label in ("a", "b"):
            out = tmp_path / label
            code = main(
                [
                    "scan",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                    "--workers",
                    "1",
                ]
            )
            assert code == 0
            outputs.append(out)
        res = read_summary(outputs[0])["results"]
        assert res["mode"] == "diffusion"
        assert res["counts"] == {"UWins": 4, "VWins": 0, "Coexist": 0, "Undecided": 0}
        rows = read_csv(outputs[0] / "grid.csv")
        assert rows[0] == ["d1", "d2", "label", "t_reached", "fte_u", "fte_v", "note"]
        assert len(rows) == 5
        # identical configs produce byte-identical artifacts
        for name in ("summary.json", "grid.csv"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()

    def test_resolution_flag_overrides_the_axes(self, tmp_path):
        cfg = tmp_path / "scan.ini"
        cfg.write_text(TINY_SCAN)
        out = tmp_path / "out"
        code = main(
            [
                "scan",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--workers",
                "1",
                "--resolution",
                "1",
            ]
        )
        assert code == 0
        assert read_summary(out)["results"]["resolution"] == 1
        assert len(read_csv(out / "grid.csv")) == 2

    def test_axis_values_round_trip_through_csv(self, tmp_path):
        cfg = tmp_path / "scan.ini"
        cfg.write_text(TINY_SCAN)
        out = tmp_path / "out"
        main(["scan", "--config", str(cfg), "--out", str(out), "--workers", "1"])
        rows = read_csv(out / "grid.csv")[1:]
        d1s = sorted({float(r[0]) for r in rows})
        assert d1s == [1e-3, 1e-1]

    def test_exponent_window_mode(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "scan",
                "--config",
                str(CONFIGS / "scan_exponent_window.ini"),
                "--out",
                str(out),
                "--resolution",
                "6",
            ]
        )
        assert code == 0
        res = read_summary(out)["results"]
        assert res["mode"] == "c1-window"
        assert res["samples"] == 6
        assert res["windows_p"] == [[0.25, pytest.approx(0.35)]]
        assert res["windows_q"] == [[pytest.approx(0.45), pytest.approx(0.45)]]
        rows = read_csv(out / "window.csv")
        assert rows[0] == ["c1", "count_p_variant", "count_q_variant", "in_regime"]
        assert len(rows) == 7


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["equilibria", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--resolution"])
    def test_scan_flags_are_rejected_by_other_commands(self, tmp_path, flag):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "equilibria",
                    "--config",
                    str(CONFIGS / "equilibria_mixed_exponents.ini"),
                    "--out",
                    str(tmp_path / "out"),
                    flag,
                    "2",
                ]
            )
        assert info.value.code == 2

    def test_bad_override_is_a_config_error(self, tmp_path):
        code = main(
            [
                "simulate",
                "--config",
                str(CONFIGS / "ode_extinction_event.ini"),
                "--out",
                str(tmp_path / "out"),
                "--set",
                "kinetics.zz=1",
            ]
        )
        assert code == 2

    def test_step_limit_is_a_numerical_failure(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--config",
                str(CONFIGS / "ode_extinction_event.ini"),
                "--out",
                str(tmp_path / "out"),
                "--set",
                "solver.max_steps=50",
            ]
        )
        assert code == 3
        assert "max_steps=50" in capsys.readouterr().err

    def test_zero_tolerances_are_a_parameter_error(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--config",
                str(CONFIGS / "ode_extinction_event.ini"),
                "--out",
                str(tmp_path / "out"),
                "--set",
                "solver.rtol=0",
                "--set",
                "solver.atol=0",
            ]
        )
        assert code == 2
        assert "rtol must be positive and finite" in capsys.readouterr().err

    def test_separatrix_reads_the_solver_tolerances(self, tmp_path, capsys):
        def run(out, *sets):
            args = ["separatrix", "--config", str(CONFIGS / "separatrix_threshold.ini"),
                    "--out", str(tmp_path / out)]
            for item in sets:
                args += ["--set", item]
            return main(args)

        assert run("zero", "solver.rtol=0", "solver.atol=0") == 2
        assert "rtol must be positive and finite" in capsys.readouterr().err
        assert run("default") == 0
        assert run("loose", "solver.rtol=1e-5", "solver.atol=1e-8") == 0
        default = (tmp_path / "default" / "separatrix.csv").read_bytes()
        assert (tmp_path / "loose" / "separatrix.csv").read_bytes() != default

    @pytest.mark.parametrize("key", ["rtol", "atol"])
    @pytest.mark.parametrize(
        "command, recipe", [("pde", "pde_extinction_vs_recovery"), ("scan", "scan_outcome_map")]
    )
    def test_pde_steppers_reject_solver_tolerances(self, tmp_path, capsys, command, recipe, key):
        code = main(
            [command, "--config", str(CONFIGS / f"{recipe}.ini"), "--out", str(tmp_path / "out"),
             "--set", f"solver.{key}=1e-6"]
        )
        assert code == 2
        assert f"solver.{key} does not apply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, recipe, sets",
        [
            ("separatrix", "separatrix_threshold", ["solver.max_steps=1"]),
            ("equilibria", "equilibria_mixed_exponents", ["solver.rtol=0"]),
            ("scan", "scan_exponent_window", ["solver.rtol=0", "solver.max_steps=1"]),
            # a diffusion scan reads its step from [scan], and simulate has no fixed step
            ("scan", "scan_outcome_map", ["solver.dt=1e-9", "solver.max_steps=1"]),
            ("simulate", "ode_extinction_event", ["solver.dt=-5", "solver.check_interval=0"]),
        ],
    )
    def test_solver_keys_a_command_never_reads_are_rejected(
        self, tmp_path, capsys, command, recipe, sets
    ):
        args = [command, "--config", str(CONFIGS / f"{recipe}.ini"), "--out", str(tmp_path / "out")]
        if command == "scan":  # small and serial, should the key get through
            args += ["--resolution", "2", "--workers", "1"]
        for item in sets:
            args += ["--set", item]
        assert main(args) == 2
        assert f"{sets[0].split('=')[0]} does not apply" in capsys.readouterr().err

    def test_zero_max_steps_is_a_parameter_error(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(CONFIGS / "ode_extinction_event.ini"),
             "--out", str(tmp_path / "out"), "--set", "solver.max_steps=0"]
        )
        assert code == 2
        assert "max_steps must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("recipe", ["scan_outcome_map", "scan_exponent_window"])
    def test_zero_resolution_is_not_ignored(self, tmp_path, capsys, recipe):
        # only a diffusion scan takes --workers
        workers = ["--workers", "1"] if recipe == "scan_outcome_map" else []
        code = main(
            ["scan", "--config", str(CONFIGS / f"{recipe}.ini"), "--out", str(tmp_path / "out"),
             *workers, "--resolution", "0"]
        )
        assert code == 2
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("flags", [["--workers", "0"], ["--workers", "-3", "--resolution", "4"]])
    def test_workers_is_rejected_by_a_c1_window_scan(self, tmp_path, capsys, flags):
        code = main(
            ["scan", "--config", str(CONFIGS / "scan_exponent_window.ini"),
             "--out", str(tmp_path / "out"), *flags]
        )
        assert code == 2
        assert "--workers applies to a diffusion scan only" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_wrong_model_kind_for_command(self, tmp_path):
        code = main(
            [
                "pde",
                "--config",
                str(CONFIGS / "ode_extinction_event.ini"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_invalid_parameter_reported_as_config_family(self, tmp_path):
        code = main(
            [
                "simulate",
                "--config",
                str(CONFIGS / "ode_extinction_event.ini"),
                "--out",
                str(tmp_path / "out"),
                "--set",
                "kinetics.a1=-2",
            ]
        )
        assert code == 2
