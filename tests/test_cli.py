import csv
import json
import math
import warnings
from pathlib import Path

import pytest

import lvfte.ode
from lvfte import State2
from lvfte.cli import _ALWAYS, _READS, main
from lvfte.config import MODEL_KINDS, SCHEMA

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

[scan]
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


# A config that each (command, model kind) row of the CLI's key table runs on:
# a shipped recipe, or config text.
ROW_CONFIGS = {
    ("equilibria", "ode"): CONFIGS / "equilibria_mixed_exponents.ini",
    ("simulate", "ode"): CONFIGS / "ode_extinction_event.ini",
    ("simulate", "ode-harvest"): CONFIGS / "harvest_bistability.ini",
    ("separatrix", "ode"): CONFIGS / "separatrix_threshold.ini",
    ("pde", "pde-const"): CONFIGS / "pde_extinction_vs_recovery.ini",
    ("pde", "pde-inhomogeneous"): CONFIGS / "pde_slower_diffuser.ini",
    ("scan", "ode"): CONFIGS / "scan_exponent_window.ini",
    ("scan", "pde-const"): TINY_SCAN,
    ("scan", "pde-inhomogeneous"): CONFIGS / "scan_outcome_map.ini",
}


def row_config(tmp_path, command, kind):
    config = ROW_CONFIGS[command, kind]
    if isinstance(config, Path):
        return config
    path = tmp_path / f"{command}-{kind}.ini"
    path.write_text(config)
    return path


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
        # t = 0 and the final state at u's extinction (t = 0.23); the requested
        # times 2 and 8 come after the verdict and are not written
        assert len(names) == 2
        # the clock counts whole steps of dt = 0.01 from t = 0, not a sum
        assert res["outcome"]["t_reached"] == res["outcome"]["fte_u_time"] == 23 * 0.01
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
                "--set",
                "scan.samples=6",
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

    @pytest.mark.parametrize("flag", ["--workers"])
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

    def test_scan_has_no_resolution_flag(self, tmp_path):
        # scan.resolution and scan.samples are set with --set
        with pytest.raises(SystemExit) as info:
            main(["scan", "--config", str(CONFIGS / "scan_exponent_window.ini"),
                  "--out", str(tmp_path / "out"), "--resolution", "6"])
        assert info.value.code == 2
        assert not (tmp_path / "out").exists()

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
        if recipe == "scan_outcome_map":  # small and serial, should the key get through
            args += ["--set", "scan.resolution=2", "--workers", "1"]
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
        # only a diffusion scan takes --workers; the c1 window's resolution is its samples
        workers = ["--workers", "1"] if recipe == "scan_outcome_map" else []
        key = "resolution" if recipe == "scan_outcome_map" else "samples"
        code = main(
            ["scan", "--config", str(CONFIGS / f"{recipe}.ini"), "--out", str(tmp_path / "out"),
             *workers, "--set", f"scan.{key}=0"]
        )
        assert code == 2
        message = {"scan_outcome_map": "log axis requires n >= 1",
                   "scan_exponent_window": "samples must be at least 2"}[recipe]
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_x", ["0", "3"])
    def test_a_sweep_grid_below_eight_cells_is_rejected(self, tmp_path, capsys, n_x):
        # a zero scan.n_x once fell back to domain.n_x or 128 cells
        code = main(
            ["scan", "--config", str(CONFIGS / "scan_outcome_map.ini"), "--out", str(tmp_path / "out"),
             "--workers", "1", "--set", "scan.resolution=1", "--set", f"scan.n_x={n_x}",
             "--set", "scan.t_end=1"]
        )
        assert code == 2
        assert "error: grid requires n_x >= 8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--workers", "0"], ["--workers", "-3", "--set", "scan.samples=4"]])
    def test_workers_is_rejected_by_a_c1_window_scan(self, tmp_path, capsys, flags):
        code = main(
            ["scan", "--config", str(CONFIGS / "scan_exponent_window.ini"),
             "--out", str(tmp_path / "out"), *flags]
        )
        assert code == 2
        assert "--workers applies to a diffusion scan only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, recipe, sets, code, message", [
        ("separatrix", "separatrix_threshold", ["separatrix.threshold_samples=1"], 2,
         "threshold_samples must be at least 2"),
        # at p = 1 no threshold.csv is written, and the samples are still checked
        ("separatrix", "separatrix_threshold",
         ["kinetics.p=1", "kinetics.c1=2", "kinetics.c2=2", "separatrix.threshold_samples=1"], 2,
         "threshold_samples must be at least 2"),
        ("simulate", "ode_extinction_event", ["solver.max_steps=1"], 3, "max_steps=1 used up"),
    ])
    def test_a_refused_or_failed_run_writes_nothing(
        self, tmp_path, capsys, command, recipe, sets, code, message
    ):
        out = tmp_path / "out"
        args = [command, "--config", str(CONFIGS / f"{recipe}.ini"), "--out", str(out)]
        for item in sets:
            args += ["--set", item]
        assert main(args) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_model_kind_for_command(self, tmp_path, capsys):
        # simulate and pde take two kinds each, together all four
        kind_configs = {kind: row_config(tmp_path, command, kind)
                        for command, kind in ROW_CONFIGS if command in ("simulate", "pde")}
        assert set(kind_configs) == set(MODEL_KINDS)
        checked = 0
        for command, rows in _READS.items():
            for kind in set(MODEL_KINDS) - set(rows):
                out = tmp_path / f"{command}-{kind}"
                code = main([command, "--config", str(kind_configs[kind]), "--out", str(out)])
                assert code == 2, (command, kind)
                assert f"error: {command} requires model kind" in capsys.readouterr().err
                assert not out.exists()
                checked += 1
        assert checked == 11

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

    @pytest.mark.parametrize("profile", ["1/0", "0/0", "x/0"])
    def test_a_non_finite_profile_is_a_config_error(self, tmp_path, capsys, profile):
        # constants divide as numpy arrays do: 1/0 is inf, which the resource rejects
        code = main(
            ["pde", "--config", str(CONFIGS / "pde_slower_diffuser.ini"),
             "--out", str(tmp_path / "out"), "--set", f"resource.m={profile}"]
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("profile", ["+".join(["x"] * 1000), "^".join(["x"] * 3000)])
    def test_a_profile_nested_too_deep_is_a_config_error(self, tmp_path, capsys, profile):
        code = main(
            ["pde", "--config", str(CONFIGS / "pde_slower_diffuser.ini"),
             "--out", str(tmp_path / "out"), "--set", f"resource.m={profile}"]
        )
        assert code == 2
        assert "nested deeper than" in capsys.readouterr().err

    @pytest.mark.parametrize("command, kind", sorted(ROW_CONFIGS))
    def test_keys_a_command_never_reads_are_rejected(self, tmp_path, capsys, command, kind):
        reads = {**_ALWAYS, **_READS[command][kind]}
        unread = [f"{section}.{key}" for section, keys in SCHEMA.items()
                  for key in keys if key not in reads.get(section, ())]
        assert unread
        config = row_config(tmp_path, command, kind)
        for name in unread:
            out = tmp_path / name
            # "1" casts under every key type, so the key table alone can refuse it
            code = main([command, "--config", str(config), "--out", str(out), "--set", f"{name}=1"])
            assert code == 2, name
            assert f"error: {name} does not apply to {command}, which never reads it" in (
                capsys.readouterr().err
            )
            assert not out.exists()

    def test_key_table_rows_match_the_model_kinds(self):
        assert set(ROW_CONFIGS) == {(c, k) for c, rows in _READS.items() for k in rows}
        for rows in _READS.values():
            for reads in rows.values():
                for section, keys in {**_ALWAYS, **reads}.items():
                    assert set(keys) <= set(SCHEMA[section]), section

    @pytest.mark.parametrize("old, new, sets, message", [
        ("[scan]\n", "[scan]\nmode = c1-window\n", [], "unknown key scan.mode (line"),
        ("[run]\n", "[output]\ndir = elsewhere\n[run]\n", [], "unknown section [output] (line"),
        ("", "", ["--set", "scan.mode=diffusion"], "override targets unknown key scan.mode"),
        ("", "", ["--set", "output.dir=elsewhere"], "override targets unknown key output.dir"),
    ])
    def test_scan_mode_and_output_are_unknown(self, tmp_path, capsys, old, new, sets, message):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text((CONFIGS / "scan_exponent_window.ini").read_text().replace(old, new))
        out = tmp_path / "out"
        assert main(["scan", "--config", str(cfg), "--out", str(out), *sets]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["file", "file/sub", "dir-with-csv", "dir-with-summary"])
    def test_an_unusable_out_is_a_usage_error(self, tmp_path, capsys, target):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir-with-csv" / "equilibria.csv").mkdir(parents=True)
        (tmp_path / "dir-with-summary" / "summary.json").mkdir(parents=True)
        code = main(["equilibria", "--config", str(CONFIGS / "equilibria_mixed_exponents.ini"),
                     "--out", str(tmp_path / target)])
        assert code == 2
        assert f"error: cannot write output {tmp_path / target}" in capsys.readouterr().err
        # dir-with-summary writes equilibria.csv before summary.json fails: no partial output
        assert not (tmp_path / target / "equilibria.csv").is_file()
        assert (tmp_path / "dir-with-csv" / "equilibria.csv").is_dir()
        assert (tmp_path / "dir-with-summary" / "summary.json").is_dir()

    def test_a_failed_write_removes_the_out_it_created(self, tmp_path, capsys, monkeypatch):
        real_open = Path.open

        def full_disk(self, *args, **kwargs):
            if self.name == "summary.json":
                raise OSError(28, "No space left on device")
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", full_disk)
        out = tmp_path / "new" / "out"
        code = main(["equilibria", "--config", str(CONFIGS / "equilibria_mixed_exponents.ini"),
                     "--out", str(out)])
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err
        assert not out.exists()


# The perfbench recipes but the p = 1 slower-diffuser run, which takes seconds.
SHORT_RECIPES = [
    ("equilibria", "equilibria_mixed_exponents", []),
    ("simulate", "harvest_bistability", []),
    ("simulate", "ode_extinction_event", []),
    ("separatrix", "separatrix_threshold", []),
    ("scan", "scan_exponent_window", []),
    ("pde", "pde_extinction_vs_recovery", []),
    ("pde", "pde_extinction_vs_recovery", ["kinetics.p=1", "conditions.check=false"]),
    ("pde", "pde_slower_diffuser", ["resource.p=0.7"]),
]


class TestOutputFiles:
    @pytest.mark.parametrize("command, recipe, sets", SHORT_RECIPES)
    def test_summary_files_are_the_directory(self, tmp_path, command, recipe, sets):
        out = tmp_path / "out"
        args = [command, "--config", str(CONFIGS / f"{recipe}.ini"), "--out", str(out)]
        for item in sets:
            args += ["--set", item]
        assert main(args) == 0
        res = read_summary(out)["results"]
        files = res["files"]
        assert sorted(files + ["summary.json"]) == sorted(path.name for path in out.iterdir())
        if command == "pde":
            snapshots = [snap["file"] for snap in res["snapshots"]]
            assert snapshots and files[: len(snapshots)] == snapshots
