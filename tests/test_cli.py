"""End-to-end command-line tests driven through cli.main(argv): exit codes,
CSV/JSON output contracts, config-file merging, and error reporting."""

import io
import json
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taubnut.cli as cli
from taubnut.analytic import _REGISTRY, MODES
from taubnut.integrator import trajectory_from_csv, trajectory_to_csv

EQ_INIT = "0,1.5707963267948966,0,2,0,0,0.3333333333333333,0.47140452079103168"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIntegrate:
    def test_equatorial_conservation(self, capsys):
        code, out, err = run(capsys, "integrate", "--n", "1",
                             "--init", EQ_INIT, "--t-end", "10")
        assert code == 0 and err == ""
        traj = trajectory_from_csv(out)
        assert traj.termination == "Horizon"
        assert np.max(np.abs(traj.p_phi - 1.0)) <= 1e-10

    def test_zero_velocity_single_row(self, capsys):
        code, out, _ = run(capsys, "integrate", "--n", "1",
                           "--init", "0,1,0,2,0,0,0,0", "--t-end", "10")
        assert code == 0
        traj = trajectory_from_csv(out)
        assert len(traj) == 1 and traj.termination == "Horizon"

    def test_singularity_approach_exit_2(self, capsys):
        code, out, _ = run(capsys, "integrate", "--n", "1",
                           "--init", "0,1,0,1.0000001,0,0,0,-0.1",
                           "--t-end", "10")
        assert code == 2
        assert "# termination=SingularityApproach" in out

    def test_csv_reingest_byte_stable(self, capsys):
        _, out, _ = run(capsys, "integrate", "--n", "1",
                        "--init", EQ_INIT, "--t-end", "3", "--samples", "7")
        assert trajectory_to_csv(trajectory_from_csv(out)) == out

    def test_sample_grid_row_count(self, capsys):
        code, out, _ = run(capsys, "integrate", "--n", "1",
                           "--init", EQ_INIT, "--t-end", "5", "--samples", "9")
        assert code == 0
        traj = trajectory_from_csv(out)
        assert len(traj) == 9
        assert np.allclose(traj.t, np.linspace(0.0, 5.0, 9), atol=1e-12)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "integrate", "--n", "1",
                           "--init", "0,1,0,2,0,0,0,0", "--t-end", "1",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("t,tau,theta,phi,r,")

    def test_out_file_write_failure(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--scenario", "thm1",
                             "--out", str(tmp_path / "missing" / "x.json"))
        assert code == 1 and out == ""
        assert err.startswith("error: ConfigError:") and err.count("\n") == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "integrate", "--n", "1", "--t-end", "1")
        assert code == 1
        assert err.startswith("error: ConfigError:") and err.count("\n") == 1

    def test_tolerance_below_floor(self, capsys):
        code, out, err = run(capsys, "integrate", "--n", "1",
                             "--init", EQ_INIT, "--t-end", "1", "--tol", "1e-14")
        assert code == 1 and out == ""
        assert err.startswith("error: ConfigError:") and err.count("\n") == 1

    def test_bad_init_length(self, capsys):
        code, _, err = run(capsys, "integrate", "--n", "1",
                           "--init", "0,1,0,2", "--t-end", "1")
        assert code == 1 and "8" in err

    def test_nonfinite_init(self, capsys):
        code, _, err = run(capsys, "integrate", "--n", "1",
                           "--init", "0,1,0,nan,0,0,0,0", "--t-end", "1")
        assert code == 1 and "finite" in err

    def test_interior_violation_is_domain_error(self, capsys):
        code, _, err = run(capsys, "integrate", "--n", "1",
                           "--init", "0,1,0,0.5,0,0,0,0", "--t-end", "1")
        assert code == 1 and err.startswith("error: DomainError:")

    def test_escape_past_float_range_ends_in_step_budget(self, capsys):
        code, out, err = run(capsys, "integrate", "--n", "1",
                             "--init", "0,1,0,2,0,0,0,1", "--t-end", "1e308")
        assert code == 2 and err == ""
        assert trajectory_from_csv(out).termination == "StepBudget"

    def test_first_step_fallback_warns_nothing(self, capsys):
        # the start lies just inside the radius where (s**2 + 2n)**3
        # overflows, so DOP853's first-step probe leaves the chart and the
        # run starts from the probe's unprobed guess instead. The steps stall
        # at the chart edge, which ends the run in StepBudget well inside the
        # default budget of 10**6 stepper calls (38 rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "integrate", "--n", "1", "--init",
                                 "0,1,0,5.531491412549253e+102,0,0,0,1e100", "--t-end", "1e300")
        assert [str(w.message) for w in caught] == []
        assert code == 2 and err == ""
        traj = trajectory_from_csv(out)
        assert traj.termination == "StepBudget" and np.all(np.diff(traj.t) > 0)
        assert np.all(np.isfinite(traj.data))

    def test_powers_past_float_range_are_domain_error(self, capsys):
        code, _, err = run(capsys, "integrate", "--n", "1e300",
                           "--init", "0,1,0,2e300,0,0,0,1", "--t-end", "1")
        assert code == 1 and err.startswith("error: DomainError:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("init", ["0,1,0,2,0,0,0,1e308", "0,1,0,2,1e200,0,0,1e200"])
    def test_overflowing_norm_is_domain_error(self, capsys, init):
        code, out, err = run(capsys, "integrate", "--n", "1", "--init", init, "--t-end", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: DomainError:") and err.count("\n") == 1


    def test_unallocatable_sample_grid_is_config_error(self, capsys):
        # numpy refuses 10**12 float64 samples (7.3 TiB) before touching memory
        code, out, err = run(capsys, "integrate", "--n", "1", "--init", "0,1,0,2,0,0,0,1",
                             "--t-end", "1", "--samples", "1000000000000")
        assert code == 1 and out == "" and err.startswith("error: ConfigError: samples")
        assert err.count("\n") == 1


class TestAnalytic:
    def test_radial_regression_row(self, capsys):
        code, out, _ = run(capsys, "analytic", "--family", "thm1",
                           "--n", "0.5", "--r1", "1", "--t1", "0",
                           "--mode", "literal", "--r-range", "0.5:1.3",
                           "--samples", "2")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        assert lines[0] == "r,t"
        r_last, t_last = map(float, lines[-1].split(","))
        assert r_last == 1.3
        assert abs(t_last - 2.004718) < 1e-5
        assert "# turning_limit=used" in out

    def test_inconsistent_constants(self, capsys):
        code, _, err = run(capsys, "analytic", "--family", "thm2", "--n", "1",
                           "--r1", "2", "--tau0", "1", "--phi0", "0.5",
                           "--r-range", "2:3")
        assert code == 1 and "phi0" in err

    def test_underflowing_r1_is_degenerate(self, capsys):
        # r1*r1 underflows to 0
        code, _, err = run(capsys, "analytic", "--family", "thm2", "--n", "1",
                           "--r1", "1e-300", "--tau0", "1", "--r-range", "2:3")
        assert code == 1 and err.startswith("error: DegenerateError:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("family, flags, name, turn", [
        ("thm2", ["--tau0"], "tau0", "R1"),
        ("thm5", ["--theta-const", "1", "--phi0"], "phi0", "R+")])
    def test_negligible_constant_is_named_with_its_value(self, capsys, family, flags, name,
                                                         turn):
        # at n = 1 the turning radius rounds to n for a constant of 1e-9: the
        # message names the constant's value, not a zero it does not have
        for value, message in (
                ("1e-9", f"{name} = 1e-09 is negligible against n = 1.0: {turn} rounds to n"),
                ("0", f"{name} = 0 collapses to the radial family ({turn} = n)")):
            code, out, err = run(capsys, "analytic", "--family", family, "--n", "1",
                                 "--r1", "1", *flags, value, "--r-range", "2:3")
            assert (code, out, err) == (1, "", f"error: DegenerateError: {message}\n")

    @pytest.mark.parametrize("family, flags", [("thm2", ["--tau0", "1e200"]),
                                               ("thm3", ["--phi0", "1e200"]),
                                               ("thm4", ["--theta0", "1e200"]),
                                               ("thm5", ["--phi0", "1e200", "--theta-const", "1"])])
    def test_overflowing_constant_is_domain_error(self, capsys, family, flags):
        code, _, err = run(capsys, "analytic", "--family", family, "--n", "1", "--r1", "1",
                           *flags, "--r-range", "2:3")
        assert code == 1 and err.startswith("error: DomainError:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("family, flags", [
        ("thm5", ["--r1", "1e200", "--phi0", "1", "--theta-const", "1"]),
        ("thm5", ["--r1", "1e-160", "--phi0", "1", "--theta-const", "1"]),
        ("thm2", ["--r1", "1e-160", "--tau0", "1"]),
        ("thm3", ["--r1", "1e-160", "--phi0", "1"])],
        ids=["thm5-huge-r1", "thm5-tiny-r1", "thm2-tiny-r1", "thm3-tiny-r1"])
    def test_turning_radius_past_float_range_is_domain_error(self, capsys, family, flags):
        # r1*r1 overflows to inf, or r1**4 underflows to 0 while r1*r1 is
        # still nonzero: the turning radius is inf or NaN
        code, _, err = run(capsys, "analytic", "--family", family, "--n", "1", *flags,
                           "--r-range", "2:3")
        assert code == 1 and err.startswith("error: DomainError:")
        assert "turning radius overflows" in err and err.count("\n") == 1

    @pytest.mark.parametrize("family, flags", [
        ("thm1", ["--n", "1", "--r1", "1e-150", "--r-range", "1e160:1e161"]),
        ("thm2", ["--n", "1e307", "--r1", "1", "--tau0", "1", "--r-range", "1e308:1.7e308"])],
        ids=["thm1-t", "thm2-huge-n"])
    def test_curve_values_past_float_range_are_domain_error(self, capsys, family, flags):
        # t = bracket/r1 passes the float range; so does thm2's t, whose log
        # term carries the factor n + R1 = 4e307 here
        code, out, err = run(capsys, "analytic", "--family", family, *flags)
        assert code == 1 and out == "" and err.startswith("error: DomainError:")
        assert "exceed the float range" in err and err.count("\n") == 1

    def test_thm2_coefficient_past_float_range(self, capsys):
        # (2n)^1.5 overflows at n = 1e300, but the tau curve's coefficient
        # 2(2n)^1.5/sqrt(R1 - n) is 4n = 4e300 there, and t and tau are finite
        code, out, err = run(capsys, "analytic", "--family", "thm2", "--n", "1e300", "--r1", "1",
                             "--tau0", "1", "--r-range", "1e301:1e302", "--samples", "3")
        assert code == 0 and err == ""
        rows = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
        assert rows.shape == (3, 3) and np.all(np.isfinite(rows))
        assert np.all(np.diff(rows[:, 1]) > 0) and np.all(np.diff(rows[:, 2]) > 0)

    def test_missing_r1(self, capsys):
        code, _, err = run(capsys, "analytic", "--family", "thm1", "--n", "1",
                           "--r-range", "2:3")
        assert code == 1 and "--r1" in err

    def test_missing_amplitude_constant(self, capsys):
        code, _, err = run(capsys, "analytic", "--family", "thm3", "--n", "1",
                           "--r1", "1", "--r-range", "2:3")
        assert code == 1 and "phi0" in err

    def test_latitude_modes_differ_by_time_factor(self, capsys):
        base = ["analytic", "--family", "thm5", "--n", "1", "--r1", "1",
                "--phi0", "1", "--theta-const", "1.0471975511965976",
                "--r-range", "2:3", "--samples", "2"]
        _, lit, _ = run(capsys, *base, "--mode", "literal")
        _, cor, _ = run(capsys, *base, "--mode", "corrected")
        t_lit = [float(ln.split(",")[1]) for ln in lit.splitlines()[1:3]]
        t_cor = [float(ln.split(",")[1]) for ln in cor.splitlines()[1:3]]
        ratio = (t_cor[1] - t_cor[0]) / (t_lit[1] - t_lit[0])
        # r1*sqrt(2n) = sqrt(2): literal t runs fast by exactly that factor
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_corrected_mode_only_for_latitude_family(self, capsys):
        code, _, err = run(capsys, "analytic", "--family", "thm3", "--n", "1",
                           "--r1", "1", "--phi0", "1", "--mode", "corrected",
                           "--r-range", "2:3")
        assert code == 1 and "corrected" in err

    def test_one_sided_limit_near_turning_radius(self, capsys):
        code, out, _ = run(capsys, "analytic", "--family", "thm3", "--n", "1",
                           "--r1", "1", "--phi0", "1",
                           "--r-range", "1.4142135624:2", "--samples", "3")
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert float(first[2]) == pytest.approx(-math.pi / 2, abs=1e-4)
        assert "# turning_limit=used" in out

    def test_latitude_header_and_columns(self, capsys):
        code, out, _ = run(capsys, "analytic", "--family", "thm5", "--n", "1",
                           "--r1", "1", "--phi0", "1",
                           "--theta-const", "0.9", "--r-range", "2:4",
                           "--samples", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,t,phi,tau"
        assert all(len(ln.split(",")) == 4 for ln in lines[1:5])

    def test_meridional_swing_exit_flag(self, capsys):
        code, out, _ = run(capsys, "analytic", "--family", "thm4", "--n", "1",
                           "--r1", "1", "--theta0", "1",
                           "--theta1", "1.5707963267948966",
                           "--r-range", "2:4", "--samples", "3")
        assert code == 0
        assert "# theta_range_exit=true" in out

    def test_bad_r_range_forms(self, capsys):
        for bad in ("2", "0:3", "5:2", "a:b", "1:2:3"):
            code, _, err = run(capsys, "analytic", "--family", "thm1",
                               "--n", "1", "--r1", "1", "--r-range", bad)
            assert code == 1 and err.startswith("error: ConfigError:")

    def test_no_ansi_escapes(self, capsys):
        _, out, err = run(capsys, "analytic", "--family", "thm1", "--n", "1",
                          "--r1", "1", "--r-range", "1:3", "--samples", "5")
        assert "\x1b" not in out and "\x1b" not in err


    def test_rows_past_where_r_squared_overflows(self, capsys):
        # r*r overflows from r ~ 1.3e154; every row keeps a finite t and the
        # equatorial angle's limit arctan(r1 n/phi0) = arctan 2
        code, out, err = run(capsys, "analytic", "--family", "thm3", "--n", "1", "--r1", "1",
                             "--phi0", "0.5", "--r-range", "1e150:1e300", "--samples", "4")
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [phi for _, _, phi in rows] == [repr(math.atan(2.0))] * 4
        assert all(float(r) == float(t) for r, t, _ in rows)

    def test_unallocatable_sample_grid_is_config_error(self, capsys):
        # numpy refuses 10**12 float64 samples (7.3 TiB) before touching memory
        code, out, err = run(capsys, "analytic", "--n", "1", "--family", "thm1", "--r1", "1",
                             "--r-range", "1:2", "--samples", "1000000000000")
        assert code == 1 and out == "" and err.startswith("error: ConfigError: samples")
        assert err.count("\n") == 1


class TestVerify:
    def test_single_scenario_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--scenario", "thm3")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1 and report["passed"]
        assert report["scenario"] == "thm3"

    def test_unknown_scenario(self, capsys):
        code, _, err = run(capsys, "verify", "--scenario", "thm6")
        assert code == 1 and err.startswith("error: ConfigError:")

    def test_negative_seed(self, capsys):
        code, _, err = run(capsys, "verify", "--scenario", "all", "--seed", "-1")
        assert code == 1 and err.startswith("error: ConfigError:")
        assert err.count("\n") == 1

    def test_seeded_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "verify", "--scenario", "thm2", "--seed", "7")
        _, second, _ = run(capsys, "verify", "--scenario", "thm2", "--seed", "7")
        assert first == second

    def test_failed_verification_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario",
                            lambda name, seed=0: {"schema": 1, "passed": False})
        code, out, _ = run(capsys, "verify", "--scenario", "thm1")
        assert code == 3
        assert json.loads(out)["passed"] is False


class TestTensorDumps:
    def test_christoffel_example_entry(self, capsys):
        code, out, _ = run(capsys, "christoffel", "--n", "1",
                           "--point", "0,1.0471975511965976,0,2")
        assert code == 0
        doc = json.loads(out)
        entry = doc["entries"]["gamma^tau_{tau,r}"]
        assert entry["closed_form"] == pytest.approx(1 / 3, abs=1e-12)
        assert entry["fd_oracle"] == pytest.approx(1 / 3, abs=1e-6)
        assert doc["max_abs_difference"] <= 1e-6

    def test_axis_guard_exit_1(self, capsys):
        code, _, err = run(capsys, "christoffel", "--n", "1",
                           "--point", "0,0.0001,0,2")
        assert code == 1 and err.startswith("error: AxisError:")

    def test_columns_agree_at_interior_points(self, capsys):
        for point in ("0,0.7,1.0,3.5", "2.0,2.2,0.3,1.7"):
            code, out, _ = run(capsys, "christoffel", "--n", "1",
                               "--point", point)
            assert code == 0
            assert json.loads(out)["max_abs_difference"] <= 1e-6

    def test_curvature_residuals(self, capsys):
        code, out, _ = run(capsys, "curvature", "--n", "1",
                           "--point", "0,1.0471975511965976,0,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["ricci_max_abs"] <= 1e-4
        assert doc["self_dual_residual"] <= 1e-3
        assert doc["anti_self_dual_residual"] >= 0.1 * doc["riemann_frame_max_abs"]
        assert doc["duality_sign"] == -1.0

    def test_curvature_domain_violation(self, capsys):
        code, _, err = run(capsys, "curvature", "--n", "1",
                           "--point", "0,1,0,0.9")
        assert code == 1 and err.startswith("error: DomainError:")

    def test_overflowing_frame_angle_is_domain_error(self, capsys):
        # tau/(2n) overflows: one error line instead of NaN in the JSON
        code, out, err = run(capsys, "curvature", "--n", "1e-20",
                             "--point", "1e300,1.1,0.4,3.0")
        assert code == 1 and out == "" and err.startswith("error: DomainError:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["christoffel", "curvature"])
    def test_powers_past_float_range_are_domain_error(self, capsys, command):
        code, _, err = run(capsys, command, "--n", "1", "--point", "0,1,0,1e200")
        assert code == 1 and err.startswith("error: DomainError:")
        assert err.count("\n") == 1


class TestConfigFile:
    def test_file_supplies_all_options(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "n": 1.0, "t_end": 2.0, "init": [0, 1, 0, 2, 0, 0, 0, 0]}))
        code, out, _ = run(capsys, "integrate", "--config", str(cfg))
        assert code == 0
        assert trajectory_from_csv(out).termination == "Horizon"

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "n": 1.0, "t_end": 10.0,
            "init": "0,1.5707963267948966,0,2,0,0,0,0.5"}))
        code, out, _ = run(capsys, "integrate", "--config", str(cfg),
                           "--t-end", "1.0")
        assert code == 0
        traj = trajectory_from_csv(out)
        assert traj.t[-1] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 1.0, "bogus": 3}))
        code, _, err = run(capsys, "integrate", "--config", str(cfg),
                           "--init", "0,1,0,2,0,0,0,0", "--t-end", "1")
        assert code == 1 and "bogus" in err

    def test_malformed_json(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "integrate", "--config", str(cfg))
        assert code == 1 and err.startswith("error: ConfigError:")

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        code, _, err = run(capsys, "integrate", "--config", str(cfg))
        assert code == 1 and "JSON object" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "integrate", "--config", "/nonexistent.json")
        assert code == 1 and err.startswith("error: ConfigError:")

    def test_analytic_constants_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "fam.json"
        cfg.write_text(json.dumps({
            "family": "thm3", "n": 1.0, "r1": 1.0, "phi0": 1.0,
            "r_range": "2:3", "samples": 3}))
        code, out, _ = run(capsys, "analytic", "--config", str(cfg))
        assert code == 0 and out.splitlines()[0] == "r,t,phi"

    def test_boolean_rejected_for_numeric_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": True}))
        code, _, err = run(capsys, "integrate", "--config", str(cfg),
                           "--init", "0,1,0,2,0,0,0,0", "--t-end", "1")
        assert code == 1 and "invalid value for n" in err

    @pytest.mark.parametrize("command, values", [
        ("christoffel", {"n": 1, "point": [False, True, 0, 2]}),
        ("integrate", {"n": 1, "t_end": 1, "init": [0, 1, 0, 2, 0, 0, 0, True]}),
    ])
    def test_boolean_rejected_in_list_option(self, capsys, tmp_path, command, values):
        # float(True) is 1.0; a JSON boolean is not a coordinate
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: ConfigError:") and err.count("\n") == 1

    @pytest.mark.parametrize("values", [{"eps": -1.9}, {"samples": 2.7},
                                        {"samples": math.inf}, {"samples": math.nan}])
    def test_non_integral_value_rejected_for_integer_key(self, capsys, tmp_path, values):
        # int() would truncate -1.9 to -1 and 2.7 to 2, and overflow on Infinity
        cfg = tmp_path / "fam.json"
        cfg.write_text(json.dumps({
            "family": "thm3", "n": 1.0, "r1": 1.0, "phi0": 1.0, "r_range": "2:3",
            **values}))
        code, out, err = run(capsys, "analytic", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: ConfigError:") and err.count("\n") == 1

    def test_integral_float_accepted_for_integer_key(self, capsys, tmp_path):
        cfg = tmp_path / "fam.json"
        base = {"family": "thm3", "n": 1.0, "r1": 1.0, "phi0": 1.0, "r_range": "2:3"}
        cfg.write_text(json.dumps({**base, "samples": 3.0, "eps": -1.0}))
        code, out, _ = run(capsys, "analytic", "--config", str(cfg))
        cfg.write_text(json.dumps({**base, "samples": 3, "eps": -1}))
        assert code == 0 and run(capsys, "analytic", "--config", str(cfg)) == (0, out, "")

    @pytest.mark.parametrize("command, values", [
        ("christoffel", {"n": 1.0, "point": "0,1,0,2", "out": 1}),
        ("analytic", {"family": ["thm3"]}),
        ("analytic", {"family": "thm3", "mode": 1}),
        ("analytic", {"family": "thm3", "n": 1.0, "r1": 1.0, "phi0": 1.0, "r_range": 2}),
        ("verify", {"scenario": 3}),
    ])
    def test_non_string_rejected_for_string_key(self, capsys, tmp_path, command, values):
        # an integer out would be taken as a file descriptor and close stdout
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: ConfigError:") and err.count("\n") == 1


    @pytest.mark.parametrize("command, values, message", [
        ("integrate", {"n": "one", "t_end": 1, "init": "0,1,0,2,0,0,0,0"}, "invalid value for n"),
        ("christoffel", {"n": 1, "point": 2}, "point must be 4 comma-separated numbers"),
        ("christoffel", {"n": 1, "point": "0,1,x,2"}, "point must be numeric"),
        ("analytic", {"family": "thm9", "n": 1, "r1": 1, "r_range": "2:3"}, "family must be one of"),
    ], ids=["uncastable", "point-not-a-list", "point-not-numeric", "unknown-family"])
    def test_config_values_the_flags_cannot_give(self, capsys, tmp_path, command, values,
                                                 message):
        # one value of each kind the options' own checks refuse; the point
        # as a JSON number is the one a flag, always a string, cannot carry
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: ConfigError: {message}")

    ANALYTIC = ["analytic", "--family", "thm3", "--n", "1", "--r1", "1", "--phi0", "1",
                "--r-range", "2:3"]

    @pytest.mark.parametrize("argv, name, value", [
        (["integrate", "--init", "0,1,0,2,0,0,0,0", "--t-end", "1"], "n", "one"),
        (["christoffel", "--n", "1"], "point", "0,1,x,2"),
        (["analytic", "--n", "1", "--r1", "1", "--r-range", "2:3"], "family", "thm9"),
        (ANALYTIC, "eps", "-1.9"),
        (ANALYTIC, "samples", "2.7"),
        (ANALYTIC, "samples", "inf"),
        (ANALYTIC, "mode", "bogus"),
        (["verify", "--scenario", "thm1"], "seed", "x"),
    ], ids=["n", "point", "family", "eps", "samples-float", "samples-inf", "mode", "seed"])
    def test_flag_and_file_values_pass_one_check(self, capsys, tmp_path, argv, name, value):
        code, out, err = run(capsys, *argv, f"--{name}", value)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ConfigError: ")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({name: value}))
        assert run(capsys, *argv, "--config", str(cfg)) == (code, out, err)


class TestParsing:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert err.startswith("error: ConfigError:") and err.count("\n") == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "integrate", "--frobnicate", "1")
        assert code == 1 and err.count("\n") == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1 and err.startswith("error: ConfigError:")

    def test_bad_float_flag(self, capsys):
        code, _, err = run(capsys, "integrate", "--n", "one",
                           "--init", "0,1,0,2,0,0,0,0", "--t-end", "1")
        assert code == 1 and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["christoffel", "--point", "0,1,0,1e-299"],
        ["curvature", "--point", "0,1,0,1e-299"],
        ["analytic", "--family", "thm5", "--r1", "1", "--phi0", "1", "--theta-const", "1",
         "--r-range", "2:3"]], ids=["christoffel", "curvature", "analytic"])
    def test_n_whose_square_underflows_is_config_error(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--n", "1e-300")
        assert code == 1 and err.startswith("error: ConfigError:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["christoffel", "--point", "0,1,0,1e-149"],
        ["integrate", "--init", "0,1,0,1e-149,0,0,0,1e-150", "--t-end", "1"],
        ["curvature", "--point", "0,1,0,1e-149"]], ids=["christoffel", "integrate", "curvature"])
    def test_n_whose_cube_underflows_is_config_error(self, capsys, argv):
        # n*n = 1e-300 is normal, but (r + n)**3 near the nut underflows to 0
        code, _, err = run(capsys, *argv, "--n", "1e-150")
        assert code == 1 and err.startswith("error: ConfigError:")
        assert err.count("\n") == 1

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_bad_flag_after_successful_call(self, capsys):
        code, _, _ = run(capsys, "integrate", "--n", "1",
                         "--init", "0,1,0,2,0,0,0,0", "--t-end", "1")
        assert code == 0
        code, out, err = run(capsys, "integrate", "--frobnicate", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: ConfigError:") and err.count("\n") == 1

    def test_calls_share_no_option_values(self, capsys, tmp_path):
        # the parser is reused across calls; a verify call's values and
        # option keys must not reach the integrate call after it
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--scenario", "thm4", "--seed", "3",
                           "--out", str(report))
        assert code == 0 and out == "" and report.exists()
        args = cli._build_parser().parse_args(
            ["integrate", "--n", "1", "--init", "0,1,0,2,0,0,0,0", "--t-end", "1"])
        assert args.option_keys == ("n", "init", "t_end", "tol", "samples", "out")
        assert args.out is None and args.config is None
        assert not hasattr(args, "seed") and not hasattr(args, "scenario")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 3}))
        code, _, err = run(capsys, "integrate", "--config", str(cfg), "--n", "1",
                           "--init", "0,1,0,2,0,0,0,0", "--t-end", "1")
        assert code == 1 and err.startswith("error: ConfigError: unknown config key(s): seed")
        code, out, _ = run(capsys, "integrate", "--n", "1",
                           "--init", "0,1,0,2,0,0,0,0", "--t-end", "1")
        assert code == 0 and out.startswith("t,tau,")


# The error contract as a property: inputs from the edges of the float range,
# not finite, zero and ordinary, through every numeric subcommand in process
EDGES = (0.0, 1e300, -1e300, 1e-300, -1e-300, 1e160, 1e-160, 1e100, 1e-100,
         math.nan, math.inf)
ORDINARY = (1.0, 2.0, 0.5, 3.0, 1.5, 0.8, 4.0, 1.2, 2.5, 0.3, -0.5, -1.0)
VALUES = st.sampled_from(ORDINARY + EDGES + ORDINARY)  # hypothesis favours the first
SIZES = VALUES.map(abs)  # n, r1, radii, times and tolerances: zero or more
FINITE = VALUES.filter(math.isfinite)  # anchors and start states
SAMPLES = st.sampled_from((-1, 0, 1, 2, 3, 7, 50, 10**12, 10**15))


def _numbers(values):
    return ",".join(map(repr, values))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("christoffel", "curvature", "analytic", "integrate")))
    argv = [command, f"--n={draw(SIZES)!r}"]
    if command in ("christoffel", "curvature"):
        return argv + [f"--point={_numbers(draw(st.lists(VALUES, min_size=4, max_size=4)))}"]
    if draw(st.booleans()):
        argv.append(f"--samples={draw(SAMPLES)}")
    if command == "integrate":
        t_end = draw(SIZES.filter(lambda v: not v > 100))
        argv += [f"--init={_numbers(draw(st.lists(FINITE, min_size=8, max_size=8)))}",
                 f"--t-end={t_end!r}"]
        return argv + ([f"--tol={draw(SIZES)!r}"] if draw(st.booleans()) else [])
    family = draw(st.sampled_from(tuple(_REGISTRY)))
    spec = _REGISTRY[family]
    lo, hi = sorted(draw(SIZES) for _ in range(3))[1:]  # the larger two reach past R more often
    argv += [f"--family={family}", f"--r1={draw(SIZES)!r}", f"--r-range={lo!r}:{hi!r}"]
    for name in spec.constants:
        argv.append(f"--{name.replace('_', '-')}={draw(VALUES)!r}")
    for name in ("t1", *spec.anchors):
        argv.append(f"--{name}={draw(FINITE)!r}")
    mode = draw(st.sampled_from((None, None, *MODES)))
    return argv + ([f"--mode={mode}"] if mode else [])


class TestErrorContract:
    @settings(max_examples=200, deadline=None)
    @given(argv=argvs())
    def test_every_outcome_is_an_exit_code_or_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        assert len(lines) == (code == 1)
        assert all(re.fullmatch(r"error: \w+: .*", line) for line in lines)
