"""Command-line interface: formats, determinism, exit codes, contracts."""

import json
import math
import warnings

import pytest

from kinkzeta import models, zetareg
from kinkzeta.cli import main
from kinkzeta.errors import ConvergenceError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestSolution:
    def test_gl_kink_center_row(self, capsys):
        code, out, _ = run_cli(capsys, "solution", "--family", "gl",
                               "--m", "1.4142135623730951", "--g", "2",
                               "--kink", "--n", "21")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "phi", "u", "e"]
        center = min(rows, key=lambda r: abs(float(r[0])))
        assert float(center[1]) == pytest.approx(0.0, abs=1e-12)

    def test_sg_periodic_first_integral_constant(self, capsys):
        code, out, _ = run_cli(capsys, "solution", "--family", "sg",
                               "--m", "1", "--g", "1", "--k", "0.8",
                               "--n", "41")
        assert code == 0
        spec = models.ModelSpec(family="sg", m=1.0, g=1.0)
        _, rows = parse_csv(out)
        w_vals = []
        for r in rows:
            phi, e = float(r[1]), float(r[3])
            w_vals.append(e - 2.0 * models.potential_v(spec, phi))
        assert max(w_vals) - min(w_vals) < 1e-8

    def test_nahm_pole_rows_marked(self, capsys):
        code, out, _ = run_cli(capsys, "solution", "--family", "nahm",
                               "--w", "1", "--n", "101")
        assert code == 0
        _, rows = parse_csv(out)
        marked = [r for r in rows if r[1] == "pole"]
        assert marked, "pole rows must be flagged"
        clean = [r for r in rows if r[1] != "pole"]
        assert clean, "non-pole rows must be present"

    def test_explicit_range(self, capsys):
        code, out, _ = run_cli(capsys, "solution", "--family", "gl", "--kink",
                               "--x-min", "-1", "--x-max", "1", "--n", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[0]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_nahm_sign_negates_phi(self, capsys):
        argv = ("solution", "--family", "nahm", "--w", "1", "--n", "101")
        _, plus, _ = run_cli(capsys, *argv)
        code, minus, _ = run_cli(capsys, *argv, "--sign", "-1")
        assert code == 0
        _, rows_p = parse_csv(plus)
        _, rows_m = parse_csv(minus)
        assert any(r[1] == "pole" for r in rows_p)
        for rp, rm in zip(rows_p, rows_m, strict=True):
            assert (rm[0], rm[2], rm[3]) == (rp[0], rp[2], rp[3])
            if rp[1] == "pole":
                assert rm[1] == "pole"
            else:
                assert float(rm[1]) == -float(rp[1])

    def test_json_mirror(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "solution",
                               "--family", "gl", "--m", "1", "--g", "1",
                               "--kink", "--n", "11")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["x", "phi", "u", "e"]
        assert len(doc["data"]["x"]) == 11


class TestEnergy:
    def test_sg_kink_prints_64(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--family", "sg",
                               "--m", "2", "--g", "1", "--kink")
        assert code == 0
        header, rows = parse_csv(out)
        closed = float(rows[0][header.index("closed_form")])
        assert closed == 64.0

    def test_sg_periodic_near_kink(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--family", "sg",
                               "--m", "2", "--g", "1", "--k", "0.99")
        header, rows = parse_csv(out)
        closed = float(rows[0][header.index("closed_form")])
        assert abs(closed / 64.0 - 1.0) < 0.01

    @pytest.mark.parametrize("argv", [
        ("--m", "2", "--g", "1", "--kink"),
        ("--m", "1", "--g", "1", "--k", "0.999999"),
        # m^4 underflows on its own, m^4 / g does not
        ("--m", "1e-100", "--g", "1e-300", "--kink")])
    def test_sg_quadrature_matches_closed_form(self, capsys, argv):
        code, out, _ = run_cli(capsys, "energy", "--family", "sg", *argv)
        assert code == 0
        header, rows = parse_csv(out)
        closed = float(rows[0][header.index("closed_form")])
        quadrature = float(rows[0][header.index("quadrature")])
        assert abs(quadrature - closed) <= 1e-13 * abs(closed)

    def test_gl_kink_columns_agree(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--family", "gl",
                               "--m", "1.3", "--g", "0.9", "--kink")
        header, rows = parse_csv(out)
        quadrature = float(rows[0][header.index("quadrature")])
        raw = float(rows[0][header.index("raw_integral")])
        assert quadrature == pytest.approx(raw, abs=1e-12)  # GL: norm = 1
        b = 1.3 / math.sqrt(2.0)
        assert quadrature == pytest.approx(8.0 * b ** 3 / (3 * 0.9), abs=1e-9)


class TestZeta:
    def test_case_a_closed_form_row(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--case", "a", "--b", "1",
                               "--s", "0.25")
        assert code == 0
        header, rows = parse_csv(out)
        closed = [r for r in rows if r[header.index("method")] == "closed_form"]
        assert closed
        val = float(closed[0][header.index("re")])
        assert val == pytest.approx(-0.7627597635, abs=1e-8)

    @pytest.mark.parametrize("s", ["-0.499999998", "-0.499999"])
    def test_closed_form_row_next_to_its_pole(self, capsys, s):
        # the contour's strip check keeps s off the closed form's poles
        code, out, _ = run_cli(capsys, "zeta", "--case", "a", "--b", "1",
                               f"--s={s}")
        assert code == 0
        header, rows = parse_csv(out)
        assert [r[header.index("method")] for r in rows] == [
            "closed_form", "mellin_numeric", "contour"]

    def test_method_disagreement_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--case", "a", "--b", "1",
                               "--s", "0.25", "--method-tol", "1e-18")
        assert code == 3
        assert "disagreement" in err

    def test_method_tolerance_scales_with_zeta(self, capsys):
        # |zeta| = 1.8e56: the routes agree to 3.4e-8 relative, although
        # they are 6.1e48 apart
        code, out, err = run_cli(capsys, "zeta", "--case", "a", "--b", "1e-3",
                                 "--s", "9.5")
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert len(rows) == 3
        assert float(rows[0][header.index("re")]) == pytest.approx(-1.8066e56,
                                                                   rel=1e-4)

    def test_nahm_metadata_columns(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--case", "nahm", "--b", "1",
                               "--s", "0.25")
        assert code == 0
        header, rows = parse_csv(out)
        k1 = 1.0 / math.sqrt(2.0)
        from kinkzeta import specfun
        two_ki = 2.0 * specfun.ellipk(k1) / math.sqrt(2.0)
        got = float(rows[0][header.index("meta_2Ki")])
        assert got == pytest.approx(two_ki, rel=1e-13)


class TestCorrectionAndFigure:
    def test_correction_row(self, capsys):
        code, out, _ = run_cli(capsys, "correction", "--m", "1", "--d", "1")
        assert code == 0
        header, rows = parse_csv(out)
        ds = float(rows[0][header.index("delta_s")])
        assert ds == pytest.approx(-math.log(2.0), abs=1e-8)

    def test_half_convention_flag(self, capsys):
        _, out1, _ = run_cli(capsys, "correction", "--m", "1.5", "--d", "2")
        _, out2, _ = run_cli(capsys, "correction", "--m", "1.5", "--d", "2",
                             "--half-convention")
        h1, r1 = parse_csv(out1)
        h2, r2 = parse_csv(out2)
        a = float(r1[0][h1.index("delta_s")])
        b = float(r2[0][h2.index("delta_s")])
        assert b == pytest.approx(0.5 * a, rel=1e-12)

    def test_figure_z_shape_and_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "figure-z", "--m-min", "0.2",
                               "--m-max", "3.0", "--n", "15", "--d", "1,2,3")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 15 * 3
        for r in rows:
            m, d = float(r[0]), int(r[1])
            dz = float(r[header.index("dzeta_ds_at_0")])
            assert math.isfinite(dz)
            if d == 1:
                assert dz == pytest.approx(2.0 * math.log(2.0 * m), abs=1e-7)


class TestOracleCommand:
    def test_edges_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--case", "b", "--k", "0.5",
                               "--mode", "edges", "--n", "500")
        assert code == 0
        header, rows = parse_csv(out)
        for r in rows:
            lat = float(r[header.index("lattice_edge")])
            pred = float(r[header.index("predicted_edge")])
            assert lat == pytest.approx(pred, abs=3e-3)

    def test_edges_print_the_zero_root_as_positive_zero(self, capsys):
        # Q of case B has a root at p = 0; resolvent prints it as +0.0
        code, out, _ = run_cli(capsys, "oracle", "--case", "b", "--k", "0.5",
                               "--mode", "edges")
        assert code == 0
        header, rows = parse_csv(out)
        pred = [r[header.index("predicted_edge")] for r in rows]
        assert pred[1] == "0.000000000000000e+00"
        assert "-0.000000000000000e+00" not in pred

    @pytest.mark.parametrize("case, levels, nu", [("a", [0.0], 1.0),
                                                  ("c", [0.0, 3.0], 4.0)])
    def test_eigen_smoke(self, capsys, case, levels, nu):
        # the kink's bound states, then the box's continuum above nu
        code, out, _ = run_cli(capsys, "oracle", "--case", case, "--mode", "eigen")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["index", "lambda"]
        lam = [float(r[1]) for r in rows]
        assert len(lam) == 8
        assert lam[:len(levels)] == pytest.approx(levels, abs=1e-3)
        assert min(lam[len(levels):]) > nu

    def test_trace_needs_a_kink_case_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--case", "b", "--k", "0.5",
                                 "--mode", "trace")
        assert code == 2 and out == ""
        assert "kink case" in err

    def test_trace_below_ten_grid_steps_squared_exit_2(self, capsys):
        # n = 900 on [-20, 20]: t = 1e-5 is below 10 h^2 = 0.0198
        code, out, err = run_cli(capsys, "oracle", "--case", "a", "--mode",
                                 "trace", "--t", "1e-5")
        assert code == 2 and out == ""
        assert "10 h^2" in err

    def test_trace_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--case", "a", "--b", "1",
                               "--mode", "trace", "--n", "1500", "--t", "1")
        assert code == 0
        header, rows = parse_csv(out)
        val = float(rows[0][header.index("relative_trace")])
        assert val == pytest.approx(math.erf(1.0), abs=5e-3)


class TestContracts:
    def test_invalid_input_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "solution", "--family", "gl",
                               "--m", "1", "--g", "1", "--k", "1.5")
        assert code == 2
        assert err.strip().count("\n") == 0  # single-line diagnostic

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "solution", "--no-such-flag")
        assert code == 2

    def test_missing_branch_exit_2(self, capsys):
        # three branch selectors at once: --k and --W conflict
        code, _, _ = run_cli(capsys, "solution", "--family", "gl",
                             "--m", "1", "--g", "1", "--k", "0.5",
                             "--W", "-0.01")
        assert code == 2

    def test_divergent_energy_exit_2(self, capsys):
        # the Nahm solution is unbounded: known from the input, as a bad one
        code, out, err = run_cli(capsys, "energy", "--family", "nahm", "--w", "1")
        assert code == 2
        assert out == ""
        assert err == "error: Nahm solution is unbounded; energy diverges\n"

    @pytest.mark.parametrize("out", ["missing/t.csv", "", "."])
    def test_unwritable_out_exit_2(self, capsys, monkeypatch, tmp_path, out):
        # a missing directory, an empty path and a directory
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(capsys, "--out", out, "figure-z", "--n", "3")
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: cannot write --out")
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("argv", [
        ("zeta", "--case", "nahm", "--s", "0.49"),
        ("zeta", "--case", "d", "--k", "0.9", "--s", "0.48")])
    def test_numerical_failure_exit_4(self, capsys, monkeypatch, argv):
        def fail(rp, s):
            raise ConvergenceError(f"contour zeta is not finite at s = {s}")
        monkeypatch.setattr(zetareg, "zeta_contour", fail)
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err.startswith("numerical failure:")
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("argv", [
        ("heattrace", "--case", "b", "--k", "0.5", "--t", "1000"),
        ("heattrace", "--case", "nahm", "--t", "800")])
    def test_heat_trace_overflow_exit_4(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err.startswith("numerical failure:")
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("argv", [
        ("heattrace", "--case", "b", "--k", "0.5", "--t", "5e-324"),
        ("heattrace", "--case", "d", "--k", "0.5", "--t", "5e-324"),
        ("heattrace", "--case", "nahm", "--t", "5e-324"),
        ("heattrace", "--case", "c", "--b", "0.3", "--t", "5e-324"),
        ("heattrace", "--case", "c", "--b", "1", "--t", "5e-324")])
    def test_subnormal_time_prints_the_series_value(self, capsys, argv):
        # the heat-kernel series holds at a subnormal t: per length the
        # Weyl term 1/sqrt(4 pi t) of a period, the closed form of a kink
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        header, rows = parse_csv(out)
        t = float(rows[0][header.index("t")])
        if "c" in argv:
            b = float(argv[argv.index("--b") + 1])
            want = (math.erf(2.0 * b * math.sqrt(t))
                    + math.exp(-3.0 * b * b * t) * math.erf(b * math.sqrt(t)))
            got = float(rows[0][header.index("total")])
        else:
            # 4 pi t would round in the subnormal range; sqrt(t) is exact
            want = 1.0 / (2.0 * math.sqrt(math.pi) * math.sqrt(t))
            got = float(rows[0][header.index("total_per_length")])
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k, t", [("0.5", "1e-300"), ("0.9", "1e-220")])
    def test_top_band_keeps_its_weyl_term(self, capsys, k, t):
        # above lambda ~ 1e205 the density's product of sqrt|p - r| would
        # overflow; the trace per length is the Weyl term 1/sqrt(4 pi t)
        code, out, _ = run_cli(capsys, "heattrace", "--case", "b", "--k", k,
                               "--t", t)
        assert code == 0
        header, rows = parse_csv(out)
        per_len = float(rows[0][header.index("total_per_length")])
        assert per_len == pytest.approx(1.0 / math.sqrt(4.0 * math.pi * float(t)),
                                        rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ("zeta", "--case", "nahm", "--s", "0.49"),
        ("zeta", "--case", "d", "--k", "0.9", "--s", "0.48")])
    def test_strip_edge_values_exit_0(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert all(math.isfinite(float(cell)) for cell in rows[0][1:3])

    @pytest.mark.parametrize("argv", [
        ("zeta", "--case", "a", "--s=-1"),
        ("zeta", "--case", "b", "--k", "0.5", "--s", "0.7")])
    def test_out_of_strip_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("s", ["-0.5", "-1.5", "-2.5"])
    def test_kink_zeta_at_a_mellin_pole_left_of_the_strip_exit_2(self, capsys, s):
        # the contour's strip check runs before the Mellin route meets its
        # pole at s = -1/2 - n, so these are bad input, not a numerical failure
        code, out, err = run_cli(capsys, "zeta", "--case", "a", f"--s={s}")
        assert (code, out) == (2, "")
        assert err == "error: contour zeta requires Re s > -1/2\n"

    @pytest.mark.parametrize("argv", [
        ("zeta", "--case", "a", "--s", "0.1,zz"),
        ("figure-z", "--n", "3", "--d", "1,x"),
        ("oracle", "--case", "a", "--mode", "eigen", "--count", "0"),
        ("heattrace", "--case", "a", "--t", "nan"),
        ("heattrace", "--case", "a", "--t", "inf"),
        ("correction", "--m", "nan"),
        ("correction", "--m", "1", "--hbar", "nan"),
        ("figure-z", "--m-min", "nan"),
        ("solution", "--family", "gl", "--m", "nan", "--kink"),
        ("zeta", "--case", "a", "--b", "nan"),
        ("resolvent", "--case", "a", "--b", "1e200"),
        ("oracle", "--case", "nahm", "--b", "nan"),
        ("resolvent", "--case", "a", "--b", "1e-200"),
        ("resolvent", "--case", "d", "--k", "0.5", "--b", "1e-45"),
        ("heattrace", "--case", "a", "--b", "1e-200"),
        ("zeta", "--case", "a", "--b", "1e-200"),
        ("zeta", "--case", "a", "--method-tol", "nan"),
        ("zeta", "--case", "a", "--method-tol", "inf"),
        ("zeta", "--case", "a", "--method-tol=-1"),
        ("resolvent", "--case", "c", "--b", "1e80"),
        ("resolvent", "--case", "d", "--k", "0.5", "--b", "1e80"),
        ("resolvent", "--case", "nahm", "--b", "1e80"),
        ("zeta", "--case", "d", "--k", "0.5", "--b", "1e80"),
        ("zeta", "--case", "d", "--k", "1e-5"),
        ("energy", "--family", "sg", "--m", "1e200", "--g", "1", "--kink"),
        ("energy", "--family", "gl", "--m", "1e200", "--g", "1", "--kink"),
        ("solution", "--family", "nahm", "--w", "1e200"),
        ("energy", "--family", "gl", "--m", "1", "--g", "1e-300", "--kink"),
        ("solution", "--family", "gl", "--m", "1", "--g", "1e-300", "--kink",
         "--n", "3"),
        ("solution", "--family", "nahm", "--w", "1e76", "--n", "201"),
        ("energy", "--family", "sg", "--m", "1e-300", "--g", "1e20", "--kink"),
        ("solution", "--family", "sg", "--m", "1e-300", "--g", "1e60", "--kink",
         "--n", "3"),
        ("solution", "--family", "gl", "--kink", "--x-min", "-1"),
        ("solution", "--family", "gl", "--kink", "--x-max", "1"),
        ("solution", "--family", "gl", "--kink", "--x-min", "-1", "--x-max", "inf"),
        ("solution", "--family", "gl", "--kink", "--x-min", "nan", "--x-max", "1"),
        # values, periods and traces that overflow
        ("correction", "--m", "1e200", "--d", "4"),
        ("correction", "--m", "1e300", "--d", "3"),
        ("figure-z", "--m-min", "1e-8", "--m-max", "1e300", "--n", "5",
         "--d", "1,2,3,4"),
        ("solution", "--family", "nahm", "--w", "5e-324", "--n", "11"),
        ("solution", "--family", "gl", "--m", "5e-324", "--w", "1e154",
         "--k", "1e-10", "--n", "2"),
        ("oracle", "--case", "a", "--mode", "trace", "--n", "120", "--t", "1e5"),
        ("oracle", "--case", "a", "--mode", "trace", "--n", "120",
         "--t", "1e300"),
        # past the kink zeta routes' Re s bound
        ("zeta", "--case", "a", "--s", "100"),
        ("zeta", "--case", "a", "--s", "170"),
        ("zeta", "--case", "a", "--s", "1e8"),
        ("zeta", "--case", "c", "--s", "1e4"),
        # energy densities that underflow
        ("energy", "--family", "sg", "--m", "1e-100", "--kink"),
        ("energy", "--family", "gl", "--m", "1e-80", "--kink")])
    def test_bad_argument_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("argv,message", [
        (("zeta", "--case", "c", "--b", "1e-30", "--s", "9"), "bound-state term"),
        (("solution", "--family", "sg", "--k", "0.5", "--x-min=-1e308",
          "--x-max=1e308", "--n", "3"), "--x-min and --x-max")])
    def test_overflow_names_its_cause_exit_2(self, capsys, argv, message):
        # an overflowing bound-state term and an overflowing grid span: one
        # error line that names the cause, and no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("n", [1, 0, -3])
    @pytest.mark.parametrize("argv", [
        ("solution", "--family", "gl", "--kink"),
        ("figure-z",)])
    def test_sample_count_below_two_exit_2(self, capsys, argv, n):
        code, out, err = run_cli(capsys, *argv, f"--n={n}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.strip().count("\n") == 0

    def test_byte_identical_reruns(self, capsys):
        args = ("zeta", "--case", "b", "--k", "0.5", "--s", "0.3,-0.2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "energy", "--family", "sg", "--m", "2",
                            "--g", "1", "--kink")
        _, rows = parse_csv(out)
        cell = rows[0][2]
        mantissa = cell.split("e")[0].replace(".", "").replace("-", "")
        assert len(mantissa) >= 12

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "--out", str(target), "energy",
                               "--family", "sg", "--m", "2", "--g", "1",
                               "--kink")
        assert code == 0 and out == ""
        assert target.read_text().startswith("family,kind,")


class TestSharedParser:
    """main parses with one parser built at import; build_parser still
    returns a fresh one."""

    RUNS = [("solution", "--family", "nahm", "--n", "11"),
            ("heattrace", "--case", "b", "--k", "0.5", "--t", "0.25,1"),
            ("--format", "json", "energy", "--family", "sg", "--m", "2",
             "--kink"),
            ("zeta", "--case", "a", "--s", "0.1,0.25")]
    DETOURS = [(2, ("zeta", "--case", "x")),
               (2, ("solution", "--family", "gl", "--n", "many")),
               (2, ("--format", "xml", "resolvent", "--case", "a")),
               (0, ("--help",)),
               (0, ("heattrace", "--help"))]

    def test_same_bytes_after_errors_and_help(self, capsys):
        first = [run_cli(capsys, *argv) for argv in self.RUNS]
        assert all(code == 0 for code, _, _ in first)
        for want, argv in self.DETOURS:
            code, out, err = run_cli(capsys, *argv)
            assert code == want
            assert (out.startswith("usage: kinkzeta") if want == 0
                    else out == "" and "usage: kinkzeta" in err)
            assert [run_cli(capsys, *a) for a in self.RUNS] == first

    def test_build_parser_returns_a_fresh_parser(self):
        from kinkzeta import cli
        a, b = cli.build_parser(), cli.build_parser()
        assert a is not b and cli._PARSER not in (a, b)
        for argv in self.RUNS:
            assert vars(a.parse_args(list(argv))) == vars(
                cli._PARSER.parse_args(list(argv)))
