"""Command-line interface: formats, determinism, exit codes, contracts."""

import json
import math

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

    def test_method_disagreement_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--case", "a", "--b", "1",
                               "--s", "0.25", "--method-tol", "1e-18")
        assert code == 3
        assert "disagreement" in err

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
        ("zeta", "--case", "a", "--method-tol=-1")])
    def test_bad_argument_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
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
