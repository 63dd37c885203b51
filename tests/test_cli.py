import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rydeit.cli import main

SPECTRUM_ARGS = [
    "spectrum", "--alpha", "81", "--omega-c", "1.0", "--omega-p-in", "0.2",
    "--delta-c", "1.0", "--strength", "0.35", "--grid=-0.3:0.3:121",
    "--no-timestamp",
]


def read_csv(path):
    def cell(v):
        try:
            return float(v)
        except ValueError:
            return v

    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    return rows[0], [[cell(v) for v in r] for r in rows[1:]]


class TestSpectrum:
    def test_peak_near_resonance_at_positive_detuning(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(SPECTRUM_ARGS + ["--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header[:6] == ["delta", "transmission_no_ddi",
                              "transmission_ddi", "phase_no_ddi", "phase_ddi",
                              "quadrature_error"]
        # the interaction moves the peak only slightly at positive coupling
        # detuning: the row maximum must sit within a couple of grid steps of
        # the closed-form shift (-0.008 here), i.e. still "around zero" on
        # the scale of the EIT window
        best = max(rows, key=lambda r: r[2])
        assert abs(best[0]) < 0.012
        # without the interaction the peak row is exactly at resonance
        best0 = max(rows, key=lambda r: r[1])
        assert abs(best0[0]) < 0.005
        assert best0[1] == pytest.approx(1.0, abs=1e-12)

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(SPECTRUM_ARGS + ["--output", str(a)]) == 0
        assert main(SPECTRUM_ARGS + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_header_default(self, tmp_path, capsys):
        args = [a for a in SPECTRUM_ARGS if a != "--no-timestamp"]
        rc = main(args + ["--grid=-0.1:0.1:5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# generated ")

    def test_json_format(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = main(SPECTRUM_ARGS + ["--format", "json", "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["alpha"] == 81
        assert len(doc["rows"]) == 121
        assert doc["columns"][0] == "delta"
        assert "generated" not in doc

    def test_full_precision_round_trip(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(SPECTRUM_ARGS + ["--output", str(out)])
        header, rows = read_csv(out)
        # recompute a derived column from the same config through the same
        # pipeline: bit-identical after the 17-significant-digit round trip
        from rydeit import EitParams
        from rydeit.analysis import sweep
        eit = EitParams(omega_c=1.0, alpha=81.0, omega_p_in=0.2, delta_c=1.0)
        again = sweep(eit, None, "probe", np.linspace(-0.3, 0.3, 121),
                      with_ddi=False)
        for i in range(0, len(rows), 30):
            assert float(f"{again.transmission[i]:.17g}") == rows[i][1]
            assert float(f"{again.grid[i]:.17g}") == rows[i][0]

    def test_quadrature_flags_leave_spectrum_unchanged(self, tmp_path):
        # the shift average is a closed form: a tolerance and panel budget
        # no quadrature could meet change nothing and flag nothing
        out, ref = tmp_path / "spec.csv", tmp_path / "ref.csv"
        plot = tmp_path / "spec.svg"
        rc = main(SPECTRUM_ARGS + ["--output", str(out), "--tol", "1e-15",
                                   "--max-panels", "13", "--plot", str(plot)])
        assert rc == 0
        assert main(SPECTRUM_ARGS + ["--output", str(ref)]) == 0
        assert out.read_bytes() == ref.read_bytes()
        header, rows = read_csv(out)
        assert "warning" not in header
        assert plot.read_text().count("<polyline") == 2

    def test_coupling_axis(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--alpha", "81", "--omega-c", "1.0",
                   "--omega-p-in", "0.1", "--delta-p", "0.5",
                   "--strength", "0.35", "--axis", "coupling",
                   "--grid=-0.3:0.3:61", "--no-timestamp",
                   "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        best = max(rows, key=lambda r: r[1])
        assert abs(best[0]) < 0.006  # no-DDI peak at two-photon resonance

    def test_plot_emitted(self, tmp_path):
        out = tmp_path / "spec.csv"
        plot = tmp_path / "spec.svg"
        rc = main(SPECTRUM_ARGS + ["--output", str(out), "--plot", str(plot)])
        assert rc == 0
        svg = plot.read_text()
        # the two transmission branches
        assert svg.count("<polyline") == 2


class TestDdiCommand:
    def test_vs_probe_power(self, tmp_path):
        out = tmp_path / "ddi.csv"
        rc = main(["ddi", "--alpha", "81", "--omega-c", "1.0",
                   "--omega-p-in", "0.1", "--strength", "0.35",
                   "--grid", "0.005:0.04:8", "--no-timestamp",
                   "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["probe_power", "delta_beta_quad", "delta_phi_quad",
                          "delta_beta_analytic", "delta_phi_analytic"]
        for r in rows:
            assert r[1] == pytest.approx(r[3], rel=0.02)
            assert r[2] == pytest.approx(r[4], rel=0.06)

    def test_vs_delta_c(self, tmp_path):
        out = tmp_path / "ddi.csv"
        rc = main(["ddi", "--alpha", "81", "--omega-c", "1.0",
                   "--omega-p-in", "0.1", "--strength", "0.35",
                   "--x", "delta-c", "--grid=-2:2:9", "--no-timestamp",
                   "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header[0] == "delta_c"
        by_dc = {r[0]: r for r in rows}
        assert by_dc[-1.0][1] > by_dc[1.0][1]   # attenuation asymmetry
        assert by_dc[1.0][2] > by_dc[-1.0][2]   # phase asymmetry


class TestPeakShift:
    def test_formula_vs_numerical(self, tmp_path):
        out = tmp_path / "peak.csv"
        rc = main(["peak-shift", "--alpha", "81", "--omega-c", "1.0",
                   "--omega-p-in", "0.2", "--strength", "0.35",
                   "--grid=-1:1:3", "--no-timestamp", "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["delta_c", "shift_formula", "shift_numerical"]
        for r in rows:
            assert r[1] == pytest.approx(r[2], rel=0.1)


    def test_interior_peak_below_higher_edge(self, tmp_path):
        # regression: the delta_c = 1.5 row was flagged "peak not
        # bracketed" although its spectrum has an interior peak near 0.1599
        # (the shift formula gives 0.112); the window edge is just higher
        out = tmp_path / "peak.csv"
        rc = main(["peak-shift", "--alpha=119.39686545030136",
                   "--omega-c=0.9126374303364523",
                   "--omega-p-in=0.27613299879749276",
                   "--delta-c=-0.05247849668819393",
                   "--gamma0=0.02040746432766717",
                   "--strength=0.8853320519510456", "--positive-c6",
                   "--axis=probe", "--no-timestamp", "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["delta_c", "shift_formula", "shift_numerical"]
        by_dc = {r[0]: r for r in rows}
        assert by_dc[1.5][1] == pytest.approx(0.112, abs=1e-3)
        assert by_dc[1.5][2] == pytest.approx(0.1599, abs=5e-4)


class TestFit:
    def make_slope_table(self, path, epsilon=0.43):
        from rydeit import EitParams
        from rydeit.analytic import unit_power_slopes
        import dataclasses
        x = math.sqrt(260.0 / 6.0) * 0.05 * epsilon
        eit = EitParams(omega_c=1.0, alpha=81.0, gamma0=0.012)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["delta_c", "slope_beta", "slope_phi"])
            for dc in (-2.0, -1.0, 0.0, 1.0, 2.0):
                point = dataclasses.replace(eit, delta_c=dc, delta_p=-dc)
                gb, gp = unit_power_slopes(point)
                w.writerow([dc, gb * x, gp * x])

    def test_round_trip(self, tmp_path):
        table = tmp_path / "slopes.csv"
        self.make_slope_table(table)
        out = tmp_path / "fit.csv"
        rc = main(["fit", "--alpha", "81", "--omega-c", "1.0",
                   "--gamma0", "0.012", "--c6", "-43.333333333333336",
                   "--n-atom", "0.05", "--input", str(table),
                   "--no-timestamp", "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        fit = dict(zip(header, rows[0]))
        assert fit["epsilon"] == pytest.approx(0.43, abs=1e-6)

    def test_unidentifiable_exit_code(self, tmp_path):
        table = tmp_path / "slopes.csv"
        table.write_text("delta_c,slope_beta,slope_phi\n0.0,0.0,0.0\n")
        rc = main(["fit", "--alpha", "81", "--omega-c", "1.0",
                   "--c6", "-43.3", "--n-atom", "0.05",
                   "--input", str(table), "--no-timestamp"])
        assert rc == 4

    def test_missing_file_is_usage_error(self, tmp_path):
        rc = main(["fit", "--alpha", "81", "--omega-c", "1.0",
                   "--c6", "-43.3", "--n-atom", "0.05", "--epsilon", "1.0",
                   "--input", str(tmp_path / "nope.csv"), "--no-timestamp"])
        assert rc == 2


class TestCheck:
    def test_experimental_regime(self, tmp_path):
        out = tmp_path / "check.csv"
        rc = main(["check", "--alpha", "81", "--omega-c", "1.0",
                   "--omega-p-in", "0.2", "--c6", "-43.333333333333336",
                   "--n-atom", "0.05", "--epsilon", "1.0", "--no-timestamp",
                   "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        report = {r[0]: r[1] for r in rows}
        assert float(report["blockade_ratio"]) == pytest.approx(0.078, abs=0.002)
        assert float(report["r_b_um3"]) == pytest.approx(9.3, rel=0.02)

    def test_mhz_units(self, tmp_path):
        # gamma = 6 MHz base; inputs in MHz / MHz um^6 (common 2pi convention
        # cancels in the ratios)
        out = tmp_path / "check.csv"
        rc = main(["check", "--alpha", "81", "--omega-c", "6.0",
                   "--omega-p-in", "1.2", "--c6", "-260.0",
                   "--n-atom", "0.05", "--epsilon", "1.0",
                   "--gamma-mhz", "6.0", "--no-timestamp",
                   "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        report = {r[0]: r[1] for r in rows}
        assert float(report["blockade_ratio"]) == pytest.approx(0.078, abs=0.002)


class TestSample:
    def test_deterministic_for_seed(self, tmp_path):
        args = ["sample", "--alpha", "81", "--omega-c", "1.0",
                "--omega-p-in", "0.2", "--strength", "0.35",
                "--count", "500", "--seed", "9", "--no-timestamp"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header, rows = read_csv(a)
        assert header == ["omega"]
        assert len(rows) == 500
        assert all(r[0] > 0 for r in rows)

    def test_different_seed_differs(self, tmp_path):
        base = ["sample", "--alpha", "81", "--omega-c", "1.0",
                "--omega-p-in", "0.2", "--strength", "0.35",
                "--count", "100", "--no-timestamp"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(base + ["--seed", "1", "--output", str(a)])
        main(base + ["--seed", "2", "--output", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestUsageErrors:
    def test_unknown_argument_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--alpha", "81", "--omega-c", "1",
                  "--omega-p-in", "0.1", "--strength", "0.35",
                  "--bogus-key", "1"])
        assert info.value.code == 2

    def test_missing_strength(self):
        rc = main(["spectrum", "--alpha", "81", "--omega-c", "1",
                   "--omega-p-in", "0.1", "--no-timestamp"])
        assert rc == 2

    def test_conflicting_ddi_inputs(self):
        rc = main(["spectrum", "--alpha", "81", "--omega-c", "1",
                   "--omega-p-in", "0.1", "--strength", "0.35",
                   "--c6", "-43", "--n-atom", "0.05", "--epsilon", "1",
                   "--no-timestamp"])
        assert rc == 2

    def test_bad_grid(self):
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--alpha", "81", "--omega-c", "1",
                  "--omega-p-in", "0.1", "--strength", "0.35",
                  "--grid", "0:1:1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("flag", ["--omega-c", "--alpha"])
    def test_non_finite_input_is_usage_error(self, flag, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        args = ["spectrum", "--alpha", "81", "--omega-c", "1.0",
                "--omega-p-in", "0.1", "--strength", "0.35",
                "--no-timestamp", "--output", str(out)]
        args[args.index(flag) + 1] = "nan"
        assert main(args) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rydeit.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "spectrum" in proc.stdout


def test_cli_import_leaves_scipy_out():
    # scipy would add about 0.24 s and 24 MB to every CLI start
    code = ("import sys, rydeit.cli; "
            "sys.exit(1 if 'scipy' in sys.modules else 0)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
