import numpy as np
import pytest

from effbath.cli import main
from effbath.scenarios import worker_count


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def test_spectral_subcommand_default_params(tmp_path):
    assert main(["spectral", "--out", str(tmp_path), "--points", "200"]) == 0
    data = read_csv(tmp_path / "spectral.csv")
    assert data.dtype.names == ("omega", "J_ohmic", "J_linear_eff", "J_nonlinear_eff",
                                "chi_imag", "G_eff")
    assert data["omega"].size == 200
    assert np.all(data["J_nonlinear_eff"] > 0)
    assert np.all(data["chi_imag"] < 0)


def test_correlation_subcommand(tmp_path):
    assert main(["correlation", "--out", str(tmp_path), "--points", "7", "--tau-max", "3.0"]) == 0
    data = read_csv(tmp_path / "correlation.csv")
    assert data.dtype.names == ("tau", "S_quad", "R_quad", "S_closed", "R_closed",
                                "S0", "S1", "R0", "R1")
    assert data["tau"][0] == 0.0 and data["S_quad"][0] == 0.0


def test_niba_and_spectrum_round_trip(tmp_path):
    out = tmp_path / "run"
    assert main(["niba", "--out", str(out), "--horizon", "40"]) == 0
    trace = read_csv(out / "P_niba.csv")
    assert trace["P"][0] == 1.0

    assert main(["spectrum", str(out / "P_niba.csv"), "--out", str(out),
                 "--pad", "8", "--peaks", "2"]) == 0
    spec = read_csv(out / "spectrum.csv")
    assert spec.dtype.names == ("omega", "magnitude")
    peaks = dict(line.split("=") for line in (out / "peaks.txt").read_text().splitlines())
    assert float(peaks["peak1_omega"]) < float(peaks["peak2_omega"])


def test_niba_alpha_zero_flag(tmp_path):
    assert main(["niba", "--out", str(tmp_path), "--horizon", "20", "--alpha-zero"]) == 0
    assert (tmp_path / "P_niba.csv").exists()


def test_wda_subcommand(tmp_path):
    assert main(["wda", "--out", str(tmp_path), "--horizon", "50"]) == 0
    trace = read_csv(tmp_path / "P_wda.csv")
    assert trace["P"][0] == 1.0
    report = dict(line.split("=") for line in (tmp_path / "wda_report.txt").read_text().splitlines())
    for key in ("omega_plus", "omega_minus", "bs_shift", "kappa_plus", "kappa_minus", "u0_abs"):
        assert key in report
    assert float(report["omega_minus"]) > float(report["omega_plus"])


def test_figure_fig2_bundle_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["figure", "fig2", "--out", str(out1)]) == 0
    assert main(["figure", "fig2", "--out", str(out2)]) == 0
    for name in ("spectral.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = dict(line.split("=") for line in (out1 / "summary.txt").read_text().splitlines())
    assert float(summary["jeff_peak_omega"]) == pytest.approx(1.06, abs=1e-3)
    assert summary["regime_flags"] == "none"


def test_figure_fig3_bundle(tmp_path):
    assert main(["figure", "fig3", "--out", str(tmp_path)]) == 0
    for name in ("P_niba.csv", "P_wda.csv", "summary.txt"):
        assert (tmp_path / name).exists()
    summary = dict(line.split("=") for line in (tmp_path / "summary.txt").read_text().splitlines())
    assert float(summary["bs_shift"]) == pytest.approx(0.3492, rel=1e-6)
    assert float(summary["weight_plus"]) + float(summary["weight_minus"]) == 1.0


def test_cli_reports_match_the_figure_summary(tmp_path):
    def entries(path):
        return dict(line.split("=") for line in path.read_text().splitlines())

    fig3 = tmp_path / "fig3"
    assert main(["figure", "fig3", "--out", str(fig3)]) == 0
    assert main(["spectrum", str(fig3 / "P_niba.csv"), "--out", str(tmp_path / "spectrum"),
                 "--pad", "8", "--peaks", "2"]) == 0
    assert main(["wda", "--out", str(tmp_path / "wda")]) == 0
    summary = entries(fig3 / "summary.txt")
    peaks = entries(tmp_path / "spectrum" / "peaks.txt")
    assert list(peaks) == ["fft_bin", "peak1_omega", "peak1_height", "peak1_half_width",
                           "peak2_omega", "peak2_height", "peak2_half_width", "peak_shortage"]
    assert peaks == {key: summary[f"niba_{key}"] for key in peaks}
    report = entries(tmp_path / "wda" / "wda_report.txt")
    assert report == {key: summary[key] for key in report}
    assert float(report["weight_plus"]) + float(report["weight_minus"]) == 1.0


def test_figure_fig8_twin_spectra(tmp_path, monkeypatch):
    monkeypatch.setenv("EFFBATH_THREADS", "2")
    assert main(["figure", "fig8", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "spectrum_niba_nonlinear.csv").exists()
    assert (tmp_path / "spectrum_niba_linear.csv").exists()
    summary = dict(line.split("=") for line in (tmp_path / "summary.txt").read_text().splitlines())
    # nonlinearity pushes both resonances up
    assert float(summary["nonlinear_peak1_omega"]) > float(summary["linear_peak1_omega"])
    assert float(summary["nonlinear_peak2_omega"]) > float(summary["linear_peak2_omega"])


def test_custom_pipeline(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("Omega=1\nalpha=0.01\ng=0.1\ngamma=0.08\nbeta=10\nDelta=1\nepsilon=0\n")
    out = tmp_path / "out"
    assert main(["custom", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("spectral.csv", "P_niba.csv", "P_wda.csv", "spectrum_niba.csv", "summary.txt"):
        assert (out / name).exists()


def test_strict_regime_violation_exit_code(tmp_path):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("Omega=1\nalpha=0.02\ng=1.5\ngamma=0.1\nbeta=10\nDelta=1\nepsilon=0\n")
    with pytest.warns(UserWarning):
        code = main(["spectral", "--config", str(cfg), "--out", str(tmp_path), "--strict"])
    assert code == 2
    with pytest.warns(UserWarning):
        assert main(["spectral", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_missing_config_errors(tmp_path):
    assert main(["custom", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1


def test_unknown_figure_tag_usage_error():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_global_flag_placement(tmp_path):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("Omega=1\nalpha=0.02\ng=1.5\ngamma=0.1\nbeta=10\nDelta=1\nepsilon=0\n")
    with pytest.warns(UserWarning):
        code = main(["--strict", "--config", str(cfg), "--out", str(tmp_path), "spectral"])
    assert code == 2


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("EFFBATH_THREADS", raising=False)
    assert worker_count() == 2
    monkeypatch.setenv("EFFBATH_THREADS", "5")
    assert worker_count() == 5
    monkeypatch.setenv("EFFBATH_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
