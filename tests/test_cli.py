import ast
import subprocess
import sys
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import effbath
from effbath import cli, scenarios
from effbath.cli import main
from effbath.gme import simulate_population
from effbath.params import build_params
from effbath.scenarios import FIGURE_PARAMS, run_scenario, write_csv

SRC = Path(effbath.__file__).resolve().parent.parent


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


_BUNDLES = {
    "fig2": ("spectral.csv", "summary.txt"),
    "fig3": ("P_niba.csv", "P_wda.csv", "summary.txt"),
    "fig4": ("spectrum_niba.csv", "spectrum_wda.csv", "summary.txt"),
    "fig5": ("P_niba.csv", "P_wda.csv", "summary.txt"),
    "fig6": ("spectrum_niba.csv", "spectrum_wda.csv", "summary.txt"),
    "fig7": ("P_niba_linear.csv", "P_niba_nonlinear.csv", "P_wda_linear.csv", "P_wda_nonlinear.csv",
             "summary.txt"),
    "fig8": ("spectrum_niba_linear.csv", "spectrum_niba_nonlinear.csv", "summary.txt"),
}


@pytest.mark.parametrize("tag", sorted(_BUNDLES))
def test_figure_bundle_and_determinism(tmp_path, tag):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["figure", tag, "--out", str(out1)]) == 0
    assert main(["figure", tag, "--out", str(out2)]) == 0
    assert sorted(path.name for path in out1.iterdir()) == list(_BUNDLES[tag])
    for name in _BUNDLES[tag]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        if name.startswith("spectrum_"):
            # the band omega <= 3*Omega (Omega = 1 here), not the bins up to Nyquist
            omega = read_csv(out1 / name)["omega"]
            assert omega.size == 383 and omega[-1] <= 3.0 < 2 * omega[-1] - omega[-2]
    summary = dict(line.split("=") for line in (out1 / "summary.txt").read_text().splitlines())
    assert summary["regime_flags"] == "none"
    if tag == "fig2":
        assert float(summary["jeff_peak_omega"]) == pytest.approx(1.06, abs=1e-3)
    elif tag in ("fig7", "fig8"):
        # the nonlinear variant's entries come first, then its alpha = 0 twin's
        twins = [key.split("_", 1)[0] for key in summary if key.startswith(("nonlinear_", "linear_"))]
        assert twins == ["nonlinear"] * (len(twins) // 2) + ["linear"] * (len(twins) // 2)
        assert float(summary["nonlinear_bs_shift"]) == pytest.approx(0.3492, rel=1e-12)
        assert float(summary["linear_bs_shift"]) == pytest.approx(2 * 0.18, rel=1e-12)


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


def test_figure_fig8_twin_spectra(tmp_path):
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


def _fig3_config(tmp_path, delta):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in dict(FIGURE_PARAMS["fig3"], Delta=delta).items()))
    return cfg


def test_custom_at_zero_tunneling_writes_its_bundle(tmp_path):
    # at Delta = 0 both traces hold P = 1, so the NIBA spectrum has no line:
    # the summary keeps its bin width and the shortage, and names no peak
    out = tmp_path / "out"
    assert main(["custom", "--config", str(_fig3_config(tmp_path, 0.0)), "--out", str(out)]) == 0
    for name in ("spectral.csv", "P_niba.csv", "P_wda.csv", "spectrum_niba.csv", "spectrum_wda.csv"):
        assert (out / name).exists()
    summary = dict(line.split("=") for line in (out / "summary.txt").read_text().splitlines())
    assert float(summary["niba_fft_bin"]) > 0.0 and summary["niba_peak_shortage"] == "1"
    assert not any(key.startswith("niba_peak") and key != "niba_peak_shortage" for key in summary)


@pytest.mark.parametrize("command", ["wda", "custom"])
def test_a_vanishing_delta_writes_finite_files(tmp_path, command):
    # Omega_plus is about Delta = 1e-9, far below the rounding of Omega1**2
    out = tmp_path / "out"
    assert main([command, "--config", str(_fig3_config(tmp_path, 1e-9)), "--out", str(out)]) == 0
    assert (out / "P_wda.csv").exists()
    for path in out.glob("*.csv"):
        assert np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1)).all(), path.name


@pytest.mark.parametrize("delta", [1e80, 1e200])
def test_a_delta_past_the_double_range_is_one_error_line(tmp_path, capsys, delta):
    # Delta**2 or the pole equation's squares overflow: a typed error, not an OverflowError
    out = tmp_path / "out"
    assert main(["wda", "--config", str(_fig3_config(tmp_path, delta)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("effbath: error: pole equation") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["niba", "wda", "custom"])
@pytest.mark.parametrize("delta", [1e13, 1e78, 1e308])
def test_a_grid_too_large_to_hold_is_one_error_line(tmp_path, capsys, command, delta):
    # the default step resolves Delta, so the grid holds 1e17 steps or more (at 1e308 the
    # step underflows to 0); it is refused before any array is made.  wda builds its
    # poles first, and past Delta = 1e78 their squares overflow
    out = tmp_path / "out"
    assert main([command, "--config", str(_fig3_config(tmp_path, delta)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("effbath: error: ") and err.count("\n") == 1
    expected = "pole equation" if command == "wda" and delta >= 1e78 else "steps, more than the 1e+08 a run can hold"
    assert expected in err
    assert not out.exists()


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


def test_a_config_typo_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("Omega=1\nalpha=0.01\ng=0.1\ngamma=0.08\nbeta=10\nDelta=1\nepsilon=0\nMass=4\nq_0=3\n")
    assert main(["custom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("effbath: error: ") and "Mass" in err and "q_0" in err
    assert not (tmp_path / "out").exists()
    # a repeated key is not resolved to its last value, and a word is not a number
    good = "Omega=1\nalpha=0.01\ng=0.18\ngamma=0.08\nbeta=10\nDelta=1\nepsilon=0\n"
    for name, text, where in (("twice.cfg", good + "g=0.018\n", ":8: g is set twice"),
                              ("word.cfg", good.replace("beta=10", "beta=abc"), ":5: beta = 'abc' is not a number")):
        cfg = tmp_path / name
        cfg.write_text(text)
        assert main(["wda", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("effbath: error: ") and f"{cfg}{where}" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["wda", "niba"])
def test_a_nonlinearity_past_omega_over_6_is_a_usage_error(tmp_path, capsys, command):
    # 1 - 6*alpha/Omega = -0.2 would make the effective spectral density negative
    cfg = tmp_path / "strong.cfg"
    cfg.write_text("Omega=1\nalpha=0.2\ng=0.18\ngamma_over_2piOmega=0.0154\nbeta=10\nDelta=1\nepsilon=0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the nonlinearity-window regime flag
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("effbath: error: alpha = 0.2 exceeds Omega/6")
    assert not (tmp_path / "out").exists()


def test_an_empty_config_names_the_missing_key(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    assert main(["custom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "effbath: error: missing key Omega; the keys required are Omega, alpha, g, beta, Delta, epsilon"
        " and gamma (or gamma_over_2piOmega)\n"
    )


@pytest.mark.parametrize("argv", [
    ["niba", "--step", "0"],
    ["wda", "--step", "0"],
    ["niba", "--step", "-0.01", "--horizon", "1"],
    ["niba", "--horizon", "-5"],
    ["wda", "--step", "inf"],
    ["wda", "--horizon", "nan"],
    ["niba", "--step", "1e-300", "--horizon", "1e300"],
    ["wda", "--step", "1e-300", "--horizon", "1e300"],
    ["spectral", "--points", "0"],
    ["correlation", "--points", "0"],
    ["spectral", "--omega-max", "nan"],
    ["spectral", "--omega-max", "inf"],
    ["spectral", "--omega-max", "0"],
    ["correlation", "--tau-max", "nan"],
    ["correlation", "--tau-max", "inf"],
    ["correlation", "--tau-max", "0"],
    ["spectrum", "--omega-max", "nan"],
    ["spectrum", "--omega-max", "inf"],
    ["spectrum", "--omega-max", "0"],
    ["spectrum", "--omega-max", "-1"],
], ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv))
def test_a_bad_grid_is_a_usage_error(tmp_path, tmp_path_factory, capsys, argv):
    if argv[0] == "spectrum":  # a good trace, written outside tmp_path
        trace = tmp_path_factory.mktemp("trace") / "P.csv"
        t = np.arange(101.0)
        write_csv(trace, ["t", "P"], [t, np.cos(0.3 * t)])
        argv = [argv[0], str(trace), *argv[1:]]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("effbath: error: ") and err.count("\n") == 1
    assert argv[0] != "spectrum" or "omega_max" in err
    assert not (tmp_path / "out").exists()


def test_unknown_figure_tag_usage_error():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_run_scenario_rejects_an_unknown_tag_before_writing(tmp_path, monkeypatch):
    with pytest.raises(ValueError, match="fig9"):
        run_scenario("fig9", build_params(FIGURE_PARAMS["fig3"]))
    # a known tag returns its bundle and writes nothing, not even into the working directory
    monkeypatch.chdir(tmp_path)
    bundle = run_scenario("fig2", build_params(FIGURE_PARAMS["fig2"]))
    assert list(bundle) == ["spectral.csv", "summary.txt"] and not list(tmp_path.iterdir())


def test_a_run_that_fails_late_writes_nothing(tmp_path, monkeypatch, capsys):
    # the spectral table is the last piece of a custom bundle; the traces and spectra before it exist by then
    def fail(p, omega):
        raise ValueError("spectral densities failed")

    monkeypatch.setattr(scenarios, "_spectral_columns", fail)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("Omega=1\nalpha=0.01\ng=0.1\ngamma=0.08\nbeta=10\nDelta=1\nepsilon=0\n")
    assert main(["custom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "spectral densities failed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_failed_write_leaves_no_new_file(tmp_path, capsys):
    # a directory named P_wda.csv stops the fig3 bundle after P_niba.csv is written
    out = tmp_path / "out"
    (out / "P_wda.csv").mkdir(parents=True)
    (out / "notes.txt").write_text("kept\n")
    before = sorted(out.rglob("*"))
    assert main(["figure", "fig3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("effbath: error: ") and err.count("\n") == 1
    assert sorted(out.rglob("*")) == before
    assert (out / "notes.txt").read_text() == "kept\n"


def test_a_failed_write_removes_the_directories_it_made(tmp_path, monkeypatch, capsys):
    # the second file of the bundle fails after it was opened; --out and its new parent go too
    calls = []

    def write_then_fail(path, header, columns):
        calls.append(path)
        write_csv(path, header, columns)
        if len(calls) == 2:
            raise OSError("disk full")

    monkeypatch.setattr(cli, "write_csv", write_then_fail)
    assert main(["figure", "fig3", "--out", str(tmp_path / "new" / "out")]) == 1
    assert capsys.readouterr().err == "effbath: error: disk full\n"
    assert len(calls) == 2 and not list(tmp_path.iterdir())


def test_a_failed_write_keeps_the_files_of_an_earlier_run(tmp_path, monkeypatch, capsys):
    # the second run writes other bytes and fails at P_wda.csv, after P_niba.csv; --out keeps the first run
    out = tmp_path / "out"
    assert main(["figure", "fig3", "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    def write_other_bytes(path, header, columns):
        Path(path).write_bytes(b"t,P\n0,0\n")
        if "P_wda.csv" in Path(path).name:
            raise OSError("disk full")

    monkeypatch.setattr(cli, "write_csv", write_other_bytes)
    assert main(["figure", "fig3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "effbath: error: disk full\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_a_zero_q0_fails_before_the_bundle(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("Omega=1\nalpha=0.01\ng=0.1\ngamma=0.08\nbeta=10\nDelta=1\nepsilon=0\nq0=0\n")
    assert main(["custom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("effbath: error: q0 must be > 0")
    assert not (tmp_path / "out").exists()


_FIG3_LIKE = "Omega=1\nbeta=10\nDelta=1\nepsilon=0\n"
_EDGE_CONFIGS = {
    "undamped": _FIG3_LIKE + "alpha=0.02\ng=0.18\ngamma=0\n",
    "decoupled": _FIG3_LIKE + "alpha=0.02\ng=0\ngamma=0.097\n",
    "alpha_omega_over_6": _FIG3_LIKE + f"alpha={1 / 6!r}\ng=0.18\ngamma=0.097\n",
}


@pytest.mark.parametrize("config, argv, ok", [
    ("undamped", ["spectral"], False),
    ("undamped", ["custom"], False),
    ("undamped", ["correlation"], False),
    ("undamped", ["niba", "--correlation", "quadrature"], False),
    ("undamped", ["niba"], True),
    ("undamped", ["wda"], True),
    ("decoupled", ["wda"], True),
    ("decoupled", ["custom"], True),
    ("alpha_omega_over_6", ["wda"], True),
    ("alpha_omega_over_6", ["custom"], True),
], ids=lambda v: "_".join(arg.lstrip("-") for arg in v) if isinstance(v, list) else None)
def test_an_undamped_or_unseen_qubit(tmp_path, capsys, config, argv, ok):
    # undamped, each density is a line: the commands that evaluate one fail before writing, the rest
    # run; a qubit the oscillator does not see (W = 0) has the bare cos(Delta*t) as its WDA trace
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_EDGE_CONFIGS[config])
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # alpha = Omega/6 sits on the nonlinearity-window flag
        code = main([*argv, "--config", str(cfg), "--out", str(out)])
    if not ok:
        assert code == 1
        assert capsys.readouterr().err.startswith("effbath: error: gamma = 0")
        assert not out.exists()
        return
    assert code == 0
    for path in out.glob("*.csv"):
        assert np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1)).all(), path.name
    if config != "undamped":
        trace = read_csv(out / "P_wda.csv")
        np.testing.assert_allclose(trace["P"], np.cos(trace["t"]), rtol=0, atol=1e-12)


def test_custom_rejects_zero_damping_before_any_march(tmp_path, monkeypatch, capsys):
    # the spectral table is the last piece of a custom bundle, but its damping is checked first
    def no_march(*args, **kwargs):
        raise AssertionError("the march ran")

    monkeypatch.setattr(scenarios, "simulate_population", no_march)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_EDGE_CONFIGS["undamped"])
    assert main(["custom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "effbath: error: gamma = 0.0: undamped, each spectral density is a line, not a table\n"
    )
    assert not (tmp_path / "out").exists()


def test_a_quadrature_that_misses_its_budget_prints_one_error_line(tmp_path):
    # at gamma = 1e-6 QUADPACK reports roundoff in its extrapolation table; its text
    # belongs in the typed error, not in a warning printed before it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_FIG3_LIKE + "alpha=0.02\ng=0.18\ngamma=1e-6\n")
    probe = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\nfrom effbath.cli import main\n"
             f"sys.exit(main(['correlation', '--points', '7', '--config', 'run.cfg', '--out', 'out']))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("effbath: error: correlation quadrature at tau = 5 reached abs error")
    assert "QUADPACK: The algorithm does not converge. Roundoff error is detected" in proc.stderr
    assert proc.stderr.count("\n") == 1 and "IntegrationWarning" not in proc.stderr
    assert not (tmp_path / "out").exists()


def _calls(tree):
    """Each call in a module, with the name of the function around it."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child, where
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            yield from walk(child, inner)
    return walk(tree, "<module>")


def _writes_a_file(call):
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    # a mode not spelt out is counted as a write
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def test_one_writer():
    # the CLI writer creates the output directory; write_csv and write_summary open the files it writes
    found = []
    for path in sorted((SRC / "effbath").glob("*.py")):
        for call, where in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            mkdir = isinstance(call.func, ast.Attribute) and call.func.attr == "mkdir"
            if mkdir and (path.name, where) != ("cli.py", "_write_bundle"):
                found.append(f"{path.name}:{call.lineno} mkdir in {where}")
            if _writes_a_file(call) and where not in ("write_csv", "write_summary"):
                found.append(f"{path.name}:{call.lineno} writes a file in {where}")
    assert found == []


@pytest.mark.parametrize("horizon", [None, "0.004"])
def test_niba_and_wda_share_the_time_grid(tmp_path, horizon):
    extra = [] if horizon is None else ["--horizon", horizon]
    assert main(["niba", "--out", str(tmp_path / "niba"), *extra]) == 0
    assert main(["wda", "--out", str(tmp_path / "wda"), *extra]) == 0
    niba = read_csv(tmp_path / "niba" / "P_niba.csv")
    wda = read_csv(tmp_path / "wda" / "P_wda.csv")
    assert np.atleast_1d(niba["t"]).size >= 2
    np.testing.assert_array_equal(np.atleast_1d(niba["t"]), np.atleast_1d(wda["t"]))


@pytest.mark.parametrize("rows", ["", "0,1\n"], ids=["header_only", "one_row"])
def test_spectrum_of_a_too_short_trace_is_a_usage_error(tmp_path, capsys, rows):
    trace = tmp_path / "short.csv"
    trace.write_text("t,P\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", str(trace), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("effbath: error: ")


@pytest.mark.parametrize("trace, argv, message", [
    ("nan_in_row_2", [], "data row 2 (t = 1)"),
    ("nan_in_row_2", ["--peaks", "2"], "data row 2 (t = 1)"),
    ("constant", ["--peaks", "2"], "no local maxima"),
    ("cosine", ["--pad", "0"], "zero_pad_factor"),
    ("cosine", ["--pad", "-3"], "zero_pad_factor"),
    ("cosine", ["--peaks", "-1"], "--peaks"),
], ids=["nan", "nan_peaks_2", "no_peaks", "pad_0", "pad_-3", "peaks_-1"])
def test_spectrum_rejects_bad_input_before_writing(tmp_path, capsys, trace, argv, message):
    t = np.arange(101.0)
    values = np.full(t.size, 0.5) if trace == "constant" else np.cos(0.3 * t)
    if trace == "nan_in_row_2":
        values[1] = np.nan
    path = tmp_path / "trace.csv"
    write_csv(path, ["t", "P"], [t, values])
    assert main(["spectrum", str(path), "--out", str(tmp_path / "out"), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("effbath: error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_spectrum_widens_its_band_to_a_line_past_it(tmp_path):
    t = np.arange(101.0)
    path = tmp_path / "trace.csv"
    write_csv(path, ["t", "P"], [t, np.cos(0.3 * t) + np.cos(3.1 * t)])  # 3.1 lies past the default band omega <= 3
    assert main(["spectrum", str(path), "--out", str(tmp_path / "out")]) == 0
    data = read_csv(tmp_path / "out" / "spectrum.csv")
    assert data["omega"][-1] > 3.1
    # the line sits in the last bins below Nyquist, as tall as the one at 0.3
    past = data["omega"] > 3.0
    assert abs(data["omega"][past][np.argmax(data["magnitude"][past])] - 3.1) <= 2.0 * np.pi / 101
    assert data["magnitude"][past].max() > 0.9 * data["magnitude"][data["omega"] < 1.0].max()


def test_spectrum_reports_a_line_in_the_last_bin_of_the_full_band(tmp_path):
    # 101 samples: the full band's last bin, 3.110, holds the 3.1 line (52.5
    # against 8.2 next to it), and its mirror 2*pi - 3.110 is the bin past it
    t = np.arange(101.0)
    path = tmp_path / "trace.csv"
    write_csv(path, ["t", "P"], [t, np.cos(0.3 * t) + np.cos(3.1 * t)])
    out = tmp_path / "out"
    assert main(["spectrum", str(path), "--peaks", "2", "--out", str(out)]) == 0
    peaks = dict(line.split("=") for line in (out / "peaks.txt").read_text().splitlines())
    assert peaks["peak_shortage"] == "0"
    assert abs(float(peaks["peak1_omega"]) - 0.3) <= float(peaks["fft_bin"])
    assert abs(float(peaks["peak2_omega"]) - 3.1) <= float(peaks["fft_bin"])
    assert float(peaks["peak2_omega"]) <= np.pi


@pytest.mark.filterwarnings("ignore::effbath.errors.RegimeWarning")  # |u0| = 2.9: the WDA is out of its regime
def test_custom_widens_a_band_that_misses_a_multi_phonon_line(tmp_path, energy_outside):
    # at g = 0.87*Omega the NIBA trace holds multi-phonon lines, one near 1.93, past 3*Omega = 1.893
    cfg = tmp_path / "strong.cfg"
    cfg.write_text("Omega=0.631\nalpha=1.2e-6\ng=0.546\ngamma=0.00157\nbeta=0.7\nDelta=0.841\nepsilon=0\n")
    out = tmp_path / "out"
    assert main(["custom", "--config", str(cfg), "--out", str(out)]) == 0
    for kind in ("niba", "wda"):
        trace = read_csv(out / f"P_{kind}.csv")["P"]
        omega = read_csv(out / f"spectrum_{kind}.csv")["omega"]
        assert energy_outside(trace - trace.mean(), 8 * trace.size, omega.size) <= 1e-3, kind
    # the WDA trace holds only its two poles, inside 3*Omega; the NIBA band had to grow
    assert read_csv(out / "spectrum_niba.csv")["omega"][-1] > 3.0 * 0.631


@pytest.mark.parametrize("header", ["time,P", "t,p", "P"])
def test_spectrum_without_t_and_P_columns_is_a_usage_error(tmp_path, capsys, header):
    trace = tmp_path / "trace.csv"
    trace.write_text(header + "\n" + "0,1\n1,0\n2,1\n")
    assert main(["spectrum", str(trace), "--out", str(tmp_path / "out")]) == 1
    assert "column" in capsys.readouterr().err


def test_spectrum_finds_its_columns_by_name(tmp_path):
    t = np.linspace(0.0, 50.0, 501)
    write_csv(tmp_path / "plain.csv", ["t", "P"], [t, np.cos(t)])
    write_csv(tmp_path / "shuffled.csv", ["P", "x", "t"], [np.cos(t), np.sin(t), t])
    for name in ("plain", "shuffled"):
        assert main(["spectrum", str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / name)]) == 0
    plain, shuffled = (tmp_path / name / "spectrum.csv" for name in ("plain", "shuffled"))
    assert plain.read_bytes() == shuffled.read_bytes()


@pytest.mark.parametrize("order", ["scattered", "reversed"])
def test_spectrum_of_a_non_uniform_trace_is_a_usage_error(tmp_path, capsys, rng, order):
    # cos(t) at sorted random times: t[1] - t[0] is no step of the trace;
    # an evenly spaced but decreasing column has no positive step
    t = np.sort(rng.uniform(0.0, 100.0, 200)) if order == "scattered" else np.linspace(100.0, 0.0, 200)
    trace = tmp_path / "trace.csv"
    write_csv(trace, ["t", "P"], [t, np.cos(t)])
    assert main(["spectrum", str(trace), "--out", str(tmp_path / "out")]) == 1
    assert "even steps" in capsys.readouterr().err


def test_spectrum_accepts_the_rounding_jitter_of_a_written_trace(tmp_path):
    assert main(["niba", "--out", str(tmp_path)]) == 0  # the fig3 P_niba.csv
    t = read_csv(tmp_path / "P_niba.csv")["t"]
    assert np.abs(np.diff(t) - (t[1] - t[0])).max() > 0.0
    assert main(["spectrum", str(tmp_path / "P_niba.csv"), "--out", str(tmp_path / "out")]) == 0


def test_spectrum_past_nyquist_writes_the_full_rfft(tmp_path):
    h = 0.5
    t = h * np.arange(301.0)
    values = np.exp(-0.01 * t) * np.cos(0.9 * t)
    write_csv(tmp_path / "trace.csv", ["t", "P"], [t, values])
    n_pad = 8 * t.size
    omega = 2.0 * np.pi * np.fft.rfftfreq(n_pad, d=h)
    write_csv(tmp_path / "reference.csv", ["omega", "magnitude"],
              [omega, np.abs(np.fft.rfft(values - values.mean(), n=n_pad))])
    for omega_max in ("1e9", None):
        extra = [] if omega_max is None else ["--omega-max", omega_max]
        out = tmp_path / f"out_{omega_max}"
        assert main(["spectrum", str(tmp_path / "trace.csv"), "--pad", "8", "--out", str(out), *extra]) == 0
    reference = (tmp_path / "reference.csv").read_text().splitlines()
    full = (tmp_path / "out_1e9" / "spectrum.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in full] == [row.split(",")[0] for row in reference]
    magnitude = read_csv(tmp_path / "out_1e9" / "spectrum.csv")["magnitude"]
    rfft = read_csv(tmp_path / "reference.csv")["magnitude"]
    assert np.abs(magnitude - rfft).max() <= 1e-14 * rfft.max()
    # the default band, omega <= 3, keeps the head of the omega column byte for byte
    band = (tmp_path / "out_None" / "spectrum.csv").read_text().splitlines()
    assert len(band) == 1 + np.count_nonzero(omega <= 3.0) < len(reference)
    assert [row.split(",")[0] for row in band] == [row.split(",")[0] for row in reference[: len(band)]]


def _reference_write_csv(path, header, columns):
    """The per-value writer that write_csv must match byte for byte."""
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def _csv_values(rng, size):
    """``size`` values of every kind "%.17g" prints, shuffled.

    First the ends of the range ``_g17_text`` formats, 1e-4 and 1e15, and
    each power of ten 1e-5..1e16, each with both neighbours and both signs,
    and the values "%.17g" formats alone (0, -0.0, inf, nan, ...); then
    values in that range, exact ties at the 17th digit (M + j/8 with M
    around 1e14), integer-valued floats and values spread over 1e-300..1e300.
    """
    centres = [1e-4, 1e15, *(10.0**k for k in range(-5, 17))]
    edges = np.array([np.nextafter(c, to) for c in centres for to in (0.0, c, np.inf)])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e308, 2.0**53])
    n = size // 4 + 1
    kinds = np.concatenate([
        10.0 ** rng.uniform(-4, 15, n) * rng.choice([-1.0, 1.0], n),
        rng.integers(10**14, 14 * 10**13, n) + rng.integers(0, 8, n) / 8,
        rng.integers(-(10**6), 10**6, n).astype(float),
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
    ])
    values = np.concatenate([edges, -edges, special, rng.permutation(kinds)])[:size]
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("n_cols", [1, 2, 9])
@pytest.mark.parametrize("n_rows", [0, 1, 31, 383, 4095, 4096, 4097, 10_000, 10_798])
def test_write_csv_matches_the_per_value_writer(tmp_path, rng, n_rows, n_cols):
    header = [f"c{i}" for i in range(n_cols)]
    columns = list(_csv_values(rng, n_rows * n_cols).reshape(n_rows, n_cols).T)
    write_csv(tmp_path / "blocked.csv", header, columns)
    _reference_write_csv(tmp_path / "reference.csv", header, columns)
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (31, 9), (25_000, 2)])
def test_g17_text_matches_the_per_value_writer(rng, shape):
    # write_csv formats every block this way, down to a single value
    rows = _csv_values(rng, shape[0] * shape[1]).reshape(shape)
    expected = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows.tolist())
    assert scenarios._g17_text(rows).tobytes() == expected.encode("ascii")


@pytest.mark.parametrize("tag", ["fig2", "fig3"])
def test_figure_csvs_match_the_per_value_writer(tmp_path, tag):
    bundle = run_scenario(tag, build_params(FIGURE_PARAMS[tag]))
    tables = {name: content for name, content in bundle.items() if name.endswith(".csv")}
    assert tables
    for name, (header, columns) in tables.items():
        write_csv(tmp_path / name, header, columns)
        _reference_write_csv(tmp_path / "reference.csv", header, columns)
        assert (tmp_path / name).read_bytes() == (tmp_path / "reference.csv").read_bytes(), name


def test_main_calls_share_only_the_parser(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    assert main(["niba", "--horizon", "2", "--alpha-zero", "--out", str(tmp_path / "short")]) == 0
    assert main(["niba", "--out", str(tmp_path / "default")]) == 0
    # the second call ran the fig3 set on its default grid, not the first call's horizon or alpha = 0
    series = simulate_population(build_params(FIGURE_PARAMS["fig3"]))
    write_csv(tmp_path / "fig3.csv", ["t", "P"], [series.times, series.values])
    default = (tmp_path / "default" / "P_niba.csv").read_bytes()
    assert default == (tmp_path / "fig3.csv").read_bytes()
    assert default.count(b"\n") == 1 + 10_798 > (tmp_path / "short" / "P_niba.csv").read_bytes().count(b"\n")


def _modules_after(tmp_path, code, prefixes=("scipy",)):
    """Names of the modules under ``prefixes`` loaded by a fresh interpreter that ran ``code``."""
    probe = (
        f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
        f"print(sorted(name for name in sys.modules if name.startswith({tuple(prefixes)!r})))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=tmp_path, timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy(tmp_path):
    # nor numpy.fft: the transform plans and twiddles are built on first use
    assert _modules_after(tmp_path, "import effbath, effbath.cli", ("scipy", "numpy.fft")) == "[]"
    # the package root binds the params layer alone, which needs no numpy
    assert _modules_after(tmp_path, "import effbath", ("numpy",)) == "[]"
    public = {name for name, value in vars(effbath).items()
              if not isinstance(value, ModuleType) and (not name.startswith("_") or name == "__version__")}
    assert public == {"build_params", "derived_scales", "__version__"}


@pytest.mark.parametrize("tag", sorted(FIGURE_PARAMS))
def test_figure_loads_no_scipy(tmp_path, tag):
    code = f"from effbath import cli\nassert cli.main(['figure', {tag!r}, '--out', {tag!r}]) == 0"
    assert _modules_after(tmp_path, code) == "[]"
