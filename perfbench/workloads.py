"""The benchmark's workloads: seeded inputs, one pass's op list, checks, references.

Every input comes from the seed.  Where the seed perturbs a paper
parameter set it does so by at most 0.25%, so the amount of work, and with
it the timings and accuracies, stay comparable between seeds.  A
workload's checks run on the warm-up pass; every later pass must
reproduce the warm-up pass's outputs byte for byte.  ``verify`` runs once
per run, untimed, and returns ``err_max`` with the checks behind it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from effbath import cli, correlation, gme, params, scenarios, spectral, spectrum, wda

# the paper's strong- and weak-coupling parameter sets (figure captions)
FIG3 = {"Omega": 1.0, "M": 1.0, "mu": 1.0, "alpha": 0.02, "g": 0.18, "epsilon": 0.0,
        "gamma_over_2piOmega": 0.0154, "beta": 10.0, "Delta": 1.0}
FIG5 = dict(FIG3, g=0.0018)

FIGURE_TAGS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
_FIGURE_FILES = {
    "fig2": ("spectral.csv", "summary.txt"),
    "fig3": ("P_niba.csv", "P_wda.csv", "summary.txt"),
    "fig4": ("spectrum_niba.csv", "spectrum_wda.csv", "summary.txt"),
    "fig7": ("P_niba_nonlinear.csv", "P_wda_nonlinear.csv", "P_niba_linear.csv",
             "P_wda_linear.csv", "summary.txt"),
    "fig8": ("spectrum_niba_nonlinear.csv", "spectrum_niba_linear.csv", "summary.txt"),
}
_FIGURE_FILES.update(fig5=_FIGURE_FILES["fig3"], fig6=_FIGURE_FILES["fig4"])
_PARAM_KEYS = ("Omega", "M", "mu", "alpha", "g", "gamma", "beta", "Delta", "epsilon")

RICHARDSON_RATIO_TOL = 0.5  # O(h^2) halving must shrink the error 4x, within this
# err_max is resolved down to its reference's own accuracy: deviations
# below these floors cannot be told apart from the reference's error
ORACLE_REF_ATOL = 1e-11  # tighter-atol quadrature reference
ORACLE_ATOL = 1e-8  # the oracle's default tolerance, which the CSV must meet
POLE_RESIDUAL_TOL = 1e-12  # |lambda + K(lambda)|*Omega/Delta^2 at a returned root


@dataclass
class Op:
    """One timed call; ``check`` lists problems in its output, ``digest`` fingerprints it."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], str]
    last: object = field(default=None, repr=False)


@dataclass
class Workload:
    name: str
    ops: list
    verify: Callable[[], tuple]  # -> (err_max, [(check name, problem or None)])
    err_note: str


def _perturbed(rng, base: dict, rel: float = 0.0025) -> dict:
    keys = ("g", "alpha", "Delta", "gamma_over_2piOmega")
    return {**base, **{key: base[key] * (1.0 + rng.uniform(-rel, rel)) for key in keys}}


def _sha(*chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return digest.hexdigest()


def dir_digest(path: Path) -> str:
    return _sha(*(part for f in sorted(path.iterdir()) for part in (f.name, f.read_bytes())))


def read_csv(path: Path):
    header = path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_summary(path: Path) -> dict:
    return dict(line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines())


def check_csv(path: Path) -> list:
    header, data = read_csv(path)
    problems = []
    if data.shape[1] != len(header):
        problems.append(f"{path.name}: {data.shape[1]} columns under a {len(header)}-name header")
    elif not np.all(np.isfinite(data)):
        problems.append(f"{path.name}: non-finite values")
    elif header[1] == "P" and data[0, 1] != 1.0:
        problems.append(f"{path.name}: P(0) = {data[0, 1]!r}")
    return problems


def check_summary(path: Path) -> list:
    entries = read_summary(path)
    problems = []
    for key in entries:
        if key.endswith("weight_plus"):
            total = float(entries[key]) + float(entries[key[: -len("plus")] + "minus"])
            if total != 1.0:
                problems.append(f"{path.name}: {key} + weight_minus = {total!r}")
    if "peak2_omega" in entries and not float(entries["peak1_omega"]) < float(entries["peak2_omega"]):
        problems.append(f"{path.name}: peaks out of order")
    return problems


def check_artifacts(outdir: Path, expected) -> list:
    problems = []
    for name in expected:
        path = outdir / name
        if not path.is_file():
            problems.append(f"missing {name}")
        elif name.endswith(".csv"):
            problems += check_csv(path)
        else:
            problems += check_summary(path)
    return problems


def check_trace(series, n_steps: int) -> list:
    values = np.asarray(series.values)
    if values.shape != (n_steps + 1,):
        return [f"trace has {values.size} samples, expected {n_steps + 1}"]
    if not np.all(np.isfinite(values)):
        return ["non-finite P"]
    if values[0] != 1.0:
        return [f"P(0) = {values[0]!r}"]
    return []


def trace_digest(series) -> str:
    return _sha(series.h, np.asarray(series.values).tobytes())


def richardson(p, step: float, horizon: float, values) -> tuple[float, float]:
    """Error estimate of an O(h^2) trace from h/2 and h/4 reruns, and the ratio.

    Returns (4/3*max|P_h - P_h/2|, max|P_h - P_h/2| / max|P_h/2 - P_h/4|)
    on the grid points the three runs share; the ratio is 4 at O(h^2).
    """
    half = gme.simulate_population(p, step=step / 2, horizon=horizon).values
    quarter = gme.simulate_population(p, step=step / 4, horizon=horizon).values
    n = min(len(values), (half.size + 1) // 2, (quarter.size + 3) // 4)
    coarse = np.abs(np.asarray(values[:n]) - half[: 2 * n : 2]).max()
    fine = np.abs(half[: 2 * n : 2] - quarter[: 4 * n : 4]).max()
    return 4.0 * coarse / 3.0, coarse / fine


def _ratio_problem(ratio: float):
    if abs(ratio - 4.0) > RICHARDSON_RATIO_TOL:
        return f"Richardson ratio {ratio:.4g}, expected 4"
    return None


def _cli_op(name: str, argv: list, outdir: Path, expected) -> Op:
    return Op(
        name=name,
        call=lambda: cli.main(argv),
        check=lambda rc: ([f"exit code {rc}"] if rc != 0 else []) + check_artifacts(outdir, expected),
        digest=lambda rc: _sha(rc, dir_digest(outdir) if outdir.is_dir() else None),
    )


def figures(seed: int, out: Path) -> Workload:
    """The regeneration path: ``effbath figure fig2..fig8``, ``spectrum`` and ``wda`` in process."""
    rng = np.random.default_rng(seed)
    ops = [
        _cli_op(f"figure {tag}", ["figure", tag, "--out", str(out / tag)], out / tag, _FIGURE_FILES[tag])
        for tag in map(str, rng.permutation(FIGURE_TAGS))
    ]
    ops.append(_cli_op(
        "spectrum",
        ["spectrum", str(out / "fig3" / "P_niba.csv"), "--out", str(out / "spectrum"),
         "--pad", "8", "--peaks", "2"],
        out / "spectrum",
        ("spectrum.csv", "peaks.txt"),
    ))
    config = out / "wda.cfg"
    config.write_text("".join(f"{k}={v!r}\n" for k, v in _perturbed(rng, FIG3).items()), encoding="utf-8")
    ops.append(_cli_op("wda", ["wda", "--config", str(config), "--out", str(out / "wda")], out / "wda",
                       ("P_wda.csv", "wda_report.txt")))

    def verify():
        errors, checks = [], []
        for tag in ("fig3", "fig5"):
            entries = read_summary(out / tag / "summary.txt")
            p = params.build_params({key: float(entries[key]) for key in _PARAM_KEYS})
            _, data = read_csv(out / tag / "P_niba.csv")
            t, values = data[:, 0], data[:, 1]
            err, ratio = richardson(p, float(t[1] - t[0]), float(t[-1]), values)
            errors.append(err)
            checks.append((f"{tag} Richardson ratio", _ratio_problem(ratio)))
        return max(errors), checks

    return Workload("figures", ops, verify, "Richardson error of fig3/fig5 P_niba.csv against h/2")


# (name, parameter set, bias, steps): horizons from 1e2 up to the
# t ~ 1450 a biased qubit needs to settle
_LONG_HORIZON = (
    ("fig3 N=10797", FIG3, 0.0, 10797),
    ("fig5 N=10797", FIG5, 0.0, 10797),
    ("fig3 N=43189", FIG3, 0.0, 43189),
    ("fig5 N=86378", FIG5, 0.0, 86378),
    ("biased N=156559", FIG3, 0.1, 156559),
)
_RICHARDSON_MAX_STEPS = 11000  # the h/4 rerun of a longer march costs more than a pass


def long_horizon(seed: int, out: Path) -> Workload:
    """``simulate_population`` at horizons whose O(N^2) march outweighs all else."""
    rng = np.random.default_rng(seed)
    ops, refs = [], []
    for name, base, bias, n_steps in _LONG_HORIZON:
        p = params.build_params(dict(_perturbed(rng, base), epsilon=bias))
        step = gme.default_step(p)
        op = Op(
            name=name,
            call=lambda p=p, step=step, n=n_steps: gme.simulate_population(p, step=step, horizon=n * step),
            check=lambda series, n=n_steps: check_trace(series, n),
            digest=trace_digest,
        )
        ops.append(op)
        if n_steps <= _RICHARDSON_MAX_STEPS:
            refs.append((op, p, step, n_steps * step))

    def verify():
        errors, checks = [], []
        for op, p, step, horizon in refs:
            err, ratio = richardson(p, step, horizon, op.last.values)
            errors.append(err)
            checks.append((f"{op.name} Richardson ratio", _ratio_problem(ratio)))
        return max(errors), checks

    return Workload("long_horizon", ops, verify, "Richardson error of the N=10797 traces against h/2")


_ORACLE_POINTS = 31
_ORACLE_SPOT_CHECKS = 8
_ORACLE_MARCH = (0.1, 3.0)  # (step, horizon): 30 steps, 62 quadrature calls


def oracle(seed: int, out: Path) -> Workload:
    """The quadrature correlation oracle: its CSV and a short march driven by it."""
    rng = np.random.default_rng(seed)
    p = params.build_params(_perturbed(rng, FIG3))
    tau_max = 30.0 * (1.0 + rng.uniform(-0.0025, 0.0025))
    rows = np.sort(rng.choice(np.arange(1, _ORACLE_POINTS), _ORACLE_SPOT_CHECKS, replace=False))
    csv_dir = out / "correlation"
    csv_dir.mkdir(parents=True, exist_ok=True)
    csv_path = csv_dir / "correlation.csv"
    step, horizon = _ORACLE_MARCH
    n_steps = int(round(horizon / step))

    def check_table(_):
        problems = check_artifacts(csv_dir, ("correlation.csv",))
        if not problems:
            _, data = read_csv(csv_path)
            if data.shape[0] != _ORACLE_POINTS or data[0, 0] != 0.0 or data[0, 1] != 0.0:
                problems.append("correlation.csv: wrong grid or S(0) != 0")
        return problems

    ops = [
        Op("correlation_csv",
           lambda: scenarios.write_correlation_csv(csv_path, p, tau_max=tau_max, points=_ORACLE_POINTS),
           check_table, lambda _: dir_digest(csv_dir)),
        Op("quadrature_march",
           lambda: gme.simulate_population(p, step=step, horizon=horizon, correlation="quadrature"),
           lambda series: check_trace(series, n_steps), trace_digest),
    ]

    def verify():
        header, data = read_csv(csv_path)
        tau = data[rows, 0]
        ref = correlation.quadrature_correlation(p, params.derived_scales(p), atol=ORACLE_REF_ATOL)
        dev = max(
            np.abs(data[rows, header.index("S_quad")] - ref.S(tau)).max(),
            np.abs(data[rows, header.index("R_quad")] - ref.R(tau)).max(),
        )
        problem = f"S/R off the reference by {dev:.3g}" if dev > ORACLE_ATOL else None
        return max(dev, ORACLE_REF_ATOL), [("quadrature spot checks", problem)]

    return Workload("oracle", ops, verify,
                    f"S/R deviation from atol={ORACLE_REF_ATOL:g} quadrature, read as at least that")


_SWEEP_POINTS = 64
# every point's trace has the sample count of the fig3 default grid (a
# horizon of 100/Omega), so the FFT, whose cost swings with the prime
# factors of the length, does the same work at every point and seed
_SWEEP_SAMPLES = 10798


def _sweep_params(rng) -> dict:
    """A point inside the validated regime: no regime flags and |u0| < 1."""
    return dict(FIG3, g=rng.uniform(0.002, 0.2), alpha=rng.uniform(0.0, 0.05),
                beta=rng.uniform(5.0, 20.0), Delta=rng.uniform(0.8, 1.2))


def analytic_point(raw: dict) -> dict:
    """The analytic path for one parameter point, at the default time step."""
    p = params.build_params(raw)
    scales = params.derived_scales(p)
    spec = wda.build_wda_spectrum(p, scales)
    step = gme.default_step(p, scales)
    t = step * np.arange(_SWEEP_SAMPLES)
    trace = wda.wda_population(t, spec)
    report = wda.resonance_analysis(p, scales)
    peak = spectral.density_peak(lambda w: spectral.nonlinear_effective_density(w, p, scales), Omega=p.Omega)
    peaks = spectrum.peak_extract(spectrum.fourier_spectrum(gme.TimeSeries(h=step, values=trace)), 2)
    return {"params": p, "spectrum": spec, "trace": trace, "report": report, "peak": peak, "peaks": peaks}


def check_point(out: dict) -> list:
    spec, trace = out["spectrum"], out["trace"]
    problems = [f"regime flag: {flag}" for flag in params.regime_flags(out["params"])]
    if not abs(spec.u0) < 1.0:
        problems.append(f"|u0| = {abs(spec.u0):.3g}")
    if spec.weight_plus + spec.weight_minus != 1.0:
        problems.append("WDA weights do not sum to 1")
    if not np.all(np.isfinite(trace)):
        problems.append("non-finite P")
    elif trace[0] != 1.0:
        problems.append(f"P(0) = {trace[0]!r}")
    loc, height = out["peak"]
    if not (0.0 < loc < 2.0 * out["params"].Omega and math.isfinite(height)):
        problems.append(f"density peak at {loc!r}")
    if not all(math.isfinite(peak.omega) for peak in out["peaks"]):
        problems.append("non-finite spectral peak")
    return problems


def point_digest(out: dict) -> str:
    spec = out["spectrum"]
    return _sha(out["trace"].tobytes(), spec.omega_plus, spec.omega_minus, spec.kappa_plus,
                spec.kappa_minus, out["peak"], [(q.omega, q.height) for q in out["peaks"]])


def pole_residual(raw: dict) -> float:
    """Largest |lambda + K(lambda)|*Omega/Delta^2 at the roots ``decay_rates`` returns."""
    p = params.build_params(raw)
    scales = params.derived_scales(p)
    coeffs = correlation.wda_coefficients(p, scales)
    tun = wda.effective_tunneling(coeffs, scales, p.Delta, p.beta)
    omega_plus, omega_minus = wda.pole_frequencies(tun.delta0c, tun.delta1c, scales.Omega1)
    roots = wda.decay_rates(tun, coeffs, scales.Omega1, omega_plus, omega_minus,
                            p.gamma, p.Delta, p.Omega)[2:]
    worst = max(abs(lam + wda.kernel_laplace(lam, tun, coeffs, scales.Omega1)[0]) for lam in roots)
    return worst * p.Omega / p.Delta**2


def sweep(seed: int, out: Path) -> Workload:
    """The analytic path over seeded parameter points; the march is bypassed."""
    rng = np.random.default_rng(seed)
    points = [_sweep_params(rng) for _ in range(_SWEEP_POINTS)]
    ops = [Op(f"point {i}", lambda raw=raw: analytic_point(raw), check_point, point_digest)
           for i, raw in enumerate(points)]

    def verify():
        worst = max(pole_residual(raw) for raw in points)
        problem = f"pole residual {worst:.3g}" if worst > POLE_RESIDUAL_TOL else None
        return max(worst, POLE_RESIDUAL_TOL), [("pole equation at the returned roots", problem)]

    return Workload("sweep", ops, verify,
                    f"|lambda+K(lambda)|*Omega/Delta^2 at the roots, read as at least {POLE_RESIDUAL_TOL:g}")


WORKLOADS = {"figures": figures, "long_horizon": long_horizon, "oracle": oracle, "sweep": sweep}
