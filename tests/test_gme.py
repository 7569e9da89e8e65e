import math

import numpy as np
import pytest

from effbath.correlation import closed_form_correlation
from effbath.errors import NonFiniteStateError, StepTooLargeError
from effbath.gme import (
    KernelGrid,
    default_step,
    niba_kernels,
    simulate_population,
    solve_gme,
)
from effbath.params import build_params, derived_scales
from effbath.scenarios import FIGURE_PARAMS


def test_kernels_decoupled_limit(free_params):
    scales = derived_scales(free_params)
    corr = closed_form_correlation(free_params, scales)
    grid = niba_kernels(corr, free_params.Delta, 0.0, 0.05, 200)
    np.testing.assert_array_equal(grid.ks, free_params.Delta**2)
    np.testing.assert_array_equal(grid.ka, 0.0)


def test_kernels_initial_values(fig3_params, fig3_scales):
    corr = closed_form_correlation(fig3_params, fig3_scales)
    grid = niba_kernels(corr, fig3_params.Delta, 0.0, 0.02, 500)
    assert grid.ks[0] == pytest.approx(fig3_params.Delta**2, rel=1e-14)
    assert grid.ka[0] == 0.0
    np.testing.assert_array_equal(grid.ka, 0.0)  # symmetric case


def test_kernels_envelope_bound(fig3_params, fig3_scales):
    corr = closed_form_correlation(fig3_params, fig3_scales)
    grid = niba_kernels(corr, fig3_params.Delta, 0.0, 0.02, 2000)
    envelope = fig3_params.Delta**2 * np.exp(-np.asarray(corr.S(grid.times)))
    assert np.all(np.abs(grid.ks) <= envelope * (1 + 1e-12))


def test_biased_kernels_antisymmetric_factor(fig3_params, fig3_scales):
    corr = closed_form_correlation(fig3_params, fig3_scales)
    grid = niba_kernels(corr, fig3_params.Delta, 0.3, 0.02, 400)
    assert grid.ka[0] == 0.0
    assert np.abs(grid.ka[1:]).max() > 0.0


def test_free_qubit_cosine(free_params):
    # undamped tunneling oscillation over ten periods at the default step
    horizon = 10 * 2 * math.pi / free_params.Delta
    series = simulate_population(free_params, horizon=horizon)
    err_default = np.abs(series.values - np.cos(series.times)).max()
    assert err_default <= 1e-3

    half = simulate_population(free_params, step=series.meta["step"] / 2, horizon=horizon)
    err_half = np.abs(half.values - np.cos(half.times)).max()
    assert math.log2(err_default / err_half) >= 1.9


def test_zero_kernels_constant_population():
    grid = KernelGrid(h=0.05, ks=np.zeros(401), ka=np.zeros(401))
    series = solve_gme(grid)
    np.testing.assert_array_equal(series.values, 1.0)


def test_population_bounded_and_normalized(fig3_series):
    assert fig3_series.values[0] == 1.0
    assert np.abs(fig3_series.values).max() <= 1.02


def test_step_halving_order_strong_coupling(fig3_params):
    h = default_step(fig3_params)
    horizon = 2048 * h
    ref = simulate_population(fig3_params, step=h / 4, horizon=horizon)
    coarse = simulate_population(fig3_params, step=h, horizon=horizon)
    fine = simulate_population(fig3_params, step=h / 2, horizon=horizon)
    err_coarse = np.abs(coarse.values - ref.values[::4]).max()
    err_fine = np.abs(fine.values - ref.values[::2]).max()
    assert math.log2(err_coarse / err_fine) >= 1.9


def test_step_too_large(fig3_params):
    with pytest.raises(StepTooLargeError):
        simulate_population(fig3_params, step=1.0, horizon=10.0)


def test_step_too_large_for_bias(fig3_params):
    # h resolves Omega1 and Delta with 40 points per period but samples
    # cos(epsilon*t) at only 16
    biased = build_params({**FIGURE_PARAMS["fig3"], "epsilon": 2.5})
    step = 2.0 * math.pi / (40 * 2.0)
    assert step * max(derived_scales(biased).Omega1, biased.Delta) < 2.0 * math.pi / 40
    with pytest.raises(StepTooLargeError, match="epsilon"):
        simulate_population(biased, step=step, horizon=1.0)


def test_non_finite_state_guard():
    # a negative constant kernel makes the trace grow like cosh and must trip
    # the divergence guard instead of overflowing silently
    grid = KernelGrid(h=0.01, ks=np.full(1001, -25.0), ka=np.zeros(1001))
    with pytest.raises(NonFiniteStateError):
        solve_gme(grid)


def test_unknown_correlation_choice(fig3_params):
    with pytest.raises(ValueError, match="correlation"):
        simulate_population(fig3_params, correlation="bogus")


def test_deterministic_resolve(fig3_params):
    a = simulate_population(fig3_params, horizon=30.0)
    b = simulate_population(fig3_params, horizon=30.0)
    np.testing.assert_array_equal(a.values, b.values)


def test_quadrature_kernel_path_smoke(fig3_params):
    # validation route: same solver fed by the integral-oracle correlation
    series = simulate_population(fig3_params, horizon=6.0, correlation="quadrature")
    closed = simulate_population(fig3_params, horizon=6.0)
    assert np.abs(series.values - closed.values).max() < 0.02
