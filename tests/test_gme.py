import gc
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from effbath import accel
from effbath.correlation import QUADRATURE_ATOL, closed_form_correlation, quadrature_correlation
from effbath.errors import NonFiniteStateError, NonPositiveError, StepTooLargeError
from effbath.gme import (
    default_step,
    niba_kernels,
    simulate_population,
    solve_gme,
    time_grid,
)
from effbath.params import build_params, derived_scales
from effbath.scenarios import FIGURE_PARAMS


def _reference_march(h, ks, ka_int, n_steps):
    """The direct O(N^2) march: one full history dot product per step."""
    p = np.empty(n_steps + 1)
    p[0] = 1.0
    f_prev = 0.0
    for n in range(n_steps):
        conv = 0.5 * ks[n + 1] * p[0] + np.dot(ks[n:0:-1], p[1 : n + 1])
        f_tilde = h * (conv + 0.5 * ks[0] * p[n]) + ka_int[n + 1]
        p_new = p[n] - 0.5 * h * (f_prev + f_tilde)
        if not np.isfinite(p_new) or abs(p_new) > 1e6:
            return p, n + 1
        p[n + 1] = p_new
        f_prev = f_tilde + 0.5 * h * ks[0] * (p_new - p[n])
    return p, -1


def _march_inputs(params, n_steps):
    scales = derived_scales(params)
    h = default_step(params, scales)
    ks, ka = niba_kernels(closed_form_correlation(params, scales), params.Delta, params.epsilon, h, n_steps)
    return h, ks, cumulative_trapezoid(ka, dx=h, initial=0.0), n_steps


@pytest.mark.parametrize("epsilon", [0.0, 0.1], ids=["fig3", "biased"])
def test_ka_integral_is_bit_equal_to_scipy(monkeypatch, epsilon):
    params = build_params({**FIGURE_PARAMS["fig3"], "epsilon": epsilon})
    scales = derived_scales(params)
    h, n_steps = time_grid(params, scales)
    ks, ka = niba_kernels(closed_form_correlation(params, scales), params.Delta, params.epsilon, h, n_steps)
    seen = []

    def capture(step, ks, ka_int, n):
        seen.append(ka_int)
        return np.ones(n + 1), -1

    monkeypatch.setattr(accel, "march", capture)
    solve_gme(h, ks, ka)
    assert seen[0].tobytes() == cumulative_trapezoid(ka, dx=h, initial=0.0).tobytes()


def test_kernels_decoupled_limit(free_params):
    scales = derived_scales(free_params)
    corr = closed_form_correlation(free_params, scales)
    ks, ka = niba_kernels(corr, free_params.Delta, 0.0, 0.05, 200)
    np.testing.assert_array_equal(ks, free_params.Delta**2)
    np.testing.assert_array_equal(ka, 0.0)


def test_kernels_initial_values(fig3_params, fig3_scales):
    corr = closed_form_correlation(fig3_params, fig3_scales)
    ks, ka = niba_kernels(corr, fig3_params.Delta, 0.0, 0.02, 500)
    assert ks[0] == pytest.approx(fig3_params.Delta**2, rel=1e-14)
    assert ka[0] == 0.0
    np.testing.assert_array_equal(ka, 0.0)  # symmetric case


def test_unbiased_kernels_keep_the_bits_of_the_bias_factors(fig3_params, fig3_scales):
    # at epsilon = 0 the kernels skip cos(epsilon*t) and sin(epsilon*t), bit for bit
    corr = closed_form_correlation(fig3_params, fig3_scales)
    h, n_steps = time_grid(fig3_params, fig3_scales)
    ks, ka = niba_kernels(corr, fig3_params.Delta, 0.0, h, n_steps)
    t = h * np.arange(n_steps + 1)
    s_val, r_val = corr.pair(t)
    envelope = fig3_params.Delta**2 * np.exp(-s_val)
    assert ks.tobytes() == (envelope * np.cos(r_val) * np.cos(0.0 * t)).tobytes()
    assert ka.tobytes() == np.zeros(n_steps + 1).tobytes()  # +0.0 everywhere


def test_kernels_envelope_bound(fig3_params, fig3_scales):
    corr = closed_form_correlation(fig3_params, fig3_scales)
    ks, ka = niba_kernels(corr, fig3_params.Delta, 0.0, 0.02, 2000)
    envelope = fig3_params.Delta**2 * np.exp(-np.asarray(corr.S(0.02 * np.arange(2001))))
    assert np.all(np.abs(ks) <= envelope * (1 + 1e-12))


def test_biased_kernels_antisymmetric_factor(fig3_params, fig3_scales):
    corr = closed_form_correlation(fig3_params, fig3_scales)
    ks, ka = niba_kernels(corr, fig3_params.Delta, 0.3, 0.02, 400)
    assert ka[0] == 0.0
    assert np.abs(ka[1:]).max() > 0.0


def test_free_qubit_cosine(free_params):
    # undamped tunneling oscillation over ten periods at the default step
    horizon = 10 * 2 * math.pi / free_params.Delta
    series = simulate_population(free_params, horizon=horizon)
    err_default = np.abs(series.values - np.cos(series.times)).max()
    assert err_default <= 1e-3

    half = simulate_population(free_params, step=series.h / 2, horizon=horizon)
    err_half = np.abs(half.values - np.cos(half.times)).max()
    assert math.log2(err_default / err_half) >= 1.9


def test_zero_kernels_constant_population():
    series = solve_gme(0.05, np.zeros(401), np.zeros(401))
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


def test_step_halving_order_full_horizon(fig3_params):
    # the whole default horizon of 100/Omega: 10797 steps at h, 43188 at h/4
    h = default_step(fig3_params)
    ref = simulate_population(fig3_params, step=h / 4)
    coarse = simulate_population(fig3_params, step=h)
    fine = simulate_population(fig3_params, step=h / 2)
    assert coarse.values.shape[0] - 1 == 10797
    n = coarse.values.shape[0]
    err_coarse = np.abs(coarse.values - ref.values[: 4 * n : 4]).max()
    err_fine = np.abs(fine.values[: 2 * n : 2] - ref.values[: 4 * n : 4]).max()
    assert math.log2(err_coarse / err_fine) >= 1.9


_LEAF = accel._LEAF


_SIZES = {1, 2, 127, 128, 129, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1, 4 * _LEAF + 1, 7 * _LEAF + 3, 5003}


@pytest.mark.parametrize("n_steps", sorted(_SIZES))
def test_march_matches_the_direct_sum(n_steps):
    # biased kernels, so the Ka forcing is nonzero; the sizes end the grid
    # inside the first leaf, on and beside a leaf boundary, after a carry of
    # three levels (4 leaves + 1) and in a clipped tail (7 leaves + 3)
    biased = build_params({**FIGURE_PARAMS["fig3"], "epsilon": 0.1})
    inputs = _march_inputs(biased, n_steps)
    assert np.abs(inputs[2]).max() > 0.0
    p, bad = accel.march(*inputs)
    p_ref, bad_ref = _reference_march(*inputs)
    assert bad == bad_ref == -1
    assert np.abs(p - p_ref).max() <= 1e-12


def test_march_matches_the_direct_sum_at_weak_coupling(fig5_params):
    # at g = 0.0018 the trace rings for many periods, so rounding that acts
    # as a kick to the slope of p builds up where the strong-coupling cases damp it
    inputs = _march_inputs(fig5_params, 5003)
    p, bad = accel.march(*inputs)
    p_ref, bad_ref = _reference_march(*inputs)
    assert bad == bad_ref == -1
    assert np.abs(p - p_ref).max() <= 2e-14


def test_march_leaves_no_reference_cycles(fig3_params):
    # garbage the march leaves to the cycle collector would pile up between
    # collections; self-recursive closures are one way to make it
    inputs = _march_inputs(fig3_params, 5000)
    gc.collect()
    gc.disable()
    try:
        accel.march(*inputs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_step_too_large(fig3_params):
    with pytest.raises(StepTooLargeError):
        simulate_population(fig3_params, step=1.0, horizon=10.0)


def test_the_step_count_is_bounded_before_any_array(fig3_params):
    # 1e8 steps is the most a run holds; a count past it is refused by its step, horizon
    # and count, and a defaulted step by where it comes from
    assert time_grid(fig3_params, step=1.0, horizon=1e8) == (1.0, 10**8)
    with pytest.raises(NonPositiveError, match=r"horizon 1e\+08 over step 0.99 is 1.01e\+08 steps"):
        time_grid(fig3_params, step=0.99, horizon=1e8)
    with pytest.raises(NonPositiveError, match=r"max\(Omega1, Delta, \|epsilon\|\)"):
        time_grid(build_params(dict(FIGURE_PARAMS["fig3"], Delta=1e6)))


def test_step_too_large_for_bias(fig3_params):
    # h resolves Omega1 and Delta with 40 points per period but samples
    # cos(epsilon*t) at only 16
    biased = build_params({**FIGURE_PARAMS["fig3"], "epsilon": 2.5})
    step = 2.0 * math.pi / (40 * 2.0)
    assert step * max(derived_scales(biased).Omega1, biased.Delta) < 2.0 * math.pi / 40
    with pytest.raises(StepTooLargeError, match="epsilon"):
        simulate_population(biased, step=step, horizon=1.0)


def _first_bad_step(march, ks0):
    """First bad step of a march over a constant kernel ks0, h = 0.01, 1000 steps."""
    return march(0.01, np.full(1001, ks0), np.zeros(1001), 1000)[1]


def test_non_finite_state_guard():
    # a negative constant kernel makes the trace grow like cosh and must trip
    # the divergence guard instead of overflowing silently
    with pytest.raises(NonFiniteStateError):
        solve_gme(0.01, np.full(1001, -25.0), np.zeros(1001))
    # the first bad step matches the direct sum; at ks = -4 it lies past two leaf boundaries
    for ks0 in (-25.0, -4.0):
        assert _first_bad_step(accel.march, ks0) == _first_bad_step(_reference_march, ks0)
    assert _first_bad_step(accel.march, -4.0) > 2 * _LEAF


@pytest.fixture(scope="module")
def direct_sums(fig5_params):
    """(inputs, direct-sum p, bound) of the fig5 and biased 5003-step marches."""
    biased = build_params({**FIGURE_PARAMS["fig3"], "epsilon": 0.1})
    cases = [(_march_inputs(fig5_params, 5003), 2e-14), (_march_inputs(biased, 5003), 1e-12)]
    return [(inputs, _reference_march(*inputs)[0], bound) for inputs, bound in cases]


@pytest.mark.parametrize("leaf", [64, 128, 256])
def test_march_does_not_depend_on_the_leaf_size(monkeypatch, direct_sums, leaf):
    # the leaf size sets the Toeplitz solves, the carries and the FFT lengths;
    # at each size the march keeps the direct-sum bounds and the guard's step
    monkeypatch.setattr(accel, "_LEAF", leaf)
    for inputs, p_ref, bound in direct_sums:
        p, bad = accel.march(*inputs)
        assert bad == -1
        assert np.abs(p - p_ref).max() <= bound
    for ks0 in (-25.0, -4.0):
        assert _first_bad_step(accel.march, ks0) == _first_bad_step(_reference_march, ks0)


@pytest.mark.parametrize(
    "where, lag",
    [("ks", 50), ("ks", 3 * _LEAF + 7), ("ka_int", 50)],
    ids=["ks_first_leaf", "ks_past_it", "ka_int"],
)
def test_non_finite_kernel_guard(where, lag):
    # a nan in ks or in the Ka integral first reaches p[lag]; neither a block
    # solve nor an FFT of the history may carry it to an earlier step
    biased = build_params({**FIGURE_PARAMS["fig3"], "epsilon": 0.1})
    h, ks, ka_int, n_steps = _march_inputs(biased, 1000)
    inputs = {"ks": ks.copy(), "ka_int": ka_int.copy()}
    inputs[where][lag] = np.nan
    _, bad = accel.march(h, inputs["ks"], inputs["ka_int"], n_steps)
    assert bad == _reference_march(h, inputs["ks"], inputs["ka_int"], n_steps)[1] == lag


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


@pytest.mark.parametrize("tag, step, horizon", [("fig3", 0.1, 3.0), ("fig5", 0.05, 10.0)])
def test_interpolated_kernels_keep_the_per_tau_march(tag, step, horizon):
    # S and R of the interpolated path lie within 10*QUADRATURE_ATOL of
    # the quadrature (tests/test_correlation.py), and S >= 0, so to first
    # order |dK| <= Delta^2*(|dS| + |dR|) <= 20*QUADRATURE_ATOL*Delta^2.
    # P is the march's own resolvent and |P| <= 1, so a kernel error dK
    # moves P(t) by at most t^2/2*max|dK|
    p = build_params(FIGURE_PARAMS[tag])
    s = derived_scales(p)
    h, n_steps = time_grid(p, s, step, horizon)
    per_tau = solve_gme(h, *niba_kernels(quadrature_correlation(p, s), p.Delta, p.epsilon, h, n_steps))
    interpolated = simulate_population(p, s, step=step, horizon=horizon, correlation="quadrature")
    assert np.abs(per_tau.values).max() <= 1.0
    bound = 0.5 * per_tau.times**2 * p.Delta**2 * 20.0 * QUADRATURE_ATOL
    assert np.all(np.abs(interpolated.values - per_tau.values) <= bound)
