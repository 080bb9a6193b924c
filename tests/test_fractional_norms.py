import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spacetime_hp.quadrature import gauss_legendre

from fractional_norms import (
    FourierExpansion,
    check_interpolation_inequality,
    check_poincare,
    ellipticity_pairing_fourier,
    duality_pairing_fourier,
    eval_expansion,
    fourier_coefficients,
    h1_seminorm_fourier,
    h12_norm_fourier,
    hilbert_transform_series,
    l2_norm_fourier,
    l2_pairing_with_transform,
    localization_gap,
    sine_modes,
    slobodetskii_seminorm,
    slobodetskii_triple_norm,
)


def _rand_expansion(rng, K=10, interval=(0.0, 2.0)):
    return FourierExpansion(interval, rng.standard_normal(K))


def test_fourier_coefficients_orthonormality():
    T = 2.0
    v0 = lambda t: np.sqrt(2 / T) * np.sin(np.pi * np.asarray(t, float) / (2 * T))
    exp = fourier_coefficients(v0, (0, T), 8)
    assert exp.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(exp.coefficients[1:]).max() < 1e-12


def test_fourier_coefficients_linear_closed_form():
    exp = fourier_coefficients(lambda t: np.asarray(t, float), (0, 1), 5)
    assert exp.coefficients[0] == pytest.approx(4 * np.sqrt(2) / np.pi**2, abs=1e-13)


def test_fourier_coefficients_zero():
    exp = fourier_coefficients(lambda t: np.zeros_like(np.asarray(t, float)), (0, 1), 6)
    assert np.abs(exp.coefficients).max() < 1e-15


def test_h12_norm_single_mode():
    exp = FourierExpansion((0.0, 2.0), np.array([1.0]))
    assert h12_norm_fourier(exp) == pytest.approx(np.sqrt(np.pi / 4), abs=1e-14)
    zero = FourierExpansion((0.0, 2.0), np.zeros(4))
    assert h12_norm_fourier(zero) == 0.0


@settings(max_examples=25, deadline=None)
@given(c=st.floats(-10, 10), seed=st.integers(0, 10**6))
def test_h12_norm_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(6)
    base = h12_norm_fourier(FourierExpansion((0.0, 1.5), coeffs))
    scaled = h12_norm_fourier(FourierExpansion((0.0, 1.5), c * coeffs))
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)


def test_transform_series_mode_map():
    # the transform sends the first sine mode to the matching cosine mode
    T = 2.0
    exp = FourierExpansion((0.0, T), np.array([0.7]))
    t = np.linspace(0, T, 9)
    expected = 0.7 * np.sqrt(2 / T) * np.cos(np.pi * t / (2 * T))
    assert hilbert_transform_series(exp, t) == pytest.approx(expected, abs=1e-14)
    zero = FourierExpansion((0.0, T), np.zeros(3))
    assert np.all(hilbert_transform_series(zero, t) == 0.0)


def test_transform_is_l2_isometry():
    rng = np.random.default_rng(0)
    T = 2.0
    exp = _rand_expansion(rng, K=10, interval=(0.0, T))
    nodes, weights = gauss_legendre(400)
    t = T * (nodes + 1) / 2
    w = T * weights / 2
    htv = hilbert_transform_series(exp, t)
    assert np.dot(w, htv**2) == pytest.approx(np.sum(exp.coefficients**2), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_ellipticity_identity_fourier(seed):
    rng = np.random.default_rng(seed)
    exp = _rand_expansion(rng)
    assert ellipticity_pairing_fourier(exp) == pytest.approx(
        h12_norm_fourier(exp) ** 2, rel=1e-11, abs=1e-14
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_symmetry_of_duality_pairing(seed):
    rng = np.random.default_rng(seed)
    w = _rand_expansion(rng)
    v = _rand_expansion(rng)
    assert duality_pairing_fourier(w, v) == pytest.approx(
        duality_pairing_fourier(v, w), rel=1e-11, abs=1e-14
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_transform_positivity(seed):
    rng = np.random.default_rng(seed)
    exp = _rand_expansion(rng)
    assert l2_pairing_with_transform(exp) >= -1e-12


def test_transform_positivity_matches_quadrature():
    rng = np.random.default_rng(3)
    T = 2.0
    exp = _rand_expansion(rng, K=8, interval=(0.0, T))
    nodes, weights = gauss_legendre(500)
    t = T * (nodes + 1) / 2
    w = T * weights / 2
    got = np.dot(w, eval_expansion(exp, t) * hilbert_transform_series(exp, t))
    assert l2_pairing_with_transform(exp) == pytest.approx(got, abs=1e-10)


def test_poincare_sharpness_lowest_mode():
    exp = FourierExpansion((0.0, 2.0), np.array([1.0]))
    worst = check_poincare([exp])
    assert worst == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)


def test_poincare_strict_for_higher_mode():
    exp = FourierExpansion((0.0, 2.0), np.array([0.0, 1.0]))
    worst = check_poincare([exp])
    assert np.all(worst < 1.0 - 1e-6)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_poincare_random_expansions(seed):
    rng = np.random.default_rng(seed)
    worst = check_poincare([_rand_expansion(rng, K=8)])
    assert np.all(worst <= 1.0 + 1e-12)


def test_interpolation_inequality_cases():
    single = FourierExpansion((0.0, 2.0), np.array([2.5]))
    # single mode: equality within 1e-12
    assert h12_norm_fourier(single) ** 2 == pytest.approx(
        l2_norm_fourier(single) * h1_seminorm_fourier(single), rel=1e-12
    )
    assert check_interpolation_inequality(single)
    zero = FourierExpansion((0.0, 2.0), np.zeros(3))
    assert check_interpolation_inequality(zero)
    rng = np.random.default_rng(8)
    for _ in range(100):
        exp = _rand_expansion(rng)
        assert check_interpolation_inequality(exp)
        # multi-mode is strict
        assert h12_norm_fourier(exp) ** 2 < l2_norm_fourier(exp) * h1_seminorm_fourier(exp)


def test_slobodetskii_triple_norm_linear():
    # v(t) = t on (0,1): L2^2 = 1/3, seminorm^2 = 1, weighted = 1/2
    got = slobodetskii_triple_norm(lambda t: np.asarray(t, float), (0, 1))
    assert got == pytest.approx(np.sqrt(11 / 6), abs=1e-10)


def test_slobodetskii_zero():
    got = slobodetskii_triple_norm(lambda t: np.zeros_like(np.asarray(t, float)), (0, 1))
    assert got == pytest.approx(0.0, abs=1e-12)


def test_slobodetskii_detects_divergence():
    with pytest.raises(ValueError):
        slobodetskii_triple_norm(lambda t: np.ones_like(np.asarray(t, float)), (0, 1))


def test_norm_equivalence_sandwich():
    # triple norm vs interpolation norm on random 5-mode expansions: the
    # ratio stays within fixed finite bounds (constants logged for inspection)
    rng = np.random.default_rng(17)
    ratios = []
    for _ in range(5):
        exp = _rand_expansion(rng, K=5, interval=(0.0, 2.0))
        v = lambda t: eval_expansion(exp, t)
        triple = slobodetskii_triple_norm(v, exp.interval, quad_n=60)
        ratios.append(triple / h12_norm_fourier(exp))
    ratios = np.array(ratios)
    assert np.all(ratios > 1e-3) and np.all(ratios < 1e3)
    assert ratios.max() / ratios.min() < 10.0


def test_localization_dominates_seminorm():
    # smooth functions vanishing at a and at the split point keep every
    # integral finite; the localized right side dominates
    for tau in (0.3, 0.5, 0.8):
        v = lambda t: np.asarray(t, float) * (np.asarray(t, float) - tau) * np.exp(
            -np.asarray(t, float)
        )
        assert localization_gap(v, (0.0, 1.0), tau) > -1e-8


def test_localization_with_modes():
    T = 2.0
    exp = FourierExpansion((0.0, T), np.array([1.0, -0.3, 0.2]))
    v0 = lambda t: eval_expansion(exp, t)
    tau = 0.7
    shift = v0(np.array([tau]))[0]
    # subtract the linear ramp through (tau, v(tau)) scaled to vanish at 0
    v = lambda t: v0(t) - shift * np.asarray(t, float) / tau
    assert localization_gap(v, (0.0, T), tau, quad_n=60) > -1e-8


def test_seminorm_of_linear_is_exact():
    assert slobodetskii_seminorm(lambda t: 3.0 * np.asarray(t, float), (0, 1)) == pytest.approx(
        9.0, rel=1e-12
    )


def test_sine_modes_orthonormal():
    T = 1.7
    nodes, weights = gauss_legendre(200)
    t = T * (nodes + 1) / 2
    w = T * weights / 2
    V = sine_modes((0.0, T), np.arange(6), t)
    G = (V * w) @ V.T
    assert G == pytest.approx(np.eye(6), abs=1e-12)
