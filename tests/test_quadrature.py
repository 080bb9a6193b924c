import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings, strategies as st

from spacetime_hp.quadrature import gauss_legendre, log_weighted_rule, triangle_rule

from oracles import integrate_1d


def test_gauss_legendre_small_closed_forms():
    x1, w1 = gauss_legendre(1)
    assert x1 == pytest.approx([0.0])
    assert w1 == pytest.approx([2.0])
    x2, w2 = gauss_legendre(2)
    assert x2 == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
    assert w2 == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gauss_legendre_odd_symmetry():
    x, w = gauss_legendre(8)
    assert abs(np.dot(w, x**15)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
def test_gauss_legendre_exactness_and_weight_sum(n):
    x, w = gauss_legendre(n)
    assert abs(w.sum() - 2.0) < 1e-13
    # degree of exactness 2n - 1
    for d in range(2 * n):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert np.dot(w, x**d) == pytest.approx(exact, abs=1e-12)


def test_gauss_legendre_invalid():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_gauss_legendre_rules_are_immutable():
    x, w = gauss_legendre(4)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_log_rule_trivial_moments():
    x, w = log_weighted_rule(4)
    assert np.dot(w, np.ones_like(x)) == pytest.approx(-1.0, abs=1e-14)
    assert np.dot(w, x) == pytest.approx(-0.25, abs=1e-14)
    assert np.dot(w, x**2) == pytest.approx(-1.0 / 9.0, abs=1e-14)


@pytest.mark.parametrize("n", list(range(1, 41)))
def test_log_rule_exactness_all_orders(n):
    x, w = log_weighted_rule(n)
    # exact for q(x) ln(x) with deg q <= 2n - 1
    for d in range(2 * n):
        got = np.dot(w, x**d)
        assert got == pytest.approx(-1.0 / (d + 1) ** 2, rel=1e-12)


def test_log_rule_against_quadpack():
    x, w = log_weighted_rule(8)
    f = lambda x: 3 * x**5 - x**2 + 0.7
    exact, _ = si.quad(f, 0, 1, weight="alg-loga", wvar=(0, 0))
    assert np.dot(w, f(x)) == pytest.approx(exact, abs=1e-14)


def test_log_rule_invalid():
    with pytest.raises(ValueError):
        log_weighted_rule(0)


def test_integrate_1d_basics():
    r = gauss_legendre(4)
    assert integrate_1d(r, lambda t: np.ones_like(t), (0, 2)) == pytest.approx(2.0)
    T = 3.7
    assert integrate_1d(r, lambda t: t, (0, T)) == pytest.approx(T**2 / 2)
    r12 = gauss_legendre(12)
    got = integrate_1d(r12, lambda t: np.sin(np.pi * t / 2), (0, 2))
    assert got == pytest.approx(4 / np.pi, abs=1e-12)


def test_integrate_1d_empty_interval():
    with pytest.raises(ValueError):
        integrate_1d(gauss_legendre(2), lambda t: t, (1.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-3, 3),
    length=st.floats(0.1, 5),
    shift=st.floats(-2, 2),
    scale=st.floats(0.2, 3),
)
def test_affine_invariance(a, length, shift, scale):
    # integrating f(phi(t))*|phi'| over (a,b) equals integrating f over phi((a,b))
    r = gauss_legendre(10)
    b = a + length
    f = lambda x: x**3 - 2 * x + 1
    phi = lambda t: scale * t + shift
    lhs = integrate_1d(r, lambda t: f(phi(t)) * scale, (a, b))
    rhs = integrate_1d(r, f, (phi(a), phi(b)))
    assert lhs == pytest.approx(rhs, abs=1e-13 * max(1, abs(rhs)))


def test_convergence_monotone_for_exp():
    errs = []
    exact = np.e - 1
    for n in range(2, 11):
        errs.append(abs(integrate_1d(gauss_legendre(n), np.exp, (0, 1)) - exact))
    for e0, e1 in zip(errs, errs[1:]):
        if e0 < 1e-15:
            break
        assert e1 < e0


def test_triangle_rule_measure_and_exactness():
    # exact integral of x^p y^q over the reference triangle: p! q! / (p+q+2)!
    from math import factorial

    for n in range(3, 8):
        nodes, w = triangle_rule(n)
        assert len(w) == n * n
        assert abs(w.sum() - 0.5) < 1e-13
        x, y = nodes[:, 0], nodes[:, 1]
        # exact to total degree 2n - 2
        for p in range(2 * n - 1):
            for q in range(2 * n - 1 - p):
                exact = factorial(p) * factorial(q) / factorial(p + q + 2)
                assert np.dot(w, x**p * y**q) == pytest.approx(exact, rel=1e-12)
        # and no further: x^(2n-1) is off by 1.2e-6 (n = 7) to 1.5e-2 (n = 3)
        d = 2 * n - 1
        assert np.dot(w, x**d) != pytest.approx(factorial(d) / factorial(d + 2), rel=1e-7)
