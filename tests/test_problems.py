import numpy as np
import pytest

from spacetime_hp import problems
from spacetime_hp.problems import (
    _IMAGE_TIME,
    _forcing,
    corner_singular,
    cutoff,
    cutoff_d1,
    cutoff_d2,
    get_problem,
    problem_u1,
    problem_u2,
    problem_u3,
)

from oracles import custom_problem, forcing_closed_form


def _fd_forcing(prob, t, xy, h=1e-4):
    """Finite-difference oracle for d_t u - Laplace u."""
    dt = (prob.u_exact(t + h, xy) - prob.u_exact(t - h, xy)) / (2 * h)
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    lap = (
        prob.u_exact(t, xy + e1)
        + prob.u_exact(t, xy - e1)
        + prob.u_exact(t, xy + e2)
        + prob.u_exact(t, xy - e2)
        - 4 * prob.u_exact(t, xy)
    ) / h**2
    return dt - lap


def _interior_points(rng, n=20):
    pts = []
    while len(pts) < n:
        q = rng.uniform(-0.95, 0.95, 2)
        if (q[0] < -0.05 or q[1] < -0.05) and np.hypot(*q) > 0.05:
            pts.append(q)
    return np.array(pts)


def _u1_partial_sum(terms, t, x):
    """The steady state x(1 - x)/2 of u1 minus its first `terms` odd transient
    modes, one at a time; converged to rounding at every time of U1_TIMES."""
    u = x * (1.0 - x) / 2.0
    for eta in range(1, terms + 1):
        m = 2 * eta - 1
        u -= 4.0 / (np.pi**3 * m**3) * np.exp(-(np.pi**2) * m**2 * t) * _odd_sine(m, x)
    return u


def _odd_sine(m, x):
    """sin(m pi x) for odd m, taken at the distance to the nearer end (the
    mode is symmetric about 1/2), so that it is 0 at x = 1 as at x = 0."""
    return np.sin(np.pi * m * np.minimum(x, 1.0 - x))


def _u1_du_dt_partial_sum(terms, t, x):
    """The time derivative of `_u1_partial_sum`, one term at a time."""
    du = np.zeros_like(x)
    for eta in range(1, terms + 1):
        m = 2 * eta - 1
        du += 4.0 / (np.pi * m) * np.exp(-(np.pi**2) * m**2 * t) * _odd_sine(m, x)
    return du


# the times at which u1 is compared with its 1000-term series: both sides of
# the switch from the image form to the mode form, and late times
U1_TIMES = [1e-4, 5e-4, _IMAGE_TIME * (1 - 1e-9), _IMAGE_TIME * (1 + 1e-9), 0.05, 0.3, 1.9]


def test_u1_initial_value_and_truncation_default():
    prob = problem_u1()
    x = np.linspace(0, 1, 50)
    for t in U1_TIMES:
        assert prob.u_exact(t, x) == pytest.approx(_u1_partial_sum(1000, t, x), rel=1e-12, abs=1e-15)
    assert np.abs(prob.u_exact(0.0, x)).max() == 0.0
    # x / (2 sqrt t) is 0 / 0 at an end at t = 0: no NaN there
    assert np.isfinite(prob.du_dt_exact(0.0, x)).all()
    assert prob.du_dt_exact(0.0, np.array([0.0, 1.0])).tolist() == [0.0, 0.0]


def test_u1_is_t_away_from_the_ends_at_small_times():
    # for t <= 1e-6 the ends are more than 25 diffusion lengths from
    # x in [0.05, 0.95], so u = t and d_t u = 1 there
    x = np.linspace(0.05, 0.95, 91)
    times = np.array([0.0, 1e-18, 1e-12, 1e-6])
    u, du_dt = problem_u1().at(x).exact(times[:, None])
    assert np.abs(u - times[:, None]).max() <= 1e-15
    assert np.abs(du_dt - 1.0).max() <= 1e-15


@pytest.mark.parametrize(
    "times",
    [[0.05, 0.3, 1.9], U1_TIMES],
    ids=["late", "mixed"],
)
def test_u1_live_modes_match_all_terms(times):
    # a column of late times takes the mode form for every row; a mixed
    # column takes the image form for its rows below the switch
    x = np.linspace(0, 1, 50)
    u, du_dt = problem_u1().at(x).exact(np.array(times)[:, None])
    for row, ti in zip(u, times):
        assert row == pytest.approx(_u1_partial_sum(1000, ti, x), rel=1e-12, abs=1e-15)
    for row, ti in zip(du_dt, times):
        assert row == pytest.approx(_u1_du_dt_partial_sum(1000, ti, x), rel=1e-12, abs=1e-15)


def test_u1_steady_state_midpoint():
    # stationary limit of the series is x(1-x)/2; at x = 1/2 it is 1/8
    prob = problem_u1()
    val = prob.u_exact(60.0, np.array([0.5]))[0]
    assert val == pytest.approx(0.125, abs=1e-9)


def test_u1_forcing_constant():
    prob = problem_u1()
    x = np.linspace(0, 1, 7)
    assert prob.g(0.3, x) == pytest.approx(np.ones(7))


def test_u1_solves_the_pde_on_both_sides_of_the_switch():
    # central differences of u satisfy d_t u - u_xx = g = 1, and d_t u =
    # du_dt_exact, up to the stencils' truncation: at most 5.7e-7 here, and
    # 4x that with both steps doubled. The points reach to 1e-3 from either
    # end, well inside the diffusion length sqrt(t), where u_xx changes most.
    prob = problem_u1()
    ends = np.geomspace(1e-3, 0.5, 20)
    x = np.concatenate([ends, 1.0 - ends])
    dt, h = 1e-6, 1e-4
    u = prob.u_exact
    for t in (_IMAGE_TIME / 2, _IMAGE_TIME, 2 * _IMAGE_TIME, 0.3):
        u_t = (u(t + dt, x) - u(t - dt, x)) / (2 * dt)
        u_xx = (u(t, x + h) + u(t, x - h) - 2 * u(t, x)) / h**2
        assert np.abs(u_t - u_xx - prob.g(t, x)).max() < 2e-6
        assert np.abs(u_t - prob.du_dt_exact(t, x)).max() < 2e-6


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_u1_image_and_mode_forms_agree_at_the_switch(monkeypatch, side):
    # the switch time is read at each call: set above t it selects the image
    # form, set below t the mode form
    t = _IMAGE_TIME * (1 + side * 1e-12)
    ev = problem_u1().at(np.linspace(0, 1, 201))
    forms = []
    for switch in (2 * t, t / 2):
        monkeypatch.setattr(problems, "_IMAGE_TIME", switch)
        forms.append(ev.exact(t))
    (u_image, du_image), (u_modes, du_modes) = forms
    assert np.abs(u_image - u_modes).max() <= 1e-14
    assert np.abs(du_image - du_modes).max() <= 1e-14


def test_cutoff_junction_smoothness():
    for r0 in (0.25, 0.75):
        inside = np.array([r0 - 1e-11])
        outside = np.array([r0 + 1e-11])
        assert cutoff(inside) == pytest.approx(cutoff(outside), abs=1e-9)
        assert cutoff_d1(outside) == pytest.approx(0.0, abs=1e-7)
        assert cutoff_d2(outside) == pytest.approx(0.0, abs=1e-5)
    assert cutoff(np.array([0.1]))[0] == 1.0
    assert cutoff(np.array([0.9]))[0] == 0.0


def test_corner_singular_boundary_legs():
    # Dirichlet legs of the reentrant corner: positive y-axis and positive x-axis
    ys = np.column_stack([np.zeros(9), np.linspace(0.01, 1, 9)])
    xs = np.column_stack([np.linspace(0.01, 1, 9), np.zeros(9)])
    assert np.abs(corner_singular(ys)).max() < 1e-14
    assert np.abs(corner_singular(xs)).max() < 1e-14


def test_corner_singular_origin_limit():
    assert corner_singular(np.array([[0.0, 0.0]]))[0] == 0.0


def test_corner_singular_is_harmonic():
    rng = np.random.default_rng(1)
    pts = _interior_points(rng)
    h = 1e-4
    e1, e2 = np.array([h, 0]), np.array([0, h])
    lap = (
        corner_singular(pts + e1)
        + corner_singular(pts - e1)
        + corner_singular(pts + e2)
        + corner_singular(pts - e2)
        - 4 * corner_singular(pts)
    ) / h**2
    assert np.abs(lap).max() < 1e-4


@pytest.mark.parametrize("factory", [problem_u2, problem_u3], ids=["u2", "u3"])
def test_lshape_compliance(factory):
    prob = factory()
    rng = np.random.default_rng(0)
    s = rng.uniform(-1, 1, 25)
    boundary = np.vstack(
        [
            np.column_stack([s, -np.ones(25)]),
            np.column_stack([-np.ones(25), s]),
            np.column_stack([s, np.where(s < 0, 1.0, 0.0)]),
            np.column_stack([np.where(s < 0, 1.0, 0.0), s]),
        ]
    )
    for t in rng.uniform(0, 2, 4):
        assert np.abs(prob.u_exact(t, boundary)).max() < 1e-10
    pts = _interior_points(rng, 100)
    assert np.abs(prob.u_exact(0.0, pts)).max() < 1e-10


@pytest.mark.parametrize("factory", [problem_u2, problem_u3], ids=["u2", "u3"])
def test_forcing_consistency_fd(factory):
    prob = factory()
    rng = np.random.default_rng(7)
    pts = _interior_points(rng)
    for t in (0.15, 0.6, 1.4):
        got = prob.g(t, pts)
        ref = _fd_forcing(prob, t, pts)
        scale = max(np.abs(ref).max(), 1e-2)
        assert np.abs(got - ref).max() / scale < 1e-5


def test_u3_temporal_factor():
    prob = problem_u3()
    pt = np.array([[-0.1, -0.1]])
    from spacetime_hp.problems import _Regular

    reg = _Regular(pt)
    sing = prob.u_exact(1.0, pt) - 1.0 * reg.s * reg.decay(1.0)
    base = cutoff(np.hypot(0.1, 0.1)) * corner_singular(pt)
    assert sing[0] / base[0] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_u3_derivative_singular_at_zero():
    prob = problem_u3()
    pts = np.array([[-0.3, -0.3]])
    with pytest.raises(ValueError):
        prob.du_dt_exact(0.0, pts)
    assert np.isfinite(prob.du_dt_exact(1e-6, pts)).all()


def test_registry():
    x = np.linspace(0, 1, 50)
    u = get_problem("u1").u_exact(0.01, x)
    assert u == pytest.approx(_u1_partial_sum(1000, 0.01, x), rel=1e-12, abs=1e-15)
    assert get_problem("u2").dimension == 2
    with pytest.raises(KeyError):
        get_problem("nope")


def test_u1_truncation_is_adequate():
    # the 32 modes from the switch on, and the one image pair below it, match
    # the series with 2000 terms as closely as with 1000
    prob = problem_u1()
    x = np.linspace(0.05, 0.95, 19)
    for t in U1_TIMES:
        assert prob.u_exact(t, x) == pytest.approx(_u1_partial_sum(2000, t, x), rel=1e-12, abs=1e-15)
        assert prob.du_dt_exact(t, x) == pytest.approx(_u1_du_dt_partial_sum(2000, t, x), rel=1e-12, abs=1e-15)


def test_u1_repeated_point_sets_are_not_confused():
    # two point sets with the same size, endpoints, sum and first 8 entries:
    # each must get its own values, whatever was evaluated before
    x1 = np.arange(1, 13) / 16
    x2 = x1.copy()
    x2[8] += 1 / 32
    x2[9] -= 1 / 32
    prob = problem_u1()
    prob.u_exact(0.5, x1)
    assert np.array_equal(prob.u_exact(0.5, x2), problem_u1().u_exact(0.5, x2))


def _points_for(prob, rng):
    if prob.dimension == 1:
        return rng.uniform(0.0, 1.0, 9)
    return _interior_points(rng, 9)


@pytest.mark.parametrize("factory", [problem_u1, problem_u2, problem_u3], ids=["u1", "u2", "u3"])
def test_evaluator_rows_match_fields(factory):
    prob = factory()
    rng = np.random.default_rng(11)
    x = _points_for(prob, rng)
    t = np.array([1e-3, 0.2, 0.7, 1.9])
    ev = prob.at(x)
    u, du_dt = ev.exact(t[:, None])
    for rows, field in ((u, prob.u_exact), (du_dt, prob.du_dt_exact), (_forcing(ev, t[:, None]), prob.g)):
        assert rows.shape == (len(t), len(x))
        for i, ti in enumerate(t):
            assert rows[i] == pytest.approx(field(ti, x), rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("factory", [problem_u1, problem_u2, problem_u3], ids=["u1", "u2", "u3"])
def test_scalar_time_keeps_one_value_per_point(factory):
    prob = factory()
    x = _points_for(prob, np.random.default_rng(12))
    ev = prob.at(x)
    for values in (*ev.exact(0.4), _forcing(ev, 0.4), prob.u_exact(0.4, x), prob.g(0.4, x)):
        assert values.shape == (len(x),)


def test_u3_evaluator_rejects_initial_time():
    prob = problem_u3()
    pts = np.array([[-0.3, -0.3], [-0.5, 0.2]])
    ev = prob.at(pts)
    times = np.array([[0.0], [0.5]])
    with pytest.raises(ValueError):
        prob.du_dt_exact(times, pts)
    with pytest.raises(ValueError):
        _forcing(ev, times)
    with pytest.raises(ValueError):
        prob.g(0.0, pts)
    u, du_dt = ev.exact(times)
    assert np.isfinite(u).all()
    # the exact pair marks the singular d_t u at t = 0 as NaN
    assert np.isnan(du_dt[0]).all() and np.isfinite(du_dt[1]).all()


def test_default_evaluator_broadcasts_plain_fields():
    prob = custom_problem(
        dimension=1,
        T=2.0,
        g=lambda t, x: np.ones_like(x),
        u_exact=lambda t, x: t * np.sin(np.pi * x),
        du_dt_exact=lambda t, x: np.sin(np.pi * x),
    )
    x = np.linspace(0.1, 0.9, 5)
    t = np.array([0.25, 1.5])
    ev = prob.at(x)
    u, du_dt = ev.exact(t[:, None])
    assert u == pytest.approx(np.outer(t, np.sin(np.pi * x)))
    assert du_dt == pytest.approx(np.tile(np.sin(np.pi * x), (2, 1)))
    assert _forcing(ev, t[:, None]).shape == (2, 5)
    assert ev.exact(0.25)[0].shape == (5,)


@pytest.mark.parametrize("name", ["u1", "u2", "u3"])
def test_separable_terms_reproduce_the_forcing(name):
    prob = get_problem(name)
    rng = np.random.default_rng(13)
    x = _points_for(prob, rng)
    t = np.concatenate([[1e-9, 1e-3], rng.uniform(0.01, prob.T, 6)])[:, None]
    ev = prob.at(x)
    # u1's g = 1 is one term; the L-shape forcing is tau' S - tau Laplace S
    # plus the smooth part's forcing as the remainder
    assert len(ev.terms) == (1 if name == "u1" else 2)
    assert (ev.g_rest is None) == (name == "u1")
    separable = sum(a(t) * f for a, f in ev.terms)
    total = separable if ev.g_rest is None else separable + ev.g_rest(t)
    ref = forcing_closed_form(name, t, x)
    assert total.shape == ref.shape == (len(t), len(x))
    assert np.abs(total - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.abs(_forcing(ev, t) - ref).max() <= 1e-14 * np.abs(ref).max()
