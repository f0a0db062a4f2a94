"""Cart-pole plant tests: vector field against an independent symbolic
transcription, RK4 order, plant stepping, numeric linearization."""

import numpy as np
import pytest
import sympy as sp

from koopcontrol import dynamics


def _symbolic_field():
    """The four-equation vector field transcribed independently in sympy.

    dv/dt = (-mp^2 L^2 nu c s + mp L^2 (mp L w^2 s - delta v) + mp L^2 u)
            / (mp L^2 (mc + mp (1 - c^2)))
    dw/dt = (mpm mp nu L s - mp L c (mp L w^2 s - delta v) + mp L c u)
            / (mp L^2 (mc + mp (1 - c^2)))
    """
    x, v, th, w, u = sp.symbols("x v theta omega u")
    mp_, mc, L, nu, delta = sp.Rational(1), sp.Rational(5), sp.Rational(1, 5), \
        sp.Rational(-10), sp.Rational(-2)
    mpm = mp_ + mc
    s, c = sp.sin(th), sp.cos(th)
    den = mp_ * L**2 * (mc + mp_ * (1 - c**2))
    dv = (-mp_**2 * L**2 * nu * c * s
          + mp_ * L**2 * (mp_ * L * w**2 * s - delta * v)
          + mp_ * L**2 * u) / den
    dw = (mpm * mp_ * nu * L * s
          - mp_ * L * c * (mp_ * L * w**2 * s - delta * v)
          + mp_ * L * c * u) / den
    return (x, v, th, w, u), sp.Matrix([v, dv, w, dw])


def test_equilibrium_is_fixed_point():
    out = dynamics.cartpole_derivative(np.zeros(4), 0.0)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_unit_velocity_oracle():
    # symbolic evaluation at theta=0: dv/dt = -delta*v/mc = 0.4,
    # dw/dt = delta*v/(L*mc) = -2
    out = dynamics.cartpole_derivative(np.array([0.0, 1.0, 0.0, 0.0]), 0.0)
    assert np.allclose(out, [1.0, 0.4, 0.0, -2.0], atol=1e-12)


def test_unit_force_oracle():
    # dv/dt = u/mc = 0.2, dw/dt = u/(L*mc) = 1
    out = dynamics.cartpole_derivative(np.zeros(4), 1.0)
    assert np.allclose(out, [0.0, 0.2, 0.0, 1.0], atol=1e-12)


def test_vector_field_matches_symbolic_transcription():
    syms, field = _symbolic_field()
    f_num = sp.lambdify(syms, field, "numpy")
    rng = np.random.default_rng(42)
    for _ in range(25):
        st = rng.uniform(-3.0, 3.0, size=4)
        u = rng.uniform(-5.0, 5.0)
        ours = dynamics.cartpole_derivative(st, u)
        ref = np.asarray(f_num(st[0], st[1], st[2], st[3], u),
                         dtype=np.float64).ravel()
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_rk4_single_step_taylor_oracle():
    # x' = -x from 1 with h = 0.1: one RK4 step returns exactly the
    # fourth-order Taylor truncation 1 - h + h^2/2 - h^3/6 + h^4/24
    out = dynamics.rk4_step(lambda x, u: -x, np.array([1.0]), 0.0, 0.1)
    assert np.isclose(out[0], 0.90483750, rtol=0, atol=1e-12)


def test_rk4_observed_order_on_cartpole():
    x0 = np.array([0.1, -0.2, 0.3, 0.1])

    def integrate(h, t_end=0.32):
        x = x0.copy()
        for _ in range(int(round(t_end / h))):
            x = dynamics.rk4_step(dynamics.cartpole_derivative, x, 0.5, h)
        return x

    ref = integrate(0.0005)
    err_coarse = np.linalg.norm(integrate(0.02) - ref)
    err_fine = np.linalg.norm(integrate(0.01) - ref)
    order = np.log2(err_coarse / err_fine)
    assert abs(order - 4.0) < 0.3


def _array_field():
    """The vector field on numpy float64 scalars with np.sin/np.cos, in the
    source's expression order: the array form step_plant's float arithmetic
    must reproduce bit for bit (libm pow for ** 2, and sin/cos alike)."""
    m_p, m_c, ell = dynamics.M_P, dynamics.M_C, dynamics.LENGTH
    nu, delta, m_pm = dynamics.NU, dynamics.DELTA, dynamics.M_PM

    def f(state, u):
        _, v, theta, omega = state
        s, c = np.sin(theta), np.cos(theta)
        den = m_p * ell**2 * (m_c + m_p * (1.0 - c**2))
        dv = (-m_p**2 * ell**2 * nu * c * s
              + m_p * ell**2 * (m_p * ell * omega**2 * s - delta * v)
              + m_p * ell**2 * u) / den
        domega = (m_pm * m_p * nu * ell * s
                  - m_p * ell * c * (m_p * ell * omega**2 * s - delta * v)
                  + m_p * ell * c * u) / den
        return np.array([v, dv, omega, domega])
    return f


def test_step_plant_substeps_match_manual_composition():
    array_field = _array_field()
    h = dynamics.TAU_O
    rng = np.random.default_rng(2209)
    outcomes = {"stepped": 0, "diverged": 0}
    for scale in (1e-2, 1.0, 1e2, 1e4):
        for _ in range(20):
            x = rng.normal(size=4) * scale
            u = float(rng.normal() * scale)
            with np.errstate(over="ignore", invalid="ignore"):
                reference = dynamics.rk4_step(array_field, x, u, h)
            if not np.all(np.abs(reference) <= dynamics.DIVERGENCE_BOUND):
                outcomes["diverged"] += 1
                with pytest.raises(dynamics.IntegrationDivergedError):
                    dynamics.step_plant(tuple(x.tolist()), u)
                continue
            outcomes["stepped"] += 1
            manual = dynamics.rk4_step(dynamics.cartpole_derivative, x, u, h)
            stepped = np.array(dynamics.step_plant(tuple(x.tolist()), u))
            assert np.array_equal(stepped, manual)
            assert stepped.tobytes() == reference.tobytes()
    assert min(outcomes.values()) > 0


def test_step_plant_steps_four_floats():
    # the closed loop carries the state as floats: the step returns four
    # Python floats, and a numpy state or action steps with the bits of
    # their floats
    x = (0.1, -0.2, 0.3, 0.1)
    out = dynamics.step_plant(x, 0.5)
    assert isinstance(out, tuple) and len(out) == 4
    assert all(type(v) is float for v in out)
    assert dynamics.step_plant(np.array(x), np.array([0.5])) == out
    assert dynamics.step_plant(list(x), 0.5) == out
    noisy = dynamics.step_plant(x, 0.5, noise_var=1e-4,
                                rng=np.random.default_rng(3))
    assert all(type(v) is float for v in noisy)


def test_step_plant_noise_is_the_array_steps_block():
    # the noise is one (STATE_DIM,) normal block from `rng`, added entry by
    # entry to the clean step: the bits of the array step's nxt + block
    x = (0.1, -0.2, 0.3, 0.1)
    clean = np.array(dynamics.step_plant(x, 0.5))
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = np.array(dynamics.step_plant(x, 0.5, noise_var=1e-4, rng=rng))
        want = clean + ref.normal(0.0, np.sqrt(1e-4), size=clean.shape)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("state", [(0.0,) * 3, (0.0,) * 5, ()])
def test_state_of_the_wrong_length_raises(state):
    with pytest.raises(ValueError, match="state must have 4 entries"):
        dynamics.step_plant(state, 0.0)


@pytest.mark.parametrize("state, action", [
    ((0.0, float("nan"), 0.0, 0.0), 0.0),
    ((0.0, 0.0, float("inf"), 0.0), 0.0),
    ((0.0,) * 4, float("nan")),
    ((0.0,) * 4, np.array([-np.inf]))])
def test_step_plant_rejects_a_non_finite_state_or_action(state, action):
    with pytest.raises(dynamics.InvalidStateError):
        dynamics.step_plant(state, action)


def test_step_plant_noise_is_one_unbiased_draw():
    x = (0.1, 0.0, 0.2, 0.0)
    clean = np.array(dynamics.step_plant(x, 0.0))
    rng = np.random.default_rng(2024)
    n = 10_000
    acc = np.zeros(4)
    for _ in range(n):
        acc += np.array(dynamics.step_plant(x, 0.0, noise_var=0.01,
                                            rng=rng)) - clean
    mean_dev = acc / n
    # sigma = 0.1, so 4*sigma/sqrt(n) = 4e-3
    assert np.all(np.abs(mean_dev) < 4e-3)


def test_step_plant_requires_rng_with_noise():
    with pytest.raises(ValueError):
        dynamics.step_plant((0.0,) * 4, 0.0, noise_var=0.1)
    # a negative or NaN variance is refused, with or without a generator
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            dynamics.step_plant((0.0,) * 4, 0.0, noise_var=bad,
                                rng=np.random.default_rng(0))


def test_step_plant_deterministic_given_seed():
    args = ((0.1, 0.2, 0.3, 0.4), 0.7)
    a = dynamics.step_plant(*args, noise_var=0.05,
                            rng=np.random.default_rng(99))
    b = dynamics.step_plant(*args, noise_var=0.05,
                            rng=np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_step_plant_divergence_guard():
    for state in ([0.0, 1e300, 0.0, 0.0],    # finite, past the bound
                  [0.0, 0.0, 0.3, 1e160],    # omega ** 2 overflows
                  [0.0, 1e308, 0.0, 0.0]):   # non-finite at RK4 stage 2
        with pytest.raises(dynamics.IntegrationDivergedError):
            dynamics.step_plant(state, 0.0)


def test_a_state_past_the_bound_is_named_in_the_error(monkeypatch):
    # the message lists the four values the step reached, each as repr
    # gives it
    state = (2e9, 0.5, 0.1, -0.2)
    with pytest.raises(dynamics.IntegrationDivergedError) as err:
        dynamics.rk4_values(*state, 0.3)
    monkeypatch.setattr(dynamics, "DIVERGENCE_BOUND", float("inf"))
    reached = dynamics.rk4_values(*state, 0.3)
    assert str(err.value) == (
        "state left the finite range after one control period: ["
        + ", ".join(map(repr, reached)) + "]")


@pytest.mark.parametrize("action", [np.array([0.3, 5.0]), np.zeros(0),
                                    [0.3, 5.0]])
def test_action_of_the_wrong_size_raises(action):
    with pytest.raises(ValueError, match="action must have 1 entry"):
        dynamics.step_plant((0.0,) * 4, action)
    with pytest.raises(ValueError, match="action must have 1 entry"):
        dynamics.cartpole_derivative(np.zeros(4), action)


def test_every_one_entry_action_form_steps_alike():
    x = (0.1, -0.2, 0.3, 0.1)
    expect = np.array(dynamics.step_plant(x, 2.0)).tobytes()
    for action in (2, np.float64(2.0), np.array(2.0), np.array([2.0]),
                   np.array([[2.0]]), [2.0], np.array([2.0], np.float32)):
        assert np.array(dynamics.step_plant(x, action)).tobytes() == expect
        assert dynamics.cartpole_derivative(x, action).tobytes() \
            == dynamics.cartpole_derivative(x, 2.0).tobytes()


def test_derivative_rejects_non_finite_state():
    with pytest.raises(dynamics.InvalidStateError):
        dynamics.cartpole_derivative(np.array([0.0, np.nan, 0.0, 0.0]), 0.0)


def test_combined_mass_term():
    assert dynamics.M_PM == 6.0


def test_params_are_frozen_under_their_cached_products():
    assert dynamics.MPL2 == dynamics.M_P * dynamics.LENGTH**2


def test_numeric_jacobian_matches_symbolic_linearization():
    syms, field = _symbolic_field()
    x, v, th, w, u = syms
    a_sym = np.array(field.jacobian([x, v, th, w])
                     .subs({x: 0, v: 0, th: 0, w: 0, u: 0}), dtype=np.float64)
    b_sym = np.array(field.diff(u)
                     .subs({x: 0, v: 0, th: 0, w: 0, u: 0}),
                     dtype=np.float64).reshape(4, 1)

    a_num, b_num = dynamics.numeric_jacobian(
        dynamics.cartpole_derivative, np.zeros(4), np.zeros(1))
    assert b_num.shape == (4, 1)
    assert np.allclose(a_num, a_sym, atol=1e-6)
    assert np.allclose(b_num, b_sym, atol=1e-6)
    # frozen spot values of the symbolic linearization at the origin
    assert np.isclose(a_num[1, 1], 0.4, atol=1e-6)    # dvdot/dv = -delta/mc
    assert np.isclose(b_num[1, 0], 0.2, atol=1e-6)    # dvdot/du = 1/mc
    assert np.isclose(a_num[3, 1], -2.0, atol=1e-6)   # dwdot/dv
    assert np.isclose(b_num[3, 0], 1.0, atol=1e-6)    # dwdot/du


def test_origin_linearization_eigenstructure():
    # Open-loop modes at the upright equilibrium, from the symbolic
    # characteristic polynomial lambda*(5l^3 - 2l^2 + 300l - 100)/5: a free
    # integrator (cart position), one unstable real mode, and a lightly
    # anti-damped oscillatory pole pair.
    a, _ = dynamics.numeric_jacobian(
        dynamics.cartpole_derivative, np.zeros(4), np.zeros(1))
    eig = np.linalg.eigvals(a)
    assert any(abs(e) < 1e-6 for e in eig)
    assert any(abs(e - 0.33345665) < 1e-5 for e in eig)
    assert any(abs(e - (0.03327167 + 7.74446278j)) < 1e-5 for e in eig)
    assert any(abs(e - (0.03327167 - 7.74446278j)) < 1e-5 for e in eig)
    # every non-integrator mode sits strictly in the right half plane: the
    # plant is unstable in all directions that matter for control
    assert all(e.real > 0.0 for e in eig if abs(e) > 1e-6)
