"""Riccati solver and LQR tests, cross-checked against closed forms and scipy."""

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from koopcontrol import control, dynamics

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def test_dare_uncontrolled_scalar_closed_form():
    # A=0.5, B=0, Q=R=1: P = A^2 P + Q -> P = 1/(1-0.25) = 4/3, K = 0
    sol = control.solve_dare(np.array([[0.5]]), np.array([[0.0]]),
                             np.eye(1), np.eye(1))
    assert np.isclose(sol.p[0, 0], 4.0 / 3.0, atol=1e-9)
    assert np.allclose(sol.gain, 0.0, atol=1e-12)
    assert sol.closed_loop_radius < 1.0


def test_dare_golden_ratio_closed_form():
    # A=B=Q=R=1: P^2 - P - 1 = 0 -> P = phi; K = P/(1+P) = phi - 1
    sol = control.solve_dare(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
    assert np.isclose(sol.p[0, 0], GOLDEN, atol=1e-9)
    assert np.isclose(sol.gain[0, 0], GOLDEN - 1.0, atol=1e-9)


def test_lqr_gain_zero_actuation():
    k = control.lqr_gain(np.eye(3) * 2.0, np.eye(3), np.zeros((3, 1)),
                         np.eye(1))
    assert np.allclose(k, 0.0)


def test_dare_residual_definition():
    sol = control.solve_dare(np.eye(1) * 0.9, np.eye(1), np.eye(1), np.eye(1))
    res = control.dare_residual(sol.p, np.eye(1) * 0.9, np.eye(1), np.eye(1),
                                np.eye(1))
    assert res < 1e-9


def _random_stabilizable(rng, n=3, q=1):
    """Random (A, B) rejected unless (A, B) is stabilizable (checked by PBH
    on the unstable eigenvalues)."""
    while True:
        a = rng.normal(scale=0.8, size=(n, n))
        b = rng.normal(size=(n, q))
        eigvals = np.linalg.eigvals(a)
        ok = True
        for lam in eigvals:
            if abs(lam) >= 1.0 - 1e-9:
                pbh = np.hstack([lam * np.eye(n) - a, b.astype(complex)])
                if np.linalg.matrix_rank(pbh, tol=1e-10) < n:
                    ok = False
                    break
        if ok:
            return a, b


def test_dare_random_systems_match_scipy_and_stabilize():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = _random_stabilizable(rng)
        q = np.eye(3)
        r = np.eye(1)
        sol = control.solve_dare(a, b, q, r)
        ref = solve_discrete_are(a, b, q, r)
        assert np.allclose(sol.p, ref, rtol=1e-6, atol=1e-8)
        assert control.spectral_radius(a - b @ sol.gain) < 1.0
        assert np.allclose(sol.p, sol.p.T, atol=1e-10)


def test_dare_gain_matches_definition():
    rng = np.random.default_rng(21)
    a, b = _random_stabilizable(rng)
    sol = control.solve_dare(a, b, np.eye(3), np.eye(1))
    k = control.lqr_gain(sol.p, a, b, np.eye(1))
    assert np.allclose(sol.gain, k, atol=1e-12)


def test_dare_unstabilizable_system_raises():
    # unstable mode with no control authority
    a = np.diag([2.0, 0.5])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(control.DareSolverError):
        control.solve_dare(a, b, np.eye(2), np.eye(1))


@pytest.mark.parametrize("a, b", [
    (np.diag([2.0, 0.5]), np.array([[0.0], [1.0]])),
    (np.array([[3.0]]), np.array([[0.0]])),
])
def test_dare_divergence_raises_at_the_first_non_finite_sweep(a, b):
    # the sweep that first makes a non-finite iterate, found by checking
    # every iterate for finiteness, is where the solver raises
    q, r = np.eye(a.shape[0]), np.eye(1)
    p = q.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(1, 10001):
            p_next, _ = control._riccati_map(p, a, b, q, r)
            p_next = 0.5 * (p_next + p_next.T)
            if not np.isfinite(p_next).all():
                break
            p = p_next
    assert sweep < 10000
    with pytest.raises(control.DareSolverError, match="diverged") as err:
        control.solve_dare(a, b, q, r)
    assert err.value.iterations == sweep
    assert err.value.residual == np.inf


def test_dare_iteration_budget_respected():
    with pytest.raises(control.DareSolverError) as err:
        control.solve_dare(np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]),
                           np.eye(2), np.eye(1), max_iter=50)
    assert err.value.iterations <= 50


def test_optimal_action_sign_and_shape():
    ctl = control.JacobianController(gain=np.array([[1.0, -2.0]]),
                                     a_d=np.eye(2), b_d=np.ones((2, 1)))
    u = ctl.action(np.array([3.0, 1.0]))
    assert u.shape == (1,)
    assert np.isclose(u[0], -1.0)    # -(3 - 2)


def test_jacobian_controller_discretization():
    params = dynamics.CartPoleParams()
    integ = dynamics.IntegratorConfig()
    ctl = control.build_jacobian_controller(params, integ, np.eye(4),
                                            np.eye(1))
    # forward Euler: A_d = I + tau_o * A_c, so A_d[0,1] = tau_o = 0.01
    assert np.isclose(ctl.a_d[0, 1], 0.01, atol=1e-9)
    assert np.isclose(ctl.a_d[1, 1], 1.004, atol=1e-7)
    assert np.isclose(ctl.b_d[1, 0], 0.002, atol=1e-9)
    assert control.spectral_radius(ctl.a_d - ctl.b_d @ ctl.gain) < 1.0


def test_jacobian_controller_stabilizes_near_equilibrium():
    params = dynamics.CartPoleParams()
    integ = dynamics.IntegratorConfig()
    ctl = control.build_jacobian_controller(params, integ, np.eye(4),
                                            np.eye(1))
    x = np.full(4, 0.05)
    for _ in range(1000):    # 10 s of control
        u = ctl.action(x)
        x = dynamics.step_plant(x, u, params, integ)
    assert np.linalg.norm(x) < 1e-2
