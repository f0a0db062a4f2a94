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


def _textbook_dare(a, b, q, r, tol=1e-10, max_iter=10000):
    """The fixed-point DARE iteration written out as in a textbook, with
    np.linalg.solve for the gain and the map A^T P A - A^T P B K + Q.
    Returns ("converged", P, K, sweeps), ("diverged", sweep) at the first
    non-finite iterate, or ("budget", max_iter, last update)."""
    p = q.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(1, max_iter + 1):
            k = np.linalg.solve(b.T @ p @ b + r, b.T @ p @ a)
            p_next = a.T @ p @ a - a.T @ p @ b @ k + q
            p_next = 0.5 * (p_next + p_next.T)
            if not np.isfinite(p_next).all():
                return "diverged", sweep
            update = float(np.abs(p_next - p).max())
            if update < tol:
                return "converged", p, k, sweep
            p = p_next
    return "budget", max_iter, update


def _jacobian_system():
    ctl = control.build_jacobian_controller(1.0)
    return ctl.a_d, ctl.b_d


def test_dare_matches_the_textbook_iteration_bit_for_bit():
    rng = np.random.default_rng(15)
    systems = [(*_random_stabilizable(rng, n=n), np.eye(n), np.eye(1) * r)
               for n in (3, 4) for r in (0.1, 1.0, 10.0)]
    systems.append((*_jacobian_system(), np.eye(4), np.eye(1)))
    for a, b, q, r in systems:
        outcome, p, k, sweeps = _textbook_dare(a, b, q, r)
        assert outcome == "converged"
        sol = control.solve_dare(a, b, q, r)
        assert sol.iterations == sweeps
        assert sol.p.tobytes() == p.tobytes()
        assert sol.gain.tobytes() == k.tobytes()


@pytest.mark.parametrize("a, b", [
    (np.diag([2.0, 0.5]), np.array([[0.0], [1.0]])),
    (np.array([[3.0]]), np.array([[0.0]])),
])
def test_dare_divergence_raises_at_the_first_non_finite_sweep(a, b):
    # the sweep at which the textbook iteration first makes a non-finite
    # iterate is where the solver raises
    q, r = np.eye(a.shape[0]), np.eye(1)
    outcome, sweep = _textbook_dare(a, b, q, r)
    assert outcome == "diverged" and sweep < 10000
    with pytest.raises(control.DareSolverError, match="diverged") as err:
        control.solve_dare(a, b, q, r)
    assert err.value.iterations == sweep
    assert err.value.residual == np.inf


def test_dare_iteration_budget_respected(monkeypatch):
    for a, b, q, r, budget in (
            (np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]), np.eye(2),
             np.eye(1), 50),
            (*_jacobian_system(), np.eye(4), np.eye(1), 500)):
        outcome, sweeps, update = _textbook_dare(a, b, q, r,
                                                 max_iter=budget)
        assert outcome == "budget"
        monkeypatch.setattr(control, "DARE_MAX_SWEEPS", budget)
        with pytest.raises(control.DareSolverError, match="no convergence") \
                as err:
            control.solve_dare(a, b, q, r)
        assert err.value.iterations == sweeps == budget
        assert err.value.residual == update


def test_one_input_reciprocal_gain_is_what_solve_computes():
    # the 1x1 identity the solver relies on, across +-20 decades of both
    # the pivot and the right-hand side; a LAPACK that divides fails here
    rng = np.random.default_rng(2209)
    decades = np.repeat(np.arange(-20, 21), 200)
    n = decades.size
    s = (rng.choice([-1.0, 1.0], size=n) * rng.uniform(1.0, 10.0, size=n)
         * 10.0 ** decades).reshape(n, 1, 1)
    rhs = rng.normal(size=(n, 1, 4)) \
        * 10.0 ** rng.integers(-20, 21, size=(n, 1, 4))
    assert (rhs * (1.0 / s)).tobytes() == np.linalg.solve(s, rhs).tobytes()
    # and lqr_gain, which takes that path for one input, gives solve's bits
    for r in 10.0 ** np.arange(-20, 21):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 1))
        p = np.eye(3) + 0.1 * np.ones((3, 3))
        r = np.array([[r]])
        assert control.lqr_gain(p, a, b, r).tobytes() \
            == np.linalg.solve(b.T @ p @ b + r, b.T @ p @ a).tobytes()


def test_one_input_zero_pivot_raises_as_solve_does():
    with pytest.raises(np.linalg.LinAlgError):
        control.lqr_gain(np.eye(2), np.eye(2), np.zeros((2, 1)),
                         np.zeros((1, 1)))


def test_optimal_action_sign_and_shape():
    ctl = control.JacobianController(gain=np.array([[1.0, -2.0]]),
                                     a_d=np.eye(2), b_d=np.ones((2, 1)))
    u = ctl.action(np.array([3.0, 1.0]))
    assert u.shape == (1,)
    assert np.isclose(u[0], -1.0)    # -(3 - 2)


def test_jacobian_controller_discretization():
    ctl = control.build_jacobian_controller(1.0)
    # forward Euler: A_d = I + tau_o * A_c, so A_d[0,1] = tau_o = 0.01
    assert np.isclose(ctl.a_d[0, 1], 0.01, atol=1e-9)
    assert np.isclose(ctl.a_d[1, 1], 1.004, atol=1e-7)
    assert np.isclose(ctl.b_d[1, 0], 0.002, atol=1e-9)
    assert control.spectral_radius(ctl.a_d - ctl.b_d @ ctl.gain) < 1.0


def test_jacobian_controller_stabilizes_near_equilibrium():
    ctl = control.build_jacobian_controller(1.0)
    x = (0.05,) * 4
    for _ in range(1000):    # 10 s of control
        u = ctl.action(x)
        x = dynamics.step_plant(x, u)
    assert np.linalg.norm(x) < 1e-2


# ---------------------------------------------------------------------------
# the baseline memo
# ---------------------------------------------------------------------------

def test_equal_baseline_weights_share_one_controller():
    ctl = control.build_jacobian_controller(1.0)
    # an equal float action weight, a numpy one and an int too
    assert control.build_jacobian_controller(np.float64(1.0)) is ctl
    assert control.build_jacobian_controller(1) is ctl
    assert control.build_jacobian_controller(2.0) is not ctl


def test_baseline_matches_a_solve_on_the_written_out_weights():
    # the DARE on the identity state weight and r I, bit for bit
    for r in (1.0, 2.0, 0.5):
        ctl = control.build_jacobian_controller(r)
        sol = control.solve_dare(ctl.a_d, ctl.b_d, np.eye(4), np.eye(1) * r)
        assert ctl.gain.tobytes() == sol.gain.tobytes()


def test_shared_baseline_arrays_are_read_only():
    ctl = control.build_jacobian_controller(1.0)
    for arr in (ctl.gain, ctl.a_d, ctl.b_d, ctl._neg_gain):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0


def test_baseline_solver_error_is_raised_on_every_call(monkeypatch):
    # at r = 100 the fixed-point sweep runs out of iterations; the failure
    # is not kept, so every call solves and raises again
    calls = []
    solve = control.solve_dare

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(control, "solve_dare", counting)
    for _ in range(2):
        with pytest.raises(control.DareSolverError, match="no convergence"):
            control.build_jacobian_controller(100.0)
    assert len(calls) == 2


def test_failed_baseline_solve_names_its_weight():
    # the solver's own message, residual and sweep count, prefixed with the
    # config key and value that chose the weight
    a_d, b_d = _jacobian_system()
    with pytest.raises(control.DareSolverError) as plain:
        control.solve_dare(a_d, b_d, np.eye(4), np.eye(1) * 100.0)
    with pytest.raises(control.DareSolverError) as err:
        control.build_jacobian_controller(100)
    assert str(err.value) == \
        f"baseline LQR at control.r = 100.0: {plain.value}"
    assert err.value.residual == plain.value.residual
    assert err.value.iterations == plain.value.iterations == \
        control.DARE_MAX_SWEEPS
