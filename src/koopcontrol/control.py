"""Discrete-time LQR machinery and the local-linearization baseline.

The Riccati solver is a plain fixed-point iteration of the DARE map

    P <- A^T P A - A^T P B (B^T P B + R)^-1 B^T P A + Q

started from P = Q, with symmetrization every sweep. That converges linearly
at the square of the closed-loop spectral radius, which is plenty for the
small systems here, and it keeps the solver i.e. the thing the controller
actually trusts, easy to audit. Success requires both the fixed point and a
strictly stable closed loop.

With one input, (B^T P B + R) is 1x1 and the gain is taken as
(B^T P A) * (1.0 / (B^T P B + R)), which skips np.linalg.solve's wrapper,
a third of a sweep's cost at this size. That product is what getrf and
getrs compute for a 1x1 system in OpenBLAS, the LAPACK numpy's wheels ship:
its triangular solve multiplies by the reciprocal of the pivot instead of
dividing by it. So the gain keeps the bits solve gives, and a zero pivot
raises LinAlgError as solve does. tests/test_control.py pins both the identity
across magnitudes and the whole iteration against a loop that calls solve,
so a LAPACK that divides fails the suite instead of moving bits. Wider R
goes through solve.

The plant and the LQR state weight Q_X (the read-only identity, which the
sensing loss weighs states by too) are fixed, so the local-linearization
baseline depends on its action weight r alone. build_jacobian_controller
keeps the last BASELINE_CACHE_SIZE controllers it built, keyed by float(r),
and hands every caller with an equal r the same JacobianController, whose
arrays are read-only. A process therefore runs the Riccati sweeps of a
weight once; a solve that raises DareSolverError is not kept and runs
again on the next call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics


class DareSolverError(RuntimeError):
    """Riccati iteration failed. Carries the last residual seen."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class DareSolution:
    p: np.ndarray
    gain: np.ndarray
    iterations: int
    residual: float
    closed_loop_radius: float


def spectral_radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(m, dtype=np.float64)))))


# the fixed point is reached when the max-norm of a sweep's update falls
# below DARE_TOL, and abandoned after DARE_MAX_SWEEPS sweeps
DARE_TOL = 1e-10
DARE_MAX_SWEEPS = 10000


def solve_dare(a, b, q, r):
    """Fixed-point DARE solve; returns solution with the LQR gain attached.

    Raises DareSolverError if the iteration does not reach DARE_TOL
    (max-norm of the update) within DARE_MAX_SWEEPS sweeps, or if the
    resulting closed loop A - B K is not strictly stable."""
    a, b, q, r = _as_system(a, b, q, r)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError("A must be square and B row-compatible with A")

    p = q.copy()
    residual = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, DARE_MAX_SWEEPS + 1):
            p_next, gain = _riccati_map(p, a, b, q, r)
            p_next = 0.5 * (p_next + p_next.T)
            residual = float(np.abs(p_next - p).max())
            # p is finite, so a non-finite iterate shows in the residual
            if not math.isfinite(residual) and not np.isfinite(p_next).all():
                raise DareSolverError(
                    f"Riccati iterate diverged after {it} sweeps "
                    "(system not stabilizable?)", residual=np.inf,
                    iterations=it)
            if residual < DARE_TOL:
                break
            p = p_next
        else:
            raise DareSolverError(
                f"no convergence after {DARE_MAX_SWEEPS} iterations "
                f"(residual {residual:.3e})",
                residual=residual, iterations=DARE_MAX_SWEEPS)
    # the update IS the defect of the current iterate, so return that one
    # with the gain this sweep took from it; the defect of p_next is
    # unmeasured and transients of the non-normal map can push it back
    # above DARE_TOL
    rho = spectral_radius(a - b @ gain)
    if rho >= 1.0:
        raise DareSolverError(
            f"converged Riccati point is not stabilizing (rho={rho:.6f})",
            residual=residual, iterations=it)
    return DareSolution(p=p, gain=gain, iterations=it,
                        residual=residual, closed_loop_radius=rho)


def lqr_gain(p, a, b, r):
    """K = (R + B^T P B)^-1 B^T P A."""
    a, b, p, r = _as_system(a, b, p, r)
    return _gain(p, a, b, r)


def dare_residual(p, a, b, q, r):
    """Max-norm defect of P against the DARE map; zero at the fixed point."""
    a, b, p, q, r = _as_system(a, b, p, q, r)
    rhs, _ = _riccati_map(p, a, b, q, r)
    return float(np.max(np.abs(rhs - p)))


def _as_system(a, b, *mats):
    """(a, b, *mats) as float64 arrays, with a 1-D `b` made a column."""
    a, b, *mats = (np.asarray(m, dtype=np.float64) for m in (a, b, *mats))
    return (a, b[:, None] if b.ndim == 1 else b, *mats)


def _gain(p, a, b, r):
    """`lqr_gain` on arrays `_as_system` already converted."""
    btp = b.T @ p
    s = btp @ b + r
    if s.shape != (1, 1):
        return np.linalg.solve(s, btp @ a)
    # one input: the reciprocal product LAPACK's getrf/getrs form for a
    # 1x1 system, bit for bit, without solve's wrapper (module docstring)
    pivot = s.item()
    if pivot == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return (btp @ a) * (1.0 / pivot)


def _riccati_map(p, a, b, q, r):
    """One unsymmetrized DARE map A^T P A - A^T P B K + Q, with K the LQR
    gain of P. Returns (map value, K); every argument must already be a
    float64 array, `b` 2-D."""
    atp = a.T @ p
    gain = _gain(p, a, b, r)
    return atp @ a - (atp @ b) @ gain + q, gain


@dataclass
class JacobianController:
    """LQR on the forward-Euler discretized linearization at the origin.

    This is the baseline the learned controller is compared against: it is
    exact at the operating point and progressively wrong away from it (the
    pole's control authority even flips sign once the angle passes pi/2).
    """
    gain: np.ndarray
    a_d: np.ndarray = field(repr=False)
    b_d: np.ndarray = field(repr=False)

    def __post_init__(self):
        # -K, negated once: the product (-K) x is what -K @ x computes
        self._neg_gain = -self.gain

    def action(self, state):
        """u = -K x."""
        return self._neg_gain @ np.asarray(state, dtype=np.float64)


# baselines kept per process; the least recently used one goes first
BASELINE_CACHE_SIZE = 8
Q_X = np.eye(dynamics.STATE_DIM)   # the LQR state weight, shared read-only
Q_X.setflags(write=False)


def build_jacobian_controller(r):
    """Linearize the cart-pole at the origin, discretize with forward Euler
    at the control period (A_d = I + TAU_O A_c, B_d = TAU_O B_c), and solve
    the DARE on the state weight Q_X and the action weight r I.

    An equal `r`, an int or a numpy scalar too, returns the same
    controller, solved once per process while it stays among the last
    BASELINE_CACHE_SIZE built (module docstring); its `gain`, `a_d` and
    `b_d` are read-only. A DareSolverError, its message prefixed with the
    weight r it failed at, is raised again on every call."""
    return _build_jacobian_controller(float(r))


@functools.lru_cache(maxsize=BASELINE_CACHE_SIZE)
def _build_jacobian_controller(r):
    a_c, b_c = dynamics.numeric_jacobian(
        dynamics.cartpole_derivative, np.zeros(dynamics.STATE_DIM),
        np.zeros(dynamics.ACTION_DIM))
    a_d = np.eye(dynamics.STATE_DIM) + dynamics.TAU_O * a_c
    b_d = dynamics.TAU_O * b_c
    try:
        sol = solve_dare(a_d, b_d, Q_X, np.eye(dynamics.ACTION_DIM) * r)
    except DareSolverError as exc:
        raise DareSolverError(f"baseline LQR at control.r = {r}: {exc}",
                              residual=exc.residual,
                              iterations=exc.iterations) from exc
    ctl = JacobianController(gain=sol.gain, a_d=a_d, b_d=b_d)
    # shared by every caller with this r
    for m in (ctl.gain, ctl.a_d, ctl.b_d, ctl._neg_gain):
        m.setflags(write=False)
    return ctl
