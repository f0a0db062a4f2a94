"""Cart-pole plant, RK4 integration, and finite-difference linearization.

State layout is [x, v, theta, omega]: cart position and velocity, pole angle
and angular rate. The force u on the cart is the single control input and is
held constant over each control period (zero-order hold). With the default
parameters the open-loop origin is a saddle-like operating point: the cart
velocity mode is unstable (dv/dt picks up +0.4 v) while the pole angle sees
a restoring torque, which is what makes the regulation task nontrivial.

step_plant runs its RK4 substeps on four Python floats rather than on
4-element arrays: at this size numpy's per-call overhead is most of the cost
of a step, and the closed loop pays it on every control period. The float
arithmetic reproduces rk4_step over cartpole_derivative bit for bit: the
expression order is the same, squares stay ``** 2`` (libm pow, as numpy's
scalar power; ``x * x`` would reassociate the products it sits in), and
math.sin/math.cos agree with np.sin/np.cos on float64; the plant tests
check all of this against a numpy-scalar copy of the field. Where numpy would
return inf, a float power or division raises instead, and step_plant maps
that to IntegrationDivergedError as it does a non-finite stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STATE_DIM = 4
ACTION_DIM = 1

# step_plant treats anything past this as a blow-up rather than a state.
DIVERGENCE_BOUND = 1e9


class InvalidStateError(ValueError):
    """Non-finite state or action handed to the plant."""


class IntegrationDivergedError(RuntimeError):
    """Integration produced a non-finite or absurdly large state."""


@dataclass
class CartPoleParams:
    m_p: float = 1.0    # pole mass
    m_c: float = 5.0    # cart mass
    length: float = 0.2
    nu: float = -10.0   # gravity-like constant, sign convention of the model
    delta: float = -2.0  # velocity coupling; negative value feeds energy in

    @property
    def m_pm(self):
        # combined mass term in the angular equation; the second summand is
        # the cart mass under this model's convention
        return self.m_p + self.m_c


@dataclass
class NoiseSpec:
    variance: float = 0.0

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValueError("noise variance must be >= 0")


@dataclass
class IntegratorConfig:
    h: float = 0.01       # RK4 step [s]
    tau_o: float = 0.01   # control period [s]

    def __post_init__(self):
        if self.h <= 0.0 or self.tau_o <= 0.0:
            raise ValueError("h and tau_o must be positive")
        ratio = self.tau_o / self.h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("tau_o must be an integer multiple of h")

    @property
    def substeps(self):
        return int(round(self.tau_o / self.h))


def _state_values(state, u):
    """The four state entries as Python floats, after the shape and
    finiteness checks every entry point applies."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (STATE_DIM,):
        raise ValueError(f"state must have shape ({STATE_DIM},)")
    values = state.tolist()
    if not math.isfinite(u):
        raise InvalidStateError("non-finite state or action")
    _require_finite(*values)
    return values


def _finite(x, v, theta, omega):
    return (math.isfinite(x) and math.isfinite(v) and math.isfinite(theta)
            and math.isfinite(omega))


def _require_finite(x, v, theta, omega):
    if not _finite(x, v, theta, omega):
        raise InvalidStateError("non-finite state or action")


def _field(v, theta, omega, u, params):
    """(dv/dt, domega/dt) at one finite state, on Python floats."""
    m_p, m_c, ell = params.m_p, params.m_c, params.length
    nu, delta, m_pm = params.nu, params.delta, params.m_pm
    s, c = math.sin(theta), math.cos(theta)

    den = m_p * ell**2 * (m_c + m_p * (1.0 - c**2))
    dv = (-m_p**2 * ell**2 * nu * c * s
          + m_p * ell**2 * (m_p * ell * omega**2 * s - delta * v)
          + m_p * ell**2 * u) / den
    domega = (m_pm * m_p * nu * ell * s
              - m_p * ell * c * (m_p * ell * omega**2 * s - delta * v)
              + m_p * ell * c * u) / den
    return dv, domega


def cartpole_derivative(state, u, params):
    """Continuous-time vector field f(x, u)."""
    _, v, theta, omega = _state_values(state, u)
    dv, domega = _field(v, theta, omega, u, params)
    return np.array([v, dv, omega, domega])


def rk4_step(f, state, u, h):
    """One classic fourth-order Runge-Kutta step with u held constant."""
    k1 = f(state, u)
    k2 = f(state + 0.5 * h * k1, u)
    k3 = f(state + 0.5 * h * k2, u)
    k4 = f(state + h * k3, u)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_plant(state, action, params, integrator, noise=None, rng=None):
    """Advance the plant one control period: substeps of RK4 under a held
    action, then one additive Gaussian disturbance draw on the sampled state
    (skipped when the configured variance is zero).

    The substeps run rk4_step's arithmetic on four Python floats, in its
    order, and check every stage input as cartpole_derivative does."""
    u = float(np.asarray(action).reshape(-1)[0]) if np.ndim(action) else float(action)
    x, v, theta, omega = _state_values(state, u)
    h = integrator.h
    half, sixth = 0.5 * h, h / 6.0
    try:
        for _ in range(integrator.substeps):
            _require_finite(x, v, theta, omega)
            dv1, dw1 = _field(v, theta, omega, u, params)
            x2, v2 = x + half * v, v + half * dv1
            th2, w2 = theta + half * omega, omega + half * dw1
            _require_finite(x2, v2, th2, w2)
            dv2, dw2 = _field(v2, th2, w2, u, params)
            x3, v3 = x + half * v2, v + half * dv2
            th3, w3 = theta + half * w2, omega + half * dw2
            _require_finite(x3, v3, th3, w3)
            dv3, dw3 = _field(v3, th3, w3, u, params)
            x4, v4 = x + h * v3, v + h * dv3
            th4, w4 = theta + h * w3, omega + h * dw3
            _require_finite(x4, v4, th4, w4)
            dv4, dw4 = _field(v4, th4, w4, u, params)
            x, v, theta, omega = (
                x + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4),
                v + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4),
                theta + sixth * (omega + 2.0 * w2 + 2.0 * w3 + w4),
                omega + sixth * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4))
    except (InvalidStateError, ArithmeticError) as exc:
        # the input was finite, so a non-finite stage, or a float power or
        # division that raises where numpy gives inf or nan, means the
        # integration blew up mid-period
        raise IntegrationDivergedError(str(exc)) from exc
    nxt = np.array([x, v, theta, omega])
    if not _finite(x, v, theta, omega) \
            or max(abs(x), abs(v), abs(theta), abs(omega)) > DIVERGENCE_BOUND:
        raise IntegrationDivergedError(
            f"state left the finite range after one control period: {nxt}")
    if noise is not None and noise.variance > 0.0:
        if rng is None:
            raise ValueError("rng required when noise variance > 0")
        nxt = nxt + rng.normal(0.0, np.sqrt(noise.variance), size=nxt.shape)
    return nxt


def numeric_jacobian(f, state, action, eps=1e-6):
    """Central-difference linearization of f(x, u) at (state, action).

    Returns (A, B) with A = df/dx and B = df/du, B shaped (n, 1) for the
    scalar-force plant."""
    state = np.asarray(state, dtype=np.float64)
    action = np.atleast_1d(np.asarray(action, dtype=np.float64))
    n = state.shape[0]
    q = action.shape[0]

    a = np.zeros((n, n))
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = eps
        a[:, j] = (np.asarray(f(state + dx, _as_u(action)))
                   - np.asarray(f(state - dx, _as_u(action)))) / (2.0 * eps)

    b = np.zeros((n, q))
    for j in range(q):
        du = np.zeros(q)
        du[j] = eps
        b[:, j] = (np.asarray(f(state, _as_u(action + du)))
                   - np.asarray(f(state, _as_u(action - du)))) / (2.0 * eps)
    return a, b


def _as_u(action):
    action = np.atleast_1d(action)
    return float(action[0]) if action.shape[0] == 1 else action
