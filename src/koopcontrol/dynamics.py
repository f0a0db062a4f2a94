"""Cart-pole plant, RK4 integration, and finite-difference linearization.

State layout is [x, v, theta, omega]: cart position and velocity, pole angle
and angular rate. The force u on the cart is the single control input and is
held constant over each control period (zero-order hold). The plant is fixed:
its parameters and the control period TAU_O are module constants. With them
the open-loop origin is a saddle-like operating point: the cart velocity mode
is unstable (dv/dt picks up +0.4 v) while the pole angle sees a restoring
torque, which is what makes the regulation task nontrivial.

rk4_values takes one RK4 step of TAU_O on four Python floats rather than on
4-element arrays: at this size numpy's per-call overhead is most of the cost
of a step, and the closed loop pays it on every control period. step_plant
wraps it for a state array (input checks, noise draw, array result), and
data generation calls it directly on the four floats it carries. The float
arithmetic reproduces rk4_step over cartpole_derivative bit for bit: the
expression order is the same, squares stay ``** 2`` (libm pow, as numpy's
scalar power; ``x * x`` would reassociate the products it sits in), and
math.sin/math.cos agree with np.sin/np.cos on float64; the plant tests
check all of this against a numpy-scalar copy of the field. Where numpy would
return inf, a float power or division raises instead, and rk4_values maps
that to IntegrationDivergedError as it does a non-finite stage.

The parameter products of the field (m_p ell^2, -m_p^2 ell^2 nu, m_p ell and
m_pm m_p nu ell) are formed once, at import, and the term
m_p ell omega^2 s - delta v that both rates share once per field
evaluation. Each product is the left-most factors of its expression,
multiplied left to right as the expression reads, so every later product
and sum sees the same operands in the same order, and the bits stay those
of the expression written out in full. cartpole_derivative evaluates the
same field, so the numeric Jacobian and the baseline gain keep theirs too.
"""

from __future__ import annotations

import math

import numpy as np

STATE_DIM = 4
ACTION_DIM = 1

# step_plant treats anything past this as a blow-up rather than a state.
DIVERGENCE_BOUND = 1e9

# the plant, in this model's sign convention
M_P = 1.0      # pole mass
M_C = 5.0      # cart mass
LENGTH = 0.2
NU = -10.0     # gravity-like constant
DELTA = -2.0   # velocity coupling; negative value feeds energy in
# combined mass term in the angular equation; the second summand is the
# cart mass under this model's convention
M_PM = M_P + M_C
TAU_O = 0.01   # control period, and the RK4 step [s]

# the parameter products of the vector field, each formed left to right as
# its expression in the field reads
MPL2 = M_P * LENGTH**2
GRAV = -M_P**2 * LENGTH**2 * NU
MPL = M_P * LENGTH
ANG = M_PM * M_P * NU * LENGTH


class InvalidStateError(ValueError):
    """Non-finite state or action handed to the plant."""


class IntegrationDivergedError(RuntimeError):
    """Integration produced a non-finite or absurdly large state."""


def _action_value(action):
    """The force as a Python float. An action of any size but ACTION_DIM
    raises ValueError."""
    if isinstance(action, float):
        return float(action)   # a numpy float64 is a float, too
    action = np.asarray(action, dtype=np.float64)
    if action.size != ACTION_DIM:
        raise ValueError(
            f"action must have {ACTION_DIM} entry, got {action.size}")
    return action.item()


def _state_values(state, u):
    """The four state entries as Python floats, after the shape and
    finiteness checks every entry point applies."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (STATE_DIM,):
        raise ValueError(f"state must have shape ({STATE_DIM},)")
    values = state.tolist()
    if not (math.isfinite(u) and _finite(*values)):
        raise InvalidStateError("non-finite state or action")
    return values


def _finite(x, v, theta, omega):
    return (math.isfinite(x) and math.isfinite(v) and math.isfinite(theta)
            and math.isfinite(omega))


def _field(v, theta, omega, u):
    """(dv/dt, domega/dt) at one finite state, on Python floats, with the
    module's parameter products."""
    s, c = math.sin(theta), math.cos(theta)
    # m_p ell omega^2 s - delta v, shared by both rates
    shared = MPL * omega**2 * s - DELTA * v
    mplc = MPL * c
    den = MPL2 * (M_C + M_P * (1.0 - c**2))
    dv = (GRAV * c * s + MPL2 * shared + MPL2 * u) / den
    domega = (ANG * s - mplc * shared + mplc * u) / den
    return dv, domega


def cartpole_derivative(state, u):
    """Continuous-time vector field f(x, u)."""
    u = _action_value(u)
    _, v, theta, omega = _state_values(state, u)
    dv, domega = _field(v, theta, omega, u)
    return np.array([v, dv, omega, domega])


def rk4_step(f, state, u, h):
    """One classic fourth-order Runge-Kutta step with u held constant."""
    k1 = f(state, u)
    k2 = f(state + 0.5 * h * k1, u)
    k3 = f(state + 0.5 * h * k2, u)
    k4 = f(state + h * k3, u)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_values(x, v, theta, omega, u):
    """One RK4 step of TAU_O from the finite state (x, v, theta, omega)
    under the finite force u, all Python floats; returns the next state as
    four floats. Raises IntegrationDivergedError when a stage turns
    non-finite or the result leaves DIVERGENCE_BOUND.

    This is rk4_step's arithmetic in its order, with every stage input
    checked as cartpole_derivative checks its state. Inputs are not
    checked: step_plant does that, and a caller that steps its own floats
    (data generation) keeps them finite itself."""
    isfinite = math.isfinite
    h = TAU_O
    half, sixth = 0.5 * h, h / 6.0
    try:
        dv1, dw1 = _field(v, theta, omega, u)
        x2, v2 = x + half * v, v + half * dv1
        th2, w2 = theta + half * omega, omega + half * dw1
        if not (isfinite(x2) and isfinite(v2) and isfinite(th2)
                and isfinite(w2)):
            raise IntegrationDivergedError("non-finite RK4 stage")
        dv2, dw2 = _field(v2, th2, w2, u)
        x3, v3 = x + half * v2, v + half * dv2
        th3, w3 = theta + half * w2, omega + half * dw2
        if not (isfinite(x3) and isfinite(v3) and isfinite(th3)
                and isfinite(w3)):
            raise IntegrationDivergedError("non-finite RK4 stage")
        dv3, dw3 = _field(v3, th3, w3, u)
        x4, v4 = x + h * v3, v + h * dv3
        th4, w4 = theta + h * w3, omega + h * dw3
        if not (isfinite(x4) and isfinite(v4) and isfinite(th4)
                and isfinite(w4)):
            raise IntegrationDivergedError("non-finite RK4 stage")
        dv4, dw4 = _field(v4, th4, w4, u)
        x, v, theta, omega = (
            x + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4),
            v + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4),
            theta + sixth * (omega + 2.0 * w2 + 2.0 * w3 + w4),
            omega + sixth * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4))
    except ArithmeticError as exc:
        # a float power or division that raises where numpy gives inf or
        # nan: the input was finite, so the integration blew up mid-period
        raise IntegrationDivergedError(str(exc)) from exc
    # a NaN fails every comparison, so this also rejects NaN and inf
    bound = DIVERGENCE_BOUND
    if not (abs(x) <= bound and abs(v) <= bound and abs(theta) <= bound
            and abs(omega) <= bound):
        raise IntegrationDivergedError(
            "state left the finite range after one control period: "
            f"{np.array([x, v, theta, omega])}")
    return x, v, theta, omega


def step_plant(state, action, noise_var=0.0, rng=None):
    """Advance the plant one control period: one RK4 step of TAU_O under a
    held action, then, when `noise_var` is positive, one additive Gaussian
    draw of that variance per state entry from `rng`, which is then
    required. A negative or NaN `noise_var` raises ValueError, and so does
    an action whose size is not ACTION_DIM.

    The step checks the state and action (InvalidStateError when either is
    not finite) and runs rk4_values on their floats."""
    u = _action_value(action)
    nxt = np.array(rk4_values(*_state_values(state, u), u))
    if noise_var != 0.0:
        if not noise_var > 0.0:
            raise ValueError("noise variance must be >= 0")
        if rng is None:
            raise ValueError("rng required when noise variance > 0")
        nxt = nxt + rng.normal(0.0, np.sqrt(noise_var), size=nxt.shape)
    return nxt


def numeric_jacobian(f, state, action, eps=1e-6):
    """Central-difference linearization of f(x, u) at (state, action); f
    takes u as a (q,) array, as cartpole_derivative does.

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
        a[:, j] = (np.asarray(f(state + dx, action))
                   - np.asarray(f(state - dx, action))) / (2.0 * eps)

    b = np.zeros((n, q))
    for j in range(q):
        du = np.zeros(q)
        du[j] = eps
        b[:, j] = (np.asarray(f(state, action + du))
                   - np.asarray(f(state, action - du))) / (2.0 * eps)
    return a, b
