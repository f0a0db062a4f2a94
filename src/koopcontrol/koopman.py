"""Split Koopman autoencoders: sensing (state) and controlling (action) models.

The sensing model lifts the state into a d-dimensional latent through an
encoder g and evolves the augmented vector y_m = [g(x_m); u_m] linearly,

    g(x_{m+1}) ~ K11 g(x_m) + K12 u_m,

with K_s = [K11 | K12] learned jointly with g, a decoder g^-1 taking y back
to the state, and a cost matrix that makes quadratic state costs computable
in latent space. Multi-step symbols like K_s^k y_m always mean the iterated
one-step map fed a control sequence, never a literal matrix power.

The controlling model reuses the same encoder and evolves the *action*:
u_{m+1} ~ K21' g(x_m) + K22' u_m, with its own decoder back to the state.
The actuator uses it to ride out downlink outages.

Training losses are built on the autodiff tape from (B, M_d+1, p) state and
(B, M_d+1, q) action window arrays, the states being what the loss side
holds (received estimates for sensing, true states for controlling). The
windows set the prediction depth M_d: each rollout loss rolls out once,
from the window anchor to the last column. Each loss takes the latent
tensors as an argument so a split deployment can inject latents as received
leaves (gradients then stop at the transmission boundary and are shipped
back separately); the two total losses encode them in-graph when omitted.
"""

from __future__ import annotations

import json

import numpy as np

from .autodiff import (Parameter, block_affine, concat_cols, constant,
                       mse_rows, quad_rows, weighted_sum)
from .control import Q_X
from .neural import make_mlp, network_from_dict, network_to_dict

CHECKPOINT_FORMAT = "koopcontrol-checkpoint-v1"

DEFAULT_ENCODER_HIDDEN = (128, 64, 32)


# loss weights: c1..c4 of the sensing loss, c1'..c3' of the controlling loss
SENSING_WEIGHTS = (0.5, 1.0, 0.5, 1.0)
CONTROLLING_WEIGHTS = (0.5, 1.0, 0.5)


def project_psd(m):
    """Nearest positive semidefinite matrix: symmetrize, then clip negative
    eigenvalues to zero. Idempotent."""
    m = np.asarray(m, dtype=np.float64)
    sym = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.T
    return 0.5 * (out + out.T)


def _decoder_dims(p, d, q, encoder_hidden):
    # two width-(d+q) layers, then the encoder stack mirrored
    return [d + q, d + q, d + q, *reversed(encoder_hidden), p]


class _KoopmanAutoencoder:
    """What both models are: an encoder g (p -> d), a Koopman matrix
    [K1 | K2] acting on [g(x); u] with u of width q, and a decoder taking
    [latent; u] back to the state."""

    def __init__(self, encoder, koopman, decoder, rows):
        self.encoder = encoder
        self.decoder = decoder
        self.koopman = koopman
        self.p = encoder.d_in
        self.d = encoder.d_out
        self.q = koopman.value.shape[1] - self.d
        if koopman.value.shape[0] != getattr(self, rows) or self.q < 1:
            raise ValueError(f"Koopman matrix must be ({rows}, d+q)")
        if decoder.d_in != self.d + self.q or decoder.d_out != self.p:
            raise ValueError("decoder must map (d+q) -> p")

    def encode(self, x):
        return self.encoder.predict(x)

    def decode(self, y):
        return self.decoder.predict(y)


class SensingModel(_KoopmanAutoencoder):
    """Encoder + state Koopman matrix + decoder + trainable cost matrix."""

    def __init__(self, encoder, koopman, decoder, cost):
        super().__init__(encoder, koopman, decoder, rows="d")
        self.cost = cost
        if cost.value.shape != (self.d, self.d):
            raise ValueError("cost matrix must be (d, d)")

    @classmethod
    def build(cls, p, d, q, rng, encoder_hidden=DEFAULT_ENCODER_HIDDEN):
        encoder = make_mlp([p, *encoder_hidden, d], rng)
        decoder = make_mlp(_decoder_dims(p, d, q, encoder_hidden), rng)
        # start the latent map near "latent persists, control ignored";
        # a small perturbation breaks symmetry without risking unstable
        # rollouts in the first epochs
        k = np.concatenate([np.eye(d), np.zeros((d, q))], axis=1)
        k += 0.01 * rng.standard_normal(k.shape)
        cost = np.eye(d)
        return cls(encoder, Parameter(k, name="K_s"), decoder,
                   Parameter(cost, name="cost"))

    # numpy views of the Koopman blocks
    @property
    def k11(self):
        return self.koopman.value[:, :self.d]

    @property
    def k12(self):
        return self.koopman.value[:, self.d:]

    def encoder_parameters(self):
        return self.encoder.parameters()

    def server_parameters(self):
        """Everything trained on the controller side of the split."""
        return [self.koopman, *self.decoder.parameters(), self.cost]

    def parameters(self):
        return [*self.encoder_parameters(), *self.server_parameters()]


class ControllingModel(_KoopmanAutoencoder):
    """Action Koopman matrix + decoder, sharing the sensing encoder."""

    def __init__(self, encoder, koopman, decoder):
        super().__init__(encoder, koopman, decoder, rows="q")

    @classmethod
    def build(cls, sensing, rng):
        hidden = [layer.d_out for layer in sensing.encoder.layers[:-1]]
        p, d, q = sensing.p, sensing.d, sensing.q
        decoder = make_mlp(_decoder_dims(p, d, q, hidden), rng)
        k = np.concatenate([np.zeros((q, d)), np.eye(q)], axis=1)
        k += 0.01 * rng.standard_normal(k.shape)
        return cls(sensing.encoder, Parameter(k, name="K_a"), decoder)

    @property
    def k21(self):
        return self.koopman.value[:, :self.d]

    @property
    def k22(self):
        return self.koopman.value[:, self.d:]

    def local_parameters(self):
        """Trained at the actuator; the shared encoder is a snapshot and is
        left out on purpose."""
        return [self.koopman, *self.decoder.parameters()]

    def parameters(self):
        return [*self.encoder.parameters(), *self.local_parameters()]


# ---------------------------------------------------------------------------
# linear evolution and action prediction (numpy, inference path, one sample
# or a stack of rows)
# ---------------------------------------------------------------------------

def latent_step(model, latent, u):
    """One linear step [K1 | K2] [latent; u] of either model: K11 latent +
    K12 u for the sensing model, the action K21' latent + K22' u for the
    controlling one. Takes one latent (d,) or a stack of rows (k, d) with
    one command per row; each row is its own matrix-vector product, so a
    stack gives the bits of k single steps."""
    k, d = model.koopman.value, model.d
    latent = np.asarray(latent, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64).reshape(latent.shape[:-1] + (-1, 1))
    return (k[:, :d] @ latent[..., None] + k[:, d:] @ u)[..., 0]


# the controlling model's step, under its own name: wrapping `latent_step`
# to count latent steps leaves the action steps out
action_step = latent_step


def predict_actions(model, u, latent):
    """The actuator's action step through a downlink outage: K21' `latent`
    + K22' `u`, the (q,) command one loop past the command `u` in force,
    from the (d,) latent the actuator holds. A burst of losses chains one
    call per lost loop."""
    return action_step(model, latent, u)


# ---------------------------------------------------------------------------
# training losses (tape graph)
# ---------------------------------------------------------------------------

def encode_windows(model, states):
    """In-graph latents, one (B, d) tensor per window time index."""
    return [model.encoder.forward(states[:, t, :])
            for t in range(states.shape[1])]


def _rollout(model, latents, actions):
    """The latent rollout endpoint: start at the window anchor and iterate
    to the window end, feeding the recorded controls."""
    lat = latents[0]
    for j in range(actions.shape[1] - 1):
        lat = block_affine(lat, constant(actions[:, j, :]), model.koopman,
                           model.d)
    return lat


def _action_rollout(model, latents, actions):
    """Controlling analog of _rollout: evolve the action estimate from the
    anchor command, feeding the recorded latent at every step."""
    act = constant(actions[:, 0, :])
    for j in range(actions.shape[1] - 1):
        act = block_affine(latents[j], act, model.koopman, model.d)
    return act


def _depth_mean(targets, pred):
    """Mean over the target offsets m' = 1..M_d of mse_rows(target, pred),
    one target tensor per offset: their sum, then scaled by 1/M_d."""
    terms = [mse_rows(t, pred) for t in targets]
    return weighted_sum(terms, [1.0] * len(terms), scale=1.0 / len(terms))


def _targets(windows):
    """Constant targets windows[:, m', :] for m' = 1..M_d."""
    return [constant(windows[:, mp, :]) for mp in range(1, windows.shape[1])]


def loss_reconstruction(model, states, actions, latents):
    """L1 (sensing) and L1' (controlling): anchor state reconstruction
    through the model's decoder, mean over the batch."""
    y0 = concat_cols([latents[0], constant(actions[:, 0, :])])
    return mse_rows(constant(states[:, 0, :]), model.decoder.forward(y0))


def loss_latent_evolution(model, actions, latents):
    """L2: latent targets vs the rollout endpoint, averaged over the target
    offsets m' = 1..M_d."""
    return _depth_mean(latents[1:], _rollout(model, latents, actions))


def loss_state_prediction(model, states, actions, latents):
    """L3: state targets vs the decoded rollout endpoint, decoded with the
    control recorded at the window end."""
    pred = model.decoder.forward(concat_cols(
        [_rollout(model, latents, actions), constant(actions[:, -1, :])]))
    return _depth_mean(_targets(states), pred)


def loss_cost_consistency(model, states, q_x, latents):
    """L4: quadratic state cost vs the latent quadratic form under the
    trainable cost matrix, at the window anchor."""
    x0 = states[:, 0, :]
    q_x = np.asarray(q_x, dtype=np.float64)
    lhs = np.einsum("bi,ij,bj->b", x0, q_x, x0)
    rhs = quad_rows(latents[0], model.cost)
    return mse_rows(constant(lhs), rhs)


def loss_action_evolution(model, actions, latents):
    """L2': action targets vs the action-rollout endpoint."""
    pred = _action_rollout(model, latents, actions)
    return _depth_mean(_targets(actions), pred)


def loss_action_state_prediction(model, states, actions, latents):
    """L3': state targets vs the actuator decode of [end latent; predicted
    action]."""
    pred = model.decoder.forward(
        concat_cols([latents[-1], _action_rollout(model, latents, actions)]))
    return _depth_mean(_targets(states), pred)


def _total(terms, weights, return_terms):
    """sum_i weights[i] terms[i], and the terms by name l1, l2, ... when
    asked for."""
    total = weighted_sum(terms, weights)
    if return_terms:
        return total, {f"l{i}": t for i, t in enumerate(terms, 1)}
    return total


def total_sensing_loss(model, states, actions, q_x=Q_X,
                       latents=None, return_terms=False):
    """Weighted sensing loss c1 L1 + c2 L2 + c3 L3 + c4 L4 on one graph, the
    weights SENSING_WEIGHTS; L4 weighs the state by `q_x`, by default the
    fixed LQR state weight `control.Q_X`."""
    if latents is None:
        latents = encode_windows(model, states)
    terms = [loss_reconstruction(model, states, actions, latents),
             loss_latent_evolution(model, actions, latents),
             loss_state_prediction(model, states, actions, latents),
             loss_cost_consistency(model, states, q_x, latents)]
    return _total(terms, SENSING_WEIGHTS, return_terms)


def total_controlling_loss(model, states, actions, latents=None,
                           return_terms=False):
    """Weighted controlling loss c1' L1' + c2' L2' + c3' L3', the weights
    CONTROLLING_WEIGHTS."""
    if latents is None:
        latents = encode_windows(model, states)
    terms = [loss_reconstruction(model, states, actions, latents),
             loss_action_evolution(model, actions, latents),
             loss_action_state_prediction(model, states, actions, latents)]
    return _total(terms, CONTROLLING_WEIGHTS, return_terms)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def checkpoint_to_dict(model):
    kind = "sensing" if isinstance(model, SensingModel) else "controlling"
    data = {
        "format": CHECKPOINT_FORMAT,
        "kind": kind,
        "p": model.p,
        "d": model.d,
        "q": model.q,
        "encoder": network_to_dict(model.encoder),
        "koopman": model.koopman.value.tolist(),
        "decoder": network_to_dict(model.decoder),
    }
    if kind == "sensing":
        data["cost"] = model.cost.value.tolist()
    return data


def checkpoint_from_dict(data, encoder=None):
    """Rebuild a model from its checkpoint dict. Pass `encoder` to re-share
    an existing encoder instance instead of loading the stored copy (the
    controlling model normally shares the sensing encoder). Keys the model
    does not use, such as the `depth` and `schedule_mode` of older files,
    are ignored."""
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"unknown checkpoint format {fmt!r}")
    enc = encoder if encoder is not None else network_from_dict(data["encoder"])
    dec = network_from_dict(data["decoder"])
    k = Parameter(np.array(data["koopman"], dtype=np.float64))
    if data["kind"] == "sensing":
        cost = Parameter(np.array(data["cost"], dtype=np.float64))
        return SensingModel(enc, k, dec, cost)
    return ControllingModel(enc, k, dec)


def save_checkpoint(model, path):
    with open(path, "w") as fh:
        json.dump(checkpoint_to_dict(model), fh)


def load_checkpoint(path, encoder=None):
    with open(path) as fh:
        return checkpoint_from_dict(json.load(fh), encoder=encoder)
