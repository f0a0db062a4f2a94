"""Koopman autoencoder remote control over a lossy wireless link.

A sensing autoencoder lifts the nonlinear plant state into a latent space
where the dynamics are linear, an LQR acts on that latent, and a controlling
autoencoder on the actuator side predicts action commands through downlink
outages. Training runs split between the sensor and the controller across
the same fading channel the deployed loop uses.
"""

__version__ = "0.1.0"
