"""Koopman autoencoder remote control over a lossy wireless link.

A sensing autoencoder lifts the nonlinear plant state into a latent space
where the dynamics are linear, an LQR acts on that latent, and a controlling
autoencoder on the actuator side predicts action commands through downlink
outages. Training runs split between the sensor and the controller across
the same fading channel the deployed loop uses.
"""

from .autodiff import Parameter, Tensor, backward
from .channel import (ChannelConfig, FadingLink, IdealLink, LinkOutcome,
                      ScriptedLossLink, channel_config_for_target_snr,
                      mean_snr, outage_probability, payload_bits, transmit)
from .control import (DareSolution, DareSolverError, JacobianController,
                      LqrWeights, build_jacobian_controller, lqr_gain,
                      optimal_action, solve_dare, spectral_radius)
from .datasets import (DataSettings, Trajectory, TrajectoryDataset,
                       extract_windows, generate_dataset, load_dataset,
                       save_dataset)
from .dynamics import (CartPoleParams, IntegratorConfig,
                       IntegrationDivergedError, NoiseSpec,
                       cartpole_derivative, numeric_jacobian, rk4_step,
                       step_plant)
from .experiments import (ExperimentConfig, ResultRow, apply_overrides,
                          config_from_dict, config_to_dict, desk_preset,
                          evaluate_prediction, load_config, make_dataset,
                          paper_preset, refresh_gain, run_experiment,
                          run_sweep, save_config, seed_streams,
                          train_controlling, train_sensing)
from .koopman import (ControllingModel, SensingModel, WeightSchedule,
                      WindowBatch, action_step, latent_step, load_checkpoint,
                      predict_actions, predict_states, project_psd,
                      rollout_latent, save_checkpoint, total_controlling_loss,
                      total_sensing_loss)
from .metrics import consecutive_lost, msce, nrmse
from .neural import Adam, Network, load_network, make_mlp, save_network
from .protocol import (ControllingTrainer, ControlSystem, Phase2Config,
                       SensingTrainer, fit_with_early_stopping,
                       handle_missing_state, run_phase2_loop)

__version__ = "0.1.0"
