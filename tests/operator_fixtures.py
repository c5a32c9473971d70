"""Hand-set operators that the model and training tests share."""

import numpy as np

from zeromode.model import OperatorConfig, OperatorModel, _views, n_params


def constant_identity_model(config: OperatorConfig) -> OperatorModel:
    """Hand-set weights acting as identity on constants.

    Channel c rides through lift channel c and each block's zero-frequency
    spectral weight; all pointwise paths are zero, and gelu(0) = 0 keeps
    them silent.  Requires width >= channels.
    """
    if config.width < config.channels:
        raise ValueError("identity fixture needs width >= channels")
    model = OperatorModel(config, np.zeros(n_params(config)))
    lift = np.zeros((config.width, config.channels))
    proj = np.zeros((config.channels, config.width))
    for c in range(config.channels):
        lift[c, c] = 1.0
        proj[c, c] = 1.0
    views = _views(model.params, config)
    views["lift.weight"][...] = lift
    views["proj.weight"][...] = proj
    spectral = np.zeros((config.width, config.width, config.n_modes), dtype=np.complex128)
    for c in range(config.channels):
        spectral[c, c, 0] = 1.0  # canonical position 0 is the zero mode
    for i in range(config.n_layers):
        views[f"block{i}.spectral"][...] = spectral
    return model
