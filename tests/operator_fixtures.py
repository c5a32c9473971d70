"""Hand-set operators, and the version-1 parameter order, that the model and training tests share."""

import numpy as np

from zeromode.model import OperatorConfig, OperatorModel, _views, layout, n_params


def in_version_1_order(flat: np.ndarray, config: OperatorConfig) -> np.ndarray:
    """A copy of the flat vector ``flat`` with each spectral slot in the (i, o, n_modes) order of version-1 files.

    Digests recorded before spectral slots were stored mode-major hash this order.
    """
    out = flat.copy()
    source, target = _views(flat, config), _views(out, config)
    for slot in layout(config):
        if slot.is_complex:
            target[slot.name].reshape(-1)[:] = source[slot.name].transpose(1, 2, 0).ravel()
    return out


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
    spectral = np.zeros((config.n_modes, config.width, config.width), dtype=np.complex128)
    for c in range(config.channels):
        spectral[0, c, c] = 1.0  # canonical position 0 is the zero mode
    for i in range(config.n_layers):
        views[f"block{i}.spectral"][...] = spectral
    return model
