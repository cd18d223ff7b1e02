"""Plain stepping of a run's covariance recursion, one step at a time.

linalg.propagate evaluates the recursion by binary doubling; these
helpers apply the same AffineStep n_steps times instead, which makes
them the reference for the doubling tests and gives the per-step
iterates that the invariant tests watch.
"""

import numpy as np

from spdecov import symmetrize


def iterates(cfg):
    """Yield K_1, ..., K_n_steps of an AdvDiffConfig or WaveConfig run."""
    T, Q, g = cfg.operators().step
    K = np.zeros_like(Q) if cfg.K0 is None else symmetrize(np.asarray(cfg.K0, dtype=float))
    for _ in range(cfg.n_steps):
        K = g * symmetrize(T @ K @ T.T) + Q
        yield K


def stepped_run(cfg):
    """The run's final covariance K_n_steps, reached by plain stepping."""
    for K in iterates(cfg):
        pass
    return K
