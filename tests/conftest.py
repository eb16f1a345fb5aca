import numpy as np
import pytest

from subvarid.lti_core import StateSpaceModel

# 4th-order SISO benchmark in controllable canonical form, with its
# experiment constraints (noise bound, output/input safety bounds).
CANONICAL_A = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.23, -2.17, -1.42, -1.21],
    ]
)
CANONICAL_B = np.array([[0.0], [0.0], [0.0], [1.0]])
CANONICAL_C = np.array([[0.82, 0.17, -0.28, 0.27]])
CANONICAL_X0 = np.array([0.0, 0.5, 0.3, 1.0])
DELTA = 0.05
Y_MAX = 100.0
U_MAX = 10.0


@pytest.fixture(scope="session")
def canonical():
    return StateSpaceModel(A=CANONICAL_A, B=CANONICAL_B, C=CANONICAL_C)


def random_minimal_model(rng, m, n=1, p=1, spectral_radius=0.95):
    """Random minimal model with the requested spectral radius bound."""
    for _ in range(100):
        A = rng.normal(size=(m, m))
        ev = np.max(np.abs(np.linalg.eigvals(A)))
        A = A * (spectral_radius / ev) * rng.uniform(0.5, 1.0)
        B = rng.normal(size=(m, p))
        C = rng.normal(size=(n, m))
        model = StateSpaceModel(A=A, B=B, C=C)
        if model.is_minimal():
            return model
    raise RuntimeError("failed to draw a minimal model")


def oracle_hankel(signal, k, h, s):
    """Block Hankel matrix of h block rows and s columns starting at k, by the
    row loop: block (i, j), 0-based, holds the signal value at time k + i + j."""
    sig = np.asarray(signal, dtype=float)
    if sig.ndim == 1:
        sig = sig[:, None]
    assert 0 <= k and k + h + s - 1 <= len(sig)
    dim = sig.shape[1]
    data = np.empty((h * dim, s))
    for i in range(h):
        data[i * dim : (i + 1) * dim, :] = sig[k + i : k + i + s].T
    return data


def curves_with_unusable_devs(mode="designed"):
    """Campaign curves whose dev_median is nan at N=10 and 0 at N=20, 1/N after."""
    from subvarid.experiments import ErrorCurves

    Ns = [10, 20, 40, 80, 160]
    devs = {10: np.nan, 20: 0.0, 40: 1 / 40, 80: 1 / 80, 160: 1 / 160}
    stats = {"err_mean": {N: 1.0 for N in Ns}, "dev_median": devs}
    return ErrorCurves(N_values=Ns, mode=mode, stats=stats, raw=[])
