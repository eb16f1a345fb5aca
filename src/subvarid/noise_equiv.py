"""Transform process noise into equivalent input noise.

A controllable model lets the accumulated effect of process noise over an
m-step window be reproduced by an input perturbation: if the window's noise
moves the end state by nu, then E = O_b^R(m) nu applied at the inputs moves
it identically.  Within-window intermediate states are not matched; the
equivalence is at window endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TransformUndefinedError
from .lti_core import StateSpaceModel, _as_2d, extended_controllability


@dataclass(frozen=True)
class EquivalentNoise:
    """Input-noise sequence e with its infinity-norm bound e_M."""

    e: np.ndarray
    e_M: float


def process_to_input_noise(model: StateSpaceModel, V) -> EquivalentNoise:
    """Equivalent input noise E with O_b(m) E-window = accumulated V-effect.

    Works window-by-window over consecutive m-step blocks (the trailing
    partial window is solved in least squares over its own length).  Raises
    TransformUndefinedError for uncontrollable models.
    """
    Va = _as_2d(V)
    if Va.shape[1] != model.m:
        Va = np.asarray(V, dtype=float).reshape(-1, model.m)
    m, p = model.m, model.p
    Ob = extended_controllability(model, m)
    if np.linalg.matrix_rank(Ob) < m:
        raise TransformUndefinedError(
            "model is not controllable; input-noise transform undefined"
        )
    Ob_right = np.linalg.pinv(Ob)
    T = len(Va)
    e = np.zeros((T, p))
    n_win = (T + m - 1) // m
    for q in range(n_win):
        base = q * m
        width = min(m, T - base)
        acc = np.zeros(m)
        for j in range(width):
            acc += np.linalg.matrix_power(model.A, width - 1 - j) @ Va[base + j]
        if width == m:
            stacked = Ob_right @ acc
        else:
            Ob_w = extended_controllability(model, width)
            stacked = np.linalg.pinv(Ob_w) @ acc
        # stacked is [e(base); e(base+1); ...] in the O_b ordering
        # O_b(w) = [A^{w-1}B, ..., B] pairs block j with input at time base+j
        e[base : base + width] = stacked.reshape(width, p)
    v_M = float(np.max(np.abs(Va))) if T else 0.0
    e_M = float(np.linalg.norm(Ob_right, ord=np.inf) * v_M)
    return EquivalentNoise(e=e, e_M=e_M)
