"""The sign of the upwind convection form on a run's own steps: the
hypothesis the paper's stability proof takes from a discretely
divergence-free advecting field, c(C; u_tilde, u_tilde) >= 0 with C the
matrix of u* = 2 u^n - u^{n-1}.  ``test_scheme.py`` asserts it on the
scheme and ``test_mutations.py`` on a mutated copy of it."""
import pytest

from fvproj import scheme
from fvproj.analysis import IDENTITY_TOL
from fvproj.fields import h_norm, l2_norm
from fvproj.operators import trilinear_form
from fvproj.scheme import run


def check_convection_sign(config):
    """Run ``config`` with ``scheme.momentum_step`` wrapped to take u* from
    each step's state and u_tilde and C from what the step returns, the
    start-up step included.  Asserts that every step's
    c(C; u_tilde, u_tilde) / (|u*| |u_tilde|_h^2) is at least -IDENTITY_TOL,
    the normalization and bound of ``verify``'s convection-positivity row;
    a step where |u*| |u_tilde|_h^2 = 0 (the zero case) is skipped.
    Returns (the trajectory, the smallest ratio, inf if every step was
    skipped)."""
    momentum_step = scheme.momentum_step
    ratios = []

    def recording(state, cfg, ws):
        out = momentum_step(state, cfg, ws)
        u_tilde, convection = out[:2]
        scale = l2_norm(2.0 * state.u_curr.field - state.u_prev.field) * h_norm(u_tilde) ** 2
        if scale > 0:
            ratios.append(trilinear_form(convection, u_tilde, u_tilde) / scale)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheme, "momentum_step", recording)
        traj = run(config)
    smallest = min(ratios, default=float("inf"))
    assert smallest >= -IDENTITY_TOL, (
        f"convection form c(u*; u_tilde, u_tilde) / (|u*| |u_tilde|_h^2) reads "
        f"{smallest:.3e} < -{IDENTITY_TOL:g}")
    return traj, smallest
