"""Mutations of the scheme and the checks that kill them.

Each mutation is applied in process with ``monkeypatch`` and must make the
named check fail.  A mutation that no principled check kills is not
listed here: it is recorded as a finding instead."""
from dataclasses import replace

import numpy as np
import pytest

from fvproj import scheme
from fvproj.fields import SolenoidalP0, VectorP0
from fvproj.scheme import RunConfig
from convection_sign import check_convection_sign
from time_order import check_second_order_in_time


def _bdf1_every_step(monkeypatch):
    monkeypatch.setattr(scheme, "_bdf_coefficients", lambda state: (1.0, -1.0, 0.0))


def _predictor_without_grad_p(monkeypatch):
    # the non-incremental projection: the next predictor sees grad p^n = 0
    correction_step = scheme.correction_step

    def without_grad_p(*args, **kwargs):
        state = correction_step(*args, **kwargs)
        return replace(state, grad_p=VectorP0(state.grad_p.mesh,
                                              np.zeros_like(state.grad_p.values)))
    monkeypatch.setattr(scheme, "correction_step", without_grad_p)


def _convection_from_extrapolated_predictors(monkeypatch):
    # advect by 2 u_tilde^n - u_tilde^{n-1}, which is not divergence free,
    # once two predictors exist; the energy terms see the same matrix
    momentum_step, convection_matrix = scheme.momentum_step, scheme.convection_matrix

    def extrapolated(state, config, ws):
        if len(state.predictors) < 2:
            return momentum_step(state, config, ws)
        w = SolenoidalP0(VectorP0(ws.mesh, 2.0 * state.predictors[0] - state.predictors[1]))
        with monkeypatch.context() as patch:
            patch.setattr(scheme, "convection_matrix", lambda u: convection_matrix(w))
            return momentum_step(state, config, ws)
    monkeypatch.setattr(scheme, "momentum_step", extrapolated)


@pytest.mark.parametrize("mutate", [
    _bdf1_every_step,           # velocity rates 1.26 and 1.20
    _predictor_without_grad_p,  # velocity rates 1.02 and 1.09
], ids=lambda mutate: mutate.__name__.lstrip("_"))
def test_second_order_in_time_kills(monkeypatch, mutate):
    mutate(monkeypatch)
    with pytest.raises(AssertionError, match="velocity rates"):
        check_second_order_in_time()


@pytest.mark.parametrize("mesh_spec, re, n_steps", [
    ("acute:3", 1e5, 30),   # smallest ratio +2.6e-4, mutated -9.0e-4
    ("acute:2", 1e4, 10),   # +1.0e-3, mutated -4.9e-3
])
def test_convection_sign_kills_extrapolated_predictors(monkeypatch, mesh_spec, re,
                                                       n_steps):
    config = RunConfig(mesh_spec=mesh_spec, k=0.5, n_steps=n_steps, re=re)
    check_convection_sign(config)
    _convection_from_extrapolated_predictors(monkeypatch)
    with pytest.raises(AssertionError, match="convection form"):
        check_convection_sign(config)
