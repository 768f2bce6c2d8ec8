"""Mutations of the scheme and the checks that kill them.

Each mutation is applied in process with ``monkeypatch`` and must make the
named check fail.  A mutation that no principled check kills is not
listed here: it is recorded as a finding instead."""
from dataclasses import replace

import numpy as np
import pytest

from fvproj import scheme
from fvproj.fields import VectorP0
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


@pytest.mark.parametrize("mutate", [
    _bdf1_every_step,           # velocity rates 1.26 and 1.20
    _predictor_without_grad_p,  # velocity rates 1.02 and 1.09
], ids=lambda mutate: mutate.__name__.lstrip("_"))
def test_second_order_in_time_kills(monkeypatch, mutate):
    mutate(monkeypatch)
    with pytest.raises(AssertionError, match="velocity rates"):
        check_second_order_in_time()
