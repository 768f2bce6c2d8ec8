"""Self-convergence in time of the BDF2 projection scheme: the check that
``test_scheme.py`` asserts on the scheme and ``test_mutations.py`` on
mutated copies of it."""
import numpy as np

from fvproj.fields import l2_norm
from fvproj.mesh import unit_square_acute
from fvproj.scheme import RunConfig, run

# acute:1 at Re = 100: at Re = 1 the fast viscous transient has died out
# by T = 0.2 and the rates are not asymptotic
T, STEPS, K_REF = 0.2, (0.01, 0.005, 0.0025), 0.0003125
# halfway between first and second order, so BDF2's order sets it, not
# the data
RATE_FLOOR = 1.5


def check_second_order_in_time():
    """Rates of the state at T against a run at K_REF, one per pair of
    successive steps in STEPS (each half the last).  Asserts every velocity
    rate is at least RATE_FLOOR; the pressure rates are reported, not gated
    (Guermond, Minev and Shen give only first order for the pressure in
    general).  Returns (velocity rates, pressure rates)."""
    mesh = unit_square_acute(1)

    def final(k):
        cfg = RunConfig(mesh_spec="acute:1", k=k, n_steps=round(T / k),
                        re=100.0, case="manufactured-A")
        state = run(cfg, mesh=mesh).state
        return state.u_curr.field, state.p_curr

    u_ref, p_ref = final(K_REF)
    errors = np.array([[l2_norm(u - u_ref), l2_norm(p - p_ref)]
                       for u, p in map(final, STEPS)])
    u_rates, p_rates = np.log2(errors[:-1] / errors[1:]).T
    assert np.all(u_rates >= RATE_FLOOR), (
        f"velocity rates {u_rates} below {RATE_FLOOR} "
        f"(pressure rates {p_rates}, not gated)")
    return u_rates, p_rates
