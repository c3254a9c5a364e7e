"""The README's numbers on the collective mode W.

They describe the discrepancy between the W the model implements (cavity
outputs plus the filtered mirror-bath input) and a W made of the cavity
outputs alone, and the alternatives to the optimal-gain witness.  All but
the last come from the Heisenberg reference; the last is a zero-damping
closed form.
"""

import math

import pytest

from heisenberg_reference import pulse
from steerkit import output_block, threshold_r
from steerkit.closedform import _w_moments

BINS = 2000


@pytest.mark.parametrize(
    "r, x_W_comm, xw_pw_comm, e_cav, unit_gain",
    [(0.5, 0.377, 0.546, 0.127, 0.245), (3.0, 1.80, -2.91, 0.177, 46.4)])
def test_w_commutators_and_alternative_witnesses(r, x_W_comm, xw_pw_comm,
                                                 e_cav, unit_gain):
    x = 0.3
    p = pulse(r, x, BINS)
    # [X_m, X_W] = i sqrt(x) [b(tau), B~^dag]; the construction's own
    # second-order error is 1.1e-4 relative at r = 3 on 2000 bins
    bath = 2.0 * x * r * math.exp(r) / math.sqrt(math.expm1(2.0 * r))
    assert abs(p.commutator(p.xm, p.xw)) == pytest.approx(bath, rel=5e-4)
    assert abs(p.commutator(p.xm, p.xw)) == pytest.approx(x_W_comm, abs=5e-3)
    assert abs(p.commutator(p.xm, p.pw)) < 1e-9
    # the cavity-only W commutes with the mirror, up to the same
    # discretisation error (2e-4 at r = 3), and is canonical after dividing
    # by sqrt(1 + x), the norm of the weights sqrt(G_j/G); the conditional
    # variance does not depend on that scale
    assert abs(p.commutator(p.xm, p.xw_cav)) < 1e-3
    assert abs(p.commutator(p.xm, p.pw_cav)) < 1e-3
    assert p.commutator(p.xw, p.pw).imag == pytest.approx(xw_pw_comm,
                                                          abs=5e-3)
    assert p.commutator(p.xw_cav, p.pw_cav).imag == pytest.approx(1.0 + x,
                                                                  abs=1e-3)
    assert p.witness(p.xw_cav, p.pw_cav) == pytest.approx(e_cav, abs=5e-4)
    sum_quad = p.xm + p.pw
    assert p.covariance(sum_quad, sum_quad) == pytest.approx(unit_gain,
                                                             rel=2e-3)


@pytest.mark.parametrize("r, expected", [(0.5, 0.154), (3.0, 0.77)])
def test_hot_bath_moves_corner_into_fig4_window(r, expected):
    p = pulse(r, 0.3, BINS, n=50.0)
    assert p.witness(p.xw, p.pw) == pytest.approx(expected, abs=5e-3)


def test_unit_gain_misses_pulse_area_threshold():
    # Without damping the optimal-gain witness crosses 1/2 at r_th; the
    # unit-gain EPR variance Var(X_m + P_W) does not.
    n0 = 5.0
    r = threshold_r(n0)
    var_W, cov_W = _w_moments(r, 0.0, n0, 0.0)
    unit_gain = output_block(r, 0.0, n0, 0.0)[0, 0] + var_W + 2.0 * cov_W
    assert unit_gain == pytest.approx(1.17, abs=5e-3)
