"""The Bessel I0 of the angle average: scipy's i0e and its quadrature oracle."""

import numpy as np
from scipy.special import i0, i0e

from vnlab.grids import TWO_PI
from vnlab.scenarios import _i0e_quadrature, bessel_angle_average


def test_quadrature_oracle_matches_scipy_i0e():
    # Up to x = 700, past where the unscaled I0 (e^x ~ 1e304) nears overflow.
    x = np.linspace(0.0, 700.0, 1401)
    assert np.max(np.abs(_i0e_quadrature(x) - i0e(x)) / i0e(x)) < 1e-13


def test_angle_average_is_exponential_times_i0():
    # The unscaled closed form, where neither factor overflows; r = 4 and r = 1/4.
    xi = np.linspace(0.0, 12.0, 97)
    for sigma_qbar, sigma_pbar in ((1.0, 2.0), (2.0, 1.0)):
        ratio = (sigma_pbar / sigma_qbar) ** 2
        b = xi / (2.0 * sigma_pbar**2)
        direct = np.exp(-b * (ratio + 1.0)) * i0(b * (ratio - 1.0)) / (
            TWO_PI * sigma_pbar * sigma_qbar
        )
        ours = bessel_angle_average(sigma_qbar, sigma_pbar, xi)
        assert np.max(np.abs(ours - direct) / direct) < 1e-14


def test_angle_average_is_finite_at_large_width_ratio():
    # sigma_pbar / sigma_qbar = 40: I0's argument reaches 2398 and exp(2398)
    # overflows, so the unscaled product gives inf * 0 = NaN.
    xi = np.linspace(0.0, 12.0, 481)
    out = bessel_angle_average(0.05, 2.0, xi)
    assert np.all(np.isfinite(out)) and np.all(out > 0.0)
