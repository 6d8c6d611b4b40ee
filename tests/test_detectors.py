import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cvq import detectors as det


class TestClickPmf:
    def test_rejects_non_finite_probabilities(self):
        for bad in ([math.nan, math.nan], [0.5, math.inf], [1.0, math.nan]):
            with pytest.raises(ValueError):
                det.ClickPmf([0, 1], bad)


class TestPnrPmf:
    def test_vacuum(self):
        p = det.pnr_pmf(0.0, det.PnrSpec(resolution=4))
        assert p.probs[0] == 1.0

    def test_on_off(self):
        p = det.pnr_pmf(0.9, det.PnrSpec(resolution=1))
        assert np.allclose(p.probs, [math.exp(-0.9), 1 - math.exp(-0.9)])

    def test_m2_closed_form(self):
        p = det.pnr_pmf(1.0, det.PnrSpec(resolution=2))
        e = math.exp(-1.0)
        assert np.allclose(p.probs, [e, e, 1 - 2 * e], atol=1e-15)

    def test_efficiency_and_dark_compose(self):
        spec = det.PnrSpec(resolution=3, eta=0.6, nu=1e-2)
        p = det.pnr_pmf(2.0, spec)
        rate = 0.6 * 2.0 + 1e-2
        assert abs(p.probs[0] - math.exp(-rate)) < 1e-15

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(0.0, 30.0), m=st.integers(1, 12))
    def test_normalized(self, mu, m):
        p = det.pnr_pmf(mu, det.PnrSpec(resolution=m))
        assert abs(p.probs.sum() - 1.0) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(mu=st.floats(0.0, 8.0), m=st.integers(2, 10))
    def test_mean_monotone_in_mu(self, mu, m):
        spec = det.PnrSpec(resolution=m)
        assert det.pnr_pmf(mu + 0.4, spec).mean() > det.pnr_pmf(mu, spec).mean() - 1e-12


class TestInterferenceRates:
    def test_perfect_visibility_real(self):
        mp, mm = det.interference_rates(0.8, 1.1)
        assert abs(mp - abs(0.8 + 1.1) ** 2 / 2) < 1e-14
        assert abs(mm - abs(0.8 - 1.1) ** 2 / 2) < 1e-14

    def test_zero_signal(self):
        mp, mm = det.interference_rates(0.0, 1.3)
        assert mp == mm == 1.3**2 / 2

    def test_zero_visibility(self):
        mp, mm = det.interference_rates(0.9, 1.3, xi=0.0)
        assert mp == mm == (0.9**2 + 1.3**2) / 2

    def test_cancelled_port_is_not_negative(self):
        # the cross term rounds a few ulps above a^2 + z^2 here
        mp, mm = det.interference_rates(0.3674234614174766, 0.3674234614174767)
        assert mm == 0.0 and mp > 0.0


class TestHlPmf:
    def test_point_mass(self):
        p = det.hl_pmf(0.0, 0.0, det.PnrSpec(resolution=3))
        assert p.probs[p.support.tolist().index(0)] == 1.0

    def test_matches_brute_force_double_sum(self):
        m, a, z = 4, 0.7, 1.2
        spec = det.PnrSpec(resolution=m)
        p = det.hl_pmf(a, z, spec)
        mu_p, mu_m = det.interference_rates(a, z)
        wp = np.array([det.poisson_weights(mu_p, m)[n] for n in range(m + 1)])
        wp[m] = 1 - det.poisson_cdf(m - 1, mu_p)
        wm = np.array([det.poisson_weights(mu_m, m)[n] for n in range(m + 1)])
        wm[m] = 1 - det.poisson_cdf(m - 1, mu_m)
        brute = np.zeros(2 * m + 1)
        for n1 in range(m + 1):
            for n2 in range(m + 1):
                brute[n1 - n2 + m] += wp[n1] * wm[n2]
        assert np.allclose(p.probs, brute, atol=1e-14)

    def test_infinite_resolution_is_skellam(self):
        p = det.hl_pmf(0.9, 1.5, det.PnrSpec())
        mu_p, mu_m = det.interference_rates(0.9, 1.5)
        sk = stats.skellam(mu_p, mu_m)
        assert np.max(np.abs(p.probs - sk.pmf(p.support))) < 1e-12

    def test_cancelled_port_gives_finite_pmf(self):
        p = det.hl_pmf(0.3674234614174766, 0.3674234614174767,
                       det.PnrSpec(resolution=3))
        assert np.all(np.isfinite(p.probs)) and abs(p.probs.sum() - 1.0) < 1e-12

    def test_efficiency_rescales_rates(self):
        eta = 0.55
        p1 = det.hl_pmf(0.8, 1.1, det.PnrSpec(resolution=5, eta=eta))
        p2 = det.hl_pmf(math.sqrt(eta) * 0.8, math.sqrt(eta) * 1.1,
                        det.PnrSpec(resolution=5))
        assert np.allclose(p1.probs, p2.probs, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(0.0, 2.0),
        z=st.floats(0.0, 2.5),
        xi=st.floats(0.2, 1.0),
        m=st.integers(1, 8),
    )
    def test_mirror_symmetry_and_normalization(self, a, z, xi, m):
        spec = det.PnrSpec(resolution=m, xi=xi)
        pa = det.hl_pmf(+a, z, spec)
        pb = det.hl_pmf(-a, z, spec)
        assert abs(pa.probs.sum() - 1.0) < 1e-12
        assert np.allclose(pa.probs, pb.probs[::-1], atol=1e-13)


def dark_rates(a2, nu):
    """One-node (rate0, rate1) of the displaced symbols under dark counts."""
    return [nu], [4 * a2 + nu]


class TestMapThreshold:
    def test_on_off_detector(self):
        assert det.map_threshold(*dark_rates(5.0, 1e-3), [1.0], 1) == 1

    def test_dark_limit_zero(self):
        assert det.map_threshold(*dark_rates(5.0, 0.0), [1.0], 9) == 1

    def test_saturates_at_resolution(self):
        assert det.map_threshold(*dark_rates(200.0, 1e-3), [1.0], 6) == 6

    def test_dark_formula(self):
        a2, nu = 2.0, 1e-3
        expect = math.ceil(4 * a2 / math.log1p(4 * a2 / nu))
        assert det.map_threshold(*dark_rates(a2, nu), [1.0], 50) == expect

    def test_visibility_formula(self):
        a2, xi = 3.0, 0.99
        expect = math.ceil(4 * xi * a2 / (math.log1p(xi) - math.log1p(-xi)))
        rates = [2 * a2 * (1 - xi)], [2 * a2 * (1 + xi)]
        assert det.map_threshold(*rates, [1.0], 50) == expect

    def test_monotone_in_energy(self):
        grid = np.linspace(0.1, 40.0, 25)
        ths = [det.map_threshold(*dark_rates(a, 1e-3), [1.0], 64) for a in grid]
        assert all(b >= a for a, b in zip(ths, ths[1:]))

    def test_phase_noise_no_crossing_returns_resolution(self):
        # P(n|0) > P(n|1) on the whole bracket: the root lies above M
        n = det.map_threshold([10.0, 10.0], [30.0, 30.0], [0.5, 0.5], 4)
        assert n == 4

    def test_closed_form_matches_bisection(self):
        # a one-node pair written as a two-node mixture goes through the
        # bisection and must land on the closed-form threshold
        for r0 in (0.0, 1e-3, 0.02, 0.3, 1.7):
            for r1 in (0.05, 0.9, 2.3, 6.1, 14.7, 33.3):
                if r1 <= r0:
                    continue
                for m in (1, 3, 8, 40):
                    one = det.map_threshold([r0], [r1], [1.0], m)
                    two = det.map_threshold([r0, r0], [r1, r1], [0.5, 0.5], m)
                    assert one == two, (r0, r1, m)
