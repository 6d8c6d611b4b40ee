import math

import numpy as np
import pytest

from cvq import binary as b
from cvq import detectors as det
from cvq.detectors import PnrSpec
from cvq.numerics import bisect_root


def scen(a2, **kw):
    return b.BpskScenario(a2, **kw)


#: one scenario keyword set per defect class of the displacement stage
DEFECT_CLASSES = {
    "ideal": {},
    "eta": {"spec": PnrSpec(resolution=5, eta=0.7)},
    "dark": {"spec": PnrSpec(resolution=5, nu=1e-3)},
    "visibility": {"spec": PnrSpec(resolution=5, xi=0.99)},
    "phase": {"sigma_pd": 0.1},
}


def binwise_map_error(sc, m):
    """1 - sum_n max(P(n|0), P(n|1)) / 2 from the phase-averaged PNR(m) bins."""
    if sc.sigma_pd == 0.0:
        phi, w = np.zeros(1), np.ones(1)
    else:
        t, w = np.polynomial.hermite.hermgauss(b.GH_ORDER)
        phi, w = math.sqrt(2.0) * sc.sigma_pd * t, w / math.sqrt(math.pi)
    s = sc.spec
    pmfs = []
    for sign in (-1.0, 1.0):
        rates = 2.0 * s.eta * sc.alpha2 * (1.0 + sign * s.xi * np.cos(phi)) + s.nu
        pmfs.append(w @ np.stack([det.pnr_weights(r, m) for r in rates]))
    return 1.0 - 0.5 * float(np.sum(np.maximum(*pmfs)))


class TestBounds:
    def test_blind_guess(self):
        assert b.helstrom(scen(0.0)) == 0.5
        assert b.sql(scen(0.0)) == 0.5

    def test_helstrom_closed_form(self):
        assert abs(b.helstrom(scen(1.0)) - 0.5 * (1 - math.sqrt(1 - math.exp(-4)))) < 1e-15

    def test_sql_closed_form(self):
        assert abs(b.sql(scen(1.0)) - 0.5 * (1 - math.erf(math.sqrt(2)))) < 1e-15

    def test_phase_noise_continuity(self):
        for fn in (b.helstrom, b.sql):
            assert abs(fn(scen(1.0, sigma_pd=1e-4)) - fn(scen(1.0))) < 1e-4

    def test_phase_noise_sigma_scaling(self):
        # the trace-norm contraction scales as exp(-sigma^2/2) at small
        # amplitude (the thesis's small-alpha display drops a factor two
        # in alpha; the sigma dependence is the testable content)
        a2 = 0.05**2
        for fn, tol in ((b.helstrom, 0.02), (b.sql, 0.02)):
            base = 1.0 - 2.0 * fn(scen(a2))
            for sig in (0.3, 0.6):
                r = (1.0 - 2.0 * fn(scen(a2, sigma_pd=sig))) / base
                assert abs(r - math.exp(-sig**2 / 2)) < tol

    def test_sql_noisy_grows(self):
        assert b.sql(scen(1.0, sigma_pd=0.4)) > b.sql(scen(1.0))


class TestKennedyFamily:
    def test_nulling_value(self):
        assert b.kennedy_family(scen(0.7)).p_err == 0.5 * math.exp(-4 * 0.7)

    def test_nulling_blind(self):
        assert b.kennedy_family(scen(0.0)).p_err == 0.5

    def test_sql_crossing(self):
        gap = lambda a2: b.kennedy_family(scen(a2)).p_err - b.sql(scen(a2))
        x = bisect_root(gap, 0.2, 0.6, tol=1e-6)
        assert abs(x - 0.38) <= 0.02

    def test_improved_beats_nulling_everywhere(self):
        for a2 in (0.05, 0.2, 1.0, 3.0):
            ik = b.kennedy_family(scen(a2), "improved").p_err
            assert ik <= b.kennedy_family(scen(a2)).p_err + 1e-15
            assert ik <= b.sql(scen(a2)) + 1e-15  # beats the SQL for all energies

    def test_improved_stationarity(self):
        a2 = 0.4
        r = b.kennedy_family(scen(a2), "improved")
        a, beta = math.sqrt(a2), r.params["beta"]
        assert abs((beta - a) / (beta + a) - math.exp(-4 * a * beta)) < 1e-9

    def test_efficiency_rescale(self):
        r = b.kennedy_family(scen(1.5, spec=PnrSpec(resolution=1, eta=0.6)))
        assert abs(r.p_err - 0.5 * math.exp(-4 * 0.6 * 1.5)) < 1e-15

    def test_dark_saturation(self):
        from cvq import detectors as det

        m, nu = 3, 1e-3
        r = b.kennedy_family(scen(50.0, spec=PnrSpec(resolution=m, nu=nu)), "dpnr")
        sat = 0.5 * (1 - det.poisson_cdf(m - 1, nu))
        assert abs(r.p_err - sat) < 1e-12

    def test_visibility_high_energy_grows(self):
        spec = PnrSpec(resolution=3, xi=0.998)
        lo = b.kennedy_family(scen(10.0, spec=spec), "dpnr").p_err
        hi = b.kennedy_family(scen(40.0, spec=spec), "dpnr").p_err
        assert hi > lo

    def test_dpnr_deep_tail(self):
        # only the bright symbol can err: p = exp(-4 a^2) / 2 exactly
        for a2 in (8.0, 20.0):
            p = b.kennedy_family(scen(a2, spec=PnrSpec(resolution=3)), "dpnr").p_err
            assert abs(p / (0.5 * math.exp(-4.0 * a2)) - 1.0) < 1e-12

    def test_dpnr_non_negative_with_dark_counts(self):
        assert b.kennedy_family(scen(20.0, spec=PnrSpec(nu=1e-3)), "dpnr").p_err >= 0.0

    def test_dpnr_threshold_is_binwise_map(self):
        # the likelihood ratio grows with n, so the threshold rule is the
        # bin-by-bin MAP rule wherever the threshold does not saturate
        combined = {"spec": PnrSpec(resolution=5, eta=0.7, nu=1e-3, xi=0.99), "sigma_pd": 0.1}
        for kw in [*DEFECT_CLASSES.values(), combined]:
            kw = {"spec": PnrSpec(resolution=5), **kw}
            for a2 in (0.05, 0.5, 1.5, 4.0):
                r = b.kennedy_family(scen(a2, **kw), "dpnr")
                assert r.params["n_th"] < 5
                assert abs(r.p_err - binwise_map_error(scen(a2, **kw), 5)) < 1e-12


class TestDffre:
    def test_n1_is_improved_kennedy(self):
        for a2 in (0.1, 0.6, 2.0):
            assert abs(
                b.dffre(scen(a2), 1).p_err
                - b.kennedy_family(scen(a2), "improved").p_err
            ) < 1e-12

    def test_approaches_kennedy_at_high_energy(self):
        k = b.kennedy_family(scen(6.0)).p_err
        for n in (1, 2, 3):
            assert abs(b.dffre(scen(6.0), n).p_err / k - 1) < 0.01

    def test_steps_monotone(self):
        r = b.dffre(scen(0.5), 6)
        steps = r.params["steps"]
        assert all(b2 >= a2 - 1e-12 for a2, b2 in zip(steps, steps[1:]))

    def test_more_copies_help_at_low_energy(self):
        assert b.dffre(scen(0.1), 8).p_err <= b.dffre(scen(0.1), 1).p_err + 1e-12

    def test_dark_saturation_grows_with_copies(self):
        spec = PnrSpec(resolution=2, nu=1e-3)
        p1 = b.dffre(scen(30.0, spec=spec), 1).p_err
        p8 = b.dffre(scen(30.0, spec=spec), 8).p_err
        assert p8 > p1  # accumulated feed-forward errors

    def test_rejects_phase_noise_with_dark_counts(self):
        sc = scen(1.0, spec=PnrSpec(resolution=2, nu=1e-3), sigma_pd=0.1)
        for receiver in (b.dffre, b.hffre):
            with pytest.raises(ValueError, match="phase noise"):
                receiver(sc, 2)


class TestHynore:
    def test_blind(self):
        r = b.hynore(scen(0.0, spec=PnrSpec(resolution=2)), z=1.0)
        assert abs(r.p_err - 0.5) < 1e-12

    def test_tau_one_is_kennedy(self):
        sc = scen(2.0, spec=PnrSpec(resolution=2))
        assert abs(
            b._hynore_perr(sc, 1.0, 1.3) - b.kennedy_family(scen(2.0)).p_err
        ) < 1e-12

    def test_homodyne_limit_constants(self):
        r = b.hynore(scen(10.0), detection="homodyne")
        lam = (1 - r.params["tau"]) * 10.0
        ratio = r.p_err / b.kennedy_family(scen(10.0)).p_err
        assert abs(lam - 0.094) <= 0.003
        assert abs(ratio - 0.786) <= 0.005

    def test_beats_kennedy(self):
        sc = scen(2.0, spec=PnrSpec(resolution=2))
        r = b.hynore(sc, grid=21)
        assert b.helstrom(scen(2.0)) - 1e-12 <= r.p_err
        assert r.p_err <= b.kennedy_family(scen(2.0)).p_err + 1e-12

    def test_phase_noise_matches_dpnr_when_tau_pinned(self):
        for kw in DEFECT_CLASSES.values():
            kw = {"spec": PnrSpec(resolution=3), **kw}
            sc = scen(1.0, **kw)
            dp = b.kennedy_family(sc, "dpnr").p_err
            assert abs(b._hynore_perr(sc, 1.0, 0.5) - dp) < 1e-9

    def test_cancelled_hl_port(self):
        # a grid point where the HL port rates cancel to a few ulps
        sc = scen(1.5, spec=PnrSpec(resolution=3))
        for r in (b.hynore(sc, grid=21), b.hffre(sc, 2, grid=21)):
            assert b.helstrom(scen(1.5)) <= r.p_err <= 0.5


class TestHffre:
    def test_tau_one_recovers_dffre(self):
        sc = scen(1.0, spec=PnrSpec(resolution=2))
        rd = b.dffre(scen(1.0), 2)
        probs, _ = b._ff_recursion(1.0, 2, 1.0, 0.0, 1.0, 1, 0.5)
        assert abs((1 - probs[-1]) - rd.p_err) < 1e-12

    def test_beats_dffre(self):
        sc = scen(1.0, spec=PnrSpec(resolution=2))
        rh = b.hffre(sc, 2, grid=13)
        rd = b.dffre(scen(1.0), 2)
        assert rh.p_err <= rd.p_err + 1e-10

    def test_high_energy_reaches_hynore(self):
        sc = scen(6.0, spec=PnrSpec(resolution=2))
        rh = b.hffre(sc, 1, grid=17)
        ry = b.hynore(sc, grid=31)
        assert abs(rh.p_err / ry.p_err - 1) < 0.02


class TestOrderingChain:
    def test_ideal_hierarchy(self):
        # P_Hel <= P_HF(N) <= P_DF(N) <= P_DF(1) = P_IK and P_HY <= P_K
        for a2 in (0.3, 1.0, 2.5):
            hel = b.helstrom(scen(a2))
            sc = scen(a2, spec=PnrSpec(resolution=2))
            hy = b.hynore(sc, grid=21).p_err
            k = b.kennedy_family(scen(a2)).p_err
            hf = b.hffre(sc, 2, grid=13).p_err
            df2 = b.dffre(scen(a2), 2).p_err
            df1 = b.dffre(scen(a2), 1).p_err
            assert hel - 1e-9 <= hy <= k + 1e-9
            assert hel - 1e-9 <= hf <= df2 + 1e-9 <= df1 + 2e-9
            assert hy <= 0.5 + 1e-9 and df1 <= 0.5 + 1e-9
