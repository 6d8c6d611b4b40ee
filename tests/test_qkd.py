import math
import warnings

import numpy as np
import pytest

from cvq import amplifiers as amp
from cvq import gaussian as gs
from cvq import kor, mary, qkd
from cvq.numerics import PrecisionWarning, simpson_weights

import oracles


BETA = 0.95


# every rate searched over one knob, at 20 km with excess noise 0.02
FRAME_CH = qkd.ChannelParams.from_distance(20.0, 0.02)
FRAME_CASES = {
    "gg02": ("V", lambda x: qkd.gg02_kgr(FRAME_CH, BETA, v=x)),
    "psk4": ("alpha2", lambda x: qkd.psk_kgr(4, FRAME_CH, BETA, alpha2=x)),
    "trusted": ("alpha2", lambda x: qkd.trusted_qpsk_kgr(
        FRAME_CH, BETA, qkd.TrustScenario("tL;tN", eta=0.7, eps_d=0.01), alpha2=x)),
    "wiretap": ("alpha2", lambda x: qkd.wiretap_qpsk_kgr(
        FRAME_CH, BETA, alpha2=x, n_nodes=41)),
    "dh": ("alpha2", lambda x: kor.dh_rate(FRAME_CH.T, BETA, alpha2=x, n_nodes=41)),
    "qdffre": ("alpha2", lambda x: kor.qdffre_rate(FRAME_CH.T, BETA, 8, alpha2=x)),
}


# every KgrResult-returning rate, searched and pinned, as a function of beta
BETA_RATES = {
    "gg02": lambda b: qkd.gg02_kgr(FRAME_CH, b),
    "gg02-pinned": lambda b: qkd.gg02_kgr(FRAME_CH, b, v=5.0),
    "psk": lambda b: qkd.psk_kgr(4, FRAME_CH, b),
    "qam-uniform": lambda b: qkd.qam_kgr(4, FRAME_CH, b, "uniform"),
    "qam-MB": lambda b: qkd.qam_kgr(4, FRAME_CH, b),
    "qam-MB-pinned": lambda b: qkd.qam_kgr(4, FRAME_CH, b, nbar=1.0, xi=0.5),
    "trusted": lambda b: qkd.trusted_qpsk_kgr(FRAME_CH, b, qkd.TrustScenario("tL;tN")),
    "wiretap": lambda b: qkd.wiretap_qpsk_kgr(FRAME_CH, b, n_nodes=41),
    "dh": lambda b: kor.dh_rate(FRAME_CH.T, b, n_nodes=41),
    "qdffre": lambda b: kor.qdffre_rate(FRAME_CH.T, b, 8),
    "pgm": lambda b: kor.optimize_kor(FRAME_CH.T, b, mode="PGM"),
    "kor": lambda b: kor.optimize_kor(FRAME_CH.T, b, lattice=4),
    "nla": lambda b: amp.nla_kgr("QS", FRAME_CH, b),
    "nla-pinned-gain": lambda b: amp.nla_kgr("ideal", FRAME_CH, b, gain=1.5),
    "multispan-unconditional": lambda b: amp.multispan_kgr_unconditional(
        amp.SpanLink(3, 60.0, 0.05, kind="psa"), b),
    "multispan-conditional": lambda b: amp.multispan_kgr_conditional(
        amp.SpanLink(3, 60.0, 0.05, kind="pia"), b, 2),
    "multispan-pinned-gain": lambda b: amp.multispan_kgr_conditional(
        amp.SpanLink(3, 60.0, 0.05, kind="pia"), b, 2, gain=1.0),
}
NLA_CH = qkd.ChannelParams.from_distance(150.0, 0.03)
# the other searched rates: reported knob -> keyword that pins it
FRAME_KNOB_CASES = {
    "qam-uniform": ({"nbar": "nbar"},
                    lambda **kw: qkd.qam_kgr(4, FRAME_CH, BETA, "uniform", **kw)),
    "nla-ideal": ({"V": "v", "g": "gain"}, lambda **kw: amp.nla_kgr("ideal", NLA_CH, BETA, **kw)),
    "nla-QS": ({"V": "v", "g": "gain"}, lambda **kw: amp.nla_kgr("QS", NLA_CH, BETA, **kw)),
    "nla-SPC": ({"V": "v", "g": "gain"}, lambda **kw: amp.nla_kgr("SPC", NLA_CH, BETA, **kw)),
    "multispan-unconditional": ({"V": "v", "G": "gain"}, lambda **kw: (
        amp.multispan_kgr_unconditional(amp.SpanLink(5, 60.0, 0.05, kind="psa"), BETA, "IIb",
                                        **kw))),
    "multispan-conditional": ({"V": "v", "G": "gain"}, lambda **kw: (
        amp.multispan_kgr_conditional(amp.SpanLink(3, 60.0, 0.05, kind="pia"), BETA, 2, **kw))),
}


class TestRateFrame:
    @pytest.mark.parametrize("case", list(FRAME_CASES))
    def test_pinned_knob_reproduces_search(self, case):
        name, rate = FRAME_CASES[case]
        r = rate(None)
        again = rate(r.params[name])
        assert (again.K, again.I_AB, again.chi_BE) == (r.K, r.I_AB, r.chi_BE)
        assert r.check_decomposition(0.0)

    @pytest.mark.parametrize("case", list(FRAME_KNOB_CASES))
    def test_pinned_knobs_reproduce_search(self, case):
        knobs, rate = FRAME_KNOB_CASES[case]
        r = rate()
        again = rate(**{kw: r.params[name] for name, kw in knobs.items()})
        parts = ("K", "I_AB", "chi_BE", "p_success")
        assert [getattr(again, p) for p in parts] == [getattr(r, p) for p in parts]
        assert r.check_decomposition(0.0)

    def test_mb_qam_pin_recovers_spacing_by_bisection(self):
        # the public MB pin is (nbar, xi); the spacing comes back from
        # _qam_delta's bisection (tol 1e-12), so the pinned K agrees with
        # the searched one to rounding, not bit for bit
        r = qkd.qam_kgr(4, FRAME_CH, BETA)
        again = qkd.qam_kgr(4, FRAME_CH, BETA, nbar=r.params["nbar"], xi=r.params["xi"])
        assert abs(again.params["delta"] / r.params["delta"] - 1.0) < 1e-11
        assert abs(again.K - r.K) < 1e-11
        assert r.check_decomposition(0.0) and again.check_decomposition(0.0)

    def test_kor_mode_is_kor_rate_at_its_knobs(self):
        r = kor.optimize_kor(FRAME_CH.T, BETA, mode="KOR", lattice=8)
        ref = kor.kor_rate(r.params["alpha2"], r.params["phases"], FRAME_CH.T, BETA)
        assert (r.K, r.I_AB, r.chi_BE) == (ref["K"], ref["I_AB"], ref["chi_BE"])
        assert r.check_decomposition(0.0)

    @pytest.mark.parametrize("beta", [0.0, 1.5, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("rate", list(BETA_RATES))
    def test_beta_outside_unit_interval_raises_before_evaluation(self, rate, beta,
                                                                  monkeypatch):
        def evaluated(*args, **kwargs):
            raise AssertionError("an objective was evaluated before beta was checked")

        # every objective reaches one of these two entropy kernels
        monkeypatch.setattr(gs, "entropy_cm", evaluated)
        monkeypatch.setattr(qkd, "_entropy_batch", evaluated)
        with pytest.raises(ValueError, match="beta"):
            BETA_RATES[rate](beta)

    def test_pgm_mode_is_the_zero_phase_receiver(self):
        r = kor.optimize_kor(FRAME_CH.T, BETA, mode="PGM")
        ref = kor.kor_rate(r.params["alpha2"], np.zeros(4), FRAME_CH.T, BETA)
        assert (r.K, r.I_AB) == (ref["K"], ref["I_AB"])


class TestChannelParams:
    def test_distance_conversion(self):
        ch = qkd.ChannelParams.from_distance(50.0, 0.01)
        assert abs(ch.T - 10 ** (-1.0)) < 1e-15

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            qkd.ChannelParams(0.5, 0.01, d_km=10.0)

    def test_added_noise(self):
        ch = qkd.ChannelParams(0.25, 0.04)
        assert abs(ch.chi - (3.0 + 0.04)) < 1e-12


class TestGg02:
    def test_mutual_information_matches_gaussian_route(self):
        v, ch = 6.0, qkd.ChannelParams(0.45, 0.03)
        r = qkd.gg02_kgr(ch, BETA, v=v)
        st0 = gs.apply_channel(
            gs.make_state("tmsv", V=v),
            gs.thermal_loss_channel(ch.T, ch.nbar_T),
            modes=[1],
        )
        i2 = gs.gaussian_mutual_information(st0.cm)
        assert abs(r.I_AB - i2) < 1e-12

    @pytest.mark.parametrize("mode, quad", [(-1, 0), (2, 0), (1, 2)])
    def test_holevo_rejects_bad_mode_or_quadrature(self, mode, quad):
        cm = qkd._two_mode_cm(3.0, 0.5, 1.1, math.sqrt(8.0))
        with pytest.raises(ValueError, match="measured_mode|quad"):
            qkd.holevo_from_cm(cm, measured_mode=mode, quad=quad)

    def test_decomposition(self):
        r = qkd.gg02_kgr(qkd.ChannelParams.from_distance(80, 0.02), BETA)
        assert r.check_decomposition(1e-12)

    def test_positive_at_500km_no_noise(self):
        assert qkd.gg02_kgr(qkd.ChannelParams.from_distance(500, 0.0), 1.0).K > 0

    def test_chi_nonnegative(self):
        for d in (10, 100, 250):
            r = qkd.gg02_kgr(qkd.ChannelParams.from_distance(d, 0.03), BETA)
            assert r.chi_BE >= 0.0


class TestPsk:
    def test_state_eigenvalues_qpsk_closed_form(self):
        a2 = 0.8
        lam = np.exp(mary.psk_log_eigenvalues(4, a2))
        e = math.exp(-a2) / 2
        expect = [
            e * (math.cosh(a2) + math.cos(a2)),
            e * (math.sinh(a2) + math.sin(a2)),
            e * (math.cosh(a2) - math.cos(a2)),
            e * (math.sinh(a2) - math.sin(a2)),
        ]
        assert np.allclose(lam, expect, atol=1e-14)
        assert abs(lam.sum() - 1.0) < 1e-12

    def test_correlation_below_gaussian(self):
        for m in (4, 8):
            for a2 in (0.1, 0.5, 2.0):
                z = qkd.psk_correlation(m, a2)
                assert 0.0 < z <= math.sqrt((1 + 2 * a2) ** 2 - 1) + 1e-9

    def test_correlation_vs_fock_oracle(self):
        # Z = 2 tr[rho^(1/2) a rho^(1/2) a^dag] evaluated brute force
        m, a2 = 4, 0.7
        amps = math.sqrt(a2) * np.exp(1j * np.pi * (2 * np.arange(m) + 1) / m)
        vecs = gs.coherent_fock_vector(amps, 40)
        rho = (vecs.T / m) @ vecs.conj()
        w, v = np.linalg.eigh(rho)
        sq = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        a_op = np.diag(np.sqrt(np.arange(1, 41)), k=1)
        oracle = 2.0 * float(np.real(np.trace(sq @ a_op @ sq @ a_op.conj().T)))
        assert abs(qkd.psk_correlation(m, a2) - oracle) < 1e-9

    def test_gram_z_matches_closed_form(self):
        for m in (4, 8):
            for a2 in (0.01, 0.3, 2.0):
                amps = math.sqrt(a2) * np.exp(1j * np.pi * (2 * np.arange(m) + 1) / m)
                z = qkd._mixture_z(amps, np.full(m, 1.0 / m))
                assert abs(z / qkd.psk_correlation(m, a2) - 1.0) < 1e-12

    def test_gram_penalty_matches_fock_construction(self):
        # w = sum_k p_k Var_k(A), A = rho^(1/2) a rho^(-1/2), built in Fock space
        m, cutoff = 4, 60
        for a2 in (0.5, 2.0):
            amps = math.sqrt(a2) * np.exp(1j * np.pi * (2 * np.arange(m) + 1) / m)
            vecs = oracles.coherent_fock(amps, cutoff)
            rho = (vecs.T / m) @ vecs.conj()
            lam, v = np.linalg.eigh(rho)
            keep = lam > 1e-10
            inv_sqrt = (v[:, keep] / np.sqrt(lam[keep])) @ v[:, keep].conj().T
            sq = (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T
            a_op = np.diag(np.sqrt(np.arange(1.0, cutoff + 1.0)), k=1)
            av = vecs @ (sq @ a_op @ inv_sqrt).T  # row k: A|a_k>
            mean = np.sum(vecs.conj() * av, axis=1)
            w_fock = float(np.sum(np.abs(av) ** 2) - np.sum(np.abs(mean) ** 2)) / m
            _, w = qkd._mixture_z(amps, np.full(m, 1.0 / m), penalty=True)
            assert abs(w / w_fock - 1.0) < 1e-12

    def test_z_penalty_quiet_and_below_linear(self):
        ch = qkd.ChannelParams.from_distance(30, 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            pen = qkd.psk_kgr(4, ch, BETA, alpha2=0.3, z_penalty=True)
        assert pen.K < qkd.psk_kgr(4, ch, BETA, alpha2=0.3).K

    def test_qpsk_below_gg02(self):
        ch = qkd.ChannelParams.from_distance(40, 0.01)
        assert qkd.psk_kgr(4, ch, BETA).K < qkd.gg02_kgr(ch, BETA).K

    def test_higher_order_improves(self):
        ch = qkd.ChannelParams.from_distance(50, 0.01)
        k4 = qkd.psk_kgr(4, ch, BETA).K
        k8 = qkd.psk_kgr(8, ch, BETA).K
        kinf = qkd.psk_kgr("inf", ch, BETA).K
        assert k4 < k8 <= kinf + 1e-4
        assert abs(k8 - kinf) < 0.02 * kinf  # PSK(8) almost saturates

    def test_tiny_transmissivity_no_key(self):
        ch = qkd.ChannelParams(1e-6, 0.01)
        assert qkd.psk_kgr(4, ch, BETA, alpha2=0.3).K <= 0.0

    def test_quadrature_stability(self):
        ch = qkd.ChannelParams.from_distance(30, 0.02)
        a = qkd.psk_mutual_information(4, 0.4, ch, n_points=2001)
        b = qkd.psk_mutual_information(4, 0.4, ch, n_points=4001)
        assert abs(a - b) < 1e-7

    def test_optimum_matches_independent_oracle(self):
        # oracle: Fock-basis Z, quad I_AB, closed-form chi_BE
        ch = qkd.ChannelParams.from_distance(60, 0.01)
        r = qkd.psk_kgr(4, ch, BETA)
        a2 = r.params["alpha2"]
        k_opt = oracles.psk_k(a2, ch, BETA)
        assert abs(k_opt - r.K) < 1e-8
        assert oracles.psk_k(0.99 * a2, ch, BETA) < k_opt
        assert oracles.psk_k(1.01 * a2, ch, BETA) < k_opt


class TestQam:
    def test_xi_zero_equals_uniform(self):
        ch = qkd.ChannelParams.from_distance(40, 0.01)
        a = qkd.qam_kgr(4, ch, BETA, sampling="MB", nbar=1.5, xi=0.0)
        b = qkd.qam_kgr(4, ch, BETA, sampling="uniform", nbar=1.5)
        assert abs(a.K - b.K) < 1e-12

    def test_two_by_two_is_qpsk(self):
        ch = qkd.ChannelParams.from_distance(40, 0.01)
        nb = 0.4
        a = qkd.qam_kgr(2, ch, BETA, sampling="uniform", nbar=nb)
        b = qkd.psk_kgr(4, ch, BETA, alpha2=nb)
        assert abs(a.K - b.K) < 1e-6

    def test_large_xi_collapses_to_qpsk(self):
        ch = qkd.ChannelParams.from_distance(40, 0.01)
        nb = 0.4
        a = qkd.qam_kgr(4, ch, BETA, sampling="MB", nbar=nb, xi=30.0)
        b = qkd.psk_kgr(4, ch, BETA, alpha2=nb)
        assert abs(a.K / b.K - 1) < 0.01

    def test_uniform_spacing_inversion(self):
        delta = qkd._qam_delta(8, 2.0, 0.0)
        assert abs(delta - math.sqrt(6 * 2.0 / 63)) < 1e-12
        delta_mb = qkd._qam_delta(8, 2.0, 0.7)
        levels = qkd._qam_levels(8)
        w = qkd._mb_weights(levels, delta_mb, 0.7)
        assert abs(2 * delta_mb**2 * float(w @ levels**2) - 2.0) < 1e-9

    def test_energy_increasing_in_spacing(self):
        # the inverse _qam_delta needs a unique root
        deltas = np.linspace(0.01, 4.0, 2000)
        for xi in (0.05, 0.2, 1.0):
            e = [qkd._qam_energy(8, d, xi) for d in deltas]
            assert np.all(np.diff(e) > 0.0)

    def test_rho_z_matches_fock_oracle(self):
        for delta, xi in ((0.069, 0.0), (0.3, 0.0), (0.6, 1.5), (1.0, 0.3)):
            z, w1, xs = qkd._qam_rho_z(8, delta, xi)
            amps = (xs[:, None] + 1j * xs[None, :]).ravel()
            z_or, defect = oracles.fock_z(amps, np.outer(w1, w1).ravel())
            assert abs(defect) < 1e-13
            assert abs(z / z_or - 1.0) < 1e-12

    def test_rejects_half_pinned_mb(self):
        ch = qkd.ChannelParams.from_distance(40, 0.01)
        with pytest.raises(ValueError):
            qkd.qam_kgr(8, ch, BETA, sampling="MB", xi=0.4)
        with pytest.raises(ValueError):
            qkd.qam_kgr(8, ch, BETA, sampling="MB", nbar=1.0)

    def test_spacing_box_inside_fock_cap(self):
        # the widest constellation the MB search probes: xi = 0 at delta_max
        ch = qkd.ChannelParams.from_distance(10, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            for side in (4, 8):
                nb = qkd._qam_energy(side, qkd._qam_delta_max(side), 0.0)
                qkd.qam_kgr(side, ch, BETA, sampling="MB", nbar=nb, xi=0.0)

    def test_mb_objective_continuous_in_xi(self):
        # On a smooth curve second differences are O(h^2) against O(h)
        # first differences; a jump makes them equal.  The (nbar, xi)
        # coordinates jumped: at nbar = 6, K fell by 1.46 between
        # xi = 0.16 and 0.17, where the spacing leaps from 1.24 to 2.82.
        ch = qkd.ChannelParams.from_distance(10, 0.01)
        rs = [qkd.qam_kgr(8, ch, BETA, sampling="MB",
                          nbar=qkd._qam_energy(8, 0.9, x), xi=x)
              for x in np.linspace(0.0, 0.5, 51)]
        for ys in ([r.K for r in rs], [r.params["nbar"] for r in rs]):
            d1 = np.max(np.abs(np.diff(ys)))
            d2 = np.max(np.abs(np.diff(ys, n=2)))
            assert d2 < 0.25 * d1

    def test_mb_optimum_vs_coarse_oracle_scan(self):
        ch = qkd.ChannelParams.from_distance(40, 0.01)
        r = qkd.qam_kgr(4, ch, BETA, sampling="MB")
        d, x = r.params["delta"], r.params["xi"]
        k_or, nbar, _ = oracles.qam_k(4, d, x, ch, BETA)
        assert abs(k_or - r.K) < 1e-8
        assert abs(nbar - r.params["nbar"]) < 1e-12
        k_scan, d_scan, x_scan = oracles.qam_scan(
            4, ch, BETA, np.arange(0.2, 2.0001, 0.1), np.arange(0.0, 2.0001, 0.25))
        assert k_scan <= r.K < 1.01 * k_scan
        assert abs(d - d_scan) <= 0.1 and abs(x - x_scan) <= 0.25


class TestTrusted:
    def test_ordering(self):
        ch = qkd.ChannelParams.from_distance(60, 0.01)
        ks = []
        for tag in ("uL;uN", "tL;uN", "tL;tN"):
            sc = qkd.TrustScenario(tag, eta=0.7, eps_d=0.01)
            ks.append(qkd.trusted_qpsk_kgr(ch, BETA, sc).K)
        assert ks[0] <= ks[1] + 1e-9 <= ks[2] + 2e-9

    def test_untrusted_equals_unconditional_pipeline(self):
        ch = qkd.ChannelParams.from_distance(60, 0.01)
        sc = qkd.TrustScenario("uL;uN", eta=0.7, eps_d=0.01)
        a = qkd.trusted_qpsk_kgr(ch, BETA, sc, alpha2=0.35)
        b = qkd.psk_kgr(4, qkd.ChannelParams(0.7 * ch.T, 0.02), BETA, alpha2=0.35)
        assert abs(a.K - b.K) < 1e-12

    def test_fighting_noise_with_noise(self):
        # for large channel noise, trusted lossy-noisy detection can beat
        # the lossless detector: K(tL;tN) not monotone in eta
        ch = qkd.ChannelParams.from_distance(60, 0.05)
        ks = []
        for eta in (0.9999, 0.7, 0.5):
            sc = qkd.TrustScenario("tL;tN", eta=eta, eps_d=0.001 if eta < 1 else 0.0)
            ks.append(qkd.trusted_qpsk_kgr(ch, BETA, sc).K)
        assert max(ks[1], ks[2]) > ks[0]

    def test_eta_one_with_noise_rejected(self):
        with pytest.raises(ValueError):
            qkd.TrustScenario("tL;tN", eta=1.0, eps_d=0.01)


class TestMixtureEntropy:
    def test_single_state(self):
        assert qkd.mixture_entropy([1.0], [0.5 + 0.1j]) < 1e-12

    def test_qpsk_closed_form(self):
        a2 = 0.7
        amps = math.sqrt(a2) * np.exp(1j * np.pi * (2 * np.arange(4) + 1) / 4)
        got = qkd.mixture_entropy(np.full(4, 0.25), amps)
        ev = oracles.qpsk_mixture_eigenvalues(a2)
        expect = float(-np.sum(ev[ev > 0] * np.log2(ev[ev > 0])))
        assert abs(got - expect) < 1e-10
        assert abs(ev.sum() - 1.0) < 1e-12

    def test_orthogonal_limit(self):
        amps = 12.0 * np.exp(1j * np.pi * (2 * np.arange(4) + 1) / 4)
        assert abs(qkd.mixture_entropy(np.full(4, 0.25), amps) - 2.0) < 1e-9

    def test_gaussian_branch_matches_coherent_branch(self):
        amps = [0.4 + 0.2j, -0.3 + 0.5j, 0.1 - 0.6j]
        w = [0.5, 0.3, 0.2]
        states = [gs.make_state("coherent", alpha=a) for a in amps]
        a = qkd.mixture_entropy(w, amps)
        b = qkd.mixture_entropy(w, states)
        assert abs(a - b) < 1e-7

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            qkd.mixture_entropy([0.7, 0.7], [0.1, 0.2])

    def test_gaussian_branch_quiet_when_final_cutoff_converges(self):
        # the cutoff doubles from 10 to 20; the undersized first step must not warn
        states = [gs.make_state("thermal", nbar=1.0), gs.make_state("coherent", alpha=0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            got = qkd.mixture_entropy([0.5, 0.5], states)
        # the same cutoffs built through fock_density_matrix give this value
        assert abs(got - 1.3734220888403297) < 1e-12

    def test_gaussian_branch_capped_and_warns_once(self, monkeypatch):
        cutoffs = []
        expand = gs._fock_expansion

        def spy(state, cutoff):
            cutoffs.append(cutoff)
            return expand(state, cutoff)

        monkeypatch.setattr(gs, "_fock_expansion", spy)
        states = [gs.make_state("thermal", nbar=60.0), gs.make_state("coherent", alpha=0.5)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            qkd.mixture_entropy([0.5, 0.5], states)
        assert len([w for w in caught if issubclass(w.category, PrecisionWarning)]) == 1
        assert cutoffs and max(cutoffs) <= gs.FOCK_CAP


def _eve_inputs(a2, ch):
    """Eve's (E1, E2) means and the (B, E1, E2) CM that ``qkd._eve_dilation`` conditions."""
    seen, condition = {}, gs.condition_on_measurement

    def spy(cm, measured_mode, quad=0):
        seen["cm"] = cm
        return condition(cm, measured_mode, quad)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gs, "condition_on_measurement", spy)
        qkd._eve_dilation(a2, ch)
    s = gs.beam_splitter_matrix(ch.T, [0, 1], 3)
    fms = np.array([s @ [2.0 * a.real, 2.0 * a.imag, 0, 0, 0, 0] for a in kor._qpsk_amps(a2)])
    return fms[:, 2:], seen["cm"]


class TestWiretap:
    def test_t_one_no_leak(self):
        r = qkd.wiretap_qpsk_kgr(qkd.ChannelParams(1.0, 0.0), BETA, "pure", alpha2=0.4)
        assert r.chi_BE == 0.0
        assert abs(r.K - BETA * r.I_AB) < 1e-15

    def test_pure_requires_no_noise(self):
        with pytest.raises(ValueError):
            qkd.wiretap_qpsk_kgr(qkd.ChannelParams(0.5, 0.01), BETA, "pure")

    def test_thermal_reduces_to_pure(self):
        a2, d = 0.4, 30.0
        kp = qkd.wiretap_qpsk_kgr(
            qkd.ChannelParams.from_distance(d, 0.0), BETA, "pure", alpha2=a2
        )
        kt = qkd.wiretap_qpsk_kgr(
            qkd.ChannelParams.from_distance(d, 1e-9), BETA, "thermal", alpha2=a2
        )
        assert abs(kp.K - kt.K) < 1e-6

    @pytest.mark.parametrize("d", [5.0, 60.0])
    def test_gram_kernel_matches_fock_oracle(self, d):
        # the oracle expands each node's mixture at the symbol's own
        # conditional means d_k(x) = fm_E,k + g (x - m_k); the kernel
        # drops the common shift g x and uses one Gram matrix
        ch = qkd.ChannelParams.from_distance(d, 0.02)
        gram, _, means, var = qkd._eve_dilation(0.4, ch)
        fm_e, cm = _eve_inputs(0.4, ch)
        gain = cm[2:, 0] / cm[0, 0]
        assert np.max(np.abs(gain)) > 1e-3  # the common shift is not zero
        xmax = np.max(np.abs(means)) + 8.0 * math.sqrt(var)
        xs = np.linspace(0.0, xmax, 201)[[0, 60, 200]]
        lik = np.exp(-((xs[:, None] - means[None, :]) ** 2) / (2.0 * var))
        pb, s_gram = qkd._posterior_entropy(gram, lik)
        cond_fms = fm_e[None] + gain * (xs[:, None] - means[None, :])[:, :, None]
        s, defect = oracles.fock_conditional_entropy(
            gs.condition_on_measurement(cm, 0), cond_fms, lik / (4.0 * pb[:, None]), 12
        )
        assert defect < 1e-11
        assert np.max(np.abs(s - s_gram)) < 1e-10

    def test_gram_kernel_rejects_mixed_state(self):
        fms = np.zeros((4, 4))
        fms[:, 0] = [0.0, 1.0, 2.0, 3.0]
        qkd._displaced_gram(np.eye(4), fms)  # pure: accepted
        with pytest.raises(ValueError, match="pure"):
            qkd._displaced_gram(np.diag([1.5, 1.5, 1.0, 1.0]), fms)

    def test_thermal_equals_pure_at_zero_noise(self):
        # at eps = 0 the dilation's Gram matrix is the coherent one and
        # Eve's squeezed second mode is vacuum
        for d in (5.0, 40.0, 80.0):
            ch = qkd.ChannelParams.from_distance(d, 0.0)
            for a2 in (0.3, 1.5, 2.0):
                g_d, s_d, m_d, v_d = qkd._eve_dilation(a2, ch)
                g_c, s_c, m_c, v_c = qkd._eve_pure_loss(a2, ch.T)
                assert np.max(np.abs(g_d - g_c)) < 1e-12
                assert abs(s_d - s_c) < 1e-12
                assert np.max(np.abs(m_d - m_c)) < 1e-12 and abs(v_d - v_c) < 1e-12

    def test_eve_cutoff_cap_warns_once(self, monkeypatch):
        # nu = 4.8 at this point: the thermal tail at 40 photons is ~1e-8
        monkeypatch.setattr(gs, "FOCK_CAP", 40)
        ch = qkd.ChannelParams.from_distance(1.0, 4.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            qkd._wiretap_chi(2.0, ch, 101)
        hits = [w for w in caught if issubclass(w.category, PrecisionWarning)]
        assert len(hits) == 1 and "cap 40" in str(hits[0].message)

    @pytest.mark.parametrize("d", [5.0, 40.0])
    @pytest.mark.parametrize("a2", [0.3, 1.5])
    def test_one_mode_entropy_matches_two_mode_oracle(self, d, a2, monkeypatch):
        # the oracle is the two-mode Fock expansion of Eve's mixture: one
        # node of weight 1/4 per symbol
        ch = qkd.ChannelParams.from_distance(d, 0.02)
        s_default = qkd._eve_dilation(a2, ch)[1]
        monkeypatch.setattr(gs, "FOCK_TAIL_TOL", 1e-14)
        s_e = qkd._eve_dilation(a2, ch)[1]
        fm_e, cm = _eve_inputs(a2, ch)
        s, defect = oracles.fock_conditional_entropy(cm[2:, 2:], fm_e[None], np.full((1, 4), 0.25), 22)
        assert defect < 1e-14
        assert abs(s_e - s[0]) <= 1e-12 and abs(s_default - s[0]) <= 1e-12

    @pytest.mark.parametrize("d, eps", [(1.0, 0.02), (40.0, 0.02), (20.0, 0.3)])
    def test_eve_squeezer_is_williamson(self, d, eps):
        cm = _eve_inputs(1.0, qkd.ChannelParams.from_distance(d, eps))[1]
        s, nu = qkd._eve_squeezer(cm[2:, 2:])
        assert np.max(np.abs(s @ gs.omega(2) @ s.T - gs.omega(2))) < 1e-12
        assert np.max(np.abs(s @ cm[2:, 2:] @ s.T - np.diag([1.0, 1.0, nu, nu]))) < 1e-12
        assert abs(nu - cm[0, 0]) < 1e-12
        with pytest.raises(ValueError, match="vacuum"):
            qkd._eve_squeezer(np.diag([1.5, 1.5, 1.0, 1.0]))

    @staticmethod
    def _full_grid_chi(gram, s_e, means, var, n):
        """chi by Simpson on the whole line or plane: 2n - 1 nodes per axis."""
        d = means.shape[1]
        half = np.linspace(0.0, np.max(np.abs(means)) + 8.0 * math.sqrt(var), n)
        full = np.concatenate([-half[:0:-1], half])
        grid = np.stack(np.meshgrid(*[full] * d, indexing="ij"), axis=-1)
        lik = np.exp(-np.sum((grid[..., None, :] - means) ** 2, axis=-1) / (2.0 * var))
        pb, s_cond = qkd._posterior_entropy(gram, lik / (2.0 * math.pi * var) ** (d / 2))
        w = simpson_weights(2 * n - 1)
        w = w if d == 1 else np.outer(w, w)
        return s_e - float(np.sum(w * pb * s_cond)) * (half[1] - half[0]) ** d / 3.0**d

    @pytest.mark.parametrize("d_km, a2", [(5.0, 2.0), (40.0, 0.4)])
    def test_orthant_chi_equals_full_grid(self, d_km, a2):
        # p(b) S(E|b) is even in each axis, so the orthant rule on n
        # nodes equals the full rule on 2n - 1 nodes of the same step
        ch = qkd.ChannelParams.from_distance(d_km, 0.02)
        gram, s_e, means, var = qkd._eve_dilation(a2, ch)
        means = means[:, None]
        assert abs(qkd._outcome_chi(gram, s_e, means, var, 41)
                   - self._full_grid_chi(gram, s_e, means, var, 41)) < 1e-13
        gram, s_e, _, _ = qkd._eve_pure_loss(a2, ch.T)
        amps = 2.0 * math.sqrt(ch.T) * kor._qpsk_amps(a2)
        means = np.stack([amps.real, amps.imag], axis=1)
        assert abs(qkd._outcome_chi(gram, s_e, means, 2.0, 41)
                   - self._full_grid_chi(gram, s_e, means, 2.0, 41)) < 1e-13

    def test_wiretap_beats_unconditional(self):
        ch = qkd.ChannelParams.from_distance(30, 0.02)
        kw = qkd.wiretap_qpsk_kgr(ch, BETA, "thermal", alpha2=0.35, n_nodes=121)
        ku = qkd.psk_kgr(4, ch, BETA, alpha2=0.35)
        assert kw.K >= ku.K - 1e-9

    def test_gaussian_bound_dominates_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = float(rng.uniform(0.15, 0.9))
            a2 = float(rng.uniform(0.1, 1.2))
            ch = qkd.ChannelParams(t, 0.0)
            exact = qkd.wiretap_qpsk_kgr(ch, BETA, "pure", alpha2=a2, n_nodes=151)
            bound = qkd.psk_kgr(4, ch, BETA, alpha2=a2)
            assert bound.chi_BE >= exact.chi_BE - 1e-9


class TestMaxExcessNoise:
    def test_bracketing_definition(self):
        def k_of_eps(eps):
            return qkd.gg02_kgr(qkd.ChannelParams.from_distance(100, eps), BETA).K

        e_max = qkd.max_excess_noise(k_of_eps, hi=0.2)
        delta = 1e-3
        assert k_of_eps(e_max - delta) > 0.0 > k_of_eps(e_max + delta)

    def test_rate_positive_everywhere_raises(self):
        with pytest.raises(ValueError, match="still positive"):
            qkd.max_excess_noise(lambda e: 1.0)

    def test_decreasing_with_distance(self):
        vals = []
        for d in (40, 90, 140, 190, 240):
            vals.append(
                qkd.max_excess_noise(
                    lambda e: qkd.gg02_kgr(
                        qkd.ChannelParams.from_distance(d, e), BETA
                    ).K,
                    hi=0.4,
                )
            )
        assert all(b < a for a, b in zip(vals, vals[1:]))
