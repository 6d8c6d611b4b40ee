import math

import numpy as np
import pytest
from scipy import linalg as sla

from cvq import amplifiers as amp
from cvq import gaussian as gs
from cvq import qkd
from cvq.numerics import PrecisionWarning

BETA = 0.95


def passive_unitary_fock(mix, cutoff):
    """Fock-space unitary of a passive network b = mix a (test oracle)."""
    nm = mix.shape[0]
    d = cutoff + 1
    a1 = np.diag(np.sqrt(np.arange(1, d)), k=1)
    ops = []
    for j in range(nm):
        mats = [np.eye(d)] * nm
        mats[j] = a1
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        ops.append(full)
    h = sla.logm(mix)
    gen = sum(h[j, k] * ops[j].conj().T @ ops[k] for j in range(nm) for k in range(nm))
    return sla.expm(gen)


def _moments(sigma, d):
    a1 = np.diag(np.sqrt(np.arange(1, d)), k=1)
    q1 = a1 + a1.conj().T
    p1 = 1j * (a1.conj().T - a1)
    eye = np.eye(d)
    ops = [np.kron(q1, eye), np.kron(p1, eye), np.kron(eye, q1), np.kron(eye, p1)]
    p = float(np.real(np.trace(sigma)))
    cm = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            sym = (ops[i] @ ops[j] + ops[j] @ ops[i]) / 2.0
            cm[i, j] = float(np.real(np.trace(sigma @ sym))) / p
    return p, cm


def qs_oracle(v, t, eps, g, eta, cutoff=10):
    tau = 1.0 / (1.0 + g * g)
    chi = (1 - t) / t + eps
    z = math.sqrt(v * v - 1)
    sz = np.diag([1.0, -1.0])
    cm = np.block(
        [[v * np.eye(2), math.sqrt(t) * z * sz],
         [math.sqrt(t) * z * sz, t * (v + chi) * np.eye(2)]]
    )
    d = cutoff + 1
    rho_ab = gs.fock_density_matrix(
        gs.GaussianState(np.zeros(4), cm, check=False), (cutoff, cutoff)
    ).matrix.reshape(d, d, d, d)
    u = passive_unitary_fock(amp._qs_mixing(tau)[1:, 1:], cutoff)
    psi = np.zeros((d, d, d, d), dtype=complex)
    for m in range(d):
        vin = np.zeros(d**3)
        vin[(m * d + 1) * d] = 1.0
        psi[m] = (u @ vin).reshape(d, d, d)
    won = 1.0 - (1.0 - eta) ** np.arange(d)
    woff = (1.0 - eta) ** np.arange(d)
    e_map = np.einsum("mpqj,npqk,p,q->mnjk", psi, psi.conj(), won, woff)
    out = np.einsum("ambn,mnjk->ajbk", rho_ab, e_map).reshape(d * d, d * d)
    p, cm_out = _moments(out, d)
    return 2.0 * p, cm_out


def spc_oracle(v, t, eps, g, eta, cutoff=11):
    tau = amp.NlaSpec("SPC", g, eta).tau
    chi = (1 - t) / t + eps
    z = math.sqrt(v * v - 1)
    sz = np.diag([1.0, -1.0])
    cm = np.block(
        [[v * np.eye(2), math.sqrt(t) * z * sz],
         [math.sqrt(t) * z * sz, t * (v + chi) * np.eye(2)]]
    )
    d = cutoff + 1
    rho_ab = gs.fock_density_matrix(
        gs.GaussianState(np.zeros(4), cm, check=False), (cutoff, cutoff)
    ).matrix.reshape(d, d, d, d)
    u = passive_unitary_fock(amp._spc_mixing(tau)[1:, 1:], cutoff)
    psi = np.zeros((d, d, d), dtype=complex)
    for m in range(d):
        vin = np.zeros(d * d)
        vin[m * d + 1] = 1.0
        psi[m] = (u @ vin).reshape(d, d)
    won = 1.0 - (1.0 - eta) ** np.arange(d)
    e_map = np.einsum("mjp,nkp,p->mnjk", psi, psi.conj(), won)
    out = np.einsum("ambn,mnjk->ajbk", rho_ab, e_map).reshape(d * d, d * d)
    return _moments(out, d)


def _amplifier_channel(link):
    return gs.pia_channel(link.gain) if link.kind == "pia" else gs.psa_channel(link.gain)


def _compose_link_state(link, v):
    """M-fold apply_channel composition of the link (oracle of span_link_cm)."""
    state = gs.make_state("tmsv", V=v)
    loss = gs.thermal_loss_channel(link.span_T, link.nbar_T)
    amp_ch = _amplifier_channel(link)
    for _ in range(link.m_spans):
        state = gs.apply_channel(state, loss, modes=[1])
        state = gs.apply_channel(state, amp_ch, modes=[1])
    return state


def _compose_conditional_state(link, v, k_span):
    """Span-by-span 8x8 (A, B, E1, E2) CM with span ``k_span`` tapped
    (oracle of _conditional_cms)."""
    v_eps = 1.0 + 2.0 * link.nbar_T
    state = gs.make_state("tmsv", V=v).tensor(gs.make_state("tmsv", V=v_eps))
    loss = gs.thermal_loss_channel(link.span_T, link.nbar_T)
    amp_ch = _amplifier_channel(link)
    bs = gs.beam_splitter(link.span_T)
    for j in range(1, link.m_spans + 1):
        if j == k_span:
            state = gs.apply_channel(state, bs, modes=[1, 2])
        else:
            state = gs.apply_channel(state, loss, modes=[1])
        state = gs.apply_channel(state, amp_ch, modes=[1])
    return state


def _max_rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestSpanLink:
    def test_closed_form_matches_composition(self):
        worst = 0.0
        for kind in ("pia", "psa"):
            for m in (1, 2, 5):
                for g in (1.0, 1.2, 1.3, 2.0):
                    for v in (1.5, 8.0, 150.0):
                        lk = amp.SpanLink(m, 150.0, 0.05, gain=g, kind=kind)
                        worst = max(worst, _max_rel_diff(
                            amp.span_link_cm(lk, v).cm, _compose_link_state(lk, v).cm
                        ))
                        for k in range(1, m + 1):
                            worst = max(worst, _max_rel_diff(
                                amp._conditional_cms(lk, v, k).cm,
                                _compose_conditional_state(lk, v, k).cm,
                            ))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "d_km, eps, kappa", [(-10.0, 0.05, 0.2), (10.0, -0.05, 0.2), (10.0, 0.05, -0.2)]
    )
    def test_rejects_negative_inputs(self, d_km, eps, kappa):
        with pytest.raises(ValueError, match=">= 0"):
            amp.SpanLink(2, d_km, eps, kind="psa", kappa=kappa)

    def test_unit_gain_reproduces_single_span(self):
        lk = amp.SpanLink(6, 120.0, 0.04, gain=1.0, kind="psa")
        got = amp.span_link_cm(lk, 6.0).cm
        tn = lk.total_T
        chin = (1 - tn) / tn + 0.04
        z = math.sqrt(6.0**2 - 1) * math.sqrt(tn)
        expect = np.array(
            [
                [6, 0, z, 0],
                [0, 6, 0, -z],
                [z, 0, tn * (6 + chin), 0],
                [0, -z, 0, tn * (6 + chin)],
            ]
        )
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_psa_transmissivity_identity(self):
        lk = amp.SpanLink(5, 150.0, 0.05, gain=1.4, kind="psa")
        t1 = (lk.gain * lk.span_T) ** lk.m_spans
        t2 = (lk.span_T / lk.gain) ** lk.m_spans
        assert abs(t1 * t2 - lk.total_T**2) < 1e-12 * lk.total_T**2

    def test_continuous_amplification_limit(self):
        # chi(infinity) closed form vs M = 64 finite-span value
        d, eps, g_inf = 150.0, 0.05, 1.5
        tn = 10 ** (-0.2 * d / 10)
        nbar = tn * eps / (2 * (1 - tn))
        m = 64
        g = g_inf ** (1.0 / m)
        lk = amp.SpanLink(m, d, eps, gain=g, kind="psa")
        cm = amp.span_link_cm(lk, 5.0).cm
        t1 = (g * lk.span_T) ** m
        chi1_fin = cm[2, 2] / t1 - 5.0
        chi1_inf = (
            (1 - g_inf * tn)
            / (g_inf * tn)
            * math.log(tn)
            / math.log(g_inf * tn)
            * (1 + 2 * nbar)
        )
        assert abs(chi1_fin / chi1_inf - 1) < 0.005


class TestMultispan:
    def test_pia_unconditional_rejected(self):
        lk = amp.SpanLink(5, 100.0, 0.05, kind="pia")
        with pytest.raises(ValueError, match="PSA"):
            amp.multispan_kgr_unconditional(lk, BETA)

    def test_case_iia_gain_is_one(self):
        lk = amp.SpanLink(10, 150.0, 0.05, kind="psa")
        r = amp.multispan_kgr_unconditional(lk, BETA, case="IIa")
        assert abs(r.params["G"] - 1.0) < 0.02

    def test_case_iib_improves_large_noise(self):
        lk = amp.SpanLink(10, 150.0, 0.05, kind="psa")
        rb = amp.multispan_kgr_unconditional(lk, BETA, case="IIb")
        r0 = amp.multispan_kgr_unconditional(lk, BETA, case="IIb", gain=1.0)
        assert rb.K >= r0.K - 1e-12

    def test_small_noise_improvement_vanishes(self):
        lk = amp.SpanLink(10, 150.0, 0.001, kind="psa")
        rb = amp.multispan_kgr_unconditional(lk, BETA, case="IIb")
        r0 = amp.multispan_kgr_unconditional(lk, BETA, case="IIb", gain=1.0)
        assert abs(rb.K / r0.K - 1) < 0.01

    def test_conditional_invalid_span(self):
        lk = amp.SpanLink(5, 100.0, 0.05, kind="pia")
        with pytest.raises(ValueError):
            amp.multispan_kgr_conditional(lk, BETA, 6)

    def test_conditional_unit_gain_is_wiretap_baseline(self):
        lk = amp.SpanLink(5, 100.0, 0.05, kind="psa")
        r = amp.multispan_kgr_conditional(lk, BETA, 2, case="IIb", gain=1.0)
        assert r.K > 0 and r.check_decomposition(1e-12)

    def test_iib_first_span_gain_useless(self):
        lk = amp.SpanLink(5, 100.0, 0.05, kind="psa")
        rc = amp.multispan_kgr_conditional(lk, BETA, 1, case="IIb")
        rb = amp.multispan_kgr_conditional(lk, BETA, 1, case="IIb", gain=1.0)
        assert abs(rc.K / rb.K - 1.0) < 1e-6


class TestPlob:
    def test_pure_loss_value(self):
        k, flag = amp.plob(0.5, 0.0)
        assert not flag and abs(k - 1.0) < 1e-15

    def test_divergence_flag(self):
        k, flag = amp.plob(1.0, 0.0)
        assert flag and k > 1e6

    def test_small_t_expansion(self):
        t, eps = 1e-3, 0.01
        nbar = t * eps / (2 * (1 - t))
        k, _ = amp.plob(t, nbar)
        approx = t * (2 - eps * (1 - math.log(eps / 2))) / (2 * math.log(2))
        assert abs(k / approx - 1) < 0.05


class TestIdealNla:
    def test_unit_gain_identity(self):
        eff = amp.ideal_nla_effective(4.0, 0.3, 0.05, 1.0)
        assert eff == {"V_id": 4.0, "T_id": 0.3, "eps_id": 0.05, "valid": True}

    def test_low_transmissivity_gain_squared(self):
        eff = amp.ideal_nla_effective(4.0, 1e-4, 0.0, 2.0)
        assert abs(eff["T_id"] / (4.0 * 1e-4) - 1) < 0.01

    def test_boundary_flagged(self):
        v, t, eps = 4.0, 0.3, 0.05
        g_bound = amp.ideal_gain_bound(v, t, eps)
        assert amp.ideal_nla_effective(v, t, eps, g_bound * 0.999)["valid"]
        assert not amp.ideal_nla_effective(v, t, eps, g_bound * 1.001)["valid"]
        near = amp.ideal_nla_effective(v, t, eps, g_bound * 0.9999)
        assert near["V_id"] > 50 * v  # variance blows up at the edge

    def test_invalid_region_reported(self):
        ch = qkd.ChannelParams.from_distance(5.0, 0.03)
        r = amp.nla_kgr("ideal", ch, BETA, gain=4.0, v=20.0)
        assert r.params["invalid"] and r.K == 0.0


class TestPhysicalNla:
    def test_qs_vacuum_success_probability(self):
        # with a vacuum signal the heralding fires iff the single photon
        # reaches the monitored port: P = eta * tau exactly
        for g, eta in ((1.3, 1.0), (2.0, 0.6)):
            _, p = amp.physical_nla_cm("QS", 1.0 + 1e-12, 0.5, 0.0, g, eta)
            assert abs(p - eta / (1.0 + g * g)) < 1e-10

    def test_qs_matches_fock_oracle(self):
        v, t, eps, g, eta = 1.8, 0.25, 0.05, 1.4, 0.85
        cm, p = amp.physical_nla_cm("QS", v, t, eps, g, eta)
        # the cutoff-10 oracle keeps a ~1e-6 Fock tail on purpose
        with pytest.warns(PrecisionWarning, match="Fock truncation"):
            p_o, cm_o = qs_oracle(v, t, eps, g, eta, cutoff=10)
        assert abs(p - p_o) < 2e-5
        assert np.max(np.abs(cm - cm_o)) < 2e-4

    def test_spc_matches_fock_oracle(self):
        v, t, eps, g, eta = 1.7, 0.3, 0.04, 1.3, 0.8
        cm, p = amp.physical_nla_cm("SPC", v, t, eps, g, eta)
        p_o, cm_o = spc_oracle(v, t, eps, g, eta, cutoff=11)
        assert abs(p - p_o) < 2e-5
        assert np.max(np.abs(cm - cm_o)) < 2e-4

    def test_long_distance_limits(self):
        # effective GG02 with transmissivity g^2 T, and P ~ eta tau
        t, v, eps, g, eta = 1e-4, 4.0, 0.03, 2.0, 0.7
        tp = g * g * t
        w_expect = tp * (v + (1 - tp) / tp + eps)
        z_expect = math.sqrt(tp * (v * v - 1))
        for kind in ("QS", "SPC"):
            cm, p = amp.physical_nla_cm(kind, v, t, eps, g, eta)
            assert abs(cm[0, 0] / v - 1) < 0.01
            assert abs(cm[2, 2] / w_expect - 1) < 0.01
            assert abs(abs(cm[0, 2]) / z_expect - 1) < 0.01
            tau = amp.NlaSpec(kind, g, eta).tau
            assert abs(p / (eta * tau) - 1) < 0.01

    def test_efficiency_only_rescales_success(self):
        t = 1e-4
        cm1, p1 = amp.physical_nla_cm("QS", 2.0, t, 0.02, 1.8, 0.8)
        cm2, p2 = amp.physical_nla_cm("QS", 2.0, t, 0.02, 1.8, 0.4)
        assert abs(p1 / p2 - 2.0) < 0.01
        assert np.max(np.abs(cm1 - cm2)) < 1e-3

    def test_cms_physical_over_grid(self):
        for kind in ("QS", "SPC"):
            for v in (1.3, 4.0, 10.0):
                for t in (1e-3, 0.05, 0.4):
                    for g in (1.1, 2.0, 3.5):
                        cm, p = amp.physical_nla_cm(kind, v, t, 0.03, g, 0.9)
                        assert p > 0.0
                        assert gs.is_physical(cm, tol=1e-7)

    def test_tau_ranges_enforced(self):
        with pytest.raises(ValueError):
            amp.physical_nla_cm("QS", 2.0, 0.1, 0.0, 0.5, 1.0)  # tau > 1/2


class TestNlaKgr:
    def test_decomposition_includes_success(self):
        ch = qkd.ChannelParams.from_distance(150, 0.03)
        r = amp.nla_kgr("QS", ch, BETA, gain=2.0)
        assert r.p_success < 1.0
        assert r.check_decomposition(1e-12)

    def test_all_kinds_positive_at_long_distance(self):
        ch = qkd.ChannelParams.from_distance(400, 0.03)
        for kind in ("ideal", "QS", "SPC"):
            assert amp.nla_kgr(kind, ch, BETA).K > 0.0

    def test_below_plob(self):
        ch = qkd.ChannelParams.from_distance(200, 0.03)
        cap, _ = amp.plob(ch.T, ch.nbar_T)
        for kind in ("ideal", "QS", "SPC"):
            assert amp.nla_kgr(kind, ch, BETA).K <= cap
