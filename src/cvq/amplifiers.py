"""Amplifier-assisted CV-QKD: multi-span PIA/PSA links and NLAs.

Multi-span links interleave identical thermal-loss spans with
phase-insensitive or phase-sensitive amplifiers; key rates are computed
under unconditional security (PSA only) and under the trusted-device
scenario where a single span is wiretapped.  Noiseless linear
amplification at the receiver covers the ideal g^n benchmark and the
two physical schemes (quantum scissors, single-photon catalysis), whose
post-selected covariance matrices and success probabilities are
evaluated exactly from Gaussian phase-space integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian as gs
from .numerics import golden_min, matrix_stack, maximize_scalar, minimize_bounded, pointwise
from .qkd import ChannelParams, KgrResult, _two_mode_cm, holevo_from_cm

__all__ = [
    "SpanLink",
    "NlaSpec",
    "span_link_cm",
    "multispan_kgr_unconditional",
    "multispan_kgr_conditional",
    "plob",
    "ideal_nla_effective",
    "physical_nla_cm",
    "nla_kgr",
]


# ----------------------------------------------------------------------
# multi-span links
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpanLink:
    """M identical spans with equally spaced identical amplifiers.

    ``gain`` may be an array: the link then stands for one link per
    gain, and the CMs built from it are stacks.
    """

    m_spans: int
    d_km: float
    eps: float = 0.0
    gain: float = 1.0
    kind: str = "psa"
    kappa: float = 0.2

    def __post_init__(self):
        if self.m_spans < 1:
            raise ValueError("need at least one span")
        if self.d_km < 0.0 or self.kappa < 0.0 or self.eps < 0.0:
            raise ValueError("distance, attenuation and excess noise must be >= 0")
        if (np.asarray(self.gain) < 1.0).any():
            raise ValueError("power gain must be >= 1")
        if self.kind not in ("pia", "psa"):
            raise ValueError("kind must be 'pia' or 'psa'")

    @property
    def span_T(self):
        return 10.0 ** (-self.kappa * self.d_km / (10.0 * self.m_spans))

    @property
    def total_T(self):
        return 10.0 ** (-self.kappa * self.d_km / 10.0)

    @property
    def nbar_T(self):
        tn = self.total_T
        if tn >= 1.0:
            return 0.0
        return tn * self.eps / (2.0 * (1.0 - tn))

    @property
    def span_chi(self):
        t = self.span_T
        return (1.0 - t) * (1.0 + 2.0 * self.nbar_T) / t


def _geom_factor(x, m):
    """(1 - x^m) / (x^(m-1) (1 - x)), continuous at x = 1."""
    if abs(x - 1.0) < 1e-12:
        return float(m)
    return (1.0 - x**m) / (x ** (m - 1) * (1.0 - x))


def _span_chain(link: SpanLink, n):
    """Per-quadrature (tau, chi) of ``n`` loss-plus-amplifier spans.

    Both amplifier kinds act on q and p separately (Caves, Phys. Rev. D
    26, 1817 (1982)): a PIA scales both by G and adds G - 1, a PSA scales
    q by G and p by 1/G and adds nothing.  With x = T G (q; p of a PIA)
    or T / G (p of a PSA), a quadrature variance s leaves the chain as
    tau (s + chi) with tau = x^n and the input-referred noise
    chi = F(x, n) (span_chi + (G - 1) / x [PIA only]), F the geometric
    factor.  ``n = 0`` gives (1, 0).  The powers of an array gain are
    taken point by point, since NumPy's array power may round
    differently from the scalar one.
    """
    t, g, chi = link.span_T, link.gain, link.span_chi
    pia = link.kind == "pia"
    powers = pointwise(lambda x: (x**n, _geom_factor(x, n)))
    out = []
    for x in (g * t, g * t if pia else t / g):
        chi_x = chi + (g - 1.0) / x if pia else chi
        tau, geom = powers(x)
        out.append((tau, geom * chi_x))
    return out


def _amplifier(link: SpanLink):
    """Per-quadrature (power factor, input-referred noise) of one amplifier."""
    g = link.gain
    if link.kind == "pia":
        return [(g, (g - 1.0) / g)] * 2
    return [(g, 0.0), (1.0 / g, 0.0)]


def _map_mode(cm, mode, quads):
    """sigma -> tau (sigma + chi) on each quadrature of ``mode``, in place.

    ``cm`` may be a stack (..., 2n, 2n) with tau and chi of its leading shape.
    """
    for i, (tau, chi) in zip((2 * mode, 2 * mode + 1), quads):
        s = np.sqrt(tau)[..., None]
        cm[..., i, :] *= s
        cm[..., :, i] *= s
        cm[..., i, i] += tau * chi


def span_link_cm(link: SpanLink, v):
    """Closed-form 2-mode CM after the full amplified link.

    Each quadrature of Bob's mode sees its own transmissivity and
    input-referred noise from :func:`_span_chain`: (G T)^M on both for a
    PIA link, (G T)^M on q and (T/G)^M on p for a PSA link.
    Reproducible by explicit M-fold channel composition.  An array ``v``
    or link gain gives a stack (..., 4, 4).
    """
    if (np.asarray(v) <= 1.0).any():
        raise ValueError("modulation variance must exceed 1")
    (tq, cq), (tp, cp) = _span_chain(link, link.m_spans)
    z = np.sqrt(v * v - 1.0)
    zq = np.sqrt(tq) * z
    zp = np.sqrt(tp) * z
    return matrix_stack(
        [
            [v, 0.0, zq, 0.0],
            [0.0, v, 0.0, -zp],
            [zq, 0.0, tq * (v + cq), 0.0],
            [0.0, -zp, 0.0, tp * (v + cp)],
        ]
    )


def gain_cap(link: SpanLink, v):
    """Largest admissible power gain (per-span energy constraint)."""
    t, eps = link.span_T, link.eps
    if link.kind == "psa":
        return v / (1.0 + t * (v + eps - 1.0))
    return (1.0 + v) / (2.0 + t * (v + eps - 1.0))


def multispan_kgr_unconditional(link: SpanLink, beta, case="IIb",
                                v=None, gain=None) -> KgrResult:
    """Unconditional key rate of a PSA link (case IIa: q, IIb: p).

    PIA links are rejected here: their added-noise modes purify to the
    eavesdropper, so amplification never helps when the whole line is
    untrusted.  The (V, G) pair is optimized subject to the per-span
    energy cap unless pinned.
    """
    if link.kind != "psa":
        raise ValueError(
            "unconditional multi-span security only admits PSA links "
            "(PIA idler modes leak to the eavesdropper)"
        )
    if case not in ("IIa", "IIb"):
        raise ValueError("case must be 'IIa' or 'IIb'")
    quad = 0 if case == "IIa" else 1

    def parts(vv, gg):
        lk = SpanLink(link.m_spans, link.d_km, link.eps, gg, "psa", link.kappa)
        cm = span_link_cm(lk, vv)
        return gs.gaussian_mutual_information(cm, quad), holevo_from_cm(cm, quad=quad)

    v, gain = _optimize_v_gain(parts, link, beta, v, gain)
    i_ab, chi_be = parts(v, gain)
    return KgrResult(
        beta * i_ab - chi_be, i_ab, chi_be, beta,
        params={"V": float(v), "G": float(gain), "case": case},
    )


def _optimize_v_gain(parts, link, beta, v, gain):
    """Constrained (V, G) maximization shared by the multi-span cases.

    The gain axis is parametrized as a fraction of the admissible
    interval [1, max(G_cap(V), 1)]; pinning ``gain`` reduces to a 1-D
    search over the modulation.  That search's +-0.35 log-V bracket can
    carry it past V - 1 = 150, where the 2-D search stops, so the G = 1
    fallback may compare an out-of-box point against an in-box optimum.
    ``parts`` broadcasts over arrays of V and G, so that each seeding
    grid is one call.
    """
    exp = pointwise(math.exp)

    def admissible_gain(vv, frac):
        return 1.0 + (np.maximum(gain_cap(link, vv), 1.0) - 1.0) * frac

    def neg_k(vv, gg):
        i_ab, chi_be = parts(vv, gg)
        return -(beta * i_ab - chi_be)

    def neg_k_box(x):
        vv = 1.0 + exp(x[..., 0])
        return neg_k(vv, admissible_gain(vv, x[..., 1]))

    v_box = (math.log(0.02), math.log(150.0))
    if v is not None and gain is not None:
        return v, gain
    if gain is not None:
        grid = np.linspace(*v_box, 41)
        u0 = grid[np.argmin(neg_k(1.0 + exp(grid), gain))]
        u_opt, _ = golden_min(
            lambda u: neg_k(1.0 + math.exp(u), gain), u0 - 0.35, u0 + 0.35, tol=1e-7
        )
        return 1.0 + math.exp(u_opt), gain
    x, f2 = minimize_bounded(neg_k_box, [v_box, (0.0, 1.0)], 15, 1e-7, 1e-12)
    v = 1.0 + math.exp(x[0])
    gain = admissible_gain(v, float(x[1]))
    # the unamplified line G = 1 is always feasible; never fall below it
    v1, _ = _optimize_v_gain(parts, link, beta, None, 1.0)
    if -neg_k(v1, 1.0) > -f2:
        return v1, 1.0
    return v, gain


def _conditional_cms(link: SpanLink, v, k_span):
    """8x8 CM of (A, B, E1, E2) with span ``k_span`` wiretapped.

    The k - 1 trusted spans before the tap and the M - k after it act on
    B as one per-quadrature map each; Eve's entangling cloner is a beam
    splitter between B and her TMSV half E1.  An array ``v`` or link
    gain gives a stack (..., 8, 8).
    """
    v_eps = 1.0 + 2.0 * link.nbar_T
    cm = np.zeros(np.broadcast_shapes(np.shape(v), np.shape(link.gain)) + (8, 8))
    cm[..., :4, :4] = _two_mode_cm(v, 1.0, 0.0, np.sqrt(v * v - 1.0))
    cm[..., 4:, 4:] = _two_mode_cm(v_eps, 1.0, 0.0, math.sqrt(v_eps * v_eps - 1.0))
    _map_mode(cm, 1, _span_chain(link, k_span - 1))
    x = gs.beam_splitter_matrix(link.span_T, [1, 2], 4)
    cm = x @ cm @ x.T
    _map_mode(cm, 1, _amplifier(link))
    _map_mode(cm, 1, _span_chain(link, link.m_spans - k_span))
    return cm


def multispan_kgr_conditional(link: SpanLink, beta, k_span, case=None,
                              v=None, gain=None) -> KgrResult:
    """Key rate with trusted amplifiers and one untrusted span.

    Eve runs an entangling cloner on span ``k_span`` (1-based); all
    other spans act as plain thermal-loss segments.  ``case`` defaults
    to 'I' for PIA links and selects the measured quadrature for PSA
    links ('IIa' amplified q, 'IIb' de-amplified p).
    """
    if not 1 <= k_span <= link.m_spans:
        raise ValueError("untrusted span index out of range")
    if case is None:
        case = "I" if link.kind == "pia" else "IIa"
    if case == "I" and link.kind != "pia":
        raise ValueError("case I refers to a PIA link")
    if case in ("IIa", "IIb") and link.kind != "psa":
        raise ValueError("cases IIa/IIb refer to a PSA link")
    quad = 0 if case in ("I", "IIa") else 1

    def parts(vv, gg):
        lk = SpanLink(link.m_spans, link.d_km, link.eps, gg, link.kind, link.kappa)
        joint = _conditional_cms(lk, vv, k_span)
        i_ab = gs.gaussian_mutual_information(joint[..., :4, :4], quad)
        # (A, E1, E2) given Bob's homodyne -> E
        cm_e_cond = gs.condition_on_measurement(joint, 1, quad)[..., 2:, 2:]
        chi_be = gs.entropy_cm(joint[..., 4:, 4:]) - gs.entropy_cm(cm_e_cond)
        return i_ab, chi_be

    v, gain = _optimize_v_gain(parts, link, beta, v, gain)
    i_ab, chi_be = parts(v, gain)
    return KgrResult(
        beta * i_ab - chi_be, i_ab, chi_be, beta,
        params={"V": float(v), "G": float(gain), "k": k_span, "case": case},
    )


def plob(t, nbar_t=0.0):
    """Repeaterless secret-key capacity of the thermal-loss channel.

    Returns (bits_per_use, diverged) -- the flag marks T -> 1 where the
    pure-loss bound grows without limit and a large finite value is
    reported.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    if t >= 1.0 - 1e-15:
        return 1e9, True
    val = -math.log2((1.0 - t) * t**nbar_t) - gs.h_entropy(nbar_t)
    return float(val), False


# ----------------------------------------------------------------------
# ideal NLA
# ----------------------------------------------------------------------

def ideal_nla_effective(v, t, eps, g):
    """Effective (V_id, T_id, eps_id) of the g^n amplifier on GG02.

    valid=False flags gains beyond the normalizability bound
    g <= sqrt(1 + 2/(T (V + eps - 1))) or excess noise above 2.
    """
    if g < 1.0:
        raise ValueError("gain must be >= 1")
    g2m1 = g * g - 1.0
    denom = 2.0 - t * g2m1 * (v - 1.0 + eps)
    valid = denom > 0.0 and eps <= 2.0
    if not valid:
        return {"V_id": math.inf, "T_id": math.nan, "eps_id": math.nan,
                "valid": False}
    z2 = v * v - 1.0
    v_id = v + t * g2m1 * z2 / denom
    t_id = g * g * t / (
        1.0 + t * g2m1 * (1.0 + t * eps * g2m1 * (2.0 - eps) / 4.0 - eps)
    )
    eps_id = eps + g2m1 * t * eps * (2.0 - eps) / 2.0
    valid = 0.0 <= t_id <= 1.0 and eps_id >= 0.0
    return {"V_id": float(v_id), "T_id": float(t_id), "eps_id": float(eps_id),
            "valid": bool(valid)}


def ideal_gain_bound(v, t, eps):
    return math.sqrt(1.0 + 2.0 / (t * (v + eps - 1.0)))


# ----------------------------------------------------------------------
# Gaussian characteristic-function algebra for the physical NLAs
# ----------------------------------------------------------------------

def _nla_charfn_terms(cm_ab, mix):
    """Initial characteristic function after the mode-mixing network.

    ``mix`` acts on (A, B, ancillas...) with the single-photon ancilla
    at mode 2 and vacuum in any further mode.  Returns a one-term list
    of (c, Q, M); the single-photon polynomial factor is introduced
    *after* the linear substitution so that the term stays exactly
    quadratic.
    """
    n_modes = mix.shape[0]
    n2 = 2 * n_modes
    j = gs.omega(n_modes)
    sigma = np.eye(n2)
    sigma[:4, :4] = cm_ab
    m0 = j.T @ sigma @ j
    r = np.zeros((n2, n2))
    for jm in range(n_modes):
        for km in range(n_modes):
            r[2 * jm: 2 * jm + 2, 2 * km: 2 * km + 2] = mix.T[jm, km] * np.eye(2)
    # single-photon prefactor (1 - |alpha_2|^2) becomes, after substitution,
    # 1 - |(M^T beta)_2|^2: quadratic with matrix -2 P_2 conjugated by R
    p = np.zeros((n2, n2))
    p[4, 4] = p[5, 5] = -2.0
    return [(1.0, r.T @ p @ r, r.T @ m0 @ r)]


def _integrate_vars(terms, int_idx, keep_idx, measure_pairs):
    """Integrate Gaussian-polynomial terms over the selected variables."""
    new_terms = []
    for c, q, m in terms:
        mss = m[np.ix_(int_idx, int_idx)]
        msr = m[np.ix_(int_idx, keep_idx)]
        mrr = m[np.ix_(keep_idx, keep_idx)]
        det = np.linalg.det(mss)
        if det <= 0:
            raise FloatingPointError("non-convergent Gaussian integral")
        sig = np.linalg.inv(mss)
        kk = -sig @ msr
        m_new = mrr - msr.T @ sig @ msr
        scale = (2.0**measure_pairs) / math.sqrt(det)
        qss = q[np.ix_(int_idx, int_idx)]
        qsr = q[np.ix_(int_idx, keep_idx)]
        qrr = q[np.ix_(keep_idx, keep_idx)]
        c_new = c + 0.5 * float(np.trace(qss @ sig))
        cross = kk.T @ qsr
        q_new = kk.T @ qss @ kk + cross + cross.T + qrr
        new_terms.append((scale * c_new, scale * q_new, (m_new + m_new.T) / 2.0))
    return new_terms


def _restrict_vars(terms, keep_idx):
    """Set every variable outside ``keep_idx`` to zero."""
    return [
        (c, q[np.ix_(keep_idx, keep_idx)], m[np.ix_(keep_idx, keep_idx)])
        for c, q, m in terms
    ]


def _mul_gaussian(terms, idx, coeff, scale):
    out = []
    for c, q, m in terms:
        m2 = m.copy()
        for i in idx:
            m2[i, i] += coeff
        out.append((scale * c, scale * q, m2))
    return out


def _charfn_cm(terms):
    """Covariance matrix (two modes) of an unnormalized char function."""
    p0 = sum(t[0] for t in terms)
    hess = sum(np.asarray(q) - c * np.asarray(m) for c, q, m in terms)
    # variable layout per mode: (x, y); d/dy ~ q-quadrature, d/dx ~ -p
    sigma = np.zeros((4, 4))
    qmap = [1, 0, 3, 2]  # y_A, x_A, y_B, x_B
    sign = [1.0, -1.0, 1.0, -1.0]  # q <-> +y, p <-> -x
    for a in range(4):
        for b in range(4):
            sigma[a, b] = -sign[a] * sign[b] * hess[qmap[a], qmap[b]] / p0
    return p0, sigma


@dataclass(frozen=True)
class NlaSpec:
    """Physical NLA: scheme, target gain, conditional detector efficiency."""

    kind: str
    gain: float
    eta: float = 1.0

    def __post_init__(self):
        if self.kind not in ("ideal", "QS", "SPC"):
            raise ValueError("kind must be 'ideal', 'QS' or 'SPC'")
        if self.gain < 0.0:
            raise ValueError("gain must be >= 0")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")

    @property
    def tau(self):
        if self.kind == "QS":
            return 1.0 / (1.0 + self.gain**2)
        if self.kind == "SPC":
            g = self.gain
            return (4.0 + g * g - g * math.sqrt(8.0 + g * g)) / 8.0
        raise ValueError("the ideal NLA has no beam-splitter parameter")


def _qs_mixing(tau):
    """Mode-mixing matrix of the quantum scissors on (A, B, B1, B2)."""
    s2 = math.sqrt(0.5)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, s2, math.sqrt(tau / 2.0), -math.sqrt((1.0 - tau) / 2.0)],
            [0.0, -s2, math.sqrt(tau / 2.0), -math.sqrt((1.0 - tau) / 2.0)],
            [0.0, 0.0, math.sqrt(1.0 - tau), math.sqrt(tau)],
        ]
    )


def _spc_mixing(tau):
    """Mode-mixing matrix of single-photon catalysis on (A, B, B1)."""
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.sqrt(tau), math.sqrt(1.0 - tau)],
            [0.0, -math.sqrt(1.0 - tau), math.sqrt(tau)],
        ]
    )


def physical_nla_cm(kind, v, t, eps, g, eta=1.0):
    """Post-selected CM and success probability of a QS/SPC NLA.

    The GG02 state of covariance [(V, sqrt(T) Z), (., T(V + chi))] feeds
    the amplifier on Bob's mode; conditional on-off detection of
    efficiency ``eta`` heralds success.  Returns (cm, p_success) with cm
    the exact covariance of the heralded (non-Gaussian) state.
    """
    spec = NlaSpec(kind, g, eta)
    tau = spec.tau
    if kind == "QS" and not 0.0 < tau <= 0.5:
        raise ValueError("QS transmissivity out of range")
    if kind == "SPC" and not 0.0 < tau <= 0.25:
        raise ValueError("SPC transmissivity out of range")
    cm_ab = _two_mode_cm(v, t, (1.0 - t) / t + eps, math.sqrt(v * v - 1.0))
    off_coeff = (2.0 - eta) / eta
    if kind == "QS":
        mix = _qs_mixing(tau)
        terms = _nla_charfn_terms(cm_ab, mix)
        vars_b = [2, 3]
        vars_b1 = [4, 5]
        keep_after = [0, 1, 6, 7]
        # chi_on(B) x chi_off(B1): delta part restricts B to the origin
        t_off_b1 = _mul_gaussian(terms, vars_b1, off_coeff, 1.0 / eta)
        delta_part = _restrict_vars(t_off_b1, [0, 1] + vars_b1 + [6, 7])
        delta_part = _integrate_vars(delta_part, [2, 3], [0, 1, 4, 5], 1)
        gauss_part = _mul_gaussian(t_off_b1, vars_b, off_coeff, 1.0 / eta)
        gauss_part = _integrate_vars(
            gauss_part, vars_b + vars_b1, keep_after, 2
        )
        terms_out = delta_part + [(-c, -q, m) for c, q, m in gauss_part]
        p_single, cm = _charfn_cm(terms_out)
        return cm, 2.0 * p_single
    mix = _spc_mixing(tau)
    terms = _nla_charfn_terms(cm_ab, mix)
    vars_b1 = [4, 5]
    keep_after = [0, 1, 2, 3]
    delta_part = _restrict_vars(terms, keep_after)
    gauss_part = _mul_gaussian(terms, vars_b1, off_coeff, 1.0 / eta)
    gauss_part = _integrate_vars(gauss_part, vars_b1, keep_after, 1)
    terms_out = delta_part + [(-c, -q, m) for c, q, m in gauss_part]
    p_succ, cm = _charfn_cm(terms_out)
    return cm, p_succ


def nla_kgr(kind, channel: ChannelParams, beta, gain=None, eta=1.0,
            v=None) -> KgrResult:
    """Key rate of NLA-assisted GG02: K = P_succ (beta I_G - chi_G).

    ``gain=None`` optimizes the gain jointly with the modulation;
    otherwise the gain is fixed.  Ideal runs use the benchmark success
    probability 1/g^2 and return K = 0 with an ``invalid`` marker when
    the (V, g) region is unphysical at this distance.
    """
    t, eps = channel.T, channel.eps

    def parts(vv, gg):
        if kind == "ideal":
            eff = ideal_nla_effective(vv, t, eps, gg)
            if not eff["valid"]:
                return None
            ve, te, ee = eff["V_id"], eff["T_id"], eff["eps_id"]
            cm = _two_mode_cm(ve, te, (1.0 - te) / te + ee, math.sqrt(ve * ve - 1.0))
            p_succ = 1.0 / gg**2
        else:
            try:
                cm, p_succ = physical_nla_cm(kind, vv, t, eps, gg, eta)
            except (ValueError, FloatingPointError):
                return None
            if p_succ <= 0.0:
                return None
            nus = gs.symplectic_eigenvalues(cm)
            if np.min(nus) < 1.0 - 1e-6:
                return None
        return gs.gaussian_mutual_information(cm), holevo_from_cm(cm), p_succ

    def key_rate(vv, gg):
        res = parts(vv, gg)
        if res is None:
            return -1.0
        i_ab, chi_be, p_succ = res
        return p_succ * (beta * i_ab - chi_be)

    g_hi = 2.0 + 4.0 / math.sqrt(t)
    if gain is None and v is None:
        box = [(math.log(0.02), math.log(40.0)), (0.0, math.log(g_hi))]
        x, _ = minimize_bounded(
            pointwise(lambda u: -key_rate(1.0 + math.exp(u[0]), math.exp(u[1])), 1),
            box, 17, 1e-6, 1e-12,
        )
        v = 1.0 + math.exp(x[0])
        gain = math.exp(x[1])
    elif v is None:
        w_opt, _ = maximize_scalar(
            pointwise(lambda w: key_rate(1.0 + w, gain)), (0.02, 40.0), 41, 1e-7
        )
        v = 1.0 + w_opt
    res = parts(v, gain)
    if res is None:
        return KgrResult(
            0.0, 0.0, 0.0, beta, p_success=0.0,
            params={"V": v, "g": gain, "invalid": True},
        )
    i_ab, chi_be, p_succ = res
    k = p_succ * (beta * i_ab - chi_be)
    return KgrResult(
        k, i_ab, chi_be, beta, p_success=p_succ,
        params={"V": float(v), "g": float(gain), "invalid": False},
    )
