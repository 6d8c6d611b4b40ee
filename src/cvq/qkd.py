"""Asymptotic key rates for Gaussian- and discrete-modulation CV-QKD.

Implements the GG02 pipeline, PSK(M)/PSK(inf) and QAM (uniform and
Maxwell-Boltzmann sampled) protocols under the Gaussian-attack bound,
the trusted-device QPSK variants, and the wiretap-channel QPSK rate
(pure or thermal loss).  Key rates are reverse-reconciliation
Devetak-Winter lower bounds K = beta I_AB - chi_BE in bits per use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, special

from . import gaussian as gs
from .numerics import (
    PrecisionWarning,
    bisect_root,
    maximize_scalar,
    minimize_bounded,
    simpson_integral,
    simpson_weights,
)

__all__ = [
    "ChannelParams",
    "KgrResult",
    "TrustScenario",
    "gg02_kgr",
    "psk_kgr",
    "qam_kgr",
    "trusted_qpsk_kgr",
    "mixture_entropy",
    "wiretap_qpsk_kgr",
    "max_excess_noise",
    "psk_correlation",
    "psk_state_eigenvalues",
]

LOG2E = 1.0 / math.log(2.0)
GRAM_FLOOR = 1e-15  # Gram eigenvalues below GRAM_FLOOR * max are dropped
# per-mode cutoff cap of Eve's two-mode Fock expansion (31^2-dim matrices);
# gs.FOCK_CAP would mean 201^2-dim ones, tens of GB for four states
WIRETAP_FOCK_CAP = 30


@dataclass(frozen=True)
class ChannelParams:
    """Thermal-loss channel: transmissivity (or distance) and excess noise."""

    T: float
    eps: float = 0.0
    kappa: float = 0.2
    d_km: float | None = None

    def __post_init__(self):
        if not 0.0 < self.T <= 1.0:
            raise ValueError("transmissivity must lie in (0, 1]")
        if self.eps < 0.0:
            raise ValueError("excess noise must be >= 0")
        if self.d_km is not None:
            t_check = 10.0 ** (-self.kappa * self.d_km / 10.0)
            if abs(t_check - self.T) > 1e-12 * max(self.T, t_check):
                raise ValueError("inconsistent (T, distance) pair")

    @classmethod
    def from_distance(cls, d_km, eps=0.0, kappa=0.2):
        return cls(10.0 ** (-kappa * d_km / 10.0), eps, kappa, d_km)

    @property
    def chi(self):
        return (1.0 - self.T) / self.T + self.eps

    @property
    def nbar_T(self):
        """Thermal occupation reproducing the excess noise."""
        if self.T == 1.0:
            return 0.0
        return self.T * self.eps / (2.0 * (1.0 - self.T))


@dataclass(frozen=True)
class KgrResult:
    """Key rate, its two information parts, and the optimized knobs."""

    K: float
    I_AB: float
    chi_BE: float
    beta: float
    p_success: float = 1.0
    params: dict = field(default_factory=dict)

    def check_decomposition(self, tol=1e-12):
        return abs(self.K - self.p_success * (self.beta * self.I_AB - self.chi_BE)) <= tol


@dataclass(frozen=True)
class TrustScenario:
    """Detection trust level: tag in {'uL;uN', 'tL;uN', 'tL;tN'}."""

    tag: str
    eta: float = 1.0
    eps_d: float = 0.0

    def __post_init__(self):
        if self.tag not in ("uL;uN", "tL;uN", "tL;tN"):
            raise ValueError(f"unknown trust tag {self.tag!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("detector efficiency must lie in (0, 1]")
        if self.eps_d < 0.0:
            raise ValueError("detection noise must be >= 0")
        if self.eta == 1.0 and self.eps_d > 0.0:
            raise ValueError(
                "detection noise requires eta < 1 (the noise-injecting "
                "beam splitter degenerates at unit efficiency)"
            )


# ----------------------------------------------------------------------
# Gaussian two-mode pipeline
# ----------------------------------------------------------------------

def _two_mode_cm(v, t, chi, z):
    sz = np.diag([1.0, -1.0])
    return np.block(
        [
            [v * np.eye(2), math.sqrt(t) * z * sz],
            [math.sqrt(t) * z * sz, t * (v + chi) * np.eye(2)],
        ]
    )


def holevo_from_cm(cm, measured_mode=1, meas=gs.HOMODYNE_Q):
    """chi(B;E) = S(full) - S(rest | measurement) for a purifiable CM."""
    s_all = gs.entropy_cm(cm)
    state = gs.GaussianState(np.zeros(cm.shape[0]), cm, check=False)
    cond = gs.condition_on_measurement(state, meas, measured_mode)
    return s_all - gs.entropy_cm(cond.cm)


def _rate_result(parts, beta, x, box, n_grid, tol, name="alpha2", **params):
    """Devetak-Winter rate K = beta I_AB - chi_BE at one modulation knob.

    ``parts(x)`` returns (I_AB, chi_BE).  An ``x`` of None is chosen by
    one ``maximize_scalar`` search of K on ``box``; ``parts`` is then
    evaluated once at ``x``, so a pinned knob reproduces the searched K.
    ``params`` joins ``{name: x}`` in the result.
    """
    def key_rate(y):
        i_ab, chi_be = parts(y)
        return beta * i_ab - chi_be

    if x is None:
        x, _ = maximize_scalar(key_rate, box, n_grid, tol)
    i_ab, chi_be = parts(x)
    return KgrResult(
        beta * i_ab - chi_be, i_ab, chi_be, beta, params={name: float(x), **params}
    )


def gg02_kgr(channel: ChannelParams, beta, v=None) -> KgrResult:
    """GG02 key rate; the modulation V is tuned unless pinned.

    The exact Gaussian pipeline: I from the 2x2 determinant formula,
    Eve's Holevo information from the joint covariance matrix under the
    purification (entangling-cloner) attack.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("reconciliation efficiency must lie in (0, 1]")
    t, eps, chi = channel.T, channel.eps, channel.chi

    def parts(vv):
        i_ab = 0.5 * math.log2(1.0 + t * (vv - 1.0) / (1.0 + t * eps))
        z = math.sqrt(vv * vv - 1.0)
        cm = _two_mode_cm(vv, t, chi, z)
        chi_be = holevo_from_cm(cm)
        return i_ab, chi_be

    return _rate_result(parts, beta, v, (1.01, 250.0), 41, 1e-7, name="V")


# ----------------------------------------------------------------------
# PSK modulation
# ----------------------------------------------------------------------

def _psk_log_eigenvalues(m, alpha2):
    """log lambda_k of the PSK(M) mixture via the direct Fock series.

    lambda_k = e^{-a2} sum_n a2^{nM+k} / (nM+k)!, summed in log space so
    that the tiny high-k eigenvalues stay accurate at small energies.
    """
    if alpha2 <= 0.0:
        raise ValueError("positive energy required for log eigenvalues")
    n_terms = max(8, int(np.ceil((4.0 * alpha2 + 40.0) / m)))
    n = np.arange(n_terms)
    out = np.empty(m)
    for k in range(m):
        idx = n * m + k
        logs = idx * math.log(alpha2) - special.gammaln(idx + 1.0)
        out[k] = -alpha2 + special.logsumexp(logs)
    return out


def psk_state_eigenvalues(m, alpha2):
    """Eigenvalues lambda_k of the uniform PSK(M) coherent mixture."""
    if alpha2 == 0.0:
        lam = np.zeros(m)
        lam[0] = 1.0
        return lam
    return np.exp(_psk_log_eigenvalues(m, alpha2))


def psk_correlation(m, alpha2):
    """Correlation term Z_M = 2 a^2 sum_k lambda_k^{3/2}/lambda_{k+1}^{1/2}."""
    if alpha2 == 0.0:
        return 0.0
    log_lam = _psk_log_eigenvalues(m, alpha2)
    log_next = np.roll(log_lam, -1)
    return float(2.0 * alpha2 * np.sum(np.exp(1.5 * log_lam - 0.5 * log_next)))


def psk_inf_correlation(alpha2):
    """Z for continuous phase modulation: 2 e^{-a2} sum a^{2n+1} sqrt(n+1)/n!."""
    if alpha2 == 0.0:
        return 0.0
    a = math.sqrt(alpha2)
    n_max = max(30, int(np.ceil(6.0 * (alpha2 + 2.0))))
    n = np.arange(n_max)
    logs = (2 * n + 1) * math.log(a) - special.gammaln(n + 1.0)
    return float(2.0 * np.exp(-alpha2 + logs) @ np.sqrt(n + 1.0))


def _mixture_hb(means, weights, var, n_points=2001):
    """Shannon entropy (bits) of a Gaussian mixture along one quadrature."""
    means = np.asarray(means, dtype=float)
    weights = np.asarray(weights, dtype=float)
    sd = math.sqrt(var)
    lo = means.min() - 8.0 * sd
    hi = means.max() + 8.0 * sd

    def integrand(x):
        p = np.sum(
            weights[:, None]
            * np.exp(-((x[None, :] - means[:, None]) ** 2) / (2.0 * var)),
            axis=0,
        ) / math.sqrt(2.0 * math.pi * var)
        out = np.zeros_like(p)
        mask = p > 1e-300
        out[mask] = -p[mask] * np.log2(p[mask])
        return out

    val, err = simpson_integral(integrand, lo, hi, n_points=n_points)
    if err > 1e-7:
        warnings.warn(f"H_B quadrature error estimate {err:.1e}", PrecisionWarning)
    return val


def _psk_amps(m, alpha2):
    """PSK(M) amplitudes sqrt(alpha2) e^{i pi (2k + 1) / M}, k = 0..M-1."""
    k = np.arange(m)
    return math.sqrt(alpha2) * np.exp(1j * np.pi * (2 * k + 1) / m)


def _qpsk_amps(alpha2):
    return _psk_amps(4, alpha2)


def _psk_means(m, alpha2, t):
    k = np.arange(m)
    return 2.0 * math.sqrt(t * alpha2) * np.cos(np.pi * (2 * k + 1) / m)


def psk_mutual_information(m, alpha2, channel, n_points=2001):
    """Exact I_AB of PSK(M) (or 'inf') with homodyne detection."""
    var = 1.0 + channel.T * channel.eps
    if m == "inf":
        phi = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        means = 2.0 * math.sqrt(channel.T * alpha2) * np.cos(phi)
        weights = np.full(phi.size, 1.0 / phi.size)
    else:
        means = _psk_means(m, alpha2, channel.T)
        weights = np.full(m, 1.0 / m)
    h_b = _mixture_hb(means, weights, var, n_points)
    return h_b - 0.5 * math.log2(2.0 * math.pi * math.e * var)


def psk_kgr(m, channel: ChannelParams, beta, alpha2=None,
            alpha2_box=(1e-3, 4.0), z_penalty=False) -> KgrResult:
    """PSK(M in {4, 8, ...} or 'inf') key rate under the Gaussian bound.

    K(a2) = beta I_AB(a2) - chi_BE(a2) with the linear-channel CM; the
    modulation energy is optimized on ``alpha2_box`` unless pinned.  The
    optional ``z_penalty`` switch applies the nonlinear-channel
    correlation bound instead of the linear-channel value (default off).
    """
    if m != "inf" and (m < 2 or m % 2):
        raise ValueError("PSK order must be even and >= 2, or 'inf'")
    t, eps, chi = channel.T, channel.eps, channel.chi

    def parts(a2):
        if m == "inf":
            z = psk_inf_correlation(a2)
        else:
            z = psk_correlation(m, a2)
        if z_penalty and eps > 0.0 and m != "inf":
            _, w = _mixture_z(_psk_amps(m, a2), np.full(m, 1.0 / m), penalty=True)
            z = max(z - math.sqrt(max(2.0 * t * eps * w, 0.0)) / math.sqrt(t), 0.0)
        v = 1.0 + 2.0 * a2
        i_ab = psk_mutual_information(m, a2, channel)
        cm = _two_mode_cm(v, t, chi, z)
        chi_be = holevo_from_cm(cm)
        return i_ab, chi_be

    return _rate_result(parts, beta, alpha2, alpha2_box, 25, 3e-6)


# ----------------------------------------------------------------------
# QAM modulation
# ----------------------------------------------------------------------

def _qam_levels(m_side):
    return np.arange(m_side) - (m_side - 1) / 2.0


def _mb_weights(levels, delta, xi):
    w = np.exp(-xi * (levels * delta) ** 2)
    return w / w.sum()


def _qam_energy(m_side, delta, xi):
    """Mean photon number 2 delta^2 sum_l w_l l^2 of the MB-weighted grid."""
    levels = _qam_levels(m_side)
    w = _mb_weights(levels, delta, xi)
    return 2.0 * delta**2 * float(w @ levels**2)


def _qam_delta(m_side, nbar, xi):
    """Symbol spacing producing mean energy nbar for the MB weights.

    energy(delta) = (2 / xi) g(xi delta^2) with g(u) = u <l^2>_u, the
    mean of l^2 under weights exp(-u l^2).  g is strictly increasing, so
    the root is unique and bisection returns it; but for ``m_side = 8``
    g is nearly flat at g = 1/2 (its slope falls to 5e-4 at
    u = xi delta^2 = 0.68).  As nbar xi / 2 crosses 1/2 the unique root
    leaps from shaped constellations to spacings that put almost all
    weight on the innermost QPSK square: at nbar = 6 it is delta = 1.24
    (xi delta^2 = 0.25) for xi = 0.16 and delta = 2.82 (xi delta^2 =
    1.35) for xi = 0.17.  This inverse is therefore no coordinate for a
    search: ``qam_kgr`` searches over (delta, xi) and calls it only for a
    pinned nbar.
    """
    if xi == 0.0:
        return math.sqrt(6.0 * nbar / (m_side**2 - 1.0))
    hi = math.sqrt(6.0 * nbar / (m_side**2 - 1.0)) + 1.0
    while _qam_energy(m_side, hi, xi) < nbar:
        hi *= 2.0
    return bisect_root(lambda d: _qam_energy(m_side, d, xi) - nbar, 1e-12, hi,
                       tol=1e-12)


def _qam_delta_max(m_side):
    """Spacing box end: the corner symbols hold 2 (l_max delta)^2 = 100 photons.

    Z needs no Fock cutoff (``_mixture_z``), so this end bounds the MB
    search rather than a numerical method; widening it changes the
    optimum the search can reach.
    """
    l_max = (m_side - 1) / 2.0
    return math.sqrt(50.0) / l_max


def _qam_rho_z(m_side, delta, xi):
    """(Z correlation, per-axis weights, per-axis positions) at spacing delta."""
    levels = _qam_levels(m_side)
    w1 = _mb_weights(levels, delta, xi)
    xs = levels * delta
    amps = (xs[:, None] + 1j * xs[None, :]).ravel()
    return _mixture_z(amps, np.outer(w1, w1).ravel()), w1, xs


def qam_kgr(m_side, channel: ChannelParams, beta, sampling="MB",
            nbar=None, xi=None) -> KgrResult:
    """QAM(m_side x m_side) key rate with uniform or MB sampling.

    For ``sampling='uniform'`` only the mean energy is optimized; for
    ``sampling='MB'`` the per-axis weights exp(-xi (l delta)^2) are
    searched over the spacing delta and the inverse temperature xi, and
    the mean photon number nbar = 2 delta^2 sum_l w_l l^2 follows from
    them (xi -> 0 recovers the uniform grid, large xi collapses onto the
    innermost QPSK square).  The delta box ends where the corner symbols
    hold 100 photons (``_qam_delta_max``).  For MB sampling ``nbar`` and
    ``xi`` are pinned together, which evaluates a single constellation.
    """
    if m_side not in (2, 4, 8):
        raise ValueError("m_side must be one of 2, 4, 8")
    if sampling not in ("uniform", "MB"):
        raise ValueError("sampling must be 'uniform' or 'MB'")
    if sampling == "uniform":
        xi = 0.0
    elif (nbar is None) != (xi is None):
        raise ValueError("MB sampling pins nbar and xi together")
    t, eps, chi = channel.T, channel.eps, channel.chi
    var = 1.0 + t * eps

    def parts(dl, x, nb):
        z, w1, xs = _qam_rho_z(m_side, dl, x)
        means = 2.0 * math.sqrt(t) * xs
        h_b = _mixture_hb(means, w1, var)
        i_ab = h_b - 0.5 * math.log2(2.0 * math.pi * math.e * var)
        chi_be = holevo_from_cm(_two_mode_cm(1.0 + 2.0 * nb, t, chi, z))
        return i_ab, chi_be

    def result(dl, x, nb):
        i_ab, chi_be = parts(dl, x, nb)
        return KgrResult(
            beta * i_ab - chi_be, i_ab, chi_be, beta,
            params={"nbar": float(nb), "xi": float(x), "delta": float(dl)},
        )

    if nbar is not None:
        return result(_qam_delta(m_side, nbar, xi), xi, nbar)

    if sampling == "uniform":
        def key_rate(nb):
            i_ab, chi_be = parts(_qam_delta(m_side, nb, 0.0), 0.0, nb)
            return beta * i_ab - chi_be

        nb, _ = maximize_scalar(key_rate, (0.05, 20.0), 21, 1e-4)
        return result(_qam_delta(m_side, nb, 0.0), 0.0, nb)

    def neg_k2(v):
        dl, x = math.exp(v[0]), float(v[1])
        i_ab, chi_be = parts(dl, x, _qam_energy(m_side, dl, x))
        return -(beta * i_ab - chi_be)

    # delta_lo: the uniform grid's spacing at nbar = 0.05
    delta_lo = math.sqrt(0.3 / (m_side**2 - 1.0))
    box = [(math.log(delta_lo), math.log(_qam_delta_max(m_side))), (0.0, 3.0)]
    v_opt, _ = minimize_bounded(neg_k2, box, 21, 1e-5, 1e-10)
    dl, x = math.exp(v_opt[0]), float(v_opt[1])
    return result(dl, x, _qam_energy(m_side, dl, x))


# ----------------------------------------------------------------------
# trusted-device QPSK
# ----------------------------------------------------------------------

def _trusted_cm(alpha2, channel, scenario):
    """8x8 CM of modes (A, B, C1, C2) with the detection dilation."""
    t_ch, eps_ch = channel.T, channel.eps
    chi_ch = (1.0 - t_ch) / t_ch + eps_ch
    v = 1.0 + 2.0 * alpha2
    z = psk_correlation(4, alpha2)
    sigma_ab = _two_mode_cm(v, t_ch, chi_ch, z)
    eta, eps_d = scenario.eta, scenario.eps_d
    if eta < 1.0:
        nbar_d = eta * t_ch * eps_d / (2.0 * (1.0 - eta))
    else:
        nbar_d = 0.0
    v_d = 1.0 + 2.0 * nbar_d
    sigma_c = _two_mode_cm(v_d, 1.0, 0.0, math.sqrt(v_d * v_d - 1.0))
    full = linalg.block_diag(sigma_ab, sigma_c)
    state = gs.GaussianState(np.zeros(8), full, check=False)
    state = gs.apply_channel(state, gs.beam_splitter(eta), modes=[1, 2])
    return state.cm


def trusted_qpsk_kgr(channel: ChannelParams, beta, scenario: TrustScenario,
                     alpha2=None, alpha2_box=(1e-3, 4.0)) -> KgrResult:
    """QPSK key rate with trusted/untrusted detection losses and noise.

    The mutual information always uses the physical pipeline with total
    transmissivity eta*T and noise eps_ch + eps_d; Eve's bound retains
    the trusted modes according to the scenario tag.
    """
    t_tot = scenario.eta * channel.T
    eps_tot = channel.eps + scenario.eps_d
    total = ChannelParams(t_tot, eps_tot, channel.kappa)

    def parts(a2):
        i_ab = psk_mutual_information(4, a2, total)
        cm = _trusted_cm(a2, channel, scenario)
        if scenario.tag == "tL;tN":
            keep = [0, 1, 2, 3]  # A, B, C1, C2
        elif scenario.tag == "tL;uN":
            keep = [0, 1, 2]
        else:
            keep = [0, 1]
        idx = np.concatenate([(2 * m, 2 * m + 1) for m in keep])
        sub = cm[np.ix_(idx, idx)]
        chi_be = holevo_from_cm(sub, measured_mode=1)
        return i_ab, chi_be

    return _rate_result(parts, beta, alpha2, alpha2_box, 25, 3e-6)


# ----------------------------------------------------------------------
# mixture entropies
# ----------------------------------------------------------------------

def coherent_overlap_matrix(amplitudes):
    """Gram matrix <a_k|a_m> of a list of coherent amplitudes."""
    a = np.asarray(amplitudes, dtype=complex)
    return np.exp(
        -0.5 * np.abs(a[:, None]) ** 2
        - 0.5 * np.abs(a[None, :]) ** 2
        + np.conj(a[:, None]) * a[None, :]
    )


def _weighted_gram(weights, gram):
    """diag(sqrt w) gram diag(sqrt w), batched over the leading axes of w."""
    sq = np.sqrt(np.clip(weights, 0.0, None))
    return sq[..., :, None] * gram * sq[..., None, :]


def _mixture_z(amps, probs, penalty=False):
    """Z = 2 tr[rho^(1/2) a rho^(1/2) a^dag] of rho = sum_k p_k |a_k><a_k|.

    rho lives in the span of its coherent states, which a maps into
    itself (Kato, Osaki, Sasaki and Hirota, IEEE Trans. Commun. 47, 248
    (1999)).  With G = P^(1/2) Gamma P^(1/2) = W Lambda W^dag, Gamma the
    overlap matrix and D = diag(a_k), M = W^dag G D W gives
    Z = 2 sum_ij |M_ij|^2 / sqrt(lambda_i lambda_j) over the eigenvalues
    above ``GRAM_FLOOR`` lambda_max.  With ``penalty`` (positive weights
    only) it returns (Z, w), w = sum_k p_k Var_k(A) the term of the
    nonlinear-channel bound: A = rho^(1/2) a rho^(-1/2) is M Lambda^-1
    in the range basis, where sqrt(p_k)|a_k> is Lambda^(1/2) W^dag e_k.
    """
    amps = np.asarray(amps, dtype=complex)
    g = _weighted_gram(probs, coherent_overlap_matrix(amps))
    lam, vec = np.linalg.eigh(g)
    keep = lam > GRAM_FLOOR * lam[-1]
    lam, vec = lam[keep], vec[:, keep]
    m = vec.conj().T @ (g * amps) @ vec
    r = lam ** -0.25
    z = 2.0 * float(np.sum(np.abs(r[:, None] * m * r[None, :]) ** 2))
    if not penalty:
        return z
    u = np.sqrt(lam)[:, None] * vec.conj().T
    au = (m / lam) @ u
    mean = np.sum(u.conj() * au, axis=0)
    return z, float(np.sum(np.abs(au) ** 2) - np.sum(np.abs(mean) ** 2 / probs))


def mixture_entropy(weights, components) -> float:
    """Entropy (bits) of a finite mixture of coherent or Gaussian states.

    ``components`` is either a sequence of complex coherent amplitudes
    (exact finite-rank eigenproblem through the overlap matrix) or a
    sequence of GaussianState objects (truncated Fock expansion and a
    dense eigendecomposition).  The Fock cutoff doubles until the trace
    defect drops below 1e-9; only a final cutoff at ``gs.FOCK_CAP`` with
    a larger defect warns.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-10:
        raise ValueError("weights must be a probability vector")
    comps = list(components)
    if all(isinstance(c, gs.GaussianState) for c in comps):
        nb = max(gs.mean_photons(c) / c.n_modes for c in comps)
        cut = max(10, int(np.ceil(4.0 * (nb + 1.0))))
        while True:
            mats = [gs._fock_expansion(c, min(cut, gs.FOCK_CAP)).matrix for c in comps]
            rho = sum(wk * mk for wk, mk in zip(w, mats))
            defect = 1.0 - float(np.real(np.trace(rho)))
            if defect < 1e-9 or cut >= gs.FOCK_CAP:
                if defect >= 1e-9:
                    warnings.warn(
                        f"Fock cutoff cap {gs.FOCK_CAP} reached in mixture "
                        f"(defect {defect:.2e})",
                        PrecisionWarning,
                    )
                break
            cut *= 2
        return float(_entropy_batch((rho + rho.conj().T) / 2.0))
    gram = coherent_overlap_matrix(np.asarray(comps, dtype=complex))
    return float(_entropy_batch(_weighted_gram(w, gram)))


def qpsk_mixture_eigenvalues(energy):
    """Closed-form spectrum of the balanced QPSK coherent mixture."""
    a2 = energy
    e = math.exp(-a2)
    return np.array(
        [
            0.5 * e * (math.cosh(a2) + math.cos(a2)),
            0.5 * e * (math.cosh(a2) - math.cos(a2)),
            0.5 * e * (math.sinh(a2) + abs(math.sin(a2))),
            0.5 * e * (math.sinh(a2) - abs(math.sin(a2))),
        ]
    )


# ----------------------------------------------------------------------
# wiretap QPSK
# ----------------------------------------------------------------------

def _entropy_rows(p):
    """Shannon entropy (bits) along the last axis, 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms.sum(axis=-1)


def _entropy_batch(mats):
    """Von Neumann entropies (bits) of PSD matrices, batched over leading axes."""
    ev = np.linalg.eigvalsh(mats)
    if np.min(ev) < -1e-9:
        raise FloatingPointError("negative eigenvalue in a mixture spectrum")
    return _entropy_rows(np.clip(ev, 0.0, None))


def _posterior_entropy(gram, lik):
    """Bob's outcome probabilities and Eve's entropy given each outcome.

    ``lik[..., b, k]`` = p(b|k) for equiprobable symbols k whose states
    Eve holds with Gram matrix ``gram``.  Returns (p(b), S(E|b)) with
    S(E|b) the spectrum entropy of the Gram matrix weighted by the
    posterior p(k|b) = p(b|k) / (K p(b)) (uniform where p(b) = 0).
    """
    n_sym = lik.shape[-1]
    pb = lik.mean(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        post = np.where(pb[..., None] > 0.0, lik / (n_sym * pb[..., None]), 1.0 / n_sym)
    return pb, _entropy_batch(_weighted_gram(post, gram))


def _displaced_gram(cm, fms):
    """Gram matrix of displaced copies D(d_k)|psi> of one pure state.

    |psi> is the zero-mean pure Gaussian state of CM ``cm`` and d_k =
    ``fms[k]``; G_kl = exp(-D^T cm^-1 D / 8 + i d_k^T Omega d_l / 4) with
    D = d_l - d_k.  A mixture of these states has the spectrum of its
    weighted G (Kato, Osaki, Sasaki and Hirota, IEEE Trans. Commun. 47,
    248 (1999)).  cm^-1 = Omega^T cm Omega holds only for a pure cm, so a
    mixed one raises ValueError.
    """
    nus = gs.symplectic_eigenvalues(cm)
    if np.max(np.abs(nus - 1.0)) > gs.PHYS_TOL:
        raise ValueError(f"Gram entropy needs a pure state; symplectic eigenvalues {nus}")
    diff = fms[None, :, :] - fms[:, None, :]  # [k, l] = d_l - d_k
    quad = np.einsum("kli,ij,klj->kl", diff, np.linalg.inv(cm), diff)
    phase = np.einsum("ki,ij,lj->kl", fms, gs.omega(cm.shape[0] // 2), fms)
    return np.exp(-quad / 8.0 + 0.25j * phase)


def _eve_pure_loss(alpha2, t):
    """(G, S(E), Bob's means, Bob's variance) when Eve holds the reflected field."""
    amps = _qpsk_amps(alpha2)
    gram = coherent_overlap_matrix(math.sqrt(1.0 - t) * amps)
    s_e = float(_entropy_batch(_weighted_gram(np.full(4, 0.25), gram)))
    return gram, s_e, 2.0 * math.sqrt(t) * np.real(amps), 1.0


def _eve_dilation(alpha2, channel):
    """(G, S(E), Bob's means, Bob's variance) of the entangling cloner.

    Modes (B, E1, E2): Alice's coherent state meets one arm of a TMSV
    at the channel's beam splitter.  S(E) expands Eve's two-mode mixture
    in the Fock basis.  Given Bob's homodyne outcome x her states have
    means d_k(x) = c_k + g x, c_k = fm_E,k - g m_k, g = sigma_EB / sigma_B.
    The shift g x is common to all four symbols, a unitary, so the
    conditional entropies come from the one Gram matrix of the c_k.
    """
    t, eps = channel.T, channel.eps
    v_eps = 1.0 + t * eps / (1.0 - t) if t < 1.0 else 1.0
    tmsv = gs.make_state("tmsv", V=v_eps)
    cm0 = linalg.block_diag(np.eye(2), tmsv.cm)
    bs = gs.beam_splitter(t)
    s_full = linalg.block_diag(bs.x_mat, np.eye(2))
    cm = s_full @ cm0 @ s_full.T
    fms = np.array([s_full @ np.array([2 * a.real, 2 * a.imag, 0, 0, 0, 0])
                    for a in _qpsk_amps(alpha2)])
    var_b = cm[0, 0]
    means = fms[:, 0]
    # Eve marginal: modes (E1, E2).  The cutoff grows by 2, not
    # doubling: the tail already falls 10-1000x per step
    idx_e = np.array([2, 3, 4, 5])
    cm_e = cm[np.ix_(idx_e, idx_e)]
    fm_e = fms[:, idx_e]
    nb = max(
        gs.mean_photons(gs.GaussianState(f, cm_e, check=False)) / 2.0
        for f in fm_e
    )
    cutoff = min(max(6, int(np.ceil(4.0 * (nb + 1.0))) + 2), WIRETAP_FOCK_CAP)
    while True:
        rho_bar = gs._fock_batch(cm_e, fm_e, (cutoff, cutoff)).mean(axis=0)
        tail = 1.0 - float(np.real(np.trace(rho_bar)))
        if tail < gs.FOCK_TAIL_TOL or cutoff >= WIRETAP_FOCK_CAP:
            break
        cutoff = min(cutoff + 2, WIRETAP_FOCK_CAP)
    if tail >= gs.FOCK_TAIL_TOL:
        warnings.warn(
            f"wiretap Fock cutoff cap {WIRETAP_FOCK_CAP} reached (tail {tail:.1e})",
            PrecisionWarning,
        )
    s_e = float(_entropy_batch(rho_bar))
    state = gs.GaussianState(np.zeros(6), cm, check=False)
    cond = gs.condition_on_measurement(state, gs.HOMODYNE_Q, measured_mode=0)
    gain = cm[idx_e, 0] / var_b  # sigma_EB * pinv
    return _displaced_gram(cond.cm, fm_e - gain * means[:, None]), s_e, means, var_b


def _wiretap_chi(alpha2, channel, n_nodes):
    """Holevo information chi(B;E) = S(E) - int p(x) S(E|x) dx.

    Pure loss (eps = 0) and the thermal dilation differ only in Eve's
    Gram matrix, S(E) and Bob's statistics; the integrand is symmetric
    in x, so Simpson's rule runs on x >= 0.
    """
    if channel.eps > 0.0:
        gram, s_e, means, var = _eve_dilation(alpha2, channel)
    else:
        gram, s_e, means, var = _eve_pure_loss(alpha2, channel.T)
    xmax = np.max(np.abs(means)) + 8.0 * math.sqrt(var)
    xs = np.linspace(0.0, xmax, n_nodes)
    pxk = np.exp(-((xs[None, :] - means[:, None]) ** 2) / (2.0 * var)) / math.sqrt(
        2.0 * math.pi * var
    )
    pb, s_cond = _posterior_entropy(gram, pxk.T)
    integrand = 2.0 * pb * s_cond
    step = xs[1] - xs[0]
    return s_e - float(np.sum(simpson_weights(n_nodes) * integrand) * step / 3.0)


def wiretap_qpsk_kgr(channel: ChannelParams, beta, loss_model="thermal",
                     alpha2=None, alpha2_box=(5e-2, 2.0),
                     n_nodes=201) -> KgrResult:
    """QPSK key rate when Eve holds exactly the channel environment.

    At eps = 0 Eve holds the reflected coherent states and S(E) is their
    Gram spectrum; at eps > 0 she holds the entangling-cloner dilation
    and S(E) is expanded in the Fock basis, its cutoff grown until the
    tail drops below ``gs.FOCK_TAIL_TOL``.  Her states conditioned on
    Bob's homodyne outcome are, in both cases, posterior-weighted
    mixtures with one fixed 4 x 4 Gram matrix, integrated over the
    outcome by Simpson's rule on ``n_nodes`` (odd) nodes.
    ``loss_model`` only validates: 'pure' requires eps = 0, 'thermal'
    accepts any eps.
    """
    if loss_model not in ("pure", "thermal"):
        raise ValueError("loss_model must be 'pure' or 'thermal'")
    if loss_model == "pure" and channel.eps != 0.0:
        raise ValueError("the pure-loss model requires zero excess noise")

    def parts(a2):
        i_ab = psk_mutual_information(4, a2, channel)
        return i_ab, max(_wiretap_chi(a2, channel, n_nodes), 0.0)

    return _rate_result(parts, beta, alpha2, alpha2_box, 9, 4e-3)


# ----------------------------------------------------------------------
# tolerable excess noise
# ----------------------------------------------------------------------

def max_excess_noise(kgr_of_eps, lo=1e-4, hi=0.5, tol=1e-4):
    """Largest excess noise with positive optimized key rate.

    ``kgr_of_eps`` maps an excess-noise value to the optimized key rate.
    Returns 0 if even ``lo`` gives a non-positive rate; bisection
    otherwise (tolerance 1e-4 on eps).  ``hi`` doubles while the rate
    there is positive; past eps = 1 that raises ValueError instead.
    """
    if kgr_of_eps(lo) <= 0.0:
        return 0.0
    while kgr_of_eps(hi) > 0.0:
        if hi > 1.0:
            raise ValueError(f"key rate still positive at excess noise {hi:.6g}")
        hi *= 2.0
    return bisect_root(lambda e: kgr_of_eps(e), lo, hi, tol=tol)
