"""BPSK coherent-state discrimination: bounds, receivers, imperfections.

The scenario is |alpha_k> = |(-1)^(k+1) alpha> with equal priors.  All
error probabilities account for a detector efficiency eta; exactly one
further imperfection class (dark counts, visibility, or phase
diffusion) may be active per call, mirroring the separated analyses the
receivers were designed for.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import detectors as det
from .detectors import PnrSpec
from .numerics import (
    PrecisionWarning,
    bisect_root,
    golden_min,
    minimize_bounded,
)

__all__ = [
    "BpskScenario",
    "ReceiverResult",
    "helstrom",
    "sql",
    "kennedy_family",
    "dffre",
    "hynore",
    "hffre",
]

GH_ORDER = 80  # Gauss-Hermite order for phase-diffusion averages


@dataclass(frozen=True)
class BpskScenario:
    """Energy, detector model and phase-diffusion strength of one run."""

    alpha2: float
    spec: PnrSpec = PnrSpec()
    sigma_pd: float = 0.0

    def __post_init__(self):
        if self.alpha2 < 0:
            raise ValueError("signal energy must be >= 0")
        if self.sigma_pd < 0:
            raise ValueError("phase-diffusion std must be >= 0")
        active = sum(
            [self.spec.nu > 0.0, self.spec.xi < 1.0, self.sigma_pd > 0.0]
        )
        if active > 1:
            raise ValueError(
                "only one imperfection class (dark counts, visibility, "
                "phase diffusion) may be active at a time"
            )

    @property
    def alpha(self):
        return math.sqrt(self.alpha2)

    @property
    def noise_kind(self):
        if self.spec.nu > 0.0:
            return "dark"
        if self.spec.xi < 1.0:
            return "visibility"
        if self.sigma_pd > 0.0:
            return "phase-noise"
        return "ideal"


@dataclass(frozen=True)
class ReceiverResult:
    """Error probability plus the optimized free parameters."""

    p_err: float
    params: dict = field(default_factory=dict)


def _gh_phase_nodes(sigma, order=GH_ORDER):
    """Nodes/weights so that E[f] = sum w f(phi) for phi ~ N(0, sigma^2)."""
    t, w = np.polynomial.hermite.hermgauss(order)
    return np.sqrt(2.0) * sigma * t, w / np.sqrt(np.pi)


# ----------------------------------------------------------------------
# quantum and standard quantum limits
# ----------------------------------------------------------------------

def helstrom(scenario: BpskScenario) -> float:
    """Minimum error probability for BPSK.

    Without phase diffusion this is (1 - sqrt(1 - e^{-4 a^2}))/2.  Under
    phase diffusion it is evaluated as (1 - tr|Lambda|)/2 with Lambda =
    (rho_0 - rho_1)/2 expanded in the number basis and truncated
    adaptively.  Detector parameters are irrelevant here.
    """
    a2 = scenario.alpha2
    if scenario.sigma_pd == 0.0:
        return 0.5 * (1.0 - math.sqrt(1.0 - math.exp(-4.0 * a2)))
    sig = scenario.sigma_pd
    cutoff = max(8, int(np.ceil(4.0 * (a2 + 1.0))))
    prev = None
    while True:
        n = np.arange(cutoff + 1)
        logfact = special.gammaln(n + 1.0)
        with np.errstate(divide="ignore"):
            logs = np.where(n == 0, 0.0, n * np.log(max(a2, 1e-300)) / 2.0)
        amp = np.exp(logs - 0.5 * logfact)  # alpha^n / sqrt(n!)
        nm = n[:, None] - n[None, :]
        lam = (
            0.5
            * math.exp(-a2)
            * np.exp(-(nm**2) * sig**2 / 2.0)
            * np.outer(amp, amp)
            * (((-1.0) ** nm) - 1.0)
        )
        tr_abs = float(np.sum(np.abs(np.linalg.eigvalsh(lam))))
        if prev is not None and abs(tr_abs - prev) < 1e-10:
            break
        if cutoff >= 200:
            warnings.warn("Helstrom truncation cap reached", PrecisionWarning)
            break
        prev = tr_abs
        cutoff *= 2
    return 0.5 * (1.0 - tr_abs)


def sql(scenario: BpskScenario) -> float:
    """Homodyne-receiver error probability (standard quantum limit)."""
    a = scenario.alpha
    if scenario.sigma_pd == 0.0:
        return 0.5 * (1.0 - math.erf(math.sqrt(2.0) * a))
    phi, w = _gh_phase_nodes(scenario.sigma_pd)
    vals = 0.5 * (1.0 - special.erf(np.sqrt(2.0) * a * np.cos(phi)))
    return float(np.sum(w * vals))


# ----------------------------------------------------------------------
# Kennedy family (single displacement + photon counting)
# ----------------------------------------------------------------------

def _improved_kennedy_beta(alpha):
    """Displacement solving (b - a)/(b + a) = exp(-4 a b)."""
    if alpha == 0.0:
        return 0.0

    def gap(b):
        return (b - alpha) / (b + alpha) - math.exp(-4.0 * alpha * b)

    hi = alpha + 1.0
    while gap(hi) < 0:
        hi *= 2.0
    return bisect_root(gap, alpha, hi, tol=1e-12)


def _phase_noise_pnr(scenario, energy, m):
    """P_sigma(n|k): PNR(m) statistics of the displaced dephased states.

    ``energy`` is the signal energy reaching the displacement stage.
    Returns (P(n|0), P(n|1)) as length m+1 arrays, plus continuous-n
    callables for the MAP threshold root.
    """
    eta = scenario.spec.eta
    sig = scenario.sigma_pd
    phi, w = _gh_phase_nodes(sig)
    mu0 = eta * 4.0 * energy * np.sin(phi / 2.0) ** 2
    mu1 = eta * 4.0 * energy * np.cos(phi / 2.0) ** 2

    def binned(mus):
        probs = np.stack([det.pnr_weights(mu, m) for mu in mus])
        return w @ probs

    p0 = binned(mu0)
    p1 = binned(mu1)

    def cont(mus):
        def f(nn):
            vals = np.exp(
                -mus + nn * np.log(np.maximum(mus, 1e-300)) - special.gammaln(nn + 1.0)
            )
            vals = np.where(mus == 0.0, float(nn == 0.0), vals)
            return float(np.sum(w * vals))

        return f

    return p0, p1, cont(mu0), cont(mu1)


def kennedy_family(scenario: BpskScenario, mode="nulling") -> ReceiverResult:
    """Kennedy receiver and its refinements.

    mode = "nulling":  fixed displacement D(alpha) + on-off detection,
                       p = exp(-4 eta a^2)/2 in the ideal/efficiency case.
    mode = "improved": displacement amplitude optimized through the
                       transcendental stationarity equation (ideal/eta).
    mode = "dpnr":     displacement-PNR receiver with the MAP threshold;
                       this is the variant that remains meaningful under
                       dark counts, visibility reduction or phase noise.
    """
    a2, a = scenario.alpha2, scenario.alpha
    eta = scenario.spec.eta
    kind = scenario.noise_kind

    if mode == "nulling":
        if kind not in ("ideal",):
            raise ValueError("nulling mode supports only the efficiency defect; "
                             "use mode='dpnr' for noisy detectors")
        return ReceiverResult(0.5 * math.exp(-4.0 * eta * a2), {"beta": a})

    if mode == "improved":
        if kind not in ("ideal",):
            raise ValueError("improved mode supports only the efficiency defect")
        ae = math.sqrt(eta) * a
        be = _improved_kennedy_beta(ae)
        p = 0.5 * (math.exp(-((be + ae) ** 2)) + 1.0 - math.exp(-((be - ae) ** 2)))
        beta = be / math.sqrt(eta) if eta > 0 else be
        return ReceiverResult(p, {"beta": beta})

    if mode != "dpnr":
        raise ValueError(f"unknown Kennedy mode {mode!r}")

    m = scenario.spec.effective_resolution(eta * 4.0 * a2 + scenario.spec.nu + 1.0)
    if kind in ("ideal", "dark"):
        nu = scenario.spec.nu
        r0, r1 = nu, eta * 4.0 * a2 + nu
        p0 = det.pnr_weights(r0, m)
        p1 = det.pnr_weights(r1, m)
        n_th = det.map_threshold("dark", alpha2=eta * a2, nu=nu, resolution=m)
        p_err = 1.0 - 0.5 * float(np.sum(np.maximum(p0, p1)))
        return ReceiverResult(p_err, {"n_th": n_th, "resolution": m})
    if kind == "visibility":
        xi = scenario.spec.xi
        g_m = eta * 2.0 * a2 * (1.0 - xi)
        g_p = eta * 2.0 * a2 * (1.0 + xi)
        p0 = det.pnr_weights(g_m, m)
        p1 = det.pnr_weights(g_p, m)
        n_th = det.map_threshold("visibility", alpha2=eta * a2, xi=xi, resolution=m)
        p_err = 1.0 - 0.5 * float(np.sum(np.maximum(p0, p1)))
        return ReceiverResult(p_err, {"n_th": n_th, "resolution": m})
    # phase noise: MAP threshold from the continuous-count root
    p0, p1, c0, c1 = _phase_noise_pnr(scenario, a2, m)
    n_th = det.map_threshold(
        "phase-noise", resolution=m, pmf0=lambda n: c0(n), pmf1=lambda n: c1(n)
    )
    p_err = 0.5 * (float(np.sum(p1[:n_th])) + float(np.sum(p0[n_th:])))
    return ReceiverResult(p_err, {"n_th": n_th, "resolution": m})


# ----------------------------------------------------------------------
# displacement feed-forward receiver
# ----------------------------------------------------------------------

def _qtilde(rate, n_th):
    """Probability of fewer than n_th counts at the given Poisson rate."""
    return det.poisson_cdf(n_th - 1, rate)


def _ff_recursion(alpha_eff, n_copies, eta, nu, xi, n_th, p0):
    """Feed-forward recursion; returns (correct probs per step, betas).

    ``alpha_eff`` is the amplitude entering the splitting stage (already
    rescaled by any front beam splitter).  For the ideal / efficiency
    case set nu = 0, xi = 1, n_th = 1.
    """
    a_n = alpha_eff / math.sqrt(n_copies)
    hi = 3.0 * a_n + 3.0
    probs = [p0]
    betas = []
    for _ in range(n_copies):
        prev = probs[-1]

        def step_err(beta):
            lam_m = max(a_n**2 + beta**2 - 2.0 * xi * beta * a_n, 0.0)
            lam_p = a_n**2 + beta**2 + 2.0 * xi * beta * a_n
            q0 = _qtilde(eta * lam_m + nu, n_th)
            q1 = 1.0 - _qtilde(eta * lam_p + nu, n_th)
            return -(prev * q0 + (1.0 - prev) * q1)

        beta, neg = golden_min(step_err, 0.0, hi, tol=1e-9)
        probs.append(-neg)
        betas.append(beta)
    return probs, betas


def dffre(scenario: BpskScenario, n_copies: int) -> ReceiverResult:
    """Displacement feed-forward receiver over N copies.

    Ideal and efficiency-only runs use on-off detection (threshold 1);
    dark counts and visibility reduction switch to a fixed count
    threshold that is optimized jointly with the displacement
    amplitudes.  Phase diffusion is not covered by this receiver.
    """
    if n_copies < 1:
        raise ValueError("need at least one copy")
    if scenario.noise_kind == "phase-noise":
        raise ValueError("feed-forward receivers are not defined under phase noise")
    spec = scenario.spec
    eta, nu, xi = spec.eta, spec.nu, spec.xi
    m = spec.effective_resolution(eta * 4.0 * scenario.alpha2 + nu + 1.0)
    if scenario.noise_kind == "ideal":
        ths = [1]
    else:
        ths = list(range(1, m + 1))
    best = None
    for n_th in ths:
        probs, betas = _ff_recursion(scenario.alpha, n_copies, eta, nu, xi, n_th, 0.5)
        if best is None or probs[-1] > best[0]:
            best = (probs[-1], n_th, probs, betas)
    p_corr, n_th, probs, betas = best
    return ReceiverResult(
        1.0 - p_corr,
        {"betas": betas, "n_th": n_th, "steps": probs, "resolution": m},
    )


# ----------------------------------------------------------------------
# hybrid receivers (HL detection + displacement stage)
# ----------------------------------------------------------------------

def _hl_split_sums(scenario, tau, z):
    """(sum_{Delta<0} S(a0r), sum_{Delta>=0} S(a0r), same for a1r).

    a0r/a1r are the reflected amplitudes for symbols 0/1; dark counts
    and visibility enter the HL statistics following the detector model.
    """
    a = scenario.alpha
    ar = math.sqrt(max(1.0 - tau, 0.0)) * a
    spec = scenario.spec
    pm0 = det.hl_pmf(+ar, z, spec)
    pm1 = det.hl_pmf(-ar, z, spec)
    neg0 = float(np.sum(pm0.probs[pm0.support < 0]))
    pos0 = 1.0 - neg0
    neg1 = float(np.sum(pm1.probs[pm1.support < 0]))
    pos1 = 1.0 - neg1
    return neg0, pos0, neg1, pos1


def _hynore_perr(scenario, tau, z):
    """Table-driven HYNORE error probability at a working point."""
    a2 = scenario.alpha2
    spec = scenario.spec
    eta, nu, xi = spec.eta, spec.nu, spec.xi
    kind = scenario.noise_kind
    neg0, pos0, neg1, pos1 = _hl_split_sums(scenario, tau, z)

    if kind in ("ideal",):
        off_bright = math.exp(-4.0 * eta * tau * a2)
        return 0.5 * off_bright * (neg0 + pos1)
    if kind == "dark":
        m = spec.effective_resolution(eta * 4.0 * tau * a2 + nu + 1.0)
        n_th = det.map_threshold("dark", alpha2=eta * tau * a2, nu=nu, resolution=m)
        low_bright = _qtilde(eta * 4.0 * tau * a2 + nu, n_th)
        high_dark = 1.0 - _qtilde(nu, n_th)
        return 0.5 * (low_bright * (neg0 + pos1) + high_dark * (pos0 + neg1))
    if kind == "visibility":
        m = spec.effective_resolution(eta * 4.0 * tau * a2 + 1.0)
        n_th = det.map_threshold(
            "visibility", alpha2=eta * tau * a2, xi=xi, resolution=m
        )
        g_p = eta * tau * 2.0 * a2 * (1.0 + xi)
        g_m = eta * tau * 2.0 * a2 * (1.0 - xi)
        low_bright = _qtilde(g_p, n_th)
        high_dark = 1.0 - _qtilde(g_m, n_th)
        return 0.5 * (low_bright * (neg0 + pos1) + high_dark * (pos0 + neg1))
    # phase noise: average the full table over the diffused phase
    sig = scenario.sigma_pd
    a = scenario.alpha
    ar = math.sqrt(max(1.0 - tau, 0.0)) * a
    m = spec.effective_resolution(eta * 4.0 * tau * a2 + 1.0)
    _, _, c0, c1 = _phase_noise_pnr(scenario, tau * a2, m)
    n_th = det.map_threshold(
        "phase-noise", resolution=m, pmf0=c0, pmf1=c1
    )
    phi, w = _gh_phase_nodes(sig)
    total = 0.0
    for ph, wt in zip(phi, w):
        mu0 = spec.eta * 4.0 * tau * a2 * math.sin(ph / 2.0) ** 2
        mu1 = spec.eta * 4.0 * tau * a2 * math.cos(ph / 2.0) ** 2
        p_low1 = _qtilde(mu1, n_th)
        p_high0 = 1.0 - _qtilde(mu0, n_th)
        pm0 = det.hl_pmf(+ar * np.exp(-1j * ph), z, spec)
        pm1 = det.hl_pmf(-ar * np.exp(-1j * ph), z, spec)
        neg0 = float(np.sum(pm0.probs[pm0.support < 0]))
        neg1 = float(np.sum(pm1.probs[pm1.support < 0]))
        total += wt * 0.5 * (
            p_low1 * (neg0 + (1.0 - neg1)) + p_high0 * ((1.0 - neg0) + neg1)
        )
    return total


def hynore(scenario: BpskScenario, detection="hl", z=None,
           grid=41) -> ReceiverResult:
    """Hybrid near-optimum receiver.

    detection = "hl": weak-LO homodyne-like front end; the error is
    minimized over the splitting ratio tau and (unless ``z`` is pinned)
    the LO amplitude.  detection = "homodyne": strong-LO limit, where
    the front end measures the quadrature exactly (ideal case only) and
    only tau is optimized.
    """
    a2 = scenario.alpha2
    if detection == "homodyne":
        if scenario.noise_kind != "ideal" or scenario.spec.eta != 1.0:
            raise ValueError("homodyne-limit mode covers only the ideal case")
        a = scenario.alpha

        def perr(tau):
            return (
                0.5
                * math.exp(-4.0 * tau * a2)
                * (1.0 - math.erf(math.sqrt(2.0 * max(1.0 - tau, 0.0)) * a))
            )

        tau, p = golden_min(perr, 0.0, 1.0, tol=1e-10)
        for t0 in (0.0, 1.0):  # boundary candidates
            if perr(t0) < p:
                tau, p = t0, perr(t0)
        return ReceiverResult(p, {"tau": tau})

    if detection != "hl":
        raise ValueError(f"unknown detection {detection!r}")
    spec = scenario.spec
    if spec.is_infinite and z is None:
        raise ValueError(
            "with infinite resolution the LO amplitude must be pinned "
            "(its optimum runs away to the homodyne limit)"
        )
    if z is not None:
        def perr_t(tau):
            return _hynore_perr(scenario, min(max(tau, 0.0), 1.0), z)

        tau, p = golden_min(perr_t, 0.0, 1.0, tol=1e-8)
        for t0 in (0.0, 1.0):
            if perr_t(t0) < p:
                tau, p = t0, perr_t(t0)
        return ReceiverResult(p, {"tau": tau, "z": z})

    z_max = math.sqrt(spec.resolution + 3.0)
    x, p = minimize_bounded(
        lambda v: _hynore_perr(scenario, _tau_warp(v[0]), v[1]),
        [(0.0, 1.0), (0.0, z_max)],
        grid, 1e-7, 1e-14,
    )
    return ReceiverResult(p, {"tau": _tau_warp(float(x[0])), "z": float(x[1])})


def _tau_warp(s):
    """Map [0, 1] onto the splitting ratio, densified toward tau = 1.

    The optimal working point sits in a boundary layer 1 - tau of width
    O(1/alpha^2); squaring the complementary coordinate lets a uniform
    grid resolve it at every energy.
    """
    s = min(max(s, 0.0), 1.0)
    return 1.0 - (1.0 - s) ** 2


def hffre(scenario: BpskScenario, n_copies: int, grid=21) -> ReceiverResult:
    """Hybrid feed-forward receiver: HL-seeded DFFRE over N copies."""
    if n_copies < 1:
        raise ValueError("need at least one copy")
    if scenario.noise_kind == "phase-noise":
        raise ValueError("feed-forward receivers are not defined under phase noise")
    spec = scenario.spec
    eta, nu, xi = spec.eta, spec.nu, spec.xi
    m = spec.effective_resolution(eta * 4.0 * scenario.alpha2 + nu + 1.0)
    if spec.is_infinite:
        raise ValueError("HFFRE needs a finite PNR resolution")
    ths = [1] if scenario.noise_kind == "ideal" else list(range(1, m + 1))
    z_max = math.sqrt(spec.resolution + 3.0)

    best = {"p": None}

    def run(tau, z, n_th):
        neg0, pos0, neg1, pos1 = _hl_split_sums(scenario, tau, z)
        p0 = 0.5 * (neg1 + pos0)
        probs, betas = _ff_recursion(
            math.sqrt(tau) * scenario.alpha, n_copies, eta, nu, xi, n_th, p0
        )
        return probs, betas

    def objective(v, n_th):
        tau = _tau_warp(v[0])
        z = min(max(v[1], 0.0), z_max)
        probs, _ = run(tau, z, n_th)
        return 1.0 - probs[-1]

    for n_th in ths:
        x, p = minimize_bounded(
            lambda v: objective(v, n_th), [(0.0, 1.0), (0.0, z_max)], grid, 1e-7, 1e-14
        )
        if best["p"] is None or p < best["p"]:
            tau = _tau_warp(float(x[0]))
            probs, betas = run(tau, float(x[1]), n_th)
            best = {
                "p": p,
                "tau": tau,
                "z": float(x[1]),
                "n_th": n_th,
                "betas": betas,
                "steps": probs,
            }
    p = best.pop("p")
    return ReceiverResult(p, best)
