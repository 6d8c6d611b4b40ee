"""Photon-counting statistics for PNR(M) detectors and their defects.

Covers the truncated-Poisson PNR(M) distribution, interference rates at
an imperfect beam splitter (visibility xi), the homodyne-like (HL)
click-difference distribution, and the maximum-a-posteriori decision
threshold of a displacement receiver, which takes the count rates of
the two symbols (averaged over phase nodes when the phase diffuses).
Dark counts compose with the quantum efficiency as rate
``eta * mu + nu`` (dark counts are not attenuated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .numerics import bisect_root

__all__ = [
    "PnrSpec",
    "ClickPmf",
    "pnr_weights",
    "pnr_pmf",
    "interference_rates",
    "hl_pmf",
    "map_threshold",
    "poisson_cdf",
]

#: sentinel for infinite photon-number resolution
INF_RESOLUTION = -1

#: Poisson tail kept when truncating an infinite-resolution detector
INF_TAIL = 1e-14


@dataclass(frozen=True)
class PnrSpec:
    """PNR(M) detector: resolution, efficiency, dark rate, visibility.

    ``resolution`` is a positive integer or ``INF_RESOLUTION`` for ideal
    photo-detection (series are then truncated at a Poisson tail below
    1e-14 and the effective cutoff is recorded in the outputs).
    """

    resolution: int = INF_RESOLUTION
    eta: float = 1.0
    nu: float = 0.0
    xi: float = 1.0

    def __post_init__(self):
        if self.resolution != INF_RESOLUTION and self.resolution < 1:
            raise ValueError("resolution must be a positive integer")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        if self.nu < 0.0:
            raise ValueError("dark rate must be >= 0")
        if not 0.0 < self.xi <= 1.0:
            raise ValueError("visibility must lie in (0, 1]")

    @property
    def is_infinite(self):
        return self.resolution == INF_RESOLUTION

    def effective_resolution(self, mu_max):
        """Truncation point for the ``M = infinity`` marker."""
        if not self.is_infinite:
            return self.resolution
        n = max(10, int(np.ceil(4.0 * (mu_max + 1.0))))
        while 1.0 - poisson_cdf(n - 1, mu_max) > INF_TAIL:
            n *= 2
        return n


@dataclass(frozen=True)
class ClickPmf:
    """Finite click distribution with its support labels."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        total = float(probs.sum())
        if not math.isfinite(total):  # NaN or inf in any entry
            raise ValueError("non-finite probability")
        if np.any(probs < -1e-15):
            raise ValueError("negative probability")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf sums to {total}")

    def mean(self):
        return float(np.sum(self.support * self.probs))


def poisson_weights(mu, n_max):
    """Poisson p.m.f. on 0..n_max, evaluated stably in log space."""
    n = np.arange(n_max + 1)
    if mu == 0.0:
        w = np.zeros(n_max + 1)
        w[0] = 1.0
        return w
    logw = -mu + n * np.log(mu) - special.gammaln(n + 1)
    return np.exp(logw)


def poisson_cdf(n, mu):
    """P(X <= n) for X ~ Poisson(mu)."""
    if n < 0:
        return 0.0
    return float(special.gammaincc(n + 1, mu))


def pnr_weights(rate, m):
    """PNR(m) counts at Poisson rate ``rate``: 0..m-1, bin m holds the tail."""
    w = poisson_weights(rate, m)
    w[m] = 1.0 - poisson_cdf(m - 1, rate)
    return w


def pnr_pmf(mu, spec: PnrSpec) -> ClickPmf:
    """Counting distribution of a PNR(M) detector on mean energy ``mu``.

    The effective rate is ``eta * mu + nu`` and the last bin absorbs the
    Poisson tail.
    """
    if mu < 0:
        raise ValueError("mean count must be >= 0")
    rate = spec.eta * mu + spec.nu
    m = spec.effective_resolution(rate)
    return ClickPmf(np.arange(m + 1), pnr_weights(rate, m))


def interference_rates(alpha_sig, z_lo, phi=0.0, xi=1.0):
    """Mean counts on the two ports of a balanced beam splitter.

    Signal amplitude ``alpha_sig`` (complex), local oscillator |z e^{i
    phi}> with z >= 0, interference visibility xi.  Returns (mu_plus,
    mu_minus); for xi = 1 and real inputs these reduce to
    |alpha +/- z|^2 / 2.  Both are >= 0 exactly since xi <= 1; rounding
    can leave a cancelled port a few ulps below zero, so it is clamped.
    """
    if z_lo < 0:
        raise ValueError("local-oscillator amplitude must be >= 0")
    a2 = abs(alpha_sig) ** 2
    cross = 2.0 * xi * z_lo * np.real(alpha_sig * np.exp(-1j * phi))
    mu_p = (a2 + z_lo**2 + cross) / 2.0
    mu_m = (a2 + z_lo**2 - cross) / 2.0
    return float(max(mu_p, 0.0)), float(max(mu_m, 0.0))


def hl_pmf(alpha_sig, z_lo, spec: PnrSpec, phi=0.0) -> ClickPmf:
    """Homodyne-like click-difference distribution Delta = n1 - n2.

    Double sum of two PNR(M) distributions with the Kronecker constraint
    n1 - n2 = Delta; support is -M..M (M truncated from the Poisson tail
    for infinite resolution).  Efficiency rescales both rates, dark
    counts add to both, visibility enters the cross term only.
    """
    mu_p, mu_m = interference_rates(alpha_sig, z_lo, phi, spec.xi)
    rp = spec.eta * mu_p + spec.nu
    rm = spec.eta * mu_m + spec.nu
    m = spec.effective_resolution(max(rp, rm))
    wp, wm = pnr_weights(rp, m), pnr_weights(rm, m)
    # p(Delta) = sum_n wp[n] wm[n - Delta]: a correlation of the pmfs
    full = np.convolve(wp, wm[::-1])
    return ClickPmf(np.arange(-m, m + 1), full)


def map_threshold(rate0, rate1, weights, resolution):
    """MAP count threshold n_th of a displacement-PNR(M) receiver.

    Symbol k is counted at Poisson rate ``rate_k[j]`` with probability
    ``weights[j]``: the nodes of a phase average, or one node of weight
    1 without phase diffusion.  The receiver decides symbol 1 from
    n_th counts up; n_th is the smallest integer above the root of
    P(n|0) = P(n|1) in continuous n, kept within [1, M].  One node has
    the closed-form root (r1 - r0) / ln(r1 / r0).  A mixture is bisected
    on [0.5, M + 0.5]: a root below the bracket gives 1, and without a
    sign change the threshold saturates at M.
    """
    r0 = np.asarray(rate0, dtype=float)
    r1 = np.asarray(rate1, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = int(resolution)
    if r0.size == 1:
        a, b = float(r0[0]), float(r1[0])
        if a == 0.0 or a == b:
            return 1
        root = (b - a) / math.log(b / a)
    else:
        def density(rates, n):
            with np.errstate(divide="ignore"):
                logp = -rates + n * np.log(rates) - special.gammaln(n + 1.0)
            return float(w @ np.exp(logp))

        def gap(n):
            return density(r0, n) - density(r1, n)

        if gap(0.5) <= 0.0:
            return 1
        try:
            root = bisect_root(gap, 0.5, m + 0.5, tol=1e-8)
        except ValueError:
            return m
    return min(max(math.ceil(root), 1), m)
