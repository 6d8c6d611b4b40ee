"""Independent key-rate oracles for the PSK and QAM Gaussian-bound rates.

Each ingredient of K = beta I_AB - chi_BE is rebuilt here by a second
construction that shares no code with ``cvq.qkd``:

* Z = 2 Re tr[rho^(1/2) a rho^(1/2) a^dag] from Fock vectors built by the
  recursion c_n = c_(n-1) alpha / sqrt(n) and a dense ``numpy`` eigh;
* I_AB from the homodyne outcome density integrated by adaptive
  ``scipy.integrate.quad``;
* chi_BE from the closed-form symplectic eigenvalues of the two-mode CM
  and of Alice's mode conditioned on Bob's q-homodyne outcome;
* I_AB of double-homodyne QPSK from a full-plane 2-D Simpson rule on
  the four-component outcome density, with no factorization assumed;
* the closed-form spectrum of the balanced QPSK coherent mixture, and
  the PSK(M) mixture spectrum from its Fock series in exact rational
  terms summed by ``math.fsum``;
* the two-mode symplectic spectrum from the Delta/I4 invariants;
* homodyne conditioning as the z -> 0 limit of a finite-variance
  Gaussian measurement, sigma_A - C (sigma_B + diag(z, 1/z))^-1 C^T;
* Eve's conditional entropies in the thermal wiretap model from two-mode
  Fock matrices (``cvq.gaussian``'s Fock expansion) and a dense
  ``numpy`` eigvalsh, the construction the Gram kernel replaced.

Shot-noise units, V = 1 + 2 nbar, reverse reconciliation, and excess
noise referred to the channel input (chi = (1 - T)/T + eps), as in the
package README.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import integrate

from cvq import gaussian as gs
from cvq.numerics import simpson_weights


def coherent_fock(alphas, cutoff):
    """Fock amplitudes <n|alpha>, n = 0..cutoff, one row per amplitude."""
    alphas = np.asarray(alphas, dtype=complex)
    out = np.empty((alphas.size, cutoff + 1), dtype=complex)
    out[:, 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    for n in range(1, cutoff + 1):
        out[:, n] = out[:, n - 1] * alphas / math.sqrt(n)
    return out


def fock_z(alphas, probs, weight_floor=1e-15):
    """(Z, trace defect) of the coherent mixture sum_k p_k |alpha_k><alpha_k|.

    The cutoff covers the largest amplitude whose weight exceeds
    ``weight_floor`` by ten standard deviations of its photon number.
    """
    alphas = np.asarray(alphas, dtype=complex)
    probs = np.asarray(probs, dtype=float)
    peak = float(np.max(np.abs(alphas[probs > weight_floor]))) ** 2
    cutoff = int(math.ceil(peak + 10.0 * math.sqrt(peak) + 30.0))
    vecs = coherent_fock(alphas, cutoff)
    rho = (vecs.T * probs) @ vecs.conj()
    defect = 1.0 - float(np.real(np.trace(rho)))
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    a_op = np.diag(np.sqrt(np.arange(1.0, cutoff + 1.0)), k=1)
    z = 2.0 * float(np.real(np.trace(sq @ a_op @ sq @ a_op.conj().T)))
    return z, defect


def homodyne_mi(means, weights, var):
    """I_AB (bits) of a Gaussian mixture read out along one quadrature."""
    means = np.asarray(means, dtype=float)
    weights = np.asarray(weights, dtype=float)
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)

    def integrand(x):
        p = norm * float(weights @ np.exp(-((x - means) ** 2) / (2.0 * var)))
        return -p * math.log2(p) if p > 0.0 else 0.0

    sd = math.sqrt(var)
    lo, hi = means.min() - 12.0 * sd, means.max() + 12.0 * sd
    h_b, _ = integrate.quad(integrand, lo, hi, points=np.unique(means),
                            limit=400, epsabs=1e-14, epsrel=1e-13)
    return h_b - 0.5 * math.log2(2.0 * math.pi * math.e * var)


def double_homodyne_mi(means, var, n_nodes=601, width=12.0):
    """I_AB (bits) of equiprobable symbols read out in both quadratures.

    ``means`` is (K, 2); each outcome is Gaussian with variance ``var``
    per axis.  H(B) = -int p log2 p over the square of half-width
    max|m| + ``width`` sigma, by the tensor Simpson rule on ``n_nodes``
    (odd) nodes per axis.
    """
    means = np.asarray(means, dtype=float)
    lim = float(np.max(np.abs(means))) + width * math.sqrt(var)
    xs = np.linspace(-lim, lim, n_nodes)
    dx = xs[:, None, None] - means[None, None, :, 0]
    dy = xs[None, :, None] - means[None, None, :, 1]
    p = np.exp(-(dx * dx + dy * dy) / (2.0 * var)).mean(axis=-1) / (2.0 * math.pi * var)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    w = simpson_weights(n_nodes)
    h_b = float(w @ terms @ w) * (xs[1] - xs[0]) ** 2 / 9.0
    return h_b - math.log2(2.0 * math.pi * math.e * var)


def qpsk_mixture_eigenvalues(energy):
    """Closed-form spectrum of the balanced QPSK coherent mixture."""
    e = math.exp(-energy)
    return np.array(
        [
            0.5 * e * (math.cosh(energy) + math.cos(energy)),
            0.5 * e * (math.cosh(energy) - math.cos(energy)),
            0.5 * e * (math.sinh(energy) + abs(math.sin(energy))),
            0.5 * e * (math.sinh(energy) - abs(math.sin(energy))),
        ]
    )


def psk_mixture_eigenvalues(m, energy):
    """Spectrum lambda_k = e^-E sum_n E^(nM+k) / (nM+k)! of the PSK(M) mixture.

    Every term is the correctly rounded value of an exact fraction, and
    ``math.fsum`` adds them, so the only other rounding is that of e^-E.
    """
    e = Fraction(energy)
    n_max = int(4.0 * energy) + 60
    return np.array([
        math.exp(-energy) * math.fsum(
            float(e**n / math.factorial(n)) for n in range(k, n_max, m))
        for k in range(m)
    ])


def symplectic_eigenvalues_closed2(cm):
    """Two-mode closed form: d = sqrt((Delta +/- sqrt(Delta^2 - 4 I4))/2).

    Serafini, Illuminati and De Siena, J. Phys. B 37, L21 (2004).  Near
    degenerate spectra it loses half the working precision to
    cancellation, so it is an oracle only away from degeneracy.
    """
    cm = np.asarray(cm, dtype=float)
    if cm.shape != (4, 4):
        raise ValueError("closed form is for two modes")
    a = cm[:2, :2]
    b = cm[2:, 2:]
    c = cm[:2, 2:]
    delta = np.linalg.det(a) + np.linalg.det(b) + 2.0 * np.linalg.det(c)
    i4 = np.linalg.det(cm)
    disc = max(delta * delta - 4.0 * i4, 0.0)
    big = max((delta + np.sqrt(disc)) / 2.0, 0.0)
    d1 = np.sqrt(big)
    d2 = np.sqrt(max(i4, 0.0) / big) if big > 0.0 else 0.0
    return np.array(sorted([d1, d2], reverse=True))


def _g(nu):
    """Von Neumann entropy (bits) of a thermal mode of symplectic eigenvalue nu."""
    if nu <= 1.0 + 1e-15:
        return 0.0
    a, b = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return a * math.log2(a) - b * math.log2(b)


def holevo_rr(v, t, chi, z):
    """chi_BE of [[V 1, sqrt(T) Z sz], [sqrt(T) Z sz, T(V + chi) 1]].

    Closed form: S(AB) from the two symplectic eigenvalues, S(A|q_B)
    from sqrt(V (V - T Z^2 / W)), W = T (V + chi).
    """
    w = t * (v + chi)
    c2 = t * z * z
    delta = v * v + w * w - 2.0 * c2
    det = (v * w - c2) ** 2
    root = math.sqrt(max(delta * delta - 4.0 * det, 0.0))
    nu1 = math.sqrt((delta + root) / 2.0)
    nu2 = math.sqrt(max((delta - root) / 2.0, 1.0))
    nu3 = math.sqrt(v * (v - c2 / w))
    return _g(nu1) + _g(nu2) - _g(nu3)


def psk_k(alpha2, channel, beta, m=4):
    """Oracle K of PSK(M) at energy alpha2 (mean photon number)."""
    t = channel.T
    phases = np.pi * (2 * np.arange(m) + 1) / m
    alphas = math.sqrt(alpha2) * np.exp(1j * phases)
    z, _ = fock_z(alphas, np.full(m, 1.0 / m))
    i_ab = homodyne_mi(2.0 * math.sqrt(t) * alphas.real, np.full(m, 1.0 / m),
                       1.0 + t * channel.eps)
    return beta * i_ab - holevo_rr(1.0 + 2.0 * alpha2, t, channel.chi, z)


def qam_k(side, delta, xi, channel, beta):
    """Oracle (K, nbar, Fock defect) of side x side MB-QAM at spacing delta.

    Per-axis weights exp(-xi (l delta)^2) on levels l = -(side-1)/2, ..,
    (side-1)/2; the symbol at (l, l') has amplitude delta (l + i l').
    """
    t = channel.T
    x = delta * (np.arange(side) - (side - 1) / 2.0)
    w = np.exp(-xi * x * x)
    w /= w.sum()
    nbar = 2.0 * float(w @ (x * x))
    alphas = (x[:, None] + 1j * x[None, :]).ravel()
    z, defect = fock_z(alphas, np.outer(w, w).ravel())
    i_ab = homodyne_mi(2.0 * math.sqrt(t) * x, w, 1.0 + t * channel.eps)
    k = beta * i_ab - holevo_rr(1.0 + 2.0 * nbar, t, channel.chi, z)
    return k, nbar, defect


def qam_scan(side, channel, beta, deltas, xis):
    """Best (K, delta, xi) of :func:`qam_k` over a (delta, xi) grid."""
    best = (-math.inf, None, None)
    for d in deltas:
        for x in xis:
            k, _, defect = qam_k(side, float(d), float(x), channel, beta)
            assert defect < 1e-10, f"oracle Fock defect {defect:.1e}"
            if k > best[0]:
                best = (k, float(d), float(x))
    return best


def fock_conditional_entropy(cm_cond, cond_fms, wk, cutoff):
    """(entropies, largest trace defect) of sum_k w_nk rho(cm_cond, d_nk).

    ``cond_fms`` is (nodes, K, 4) and ``wk`` (nodes, K): each node's
    mixture of two-mode Gaussian states is expanded at ``cutoff`` photons
    per mode and diagonalized densely.  One node of weights 1/4 at Eve's
    own CM and means is the two-mode S(E) of the entangling cloner.
    """
    nodes, k = wk.shape
    rho = gs._fock_batch(cm_cond, cond_fms.reshape(nodes * k, -1), (cutoff, cutoff))
    mix = np.einsum("nk,nkij->nij", wk, rho.reshape(nodes, k, *rho.shape[1:]))
    defect = float(np.max(1.0 - np.real(np.trace(mix, axis1=1, axis2=2))))
    ev = np.clip(np.linalg.eigvalsh(mix), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -np.sum(np.where(ev > 0.0, ev * np.log2(np.where(ev > 0.0, ev, 1.0)), 0.0), axis=-1)
    return s, defect


def finite_z_homodyne(cm, measured_mode, quad, z):
    """CM of the other modes after a finite-z measurement of one mode.

    The measurement has covariance diag(z, 1/z) (q, quad = 0) or
    diag(1/z, z) (p, quad = 1), so the CM is the Schur complement
    sigma_A - C (sigma_B + sigma_m)^-1 C^T; homodyne is its z -> 0 limit.
    """
    cm = np.asarray(cm, dtype=float)
    ib = [2 * measured_mode, 2 * measured_mode + 1]
    ia = [i for i in range(cm.shape[0]) if i not in ib]
    sigma_m = np.diag([z, 1.0 / z] if quad == 0 else [1.0 / z, z])
    c = cm[np.ix_(ia, ib)]
    return cm[np.ix_(ia, ia)] - c @ np.linalg.solve(cm[np.ix_(ib, ib)] + sigma_m, c.T)
