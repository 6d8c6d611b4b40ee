"""M-ary PSK discrimination: the PSK mixture spectrum and QPSK receivers.

A PSK(M) constellation |alpha e^{i pi (2k+1)/M}>, k = 0..M-1, with
uniform priors is geometrically uniform under the phase-shift operator,
so its Gram matrix is circulant and every projective receiver on the
span of the states is fixed by M - 1 phases.  This module computes the
spectrum of that Gram matrix (equivalently of the uniform mixture) once,
from a log-space Fock series, for the receivers here and for the
key-rate modules, and builds the quaternary receivers: double-homodyne
SQL, Bondurant I/II, the quaternary displacement receiver and its
feed-forward refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .binary import ReceiverResult
from .numerics import minimize_bounded, pointwise

__all__ = [
    "GusReceiver",
    "psk_gram",
    "psk_log_eigenvalues",
    "gram_eigenvalues",
    "gus_receiver",
    "pgm_error",
    "qpsk_sql",
    "bondurant",
    "qdre",
    "qdffre",
]


def psk_gram(m, energy):
    """Gram matrix of a PSK(M) constellation and its circulant eigenvalues.

    G_lk = <alpha_l|alpha_k> = exp(-a2 (1 - cos th) + i a2 sin th) with
    th = 2 pi (k - l)/M.  The eigenvalues are those of
    :func:`gram_eigenvalues`, in DFT index order.
    """
    k = np.arange(m)
    th = 2.0 * np.pi * (k[None, :] - k[:, None]) / m
    g = np.exp(-energy * (1.0 - np.cos(th)) + 1j * energy * np.sin(th))
    return g, gram_eigenvalues(m, energy)


def psk_log_eigenvalues(m, energy):
    """log lambda_k, k = 0..M-1, of the uniform PSK(M) coherent mixture.

    lambda_k = e^{-E} sum_n E^{nM+k} / (nM+k)! is summed in log space
    over an (M, n) array of Fock indices, so the tiny high-k eigenvalues
    keep their relative accuracy at small energies.  Each row is one
    max-shifted log-sum-exp, written as ``scipy.special.logsumexp``
    computes it (entries equal to the row maximum are counted apart),
    so both agree bit for bit.  Energy 0 gives lambda = (1, 0, ..., 0).
    """
    if energy < 0.0:
        raise ValueError(f"energy must be >= 0, got {energy}")
    if energy == 0.0:
        out = np.full(m, -np.inf)
        out[0] = 0.0
        return out
    n_terms = max(8, int(np.ceil((4.0 * energy + 40.0) / m)))
    idx = np.arange(n_terms)[None, :] * m + np.arange(m)[:, None]
    logs = idx * math.log(energy) - special.gammaln(idx + 1.0)
    top = logs.max(axis=-1, keepdims=True)
    at_top = logs == top
    count = at_top.sum(axis=-1, keepdims=True, dtype=float)
    rest = np.exp(np.where(at_top, -np.inf, logs) - top).sum(axis=-1, keepdims=True)
    lse = np.log1p(rest / count) + np.log(count) + top
    return -energy + lse[:, 0]


def gram_eigenvalues(m, energy):
    """Circulant eigenvalues in DFT index order (g_j = M lambda_j).

    These are the PSK Gram matrix's eigenvalues; g_j pairs with column j
    of :func:`dft_eigenvectors`.  Energy 0 gives {M, 0, ..., 0} exactly.
    """
    return m * np.exp(psk_log_eigenvalues(m, energy))


def dft_eigenvectors(m):
    """Unitary whose columns diagonalize every PSK Gram matrix.

    Column j pairs with the eigenvalue g_j of :func:`gram_eigenvalues`.
    """
    j = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(j, j) / m) / math.sqrt(m)


@dataclass(frozen=True)
class GusReceiver:
    """Projective GUS receiver fixed by its phase vector."""

    phases: np.ndarray
    a_mat: np.ndarray
    b_mat: np.ndarray
    cond_probs: np.ndarray  # p(j|k) = |B_kj|^2


def gus_receiver(m, energy, phases):
    """Receiver A_phi = U diag(e^{i phi_j} g_j^{-1/2}) U^dag and p(j|k).

    ``phases`` has length M with phases[0] = 0 (a global phase is
    unobservable).  Near-singular Gram matrices (huge or vanishing
    energy) are regularized through a pseudo-inverse of the eigenvalues
    with a warning threshold of 1e-14.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (m,):
        raise ValueError("phase vector must have length M")
    if abs(phases[0]) > 1e-12:
        raise ValueError("phi_0 is fixed to zero")
    g, ev = psk_gram(m, energy)
    u = dft_eigenvectors(m)
    if np.min(ev) < 1e-14 * np.max(ev):
        import warnings

        warnings.warn(
            "near-singular Gram matrix: receiver uses a pseudo-inverse",
            UserWarning,
        )
    ev_safe = np.clip(ev, 1e-300, None)
    lam_a = np.exp(1j * phases) / np.sqrt(ev_safe)
    a_mat = u @ np.diag(lam_a) @ u.conj().T
    b_mat = a_mat.conj().T @ g
    # (A^dag G)_{jk} = <mu_j|gamma_k>, so p(j|k) sits at [k, j] after a
    # transpose; rows (fixed state k) then sum to one
    cond = np.abs(b_mat.T) ** 2
    return GusReceiver(phases, a_mat, b_mat, cond)


def pgm_error(m, energy):
    """Minimum QPSK/PSK error probability 1 - |(G^{1/2})_00|^2.

    Equals 1 - |sum_j sqrt(g_j)/M|^2 with the circulant eigenvalues.
    """
    pc = (np.sum(np.sqrt(gram_eigenvalues(m, energy))) / m) ** 2
    return float(1.0 - pc)


def qpsk_sql(energy):
    """Double-homodyne QPSK error: 1 - [(1 + erf(a/sqrt 2))/2]^2 ... etc."""
    a = math.sqrt(energy)
    return 1.0 - 0.25 * (1.0 + math.erf(a / math.sqrt(2.0))) ** 2


def bondurant(energy, kind="I"):
    """Bondurant feedback receivers for QPSK.

    Type I nulls symbols in sequential order; type II reorders the last
    two hypotheses from the click arrival times.
    """
    a2 = energy
    if kind == "I":
        return float(np.exp(-2.0 * a2) * (a2 + 0.75))
    if kind == "II":
        return float(
            0.75 * np.exp(-4.0 * a2) - 2.0 * np.exp(-3.0 * a2) + 2.0 * np.exp(-2.0 * a2)
        )
    raise ValueError("kind must be 'I' or 'II'")


def _qdre_cond_diag(a2, t1, t2):
    """Correct-decision probabilities p(k|k) of the QDRE."""
    r1 = 1.0 - t1
    r2 = 1.0 - t2
    b1, b2, b3 = t1, r1 * r2, r1 * t2  # energy fractions: null-0, null-2, null-1

    def d2(k, j):
        return 2.0 * a2 * (1.0 - math.cos((k - j) * math.pi / 2.0))

    p00 = math.exp(-b1 * d2(0, 0))
    p11 = (
        (1.0 - math.exp(-b1 * d2(1, 0)))
        * (1.0 - math.exp(-b2 * d2(1, 2)))
        * math.exp(-b3 * d2(1, 1))
    )
    p22 = (1.0 - math.exp(-b1 * d2(2, 0))) * math.exp(-b2 * d2(2, 2))
    p33 = (
        (1.0 - math.exp(-b1 * d2(3, 0)))
        * (1.0 - math.exp(-b2 * d2(3, 2)))
        * (1.0 - math.exp(-b3 * d2(3, 1)))
    )
    return p00, p11, p22, p33


def qdre(energy, mode="equal") -> ReceiverResult:
    """Quaternary displacement receiver (three nulling branches).

    mode = "equal": even split, (t1, t2) = (1/3, 1/2); mode =
    "optimized": the two transmissivities are tuned per energy (ties
    broken toward smaller t1).
    """
    if mode == "equal":
        t1, t2 = 1.0 / 3.0, 0.5
        p = 1.0 - 0.25 * sum(_qdre_cond_diag(energy, t1, t2))
        return ReceiverResult(p, {"t1": t1, "t2": t2})
    if mode != "optimized":
        raise ValueError("mode must be 'equal' or 'optimized'")

    def perr(v):
        t1 = min(max(v[0], 1e-9), 1.0 - 1e-9)
        t2 = min(max(v[1], 1e-9), 1.0 - 1e-9)
        # deterministic tiny tilt breaks flat ties toward smaller t1
        return 1.0 - 0.25 * sum(_qdre_cond_diag(energy, t1, t2)) + 1e-15 * t1

    x, p = minimize_bounded(pointwise(perr, 1), [(0.0, 1.0), (0.0, 1.0)], 101, 1e-10, 1e-14)
    return ReceiverResult(float(p), {"t1": float(x[0]), "t2": float(x[1])})


def _qdffre_survivals(energy, n_copies):
    """Per-copy no-click probabilities p_k for the QDFFRE."""
    p1 = math.exp(-2.0 * energy / n_copies)
    p2 = math.exp(-4.0 * energy / n_copies)
    return np.array([1.0, p1, p2, p1])


def qdffre(energy, n_copies):
    """Quaternary displacement feed-forward receiver.

    Returns (conditional 4x4 matrix p(j|k), p_err) from the exact
    nested-sum evaluation of the four outcome families; the final
    inconclusive cases are split uniformly among the still-open
    hypotheses.  O(N^3), intended for N <= 128.
    """
    if n_copies < 3:
        raise ValueError("the scheme needs at least three copies")
    n = n_copies
    p = _qdffre_survivals(energy, n)
    cond = np.zeros((4, 4))
    for k in range(4):
        pk = p[k % 4]
        pk1 = p[(k - 1) % 4]
        pk2 = p[(k - 2) % 4]
        pk3 = p[(k - 3) % 4]
        cond[k, 0] = pk**n
        s1 = sum(pk**t * (1.0 - pk) * pk1 ** (n - 1 - t) for t in range(n - 1))
        tie1 = pk ** (n - 1) * (1.0 - pk) / 3.0
        cond[k, 1] = s1 + tie1
        s2 = 0.0
        for t in range(n - 2):
            for s in range(n - 2 - t):
                s2 += (
                    pk**t
                    * (1.0 - pk)
                    * pk1**s
                    * (1.0 - pk1)
                    * pk2 ** (n - 2 - t - s)
                )
        tie2 = sum(
            pk**t * (1.0 - pk) * pk1 ** (n - 2 - t) * (1.0 - pk1) / 2.0
            for t in range(n - 1)
        )
        cond[k, 2] = s2 + tie2 + tie1
        s3 = 0.0
        for t in range(n - 2):
            for s in range(n - 2 - t):
                for u in range(n - 2 - t - s):
                    s3 += (
                        pk**t
                        * (1.0 - pk)
                        * pk1**s
                        * (1.0 - pk1)
                        * pk2**u
                        * (1.0 - pk2)
                        * pk3 ** (n - 3 - t - s - u)
                    )
        cond[k, 3] = s3 + tie2 + tie1
    p_err = 1.0 - 0.25 * float(np.trace(cond))
    return cond, p_err
