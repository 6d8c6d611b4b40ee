"""Key-rate-optimized discrimination receiver for QPSK over pure loss.

Bob replaces Gaussian detection with a four-outcome projective GUS
receiver whose phase vector is tuned to maximize the key rate rather
than to minimize the decision error (the phi = 0 point is the
pretty-good measurement).  Security model: pure-loss wiretap channel,
Eve holding exactly the reflected field.  Baselines: double-homodyne
detection and the quaternary displacement feed-forward receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian as gs
from . import mary
from .numerics import pointwise
from .qkd import (
    KgrResult,
    _entropy_rows,
    _eve_pure_loss,
    _mixture_hb,
    _outcome_chi,
    _posterior_entropy,
    _qpsk_amps,
    _rate_result,
)

__all__ = [
    "PhaseVector",
    "kor_rate",
    "optimize_kor",
    "dh_rate",
    "qdffre_rate",
    "measurement_wigner",
    "measurement_vector_fock",
]

M_QPSK = 4


@dataclass(frozen=True)
class PhaseVector:
    """Receiver phases (phi_0 = 0 fixed), reduced modulo 2 pi."""

    phases: np.ndarray

    def __post_init__(self):
        ph = np.mod(np.asarray(self.phases, dtype=float), 2.0 * np.pi)
        if ph.shape != (M_QPSK,):
            raise ValueError("need four phases")
        if ph[0] != 0.0:
            raise ValueError("phi_0 must be zero")
        object.__setattr__(self, "phases", ph)


def _rates_from_cond(cond, alpha2, t, beta):
    """K, I, chi for any four-outcome receiver given p(j|k).

    ``cond`` may carry leading batch axes; Eve's side only depends on
    the outcome statistics, evaluated through the reflected-state
    overlap matrix.
    """
    cond = np.asarray(cond, dtype=float)
    gram, s_e, _, _ = _eve_pure_loss(alpha2, t)
    # likelihoods in the (..., outcome j, state k) layout
    p_b, s_cond = _posterior_entropy(gram, np.swapaxes(cond, -1, -2))
    i_ab = _entropy_rows(p_b) - _entropy_rows(cond).mean(axis=-1)
    chi = s_e - np.sum(p_b * s_cond, axis=-1)
    chi = np.clip(chi, 0.0, None)
    return beta * i_ab - chi, i_ab, chi


def _cond_probs_batch(alpha2, t, phases):
    """p(j|k) of GUS receivers, batched over phase vectors (n, 4)."""
    phases = np.atleast_2d(phases)
    ev = mary.gram_eigenvalues(M_QPSK, t * alpha2)
    u = mary.dft_eigenvectors(M_QPSK)
    lam_b = np.exp(-1j * phases) * np.sqrt(ev)[None, :]
    b = np.einsum("jk,nk,lk->njl", u, lam_b, u.conj())
    # b[n] = A^dag G whose (j, k) entry is <mu_j|gamma_k>: transpose to
    # the p(j|k) layout with the state index first
    return np.abs(np.swapaxes(b, -1, -2)) ** 2


def kor_rate(alpha2, phases, t, beta):
    """Key rate of the GUS receiver with the given phase vector."""
    pv = PhaseVector(np.asarray(phases))
    cond = _cond_probs_batch(alpha2, t, pv.phases[None, :])[0]
    k, i_ab, chi = _rates_from_cond(cond, alpha2, t, beta)
    return {
        "K": float(k),
        "I_AB": float(i_ab),
        "chi_BE": float(chi),
        "cond_probs": cond,
        "p_inconclusive": float(abs(1.0 - cond.sum(axis=1)).max()),
    }


def optimize_kor(t, beta, mode="KOR", lattice=16,
                 alpha2_box=(1e-2, 4.0)) -> KgrResult:
    """Maximize the key rate over the receiver phases and pulse energy.

    mode='PGM' pins the phases to zero and tunes only the energy;
    mode='KOR' seeds a Nelder-Mead polish from a ``lattice``^3 grid of
    phase tuples at the PGM-optimal energy (ties resolved toward the
    all-zero phases, which reproduce the PGM).
    """
    def pgm_parts(a2):
        cond = _cond_probs_batch(a2, t, np.zeros((1, 4)))[0]
        _, i_ab, chi = _rates_from_cond(cond, a2, t, beta)
        return float(i_ab), float(chi)

    if mode not in ("KOR", "PGM"):
        raise ValueError("mode must be 'KOR' or 'PGM'")
    pgm = _rate_result(pointwise(pgm_parts), beta, None, alpha2_box, 31, 1e-7,
                       phases=np.zeros(4))
    if mode == "PGM":
        return pgm
    a_pgm, k_pgm_opt = pgm.params["alpha2"], pgm.K

    axes = np.linspace(0.0, 2.0 * np.pi, lattice, endpoint=False)
    mesh = np.stack(np.meshgrid(axes, axes, axes, indexing="ij"), axis=-1).reshape(-1, 3)
    cand = np.concatenate([np.zeros((mesh.shape[0], 1)), mesh], axis=1)
    cond = _cond_probs_batch(a_pgm, t, cand)
    ks, _, _ = _rates_from_cond(cond, a_pgm, t, beta)
    best = int(np.argmax(np.round(ks, 12) - 1e-15 * np.abs(cand[:, 1:]).sum(axis=1)))
    ph0 = cand[best, 1:]

    def neg_k_joint(x):
        a2 = min(max(x[3], alpha2_box[0]), alpha2_box[1])
        cond = _cond_probs_batch(a2, t, np.array([[0.0, x[0], x[1], x[2]]]))
        k, _, _ = _rates_from_cond(cond, a2, t, beta)
        return -float(k[0])

    from scipy import optimize as sopt

    x0 = np.array([ph0[0], ph0[1], ph0[2], a_pgm])
    res = sopt.minimize(
        neg_k_joint, x0, method="Nelder-Mead",
        options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 4000},
    )
    x = res.x
    if -res.fun < k_pgm_opt + 1e-12:
        x = np.array([0.0, 0.0, 0.0, a_pgm])  # tie toward the PGM
    phases = np.mod(np.concatenate([[0.0], x[:3]]), 2.0 * np.pi)
    a_opt = float(min(max(x[3], alpha2_box[0]), alpha2_box[1]))
    out = kor_rate(a_opt, phases, t, beta)
    return KgrResult(
        out["K"], out["I_AB"], out["chi_BE"], beta,
        params={"alpha2": a_opt, "phases": phases},
    )


def dh_rate(t, beta, alpha2=None, n_nodes=101, alpha2_box=(1e-2, 4.0)) -> KgrResult:
    """Double-homodyne baseline over the same wiretap channel.

    Bob reads both quadratures, each of variance 2; given the symbol they
    are independent, so H(B) is twice the one-quadrature mixture entropy.
    Eve's side is the two-axis case of ``_outcome_chi``, ``n_nodes`` (odd)
    Simpson nodes per axis on the quadrant b >= 0.
    """

    def parts(a2):
        gram, s_e, _, _ = _eve_pure_loss(a2, t)
        amps = 2.0 * math.sqrt(t) * _qpsk_amps(a2)
        means = np.stack([amps.real, amps.imag], axis=1)
        var = 2.0
        h_b = 2.0 * _mixture_hb(means[:, 0], np.full(4, 0.25), var)
        i_ab = h_b - math.log2(2.0 * math.pi * math.e * var)
        return i_ab, max(_outcome_chi(gram, s_e, means, var, n_nodes), 0.0)

    return _rate_result(pointwise(parts), beta, alpha2, alpha2_box, 17, 2e-5)


def qdffre_rate(t, beta, n_copies, alpha2=None, alpha2_box=(1e-2, 4.0)) -> KgrResult:
    """Key rate when Bob runs the displacement feed-forward receiver."""

    def parts(a2):
        cond, _ = mary.qdffre(t * a2, n_copies)
        _, i_ab, chi = _rates_from_cond(cond, a2, t, beta)
        return float(i_ab), float(chi)

    return _rate_result(pointwise(parts), beta, alpha2, alpha2_box, 17, 2e-5, N=n_copies)


def phase_orbit(phases):
    """All phase tuples equivalent to ``phases`` for the key rate.

    The key rate is blind to outcome relabelings (linear ramps
    phi_j -> phi_j + 2 pi m j / M) and to complex conjugation of the
    receiver; the orbit is returned gauge-reduced to phi_0 = 0.
    """
    ph = np.mod(np.asarray(phases, dtype=float), 2.0 * np.pi)
    j = np.arange(M_QPSK)
    out = []
    for sign in (1.0, -1.0):
        for m in range(M_QPSK):
            cand = sign * ph + 2.0 * np.pi * m * j / M_QPSK
            cand = np.mod(cand - cand[0], 2.0 * np.pi)
            out.append(cand)
    return np.array(out)


def canonical_phases(phases, decimals=9):
    """Lexicographically smallest member of the gauge orbit."""
    orbit = np.round(phase_orbit(phases), decimals) % (2.0 * np.pi)
    orbit = np.where(np.isclose(orbit, 2.0 * np.pi), 0.0, orbit)
    order = np.lexsort(orbit.T[::-1])
    return orbit[order[0]]


def phases_in_paper_convention(phases):
    """Every tuple of the gauge orbit in the thesis's eigenvalue labels.

    The thesis attaches the free phases to the Gram eigenvalues with a
    circulant labeling that is cyclically shifted by one position with
    respect to the DFT order used here.  Each member of the gauge orbit
    is shifted and its own orbit returned, so ``matches_phase_tuple``
    can compare a published tuple against all of them.
    """
    reps = phase_orbit(phases)
    mapped = []
    for r in reps:
        shifted = np.array([r[(t - 1) % M_QPSK] for t in range(M_QPSK)])
        shifted = np.mod(shifted - shifted[0], 2.0 * np.pi)
        mapped.extend(phase_orbit(shifted))
    return np.array(mapped)


def matches_phase_tuple(phases, target, tol=0.05):
    """True if some gauge/convention image of ``phases`` hits ``target``."""
    target = np.mod(np.asarray(target, dtype=float), 2.0 * np.pi)
    cands = np.concatenate([phase_orbit(phases), phases_in_paper_convention(phases)])
    diff = np.abs(cands - target[None, :])
    diff = np.minimum(diff, 2.0 * np.pi - diff)
    return bool(np.any(np.all(diff <= tol, axis=1)))


def measurement_vector_fock(phases, alpha2, t, cutoff=None):
    """Number-basis amplitudes of the reference measurement vector.

    |mu_0> = sum_k (A_phi)_{k0} |sqrt(T) alpha_k>, assembled directly
    from the receiver matrix and the coherent expansions.  Returns the
    (cutoff+1,) complex vector; its norm approaches one as the cutoff
    grows.
    """
    pv = PhaseVector(np.asarray(phases))
    energy = t * alpha2
    if cutoff is None:
        cutoff = max(20, int(np.ceil(4.0 * (energy + 3.0))))
    rec = mary.gus_receiver(M_QPSK, energy, pv.phases)
    amps = math.sqrt(t) * _qpsk_amps(alpha2)
    vecs = gs.coherent_fock_vector(amps, cutoff)  # (4, cutoff+1)
    return rec.a_mat[:, 0] @ vecs


def measurement_wigner(phases, alpha2, t, q_grid, p_grid, cutoff=None):
    """Wigner function of |mu_0><mu_0| on the given quadrature grid."""
    vec = measurement_vector_fock(phases, alpha2, t, cutoff)
    rho = np.outer(vec, vec.conj())
    op = gs.FockOperator(rho, (len(vec) - 1,), tail_mass=1.0 - float(np.real(np.trace(rho))))
    return gs.wigner(op, q_grid, p_grid)
