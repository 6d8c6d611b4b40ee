"""Gaussian-state covariance calculus in shot-noise units (SNU).

Conventions used throughout the package:

* quadrature ordering is (q1, p1, q2, p2, ...);
* the vacuum variance is 1 on both quadratures (sigma0^2 = 1), so a
  coherent state of amplitude ``alpha`` has first moments
  (2 Re alpha, 2 Im alpha) and covariance matrix equal to the identity;
* entropies are in bits.

The module provides states, Gaussian channels, homodyne conditioning of
covariance matrices (the exact rank-degenerate limit), von Neumann
entropies, the photon-number (Fock) expansion of Gaussian states, Wigner
functions of truncated number-basis operators, and the baseline
capacities of the thermal-loss channel.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .numerics import PrecisionWarning

__all__ = [
    "GaussianState",
    "GaussianChannel",
    "FockOperator",
    "omega",
    "is_physical",
    "make_state",
    "thermal_loss_channel",
    "pia_channel",
    "psa_channel",
    "beam_splitter",
    "beam_splitter_matrix",
    "two_mode_squeezer",
    "phase_shift",
    "apply_channel",
    "symplectic_eigenvalues",
    "h_entropy",
    "entropy_cm",
    "condition_on_measurement",
    "gaussian_mutual_information",
    "mean_photons",
    "fock_density_matrix",
    "adaptive_fock",
    "wigner",
    "displacement_fock",
    "classical_capacities",
]

SYM_TOL = 1e-12  # relative symmetry tolerance for covariance matrices
PHYS_TOL = 1e-9  # symplectic eigenvalues must be >= 1 - PHYS_TOL
FOCK_CAP = 200  # hard cap of the per-mode Fock cutoff
FOCK_TAIL_TOL = 1e-10


@functools.lru_cache(maxsize=None)
def omega(n):
    """Symplectic form of ``n`` modes in (q1,p1,...) ordering.

    Built once per ``n`` on first use and returned read-only.
    """
    out = np.zeros((2 * n, 2 * n))
    q = np.arange(0, 2 * n, 2)
    out[q, q + 1] = 1.0
    out[q + 1, q] = -1.0
    out.flags.writeable = False
    return out


def _first_bad(bad):
    """Message suffix naming the first flagged slice of a stacked check.

    ``bad`` holds one flag per matrix; a single matrix (0-d flag) needs
    no index and gets an empty suffix.
    """
    if bad.ndim == 0:
        return ""
    idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    return f" (stack index {idx[0] if len(idx) == 1 else idx})"


def is_physical(cm, tol=PHYS_TOL):
    """Uncertainty check sigma + i Omega >= 0 via a Hermitian spectrum.

    Numerically stable near pure states, where the symplectic-eigenvalue
    closed forms lose half the working precision to cancellation.
    """
    cm = np.asarray(cm, dtype=float)
    n = cm.shape[0] // 2
    h = cm + 1j * omega(n)
    ev_min = float(np.min(linalg.eigvalsh((h + h.conj().T) / 2.0)))
    scale = max(1.0, float(np.max(np.abs(cm))))
    return ev_min >= -tol * scale


def _quad_indices(modes):
    """Row indices (q_m, p_m) of ``modes`` in (q1, p1, q2, p2, ...) ordering."""
    return np.concatenate([(2 * m, 2 * m + 1) for m in np.atleast_1d(modes)])


class UnphysicalStateError(ValueError):
    """Covariance matrix violates sigma + i*Omega >= 0."""


@dataclass(frozen=True)
class GaussianState:
    """An n-mode Gaussian state: first moments and covariance in SNU."""

    fm: np.ndarray
    cm: np.ndarray
    check: bool = True

    def __post_init__(self):
        fm = np.atleast_1d(np.asarray(self.fm, dtype=float))
        cm = np.asarray(self.cm, dtype=float)
        object.__setattr__(self, "fm", fm)
        object.__setattr__(self, "cm", cm)
        if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] % 2:
            raise ValueError("cm must be a 2n x 2n matrix")
        if fm.shape != (cm.shape[0],):
            raise ValueError("fm length must match cm dimension")
        scale = max(1.0, np.max(np.abs(cm)))
        if np.max(np.abs(cm - cm.T)) > SYM_TOL * scale:
            raise ValueError("cm must be symmetric")
        if self.check and not is_physical(cm):
            nu_min = np.min(symplectic_eigenvalues(cm))
            raise UnphysicalStateError(
                f"sigma + i Omega is indefinite (nu_min = {nu_min})"
            )

    @property
    def n_modes(self):
        return self.cm.shape[0] // 2

    def mode_indices(self, modes):
        return _quad_indices(modes)

    def reduced(self, modes):
        """Partial trace down to the given modes (in the given order)."""
        idx = self.mode_indices(modes)
        return GaussianState(self.fm[idx], self.cm[np.ix_(idx, idx)], check=False)

    def tensor(self, other):
        return GaussianState(
            np.concatenate([self.fm, other.fm]),
            linalg.block_diag(self.cm, other.cm),
            check=False,
        )


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian CP map sigma -> X sigma X^T + Y acting on ``n`` modes."""

    x_mat: np.ndarray
    y_mat: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_mat, dtype=float)
        y = np.asarray(self.y_mat, dtype=float)
        object.__setattr__(self, "x_mat", x)
        object.__setattr__(self, "y_mat", y)
        n = x.shape[0] // 2
        om = omega(n)
        # complete positivity: Y + i(Omega - X Omega X^T) >= 0
        m = y + 1j * (om - x @ om @ x.T)
        ev = np.min(linalg.eigvalsh((m + m.conj().T) / 2))
        if ev < -PHYS_TOL:
            raise ValueError(f"channel violates CP condition: {ev}")

    @property
    def n_modes(self):
        return self.x_mat.shape[0] // 2

    def is_unitary(self):
        n = self.n_modes
        om = omega(n)
        return (
            np.max(np.abs(self.y_mat)) < 1e-12
            and np.max(np.abs(self.x_mat @ om @ self.x_mat.T - om)) < 1e-12
        )


# ----------------------------------------------------------------------
# state factories and channels
# ----------------------------------------------------------------------

def make_state(kind, *, alpha=0.0, nbar=0.0, V=1.0, r=0.0):
    """Build a standard Gaussian state.

    kind: "vacuum" | "coherent" (alpha) | "thermal" (nbar)
          | "tmsv" (V) | "squeezed" (r)
    """
    if kind == "vacuum":
        return GaussianState(np.zeros(2), np.eye(2), check=False)
    if kind == "coherent":
        a = complex(alpha)
        return GaussianState(np.array([2 * a.real, 2 * a.imag]), np.eye(2), check=False)
    if kind == "thermal":
        if nbar < 0:
            raise ValueError("thermal occupation must be >= 0")
        return GaussianState(np.zeros(2), (1.0 + 2.0 * nbar) * np.eye(2), check=False)
    if kind == "tmsv":
        if V < 1:
            raise ValueError("TMSV variance V must be >= 1")
        Z = np.sqrt(V * V - 1.0)
        sz = np.diag([1.0, -1.0])
        cm = np.block([[V * np.eye(2), Z * sz], [Z * sz, V * np.eye(2)]])
        return GaussianState(np.zeros(4), cm, check=False)
    if kind == "squeezed":
        cm = np.diag([np.exp(2.0 * r), np.exp(-2.0 * r)])
        return GaussianState(np.zeros(2), cm, check=False)
    raise ValueError(f"unknown state kind {kind!r}")


def thermal_loss_channel(T, nbar_T=0.0):
    """Single-mode thermal-loss channel with transmissivity T."""
    if not 0.0 <= T <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    x = np.sqrt(T) * np.eye(2)
    y = (1.0 - T) * (1.0 + 2.0 * nbar_T) * np.eye(2)
    return GaussianChannel(x, y)


def pia_channel(G):
    """Phase-insensitive amplifier of power gain G >= 1."""
    if G < 1.0:
        raise ValueError("PIA gain must be >= 1")
    return GaussianChannel(np.sqrt(G) * np.eye(2), (G - 1.0) * np.eye(2))


def psa_channel(G):
    """Phase-sensitive amplifier: q is stretched by sqrt(G), p squeezed."""
    if G <= 0.0:
        raise ValueError("PSA gain must be positive")
    s = np.diag([np.sqrt(G), 1.0 / np.sqrt(G)])
    return GaussianChannel(s, np.zeros((2, 2)))


def beam_splitter_matrix(T, modes, n_modes):
    """Symplectic X of a beam splitter of transmissivity T mixing ``modes``.

    X is embedded in ``n_modes`` modes (identity on the others), so a CM
    transforms as X sigma X^T and first moments as X d.
    """
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    s = np.block([[t * np.eye(2), r * np.eye(2)], [-r * np.eye(2), t * np.eye(2)]])
    return _embed(s, modes, n_modes)[0]


def beam_splitter(T):
    """Two-mode beam splitter of transmissivity T (symplectic)."""
    return GaussianChannel(beam_splitter_matrix(T, [0, 1], 2), np.zeros((4, 4)))


def two_mode_squeezer(r):
    """Two-mode squeezing of parameter r >= 0 (symplectic)."""
    sz = np.diag([1.0, -1.0])
    c, s = np.cosh(r), np.sinh(r)
    smat = np.block([[c * np.eye(2), s * sz], [s * sz, c * np.eye(2)]])
    return GaussianChannel(smat, np.zeros((4, 4)))


def phase_shift(theta):
    """Single-mode phase rotation by theta."""
    c, s = np.cos(theta), np.sin(theta)
    smat = np.array([[c, s], [-s, c]])
    return GaussianChannel(smat, np.zeros((2, 2)))


def _embed(mat, modes, n_total):
    """Embed a channel matrix acting on ``modes`` into n_total modes."""
    full = np.eye(2 * n_total)
    idx = _quad_indices(modes)
    full[np.ix_(idx, idx)] = mat
    return full, idx


def apply_channel(state, channel, modes):
    """Apply a Gaussian CP map to the selected modes of a state."""
    modes = np.atleast_1d(modes)
    if len(modes) != channel.n_modes:
        raise ValueError("channel acts on a different number of modes")
    if np.max(modes) >= state.n_modes:
        raise ValueError("mode index out of range")
    x_full, idx = _embed(channel.x_mat, modes, state.n_modes)
    y_full = np.zeros_like(state.cm)
    y_full[np.ix_(idx, idx)] = channel.y_mat
    fm = x_full @ state.fm
    cm = x_full @ state.cm @ x_full.T + y_full
    return GaussianState(fm, cm, check=False)


# ----------------------------------------------------------------------
# spectra and entropies
# ----------------------------------------------------------------------

def symplectic_eigenvalues(cm):
    """Symplectic spectrum of even-dimensional symmetric matrices.

    ``cm`` is one 2n x 2n matrix or a stack (..., 2n, 2n); returns the
    n positive eigenvalues of i*Omega*sigma of each matrix, sorted in
    descending order, with shape (..., n).  n = 1 uses sqrt(det sigma);
    larger systems go through the Hermitian similarity
    i sigma^(1/2) Omega sigma^(1/2), whose +/- paired spectrum is
    accurate to machine precision even for (near-)pure states, and are
    deduplicated by sorting and pairing.  A stack is one batched LAPACK
    call per step, bitwise equal to a loop over its matrices; a matrix
    that fails the symmetry, PSD or pairing check raises with its stack
    index.  The two-mode Delta/I4 closed form is not used: near
    degenerate spectra it loses half the working precision to
    cancellation.
    """
    cm = np.asarray(cm, dtype=float)
    if cm.ndim < 2 or cm.shape[-1] != cm.shape[-2] or cm.shape[-1] % 2:
        raise ValueError("cm must be 2n x 2n")
    scale = np.maximum(1.0, np.abs(cm).max(axis=(-2, -1)))
    bad = np.abs(cm - np.swapaxes(cm, -1, -2)).max(axis=(-2, -1)) > SYM_TOL * scale
    if bad.any():
        raise ValueError("cm must be symmetric" + _first_bad(bad))
    n = cm.shape[-1] // 2
    if n == 1:
        return np.sqrt(np.maximum(np.linalg.det(cm), 0.0))[..., None]
    w, q = np.linalg.eigh(cm)
    bad = w.min(axis=-1) < -1e-12 * scale
    if bad.any():
        raise ValueError("covariance matrix is not positive semidefinite" + _first_bad(bad))
    sq = (q * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(q, -1, -2)
    herm = 1j * sq @ omega(n) @ sq
    herm = (herm + np.swapaxes(herm, -1, -2).conj()) / 2.0
    nus = np.sort(np.abs(np.linalg.eigvalsh(herm)), axis=-1)
    pairs = nus.reshape(nus.shape[:-1] + (n, 2))
    bad = np.abs(pairs[..., 0] - pairs[..., 1]).max(axis=-1) > 1e-8 * scale
    if bad.any():
        raise ValueError("could not pair symplectic eigenvalues" + _first_bad(bad))
    return np.sort(pairs.mean(axis=-1), axis=-1)[..., ::-1]


def h_entropy(x):
    """(x+1) log2(x+1) - x log2(x), continuous at 0; vectorized.

    This is the thermal-state entropy in bits for mean occupation x; the
    same function gives the Holevo capacity g(x).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    tiny = (x > 0) & (x < 1e-12)
    big = x >= 1e-12
    # series: h(x) ~ x (1 - ln x)/ln 2 for x -> 0+
    out[tiny] = x[tiny] * (1.0 - np.log(x[tiny])) / np.log(2.0)
    xb = x[big]
    out[big] = (xb + 1.0) * np.log2(xb + 1.0) - xb * np.log2(xb)
    if out.ndim == 0:
        return float(out)
    return out


def entropy_cm(cm):
    """von Neumann entropy (bits) of a Gaussian state from its CM.

    A stack of CMs (..., 2n, 2n) gives an array of entropies (...); one
    CM gives a float.
    """
    nus = symplectic_eigenvalues(cm)
    low = nus.min(axis=-1)
    bad = low < 1.0 - 1e-6
    if bad.any():
        raise UnphysicalStateError(
            f"symplectic eigenvalue {low.min()} < 1" + _first_bad(bad)
        )
    s = h_entropy((np.clip(nus, 1.0, None) - 1.0) / 2.0).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def mean_photons(state):
    """Total mean photon number of a Gaussian state."""
    n = state.n_modes
    return float((np.trace(state.cm) - 2 * n + np.sum(state.fm**2)) / 4.0)


# ----------------------------------------------------------------------
# conditioning and mutual information
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _conditioning_indices(n, measured_mode, quad):
    """(rows kept as a column, rows kept, measured row) of a homodyne."""
    keep = _quad_indices([m for m in range(n) if m != measured_mode])
    keep.flags.writeable = False
    return keep[:, None], keep, 2 * measured_mode + quad


def condition_on_measurement(cm, measured_mode, quad=0):
    """CM of the other modes given a homodyne of ``quad`` on ``measured_mode``.

    ``quad`` is 0 for q and 1 for p.  The exact rank-degenerate limit is
    used: only the measured quadrature's entry of (sigma_B)^-1 survives,
    sigma_A|B = sigma_A - C (Pi sigma_B Pi)^MP C^T, so no finite-z
    approximation ever enters.  ``cm`` may be a stack (..., 2n, 2n).
    """
    cm = np.asarray(cm, dtype=float)
    if cm.ndim < 2 or cm.shape[-1] != cm.shape[-2] or cm.shape[-1] % 2:
        raise ValueError("cm must be a 2n x 2n matrix")
    n = cm.shape[-1] // 2
    if n < 2:
        raise ValueError("need at least two modes to condition")
    if measured_mode not in range(n):
        raise ValueError(f"measured_mode must lie in 0..{n - 1}, got {measured_mode!r}")
    if quad not in (0, 1):
        raise ValueError(f"quad must be 0 (q) or 1 (p), got {quad!r}")
    rows, cols, ib = _conditioning_indices(n, measured_mode, quad)
    sz = cm[..., cols, ib]
    gain = sz * (1.0 / cm[..., ib, ib])[..., None]
    out = cm[..., rows, cols] - gain[..., :, None] * sz[..., None, :]
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def gaussian_mutual_information(cm, quad=0):
    """Mutual information (bits) of a two-mode CM: heterodyne A, homodyne B.

    Equals (1/2) log2 { det[sigma_A + 1] / det[sigma_A|B + 1] } with
    sigma_A|B Alice's CM conditioned on Bob's homodyne of ``quad``, the
    exact Schur-complement form of the determinant ratio.  ``cm`` may be
    a stack (..., 4, 4).
    """
    cm = np.asarray(cm, dtype=float)
    if cm.shape[-2:] != (4, 4):
        raise ValueError("mutual information requires a 2-mode CM")
    num = np.linalg.det(cm[..., :2, :2] + np.eye(2))
    den = np.linalg.det(condition_on_measurement(cm, 1, quad) + np.eye(2))
    bad = (num <= 0) | (den <= 0)
    if bad.any():
        raise ValueError("non-positive determinant argument" + _first_bad(bad))
    return 0.5 * np.log2(num / den)


# ----------------------------------------------------------------------
# Fock expansion of Gaussian states
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FockOperator:
    """Number-basis truncation of an operator on 1 or 2 modes.

    ``matrix`` has shape (d,)*2 for one mode and (d1, d2, d1, d2) stored
    flattened as (d1*d2, d1*d2) for two modes; ``cutoffs`` records the
    per-mode cutoff n_max (dimension n_max + 1).
    """

    matrix: np.ndarray
    cutoffs: tuple
    tail_mass: float = 0.0

    @property
    def n_modes(self):
        return len(self.cutoffs)

    @property
    def dims(self):
        return tuple(c + 1 for c in self.cutoffs)

    def trace(self):
        return float(np.real(np.trace(self.matrix)))

    def entropy(self):
        """von Neumann entropy in bits of the truncated operator."""
        w = np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2.0)
        if np.min(w) < -1e-9:
            raise ValueError(f"negative eigenvalue {np.min(w)} in Fock operator")
        w = w[w > 0.0]
        return float(-np.sum(w * np.log2(w)))

    def partial_trace(self, keep):
        """Trace out one mode of a two-mode operator; keep is 0 or 1."""
        if self.n_modes != 2:
            raise ValueError("partial trace implemented for two modes")
        d1, d2 = self.dims
        rho = self.matrix.reshape(d1, d2, d1, d2)
        if keep == 0:
            red = np.einsum("ajbj->ab", rho)
            cut = self.cutoffs[0]
        else:
            red = np.einsum("jajb->ab", rho)
            cut = self.cutoffs[1]
        return FockOperator(red, (cut,), tail_mass=self.tail_mass)


def _doubling_unitary(n):
    u1 = 0.5 * np.array([[1.0, 1j], [1.0, -1j]])
    return linalg.block_diag(*([u1] * n))


def _fock_recursion(a_mat, gammas, cutoffs):
    """Factorial-scaled derivative tensor of exp(z^T A z/2 + gamma^T z).

    Returns Ct[idx] = (d/dz)^idx exp(...)|_0 / sqrt(prod idx!), with
    index layout (k1, m1[, k2, m2], batch); ``gammas`` has shape
    (batch, 2n).  The scaling keeps every entry of the order of the
    final Fock amplitudes, so large cutoffs do not overflow.
    """
    nvar = a_mat.shape[0]
    batch = gammas.shape[0]
    dims = []
    for c in cutoffs:
        dims.extend([c + 1, c + 1])
    cc = np.zeros(tuple(dims) + (batch,), dtype=complex)
    cc[(0,) * nvar] = 1.0

    def fill(v):
        # fill the slab with all variables < v at index 0, assuming the
        # sub-slab with variable v also at 0 is complete
        if v == nvar:
            return
        fill(v + 1)
        sub = cc[(0,) * v]
        for i in range(1, dims[v]):
            val = gammas[:, v] * sub[i - 1]
            if i >= 2 and a_mat[v, v] != 0.0:
                val = val + a_mat[v, v] * np.sqrt(i - 1.0) * sub[i - 2]
            for u in range(v + 1, nvar):
                if a_mat[v, u] == 0.0:
                    continue
                ax = u - v - 1
                prev = sub[i - 1]
                shifted = np.zeros_like(prev)
                to = [slice(None)] * prev.ndim
                frm = [slice(None)] * prev.ndim
                to[ax] = slice(1, None)
                frm[ax] = slice(0, -1)
                shifted[tuple(to)] = prev[tuple(frm)]
                shape = [1] * prev.ndim
                shape[ax] = dims[u]
                mult = np.sqrt(np.arange(dims[u], dtype=float)).reshape(shape)
                val = val + a_mat[v, u] * mult * shifted
            sub[i] = val / np.sqrt(float(i))

    fill(0)
    return cc


def _fock_batch(cm, fms, cutoffs):
    """Fock matrices of Gaussian states sharing a CM, batched over FMs.

    Returns an array of shape (batch, D, D) with D = prod(cutoff+1).
    """
    n = cm.shape[0] // 2
    fms = np.atleast_2d(fms)
    u = _doubling_unitary(n)
    sig = u @ cm @ u.conj().T
    sq = sig + 0.5 * np.eye(2 * n)
    sq_inv = np.linalg.inv(sq)
    xsw = linalg.block_diag(*([np.array([[0.0, 1.0], [1.0, 0.0]])] * n))
    a_mat = xsw @ (np.eye(2 * n) - sq_inv)
    a_mat = (a_mat + a_mat.T) / 2.0
    betas = fms @ u.T  # (batch, 2n)
    gammas = betas.conj() @ sq_inv.T
    quad = np.einsum("bi,ij,bj->b", betas.conj(), sq_inv, betas)
    det_sq = np.linalg.det(sq).real
    pref = np.exp(-0.5 * quad) / np.sqrt(det_sq)

    cc = _fock_recursion(a_mat, gammas, cutoffs)
    dims = tuple(c + 1 for c in cutoffs)
    batch = gammas.shape[0]
    if n == 1:
        # scaled C index (k, m, batch) -> rho[m, k]
        rho = np.moveaxis(cc, -1, 0)
        rho = np.swapaxes(rho, 1, 2)  # -> (batch, m, k)
    else:
        # scaled C index (k1, m1, k2, m2, batch) -> rho[(m1,m2), (k1,k2)]
        c = np.moveaxis(cc, -1, 0)
        c = np.transpose(c, (0, 2, 4, 1, 3))  # (batch, m1, m2, k1, k2)
        d1, d2 = dims
        rho = c.reshape(batch, d1 * d2, d1 * d2)
    rho = rho * pref[:, None, None]
    return (rho + np.swapaxes(rho, 1, 2).conj()) / 2.0


def _fock_expansion(state, cutoff):
    """:func:`fock_density_matrix` without the truncation warning."""
    n = state.n_modes
    if n not in (1, 2):
        raise ValueError("Fock expansion implemented for 1 or 2 modes")
    if np.isscalar(cutoff):
        cutoffs = (int(cutoff),) * n
    else:
        cutoffs = tuple(int(c) for c in cutoff)
    rho = _fock_batch(state.cm, state.fm[None, :], cutoffs)[0]
    tail = 1.0 - float(np.real(np.trace(rho)))
    return FockOperator(rho, cutoffs, tail_mass=tail)


def fock_density_matrix(state, cutoff):
    """Photon-number expansion of a 1- or 2-mode Gaussian state.

    The matrix elements follow from the derivative form of the Fock
    amplitudes of a Gaussian Wigner function, evaluated through an exact
    recursion on the generating function.  ``cutoff`` may be an int
    (same for every mode) or a per-mode tuple.  The truncation defect
    1 - trace is reported as ``tail_mass``; a large defect produces a
    PrecisionWarning, never an exception.
    """
    op = _fock_expansion(state, cutoff)
    if op.tail_mass > 1e-6:
        warnings.warn(
            f"Fock truncation keeps only {1 - op.tail_mass:.6f} of the state",
            PrecisionWarning,
        )
    return op


def adaptive_fock(state, tail_tol=FOCK_TAIL_TOL, cap=FOCK_CAP):
    """Fock expansion with the adaptive cutoff policy.

    Starts at ceil(4 (<n> + 1)) per mode and doubles until the tail mass
    drops below ``tail_tol`` or the cap is reached.  Only a final cutoff
    at the cap with the tail above ``tail_tol`` warns; undersized
    intermediate cutoffs do not.
    """
    nb = mean_photons(state) / state.n_modes
    cut = int(np.ceil(4.0 * (nb + 1.0)))
    while True:
        op = _fock_expansion(state, min(cut, cap))
        if op.tail_mass < tail_tol or cut >= cap:
            if cut >= cap and op.tail_mass >= tail_tol:
                warnings.warn(
                    f"Fock cutoff cap {cap} reached (tail {op.tail_mass:.2e})",
                    PrecisionWarning,
                )
            return op
        cut *= 2


# ----------------------------------------------------------------------
# displacement matrices and Wigner functions
# ----------------------------------------------------------------------

def displacement_fock(alpha, cutoff):
    """Matrix elements <m|D(alpha)|n> up to ``cutoff``, vectorized.

    ``alpha`` may be any array shape; the result appends two axes (m, n).
    Uses the associated-Laguerre representation with a stable three-term
    recurrence along each diagonal.
    """
    alpha = np.asarray(alpha, dtype=complex)
    d = cutoff + 1
    x = np.abs(alpha) ** 2
    out = np.zeros(alpha.shape + (d, d), dtype=complex)
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, d)))]) if d > 1 else np.zeros(1)
    for k in range(d):  # diagonal offset m - n = k
        lag_prev = None
        lag = np.ones_like(x)
        for nn in range(d - k):
            if nn == 1:
                lag_prev, lag = lag, (1.0 + k - x) * lag
            elif nn >= 2:
                lag_prev, lag = lag, (
                    (2.0 * nn - 1.0 + k - x) * lag - (nn - 1.0 + k) * lag_prev
                ) / nn
            m = nn + k
            pref = np.exp(0.5 * (logfact[nn] - logfact[m]) - 0.5 * x)
            out[..., m, nn] = pref * alpha**k * lag
            if k > 0:
                out[..., nn, m] = pref * (-np.conj(alpha)) ** k * lag
    return out


def coherent_fock_vector(alpha, cutoff):
    """Number-basis amplitudes of |alpha> up to ``cutoff`` (vectorized).

    Evaluated in log space so that large amplitudes and cutoffs never
    overflow (the coefficients themselves are bounded by one).
    """
    alpha = np.asarray(alpha, dtype=complex)
    n = np.arange(cutoff + 1)
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, cutoff + 1)))])
    mag = np.abs(alpha)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.log(np.where(mag > 0.0, mag, 1.0))
        expo = np.where(
            (n == 0) | (mag > 0.0),
            n * np.where(mag > 0.0, logmag, -np.inf),
            -np.inf,
        )
        expo = np.where(n == 0, 0.0, expo)
    phase = np.exp(1j * np.angle(alpha))[..., None] ** n
    return np.exp(expo - 0.5 * logfact - 0.5 * mag**2) * phase


def wigner(fock_op, q_grid, p_grid):
    """Wigner function of a single-mode FockOperator on a (q, p) grid.

    The displaced-parity expectation W = (1/2 pi) <D(zeta) P D(zeta)^dag>
    with zeta = (q + i p)/2 is evaluated through the exact identity
    D(zeta) P D(zeta)^dag = D(2 zeta) P, so only matrix elements of the
    displacement inside the operator's own truncation are needed and
    the result is exact for the truncated operator.  Returns an array
    of shape (len(q_grid), len(p_grid)); the vacuum value at the origin
    is 1/(2 pi) in these units.
    """
    if fock_op.n_modes != 1:
        raise ValueError("wigner implemented for single-mode operators")
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    zeta2 = q[:, None] + 1j * p[None, :]  # 2 zeta
    d = fock_op.dims[0]
    dmat = displacement_fock(zeta2, d - 1)
    parity = (-1.0) ** np.arange(d)
    # tr[rho D(2 zeta) P] = sum_{kj} rho_{kj} D_{jk} (-1)^k
    w = np.einsum("kj,...jk,k->...", fock_op.matrix, dmat, parity)
    return np.real(w) / (2.0 * np.pi)


# ----------------------------------------------------------------------
# thermal-loss channel capacities
# ----------------------------------------------------------------------

def classical_capacities(n_s, n_n=0.0):
    """Shannon (single/double homodyne) and Gordon-Holevo capacities.

    n_s is the mean received signal energy, n_n the excess-noise photon
    number.  Returns a dict with keys ``C_SH``, ``C_DH``, ``C_H`` in
    bits per use.
    """
    if n_s < 0 or n_n < 0:
        raise ValueError("energies must be non-negative")
    c_sh = 0.5 * np.log2(1.0 + 4.0 * n_s / (1.0 + 2.0 * n_n))
    c_dh = np.log2(1.0 + n_s / (1.0 + n_n))
    c_h = h_entropy(n_s + n_n) - h_entropy(n_n)
    return {"C_SH": float(c_sh), "C_DH": float(c_dh), "C_H": float(c_h)}
