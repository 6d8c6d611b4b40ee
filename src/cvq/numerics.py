"""Deterministic numerical kernels shared by the whole package.

Bounded derivative-free minimization (a seeding grid and one
Nelder-Mead polish), grid-bracketed golden-section maximization in one
positive variable, bracketed root finding, composite Simpson quadrature
and weights, and Hermitian matrix square roots.  Everything here is pure
and reproducible: no random number generator is ever consulted.

The two grid-seeded optimizers evaluate their whole seeding grid with
one call, ``f(points)``, and polish with one call per point; an
objective maps a stack of points (leading axes) to a stack of values.
Objectives that are pointwise by nature are lifted to that contract by
:func:`pointwise`, which calls them point by point in grid order.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, optimize


class PrecisionWarning(UserWarning):
    """Raised when an adaptive rule did not reach its target accuracy."""


NM_MAX_ITER = 2000  # Nelder-Mead iteration cap of minimize_bounded


def pointwise(f, ndim=0):
    """Lift ``f`` of points to stacks of points, point by point.

    A point is an array of ``ndim`` axes (0: a scalar), a stack an
    ndarray with more.  The lifted function calls ``f`` unchanged when
    every argument is one point; otherwise the arguments' leading axes
    broadcast, ``f`` is called on each point in C order, and the
    results are stacked along those axes (a tuple result becomes a tuple
    of stacked arrays).  Elementary functions lifted this way keep their
    scalar rounding: ``math.exp`` and NumPy's array ``exp`` differ in
    the last bit on a few percent of inputs.
    """
    def lifted(*xs):
        if all(getattr(x, "ndim", 0) == ndim for x in xs):
            return f(*xs)
        xs = [np.asarray(x) for x in xs]
        lead = np.broadcast_shapes(*(x.shape[:x.ndim - ndim] for x in xs))
        cols = [np.broadcast_to(x, lead + x.shape[x.ndim - ndim:])
                .reshape((-1,) + x.shape[x.ndim - ndim:]) for x in xs]
        vals = [f(*p) for p in zip(*cols)]
        if isinstance(vals[0], tuple):
            return tuple(np.array(v).reshape(lead) for v in zip(*vals))
        vals = np.array(vals)
        return vals.reshape(lead + vals.shape[1:])

    return lifted


def matrix_stack(rows):
    """Matrix of nested ``rows`` whose entries are scalars or arrays.

    Array entries broadcast together and lead: the result has shape
    (..., r, c), or (r, c) when no entry is an array with axes.
    """
    shapes = [e.shape for row in rows for e in row if isinstance(e, np.ndarray) and e.ndim]
    if not shapes:
        return np.array(rows, dtype=float)
    out = np.empty(np.broadcast_shapes(*shapes) + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def _nm_polish(f, x0, lo, hi, xtol, ftol):
    """Bounded Nelder-Mead starting from ``x0``; returns (x, fx)."""
    res = optimize.minimize(
        f,
        x0,
        method="Nelder-Mead",
        bounds=list(zip(lo, hi)),
        options={
            "xatol": xtol,
            "fatol": ftol,
            "maxiter": NM_MAX_ITER,
            "disp": False,
        },
    )
    return np.clip(res.x, lo, hi), float(res.fun)


def minimize_bounded(f, box, n_grid, xtol, ftol):
    """Minimize ``f`` over a finite box, deterministically.

    The best point of a regular grid of ``n_grid`` points per axis
    starts one Nelder-Mead polish with termination tolerances ``xtol``
    and ``ftol``; the better of the polished and the grid point is
    returned.  NaN values of ``f`` abort with the offending location in
    the message.

    Parameters
    ----------
    f : callable mapping points of shape (..., len(box)) to values of
        shape (...); the grid is one call on all ``n_grid**len(box)``
        points, the polish one call per point
    box : sequence of (lo, hi) pairs, all finite

    Returns
    -------
    (x, fx) : minimizer and its value
    """
    if xtol <= 0 or ftol <= 0:
        raise ValueError("tolerances must be positive")
    box = [(float(a), float(b)) for a, b in box]
    lo = np.array([a for a, _ in box])
    hi = np.array([b for _, b in box])
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("box must be finite")

    def fc(x):
        v = float(f(np.asarray(x, dtype=float)))
        if np.isnan(v):
            raise FloatingPointError(f"objective returned NaN at x={np.asarray(x)}")
        return v

    axes = [np.linspace(a, b, n_grid) for a, b in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (len(pts),):
        raise ValueError(f"objective mapped {pts.shape} grid points to shape {vals.shape}")
    if np.any(np.isnan(vals)):
        raise FloatingPointError(
            f"objective returned NaN at x={pts[np.argmax(np.isnan(vals))]}"
        )
    order = np.argsort(vals, kind="stable")
    best_x, best_f = pts[order[0]].copy(), vals[order[0]]
    if np.ptp(vals) == 0.0:
        # constant objective: tie-break toward the box center
        center = (lo + hi) / 2.0
        return center, fc(center)

    x, fx = _nm_polish(fc, best_x, lo, hi, xtol, ftol)
    if fx < best_f:
        return x, fx
    return best_x, best_f


def golden_min(f, a, b, tol=1e-9, max_iter=200):
    """Golden-section minimization of a unimodal scalar function."""
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc_, fd_ = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if fc_ < fd_:
            b, d, fd_ = d, c, fc_
            c = b - gr * (b - a)
            fc_ = f(c)
        else:
            a, c, fc_ = c, d, fd_
            d = a + gr * (b - a)
            fd_ = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def maximize_scalar(f, box, n_grid, tol):
    """Maximize ``f`` over a positive interval ``box = (lo, hi)``.

    ``f`` is evaluated on a geometric grid of ``n_grid`` points spanning
    the box, in one call ``f(grid)`` returning ``n_grid`` values.  For a
    unimodal ``f`` the maximizer lies between the two grid neighbours of
    the best grid point (Kiefer, Proc. AMS 4, 502 (1953)); clamped at
    the grid ends, they bracket one golden-section search in log x that
    stops at relative width ``tol`` and calls ``f`` on one scalar at a
    time.  The call evaluates ``n_grid`` points plus those of that
    search.  When the search ends below the best grid value, as it does
    for a maximum at a box end, that grid point is returned instead.

    Returns
    -------
    (x, f(x)) : maximizer and its value
    """
    lo, hi = float(box[0]), float(box[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"box must satisfy 0 < lo < hi < inf, got {box}")
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), n_grid))
    grid[0], grid[-1] = lo, hi
    values = np.asarray(f(grid), dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"objective mapped {n_grid} grid points to shape {values.shape}")
    best = int(np.argmax(values))
    a = math.log(grid[max(best - 1, 0)])
    b = math.log(grid[min(best + 1, n_grid - 1)])
    u, neg_f = golden_min(lambda u: -f(math.exp(u)), a, b, tol=tol)
    if -neg_f < values[best]:
        return float(grid[best]), float(values[best])
    return math.exp(u), -neg_f


def bisect_root(f, a, b, tol=1e-10, max_iter=200):
    """Find a root of ``f`` on [a, b] by bisection.

    Raises ValueError if f(a) and f(b) do not bracket a sign change.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or (b - a) / 2 < tol:
            return m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def simpson_integral(f, a, b, n_points=2001):
    """Composite Simpson integral of a vectorized function on [a, b].

    ``n_points`` must be odd; an even count raises ValueError.  The step
    is halved once and the two estimates are Richardson-combined
    (Simpson error is O(h^4)); the refinement delta is the error
    estimate.

    Returns
    -------
    (value, error_estimate)
    """
    simpson_weights(n_points)  # validates the node count
    x = np.linspace(a, b, n_points)
    y = f(x)
    coarse = _simpson(y, x)
    x2 = np.linspace(a, b, 2 * n_points - 1)
    fine = _simpson(f(x2), x2)
    value = (16.0 * fine - coarse) / 15.0
    return value, abs(fine - coarse)


def simpson_weights(n):
    """Composite Simpson weights 1, 4, 2, ..., 2, 4, 1 on ``n`` (odd) nodes.

    The caller scales them by step / 3 (per axis).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd node count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _simpson(y, x):
    n = len(x) - 1
    h = (x[-1] - x[0]) / n
    s = y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])
    return s * h / 3.0


def hermitian_sqrt(rho, clip_tol=1e-10):
    """Square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues in [-clip_tol, 0) are clipped to zero; anything more
    negative raises.  Returns (sqrt_matrix, clipped_mass).
    """
    rho = np.asarray(rho)
    w, v = linalg.eigh(rho)
    if np.min(w) < -clip_tol:
        raise ValueError(f"matrix is not PSD: min eigenvalue {np.min(w):.3e}")
    clipped = float(-np.sum(w[w < 0.0]))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T, clipped
