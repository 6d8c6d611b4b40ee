"""Span tracer that wraps cvq's public and layer-boundary functions from outside.

Nothing under ``src/cvq`` is edited.  A :class:`Tracer` finds every
binding of a target function in the loaded ``cvq.*`` modules (including
names copied by ``from .numerics import golden_min``) once;
:meth:`Tracer.enable` swaps wrappers in and :meth:`Tracer.disable` puts
the originals back, cheaply enough to toggle around single ops.  Classes
are traced through their ``__init__``.  The NumPy and SciPy eigen
solvers cvq calls get spans of their own, so that LAPACK time is not
counted as the caller's self time.

Spans are kept in memory in flat typed arrays (name id, parent span, op
id, start and end in ns), 26 bytes a span, because a single sweep op
creates tens of thousands of leaf spans.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import pstats
import sys
import time
import warnings
from array import array

import numpy as np

# (module, attribute) pairs that get a span.  Classes are traced at __init__.
TARGETS = [
    ("gaussian", "GaussianState"),
    ("gaussian", "GaussianChannel"),
    ("gaussian", "apply_channel"),
    ("gaussian", "entropy_cm"),
    ("gaussian", "symplectic_eigenvalues"),
    ("gaussian", "condition_on_measurement"),
    ("gaussian", "_fock_batch"),
    ("gaussian", "coherent_fock_vector"),
    ("qkd", "holevo_from_cm"),
    ("qkd", "psk_mutual_information"),
    ("qkd", "mixture_entropy"),
    ("qkd", "gg02_kgr"),
    ("qkd", "psk_kgr"),
    ("qkd", "trusted_qpsk_kgr"),
    ("qkd", "qam_kgr"),
    ("qkd", "wiretap_qpsk_kgr"),
    ("amplifiers", "span_link_cm"),
    ("amplifiers", "physical_nla_cm"),
    ("amplifiers", "multispan_kgr_conditional"),
    ("amplifiers", "multispan_kgr_unconditional"),
    ("amplifiers", "nla_kgr"),
    ("kor", "dh_rate"),
    ("kor", "optimize_kor"),
    ("kor", "kor_rate"),
    ("numerics", "golden_min"),
    ("numerics", "minimize_bounded"),
    ("numerics", "bisect_root"),
    ("numerics", "simpson_integral"),
    ("numerics", "hermitian_sqrt"),
    ("binary", "helstrom"),
    ("binary", "sql"),
    ("binary", "kennedy_family"),
    ("binary", "dffre"),
    ("mary", "pgm_error"),
    ("mary", "qpsk_sql"),
    ("mary", "bondurant"),
    ("mary", "qdffre"),
    ("detectors", "pnr_pmf"),
    ("detectors", "hl_pmf"),
    ("experiments", "run_experiment"),
    ("cli", "write_csv"),
]

# Eigen solvers outside cvq that cvq reaches through module attributes.
LINALG_TARGETS = [
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigh"),
    ("scipy.linalg", "eigvalsh"),
    ("scipy.linalg", "eigh"),
]

# Optimizers whose first argument is the objective; its calls are counted.
OPTIMIZERS = {"numerics.golden_min", "numerics.minimize_bounded", "numerics.bisect_root"}
# kor.optimize_kor runs its own scipy Nelder-Mead; those objective calls
# are counted when optimize_kor is the innermost traced span.
OWN_NELDER_MEAD = "kor.optimize_kor"

MODULES = ["gaussian", "detectors", "binary", "mary", "qkd", "amplifiers", "kor",
           "numerics", "experiments", "cli"]


class Tracer:
    """Records spans for every target while enabled."""

    def __init__(self, cvq_pkg):
        self.names = [f"{m}.{a}" for m, a in TARGETS + LINALG_TARGETS] + ["op"]
        self.op_name = len(self.names) - 1
        self.name_id = array("H")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.evals = [0] * len(self.names)
        self.warnings = {m: 0 for m in MODULES}
        self.cur = -1
        self.current_op = -1
        self._bindings = self._find_bindings(cvq_pkg)

    # -- spans ---------------------------------------------------------
    def _open(self, k):
        i = len(self.name_id)
        self.name_id.append(k)
        self.parent.append(self.cur)
        self.op_id.append(self.current_op)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        self.cur = i
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter_ns()
        self.cur = self.parent[i]

    @contextlib.contextmanager
    def op_span(self, op_index):
        """A root span around one op; spans opened inside carry its id."""
        self.current_op = op_index
        i = self._open(self.op_name)
        try:
            yield
        finally:
            self._close(i)
            self.current_op = -1

    def _wrap(self, fn, k):
        tracer = self
        counted = self.names[k] in OPTIMIZERS
        evals = self.evals

        def counting(f):
            def objective(*args, **kwargs):
                evals[k] += 1
                return f(*args, **kwargs)
            return objective

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                args = (counting(args[0]),) + args[1:]
            i = tracer._open(k)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return wrapper

    # -- bindings ------------------------------------------------------
    def _find_bindings(self, cvq_pkg):
        """[(owner, attribute, wrapper, original)] for every traced binding."""
        import scipy.optimize

        bindings = []
        loaded = [mod for name, mod in sys.modules.items()
                  if name == "cvq" or name.startswith("cvq.")]
        for k, (mname, attr) in enumerate(TARGETS):
            orig = getattr(getattr(cvq_pkg, mname), attr)
            if isinstance(orig, type):
                bindings.append((orig, "__init__", self._wrap(orig.__init__, k), orig.__init__))
                continue
            wrapper = self._wrap(orig, k)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        bindings.append((mod, name, wrapper, orig))
        for k, (mname, attr) in enumerate(LINALG_TARGETS, start=len(TARGETS)):
            owner = importlib.import_module(mname)
            orig = getattr(owner, attr)
            bindings.append((owner, attr, self._wrap(orig, k), orig))

        nm_slot = self.names.index(OWN_NELDER_MEAD)
        minimize = scipy.optimize.minimize
        tracer = self

        @functools.wraps(minimize)
        def minimize_counted(fun, *args, **kwargs):
            if tracer.cur >= 0 and tracer.name_id[tracer.cur] == nm_slot:
                inner = fun

                def fun(*a, **kw):
                    tracer.evals[nm_slot] += 1
                    return inner(*a, **kw)
            return minimize(fun, *args, **kwargs)

        bindings.append((scipy.optimize, "minimize", minimize_counted, minimize))

        precision = cvq_pkg.numerics.PrecisionWarning
        warn = warnings.warn

        def warn_counted(message, category=None, stacklevel=1, source=None):
            cat = category or (type(message) if isinstance(message, Warning) else UserWarning)
            if issubclass(cat, precision):
                module = sys._getframe(1).f_globals.get("__name__", "")
                key = module.rsplit(".", 1)[-1]
                if key in tracer.warnings:
                    tracer.warnings[key] += 1
            return warn(message, category, stacklevel + 1, source)

        bindings.append((warnings, "warn", warn_counted, warn))
        return bindings

    def enable(self):
        for owner, name, wrapper, _ in self._bindings:
            setattr(owner, name, wrapper)

    def disable(self):
        for owner, name, _, orig in reversed(self._bindings):
            setattr(owner, name, orig)

    # -- aggregation ---------------------------------------------------
    def arrays(self):
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def mark(self):
        """Position to pass to :meth:`summary` as ``since`` or ``until``."""
        return len(self.name_id), list(self.evals)

    def summary(self, since=None, until=None):
        """Per-target calls, evals, total_s and self_s between two marks.

        Defaults cover every span recorded so far.
        """
        lo, evals_lo = since or (0, [0] * len(self.names))
        hi, evals_hi = until or self.mark()
        a = self.arrays()
        name_id = a["name_id"][lo:hi].astype(np.int64)
        parent = a["parent"][lo:hi].astype(np.int64) - lo
        dur = (a["end_ns"][lo:hi] - a["start_ns"][lo:hi]).astype(float) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        if np.any(name_id[has_parent] == name_id[parent[has_parent]]):
            raise RuntimeError("a traced function called itself; total_s would double count")
        n_names = len(self.names)
        calls = np.bincount(name_id, minlength=n_names)
        total = np.bincount(name_id, weights=dur, minlength=n_names)
        self_time = np.bincount(name_id, weights=dur - child, minlength=n_names)
        return {
            name: {"calls": int(calls[k]), "evals": evals_hi[k] - evals_lo[k],
                   "total_s": float(total[k]), "self_s": float(self_time[k])}
            for k, name in enumerate(self.names)
        }


def profiled_calls(run, functions):
    """cProfile ``ncalls`` of each ``(file suffix, function name)`` during ``run()``."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    out = {}
    for suffix, func in functions:
        out[(suffix, func)] = sum(
            nc for (filename, _, name), (_, nc, _, _, _) in stats.items()
            if name == func and filename.endswith(suffix)
        )
    return out
