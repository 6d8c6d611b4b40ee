"""Seeded workloads for the cvq benchmark: op plans, op execution, output checks.

An op is one unit of user work.  In the sweep workloads it is one
``cvq <experiment> --profile fast`` row run in process through
``cvq.cli.main``; in ``point-queries`` it is one call of a public
function with every free parameter pinned.

A run is a fixed number of rounds.  Each round holds the same multiset of
op kinds in a seeded order, and every generated value is drawn by
stratified sampling over the rounds, so that two seeds cover each range
evenly and differ only by jitter inside the strata.  The same seed and
round count always give the same ops and the same outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import random
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

import cvq
import cvq.cli
import cvq.experiments

BETA = 0.95
TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    index: int
    kind: str
    params: dict
    round: int


@dataclass
class Outcome:
    """What one op produced; ``values`` are the checked numeric outputs."""

    op: Op
    seconds: float = 0.0
    values: list = field(default_factory=list)
    lines: list = field(default_factory=list)
    warned: bool = False
    error: str | None = None
    check_failures: list = field(default_factory=list)
    raw: object = None  # a point op's result, kept until its round is checked

    @property
    def failed(self):
        return self.error is not None or bool(self.check_failures)


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------

# (experiment, ops per round, generated distance range in km, fixed keys)
# A 2-round cm-sweep run has 8 ops slower than a trusted-qpsk row, fewer
# than ten, so op_tail_s (ten ops beyond) falls among the upper trusted-qpsk
# rows instead of among the few multispan and NLA rows, whose cost swings
# with distance.
CM_SWEEP = [
    ("gg02-kgr", 6, (1.0, 320.0), {}),
    ("trusted-qpsk", 6, (1.0, 120.0), {}),
    ("multispan-unconditional", 1, (1.0, 160.0), {}),
    ("nla-kgr", 1, (1.0, 420.0), {}),
    ("multispan-conditional", 2, (20.0, 140.0), {"m_spans": 1}),
]
FOCK_SWEEP = [
    ("psk-kgr", 6, (1.0, 120.0), {}),
    ("qam-kgr", 2, (1.0, 100.0), {"side": 8, "sampling": "uniform"}),
    ("kor-ratio", 1, (1.0, 150.0), {}),
    ("wiretap-qpsk", 1, (5.0, 80.0), {}),
]

# Generated parameters of a point-queries round: name -> (lo, hi).
POINT_RANGES = {
    "a2_bpsk": (0.02, 2.0),      # bpsk-curves energy range
    "a2_qpsk": (0.05, 6.0),      # qpsk-disc energy range
    "mu": (0.05, 6.0),
    "z_lo": (0.5, 3.0),
    "d": (1.0, 100.0),
    "v": (1.5, 50.0),
    "a2_key": (0.1, 1.2),
    "nbar": (0.2, 2.0),
    "xi": (0.0, 1.0),
    "d_link": (1.0, 160.0),
    "gain": (1.0, 1.5),
    "d_kor": (1.0, 150.0),
    "a2_kor": (0.1, 2.0),
    "phi1": (0.0, TWO_PI),
    "phi2": (0.0, TWO_PI),
    "phi3": (0.0, TWO_PI),
}
TRUST_TAGS = ("uL;uN", "tL;uN", "tL;tN")

# Nominal seconds of one round on a 2-core x86-64 container; a run of
# ``--seconds S`` does round(S / ROUND_SECONDS) rounds, at least one.
ROUND_SECONDS = {"cm-sweep": 15.0, "fock-sweep": 8.0, "point-queries": 0.025}

# First op of each workload: timed in fresh interpreters as set-up,
# then run once in the benchmark process and excluded from op timings.
SETUP_KIND = {"cm-sweep": "gg02-kgr", "fock-sweep": "psk-kgr",
              "point-queries": "qkd.gg02_kgr"}

WORKLOADS = ("cm-sweep", "fock-sweep", "point-queries")


def _stratified(rng, lo, hi, n):
    """n values in [lo, hi], one from each of n equal strata, shuffled."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [round(lo + (hi - lo) * (s + rng.random()) / n, 4) for s in strata]


def n_rounds(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def plan(workload, seed, seconds):
    """Op 0 (the set-up op, the same for every round count) and the rounds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    setup_rng = random.Random(f"{workload}:{seed}:setup")
    rounds = n_rounds(workload, seconds)
    per_round = [[] for _ in range(rounds)]
    if workload == "point-queries":
        draws = {k: _stratified(rng, lo, hi, rounds) for k, (lo, hi) in POINT_RANGES.items()}
        for r in range(rounds):
            p = {k: v[r] for k, v in draws.items()}
            p["tag"] = TRUST_TAGS[rng.randrange(3)]
            per_round[r] = [(kind, p) for kind in POINT_KINDS]
        setup_params = {k: _stratified(setup_rng, lo, hi, 1)[0]
                        for k, (lo, hi) in POINT_RANGES.items()}
    else:
        spec = CM_SWEEP if workload == "cm-sweep" else FOCK_SWEEP
        for eid, count, (lo, hi), fixed in spec:
            ds = _stratified(rng, lo, hi, rounds * count)
            for r in range(rounds):
                for d in ds[r * count:(r + 1) * count]:
                    per_round[r].append((eid, {"d": d, **fixed}))
        lo, hi = next(s[2] for s in spec if s[0] == SETUP_KIND[workload])
        setup_params = {"d": _stratified(setup_rng, lo, hi, 1)[0]}
    ops = [Op(0, SETUP_KIND[workload], setup_params, -1)]
    for r, items in enumerate(per_round):
        rng.shuffle(items)
        for kind, params in items:
            ops.append(Op(len(ops), kind, params, r))
    return ops


# ----------------------------------------------------------------------
# sweep ops
# ----------------------------------------------------------------------

def sweep_argv(kind, params, out_path):
    argv = [kind, "--profile", "fast", "--out", out_path]
    keys = dict(params)
    d = keys.pop("d")
    if kind == "multispan-conditional":
        keys["d"] = d
    else:
        keys.update(d_min=d, d_max=d, points=1)
    for key, value in keys.items():
        argv += ["--key", f"{key}={value}"]
    return argv


def read_csv(path):
    """(column names, data lines) of a cvq CSV file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[0].split(","), lines[1:]


def run_sweep(op, work_dir):
    out_path = os.path.join(work_dir, "op.csv")
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = sweep_argv(op.kind, op.params, out_path)
    res = Outcome(op)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = cvq.cli.main(argv)
        except Exception:  # an op that raises is counted as failed
            res.seconds = time.perf_counter() - t0
            res.error = traceback.format_exc(limit=3)
            return res
        res.seconds = time.perf_counter() - t0
    if rc not in (0, 2):
        res.error = f"exit code {rc}"
        return res
    res.warned = rc == 2
    names, lines = read_csv(out_path)
    res.lines = [",".join(names)] + lines
    res.values = [dict(zip(names, map(float, ln.split(",")))) for ln in lines]
    return res


# ----------------------------------------------------------------------
# point ops
# ----------------------------------------------------------------------

def _channel(p, eps):
    return cvq.qkd.ChannelParams.from_distance(p["d"], eps)


# kind -> (module, function, round params -> (args, kwargs))
POINT_CALLS = {
    "binary.helstrom": ("binary", "helstrom",
                        lambda p: ((cvq.binary.BpskScenario(p["a2_bpsk"]),), {})),
    "binary.sql": ("binary", "sql",
                   lambda p: ((cvq.binary.BpskScenario(p["a2_bpsk"]),), {})),
    "binary.kennedy_family[nulling]": (
        "binary", "kennedy_family",
        lambda p: ((cvq.binary.BpskScenario(p["a2_bpsk"]), "nulling"), {})),
    "binary.kennedy_family[improved]": (
        "binary", "kennedy_family",
        lambda p: ((cvq.binary.BpskScenario(p["a2_bpsk"]), "improved"), {})),
    "binary.dffre": ("binary", "dffre",
                     lambda p: ((cvq.binary.BpskScenario(p["a2_bpsk"]), 8), {})),
    "mary.pgm_error": ("mary", "pgm_error", lambda p: ((4, p["a2_qpsk"]), {})),
    "mary.qpsk_sql": ("mary", "qpsk_sql", lambda p: ((p["a2_qpsk"],), {})),
    "mary.bondurant[I]": ("mary", "bondurant", lambda p: ((p["a2_qpsk"], "I"), {})),
    "mary.bondurant[II]": ("mary", "bondurant", lambda p: ((p["a2_qpsk"], "II"), {})),
    "mary.qdffre": ("mary", "qdffre", lambda p: ((p["a2_qpsk"], 16), {})),
    "detectors.pnr_pmf": (
        "detectors", "pnr_pmf",
        lambda p: ((p["mu"], cvq.detectors.PnrSpec(resolution=3, eta=0.9, nu=1e-3)), {})),
    "detectors.hl_pmf": (
        "detectors", "hl_pmf",
        lambda p: ((math.sqrt(p["a2_bpsk"]), p["z_lo"],
                    cvq.detectors.PnrSpec(resolution=5)), {})),
    "qkd.gg02_kgr": ("qkd", "gg02_kgr",
                     lambda p: ((_channel(p, 0.03), BETA), {"v": p["v"]})),
    "qkd.psk_kgr": ("qkd", "psk_kgr",
                    lambda p: ((4, _channel(p, 0.01), BETA), {"alpha2": p["a2_key"]})),
    "qkd.trusted_qpsk_kgr": (
        "qkd", "trusted_qpsk_kgr",
        lambda p: ((_channel(p, 0.01), BETA, cvq.qkd.TrustScenario(p["tag"], 0.7, 0.01)),
                   {"alpha2": p["a2_key"]})),
    "qkd.qam_kgr": ("qkd", "qam_kgr",
                    lambda p: ((8, _channel(p, 0.01), BETA),
                               {"sampling": "MB", "nbar": p["nbar"], "xi": p["xi"]})),
    "qkd.wiretap_qpsk_kgr[pure]": (
        "qkd", "wiretap_qpsk_kgr",
        lambda p: ((_channel(p, 0.0), BETA, "pure"), {"alpha2": p["a2_key"]})),
    "qkd.psk_kgr[pure-loss]": (
        "qkd", "psk_kgr",
        lambda p: ((4, _channel(p, 0.0), BETA), {"alpha2": p["a2_key"]})),
    "amplifiers.multispan_kgr_unconditional[IIa]": (
        "amplifiers", "multispan_kgr_unconditional",
        lambda p: ((cvq.amplifiers.SpanLink(5, p["d_link"], 0.05, kind="psa"), BETA, "IIa"),
                   {"v": p["v"], "gain": p["gain"]})),
    "amplifiers.multispan_kgr_unconditional[IIb]": (
        "amplifiers", "multispan_kgr_unconditional",
        lambda p: ((cvq.amplifiers.SpanLink(5, p["d_link"], 0.05, kind="psa"), BETA, "IIb"),
                   {"v": p["v"], "gain": p["gain"]})),
    "kor.kor_rate": (
        "kor", "kor_rate",
        lambda p: ((p["a2_kor"], [0.0, p["phi1"], p["phi2"], p["phi3"]],
                    10.0 ** (-0.2 * p["d_kor"] / 10.0), BETA), {})),
}
# Ten kinds are faster than kor_rate and ten slower, so op_p50_s is the
# median kor_rate call rather than a quantile at the edge of a kind.
POINT_KINDS = list(POINT_CALLS)


def _values(out):
    """Flatten a public function's result into the floats that are checked."""
    if isinstance(out, cvq.qkd.KgrResult):
        return [out.K, out.I_AB, out.chi_BE, out.p_success]
    if isinstance(out, cvq.binary.ReceiverResult):
        return [out.p_err]
    if isinstance(out, cvq.detectors.ClickPmf):
        return [float(x) for x in out.probs]
    if isinstance(out, dict):  # kor.kor_rate
        return [out["K"], out["I_AB"], out["chi_BE"], out["p_inconclusive"]]
    if isinstance(out, tuple):  # mary.qdffre: (conditional matrix, p_err)
        return [float(out[1])] + [float(x) for x in np.ravel(out[0])]
    return [float(out)]


def run_point(op, precision_warning):
    module, func, build = POINT_CALLS[op.kind]
    fn = getattr(getattr(cvq, module), func)
    args, kwargs = build(op.params)
    res = Outcome(op)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", precision_warning)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # an op that raises is counted as failed
            res.seconds = time.perf_counter() - t0
            res.error = traceback.format_exc(limit=3)
            return res
        res.seconds = time.perf_counter() - t0
    res.warned = any(issubclass(w.category, precision_warning) for w in caught)
    res.raw = out
    res.values = _values(out)
    res.lines = [op.kind + "," + ",".join(f"{x:.17e}" for x in res.values)]
    return res


def run_op(op, work_dir):
    if op.kind in POINT_CALLS:
        return run_point(op, cvq.numerics.PrecisionWarning)
    return run_sweep(op, work_dir)


def digest_lines(outcomes):
    """sha256 of the %.17e output lines of ``outcomes``, in op order."""
    h = hashlib.sha256()
    for res in outcomes:
        for line in res.lines:
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------------------
# output checks: invariants and oracles the package already has
# ----------------------------------------------------------------------

def _plob(d_km, eps):
    ch = cvq.qkd.ChannelParams.from_distance(d_km, eps)
    return cvq.amplifiers.plob(ch.T, ch.nbar_T)[0]


def _below(fails, what, value, cap, tol=0.0):
    if not value <= cap + tol:
        fails.append(f"{what}={value!r} above {cap!r}")


# experiment -> (excess noise of its default channel, rate columns below PLOB)
SWEEP_PLOB = {
    "gg02-kgr": (0.03, ["K"]),
    "trusted-qpsk": (0.01, ["K_uLuN", "K_tLuN", "K_tLtN"]),
    "multispan-unconditional": (0.05, ["K_IIb", "K_noamp"]),
    "nla-kgr": (0.03, ["K_GG02", "K_ideal", "K_QS", "K_SPC"]),
    "psk-kgr": (0.01, ["K"]),
    "qam-kgr": (0.01, ["K", "K_GG02"]),
    "kor-ratio": (0.0, ["K_DH", "K_PGM", "K_KOR"]),
    # the thermal wiretap rate restricts Eve, so PLOB does not bound it
    "wiretap-qpsk": (0.02, ["K_unconditional"]),
}


def check_sweep(res):
    """Failures of one sweep op's CSV row (empty list when it passes)."""
    fails = []
    kind, d = res.op.kind, res.op.params["d"]
    if len(res.values) != (res.op.params.get("m_spans", 1)
                           if kind == "multispan-conditional" else 1):
        return [f"unexpected row count {len(res.values)}"]
    for row in res.values:
        if kind == "multispan-conditional":
            for col in ("ratio_I", "ratio_IIa", "ratio_IIb"):
                # the optimized gain never falls below the unamplified line
                if not (math.isnan(row[col]) or row[col] >= 1.0 - 1e-9):
                    fails.append(f"{col}={row[col]!r} below 1")
            continue
        if row["d_km"] != d:
            fails.append(f"d_km={row['d_km']!r} is not the requested {d!r}")
        eps, cols = SWEEP_PLOB[kind]
        cap = _plob(d, eps)
        for col in cols:
            _below(fails, col, row[col], cap)
        if kind == "trusted-qpsk":
            _below(fails, "K_uLuN", row["K_uLuN"], row["K_tLuN"], 1e-9)
            _below(fails, "K_tLuN", row["K_tLuN"], row["K_tLtN"], 1e-9)
        elif kind == "multispan-unconditional":
            _below(fails, "K_noamp", row["K_noamp"], row["K_IIb"], 1e-9)
        elif kind == "nla-kgr":
            if not math.isclose(row["K_PLOB"], cap, rel_tol=1e-12):
                fails.append(f"K_PLOB={row['K_PLOB']!r} differs from plob()={cap!r}")
        elif kind == "kor-ratio":
            _below(fails, "K_PGM", row["K_PGM"], row["K_KOR"], 1e-12)
        elif kind == "wiretap-qpsk":
            _below(fails, "K_unconditional", row["K_unconditional"], row["K_wiretap"], 1e-9)
    return fails


def check_point_round(outcomes):
    """Attach failures to the point ops of one round that break an invariant."""
    by_kind = {res.op.kind: res for res in outcomes if res.error is None}

    def fail(kind, msg):
        if kind in by_kind:
            by_kind[kind].check_failures.append(msg)

    def order(low_kind, tol, others):
        if low_kind not in by_kind:
            return
        low = by_kind[low_kind].values[0]
        for kind in others:
            if kind in by_kind and not low <= by_kind[kind].values[0] + tol:
                fail(kind, f"{kind}={by_kind[kind].values[0]!r} below {low_kind}={low!r}")

    order("binary.helstrom", 1e-9, ["binary.sql", "binary.kennedy_family[nulling]",
                                    "binary.kennedy_family[improved]", "binary.dffre"])
    order("mary.pgm_error", 1e-12, ["mary.qpsk_sql", "mary.bondurant[I]",
                                    "mary.bondurant[II]", "mary.qdffre"])
    for kind in ("detectors.pnr_pmf", "detectors.hl_pmf"):
        if kind in by_kind:
            probs = np.array(by_kind[kind].values)
            if abs(probs.sum() - 1.0) > 1e-12 or probs.min() < -1e-15:
                fail(kind, f"not a pmf: sum={probs.sum()!r} min={probs.min()!r}")
    p = outcomes[0].op.params
    caps = {
        "qkd.gg02_kgr": _plob(p["d"], 0.03),
        "qkd.psk_kgr": _plob(p["d"], 0.01),
        "qkd.trusted_qpsk_kgr": _plob(p["d"], 0.01),
        "qkd.qam_kgr": _plob(p["d"], 0.01),
        "qkd.wiretap_qpsk_kgr[pure]": _plob(p["d"], 0.0),
        "qkd.psk_kgr[pure-loss]": _plob(p["d"], 0.0),
        "amplifiers.multispan_kgr_unconditional[IIa]": _plob(p["d_link"], 0.05),
        "amplifiers.multispan_kgr_unconditional[IIb]": _plob(p["d_link"], 0.05),
        "kor.kor_rate": _plob(p["d_kor"], 0.0),
    }
    for kind, cap in caps.items():
        if kind not in by_kind:
            continue
        res = by_kind[kind]
        k, i_ab, chi_be = res.values[:3]
        if kind == "kor.kor_rate":
            if abs(k - (BETA * i_ab - chi_be)) > 1e-12:
                fail(kind, "K != beta I_AB - chi_BE")
        elif not res.raw.check_decomposition(1e-12):
            fail(kind, "check_decomposition(1e-12) failed")
        if not k <= cap:
            fail(kind, f"K={k!r} above PLOB {cap!r}")
    exact, bound = "qkd.wiretap_qpsk_kgr[pure]", "qkd.psk_kgr[pure-loss]"
    if exact in by_kind and bound in by_kind:
        if by_kind[bound].values[2] < by_kind[exact].values[2] - 1e-9:
            fail(exact, "exact pure-loss chi_BE above the Gaussian bound")
    for res in outcomes:
        res.raw = None


def check(outcomes):
    """Run the output checks of one round of outcomes in place."""
    if outcomes and outcomes[0].op.kind in POINT_CALLS:
        check_point_round(outcomes)
        return
    for res in outcomes:
        if res.error is None:
            res.check_failures.extend(check_sweep(res))
