"""cvq benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cm-sweep --seed 1 --seconds 30 --trace 0

Workloads: ``cm-sweep``, ``fock-sweep``, ``point-queries`` (see
``perfbench/README.md``).  The load is a closed loop with one client:
each op starts when the previous one has finished.  ``CVQ_THREADS`` and
the BLAS thread variables are set to 1 and recorded.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same ops with a span on every layer-boundary
function and reports the per-layer metrics.  Both check every op's
output and run determinism self-checks; the last line of standard
output is one JSON object, and the exit code is 1 when any check
fails.  A results file with the environment record is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_RUNS = 3
THREAD_VARS = ("CVQ_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10

# per-layer metrics: function -> the aggregates reported for it
CM_FUNCS = ["gaussian.GaussianState", "gaussian.GaussianChannel", "gaussian.apply_channel",
            "gaussian.entropy_cm", "gaussian.symplectic_eigenvalues",
            "gaussian.condition_on_measurement", "qkd.holevo_from_cm",
            "amplifiers.span_link_cm", "amplifiers.physical_nla_cm"]
FOCK_FUNCS = ["gaussian._fock_batch", "gaussian.coherent_fock_vector",
              "numerics.simpson_integral", "numerics.hermitian_sqrt",
              "qkd.psk_mutual_information", "qkd.mixture_entropy"]
POINT_FUNCS = ["binary.helstrom", "binary.sql", "binary.kennedy_family", "binary.dffre",
               "mary.pgm_error", "mary.qpsk_sql", "mary.bondurant", "mary.qdffre",
               "detectors.pnr_pmf", "detectors.hl_pmf"]
TOTALS = ["amplifiers.multispan_kgr_conditional", "amplifiers.multispan_kgr_unconditional",
          "amplifiers.nla_kgr", "qkd.wiretap_qpsk_kgr", "qkd.qam_kgr", "kor.dh_rate",
          "kor.optimize_kor", "experiments.run_experiment"]
OPTIMIZER_FUNCS = ["numerics.golden_min", "numerics.minimize_bounded", "numerics.bisect_root"]
WARNING_MODULES = ["gaussian", "detectors", "binary", "mary", "qkd", "amplifiers", "kor",
                   "numerics"]


def per_layer_spec():
    """[(metric name, unit, better)] reported by a traced run, in order."""
    spec = []
    for fn in CM_FUNCS + FOCK_FUNCS + POINT_FUNCS:
        spec += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
    spec += [(f"{fn}.total_s", "s", "lower") for fn in TOTALS]
    for fn in OPTIMIZER_FUNCS:
        spec += [(f"{fn}.calls", "count", "lower"), (f"{fn}.evals", "count", "lower"),
                 (f"{fn}.self_s", "s", "lower")]
    spec += [("kor.optimize_kor.evals", "count", "lower"),
             ("cli.write_csv.self_s", "s", "lower")]
    spec += [(f"{m}.precision_warnings", "count", "lower") for m in WARNING_MODULES]
    spec += [("warned_frac", "ratio", "lower"),
             ("tracing.ops_per_s_untraced", "1/s", "higher"),
             ("tracing.ops_per_s_traced", "1/s", "higher")]
    return spec


END_TO_END = [("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("failed_frac", "ratio"), ("warned_frac", "ratio"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]
# failed_frac travels as "failed"/"attempted" and warned_frac as a per-layer
# metric: both are legitimately 0, so no relative bound can apply to them.
END_TO_END_GATED = ["ops_per_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cm-sweep", "fock-sweep", "point-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# running ops
# ----------------------------------------------------------------------

def run_rounds(workloads, ops, work_dir, tr=None, reference_rounds=0):
    """Run ops round by round; return (outcomes, wall seconds, reference outcomes).

    The wall time covers the op loop only; each round's output checks run
    after the round, off the clock.  With a tracer, every op runs traced,
    and each op of the first ``reference_rounds`` rounds also runs untraced,
    off the clock, as the reference for the tracing overhead.
    """
    outcomes, reference, wall = [], [], 0.0
    for r, group in itertools.groupby(ops, key=lambda op: op.round):
        t0 = time.perf_counter()
        done = []
        for op in group:
            if tr is None:
                done.append(workloads.run_op(op, work_dir))
                continue
            # a reference op runs before its traced twin on even op indices
            # and after it on odd ones, so warm-up favours neither side
            untraced_first = op.index % 2 == 0
            if r < reference_rounds and untraced_first:
                t_ref = time.perf_counter()
                reference.append(workloads.run_op(op, work_dir))
                t0 += time.perf_counter() - t_ref
            tr.enable()
            try:
                with tr.op_span(op.index):
                    done.append(workloads.run_op(op, work_dir))
            finally:
                tr.disable()
            if r < reference_rounds and not untraced_first:
                t_ref = time.perf_counter()
                reference.append(workloads.run_op(op, work_dir))
                t0 += time.perf_counter() - t_ref
        wall += time.perf_counter() - t0
        workloads.check(done)
        outcomes.extend(done)
    return outcomes, wall, reference


def latency_metrics(outcomes, wall):
    lat = sorted(res.seconds for res in outcomes)
    n = len(lat)
    # the highest order statistic with TAIL_BEYOND ops above it (the maximum
    # when there are too few ops)
    j = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    failed = sum(res.failed for res in outcomes)
    return {
        "ops_per_s": (n - failed) / wall,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": lat[j],
        "op_tail_percentile": 100.0 * (j + 1) / n,
        "op_tail_ops_beyond": n - j - 1,
        "op_samples": n,
        "failed_frac": failed / n,
        "warned_frac": sum(res.warned for res in outcomes) / n,
        "wall_s": wall,
    }


def measure_setup(workload, seed, work_dir):
    """Median of SETUP_RUNS fresh interpreters' import cvq + first op."""
    times, digests, errors = [], set(), []
    for i in range(SETUP_RUNS):
        child_dir = work_dir / f"setup{i}"
        child_dir.mkdir(exist_ok=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "first_op.py"), workload, str(seed), str(child_dir)],
            capture_output=True, text=True, timeout=150, env=os.environ.copy(), cwd=ROOT,
        )
        if proc.returncode != 0:
            errors.append(f"set-up child exited {proc.returncode}: {proc.stderr[-400:]}")
            continue
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if rec["error"]:
            errors.append(f"set-up op failed: {rec['error']}")
        times.append(rec["setup_s"])
        digests.add(rec["sha256"])
    return times, digests, errors


def threads_check(workloads, op0, work_dir):
    """A two-point sweep must write the same bytes under CVQ_THREADS=1 and 2."""
    import cvq.cli

    if op0.kind in workloads.POINT_CALLS:
        keys = [f"a2_max={op0.params['a2_qpsk']}", "points=2"]
        eid = "qpsk-disc"
    else:
        d = op0.params["d"]
        keys = [f"d_min={d}", f"d_max={round(d * 1.5 + 1.0, 4)}", "points=2"]
        eid = op0.kind
    blobs = []
    for threads in ("1", "2"):
        out = work_dir / f"threads{threads}.csv"
        argv = [eid, "--profile", "fast", "--out", str(out)]
        for key in keys:
            argv += ["--key", key]
        os.environ["CVQ_THREADS"] = threads
        try:
            with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
                rc = cvq.cli.main(argv)
        finally:
            os.environ["CVQ_THREADS"] = "1"
        blobs.append((rc, out.read_bytes()))
    if blobs[0] != blobs[1]:
        return [f"{eid} CSV differs between CVQ_THREADS=1 and 2"]
    return []


def coverage_op(cvq, d):
    """A small op reaching golden_min through qkd, amplifiers and kor bindings."""
    ch = cvq.qkd.ChannelParams.from_distance(d, 0.03)
    cvq.qkd.gg02_kgr(ch, 0.95)
    link = cvq.amplifiers.SpanLink(5, d, 0.05, kind="psa")
    cvq.amplifiers.multispan_kgr_unconditional(link, 0.95, "IIb", gain=1.0)
    cvq.kor.qdffre_rate(ch.T, 0.95, 8)


def tracer_self_checks(cvq, tracer_mod, tr, d):
    """Traced calls equal cProfile ncalls; two traced runs give equal counts."""
    failures = []
    probes = [("gaussian.py", "entropy_cm"), ("qkd.py", "holevo_from_cm"),
              ("numerics.py", "golden_min")]
    first = tr.mark()
    profiled = tracer_mod.profiled_calls(lambda: coverage_op(cvq, d), probes)
    second = tr.mark()
    coverage_op(cvq, d)
    third = tr.mark()
    a, b = tr.summary(first, second), tr.summary(second, third)
    for (suffix, func), ncalls in profiled.items():
        name = f"{suffix[:-3]}.{func}"
        if a[name]["calls"] != ncalls or ncalls == 0:
            failures.append(f"traced {name}.calls={a[name]['calls']} but cProfile ncalls={ncalls}")
    for name in a:
        for key in ("calls", "evals"):
            if a[name][key] != b[name][key]:
                failures.append(f"{name}.{key} differs between two traced runs: "
                                f"{a[name][key]} vs {b[name][key]}")
    coverage = {f"{s[:-3]}.{f}": n for (s, f), n in profiled.items()}
    return failures, coverage


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------

def environment(workload, seed, seconds, rounds):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "cvq").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "load": "closed loop, one client",
        "git_commit": commit,
        "src_cvq_sha256": src.hexdigest(),
    }


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cvq" / "__init__.py").is_file():
        print(f"perfbench: no cvq sources at {SRC / 'cvq'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import cvq

    if Path(cvq.__file__).resolve().parent != (SRC / "cvq").resolve():
        print(f"perfbench: imported cvq from {cvq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    work_dir = RESULTS / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.plan(args.workload, args.seed, args.seconds)
    op0, measured = ops[0], ops[1:]
    rounds = workloads.n_rounds(args.workload, args.seconds)
    failures = []

    setup_times, setup_digests, errors = measure_setup(args.workload, args.seed, work_dir)
    failures += errors
    warm = workloads.run_op(op0, work_dir)
    workloads.check([warm])
    warm_digest = workloads.digest_lines([warm])
    if warm.failed:
        failures.append(f"set-up op failed: {warm.error or warm.check_failures}")
    if setup_digests - {warm_digest}:
        failures.append("set-up op output differs between fresh interpreters")

    report = {"env": environment(args.workload, args.seed, args.seconds, rounds)}
    tr = None
    if args.trace:
        tr = tracer_mod.Tracer(cvq)
        start = tr.mark()
        outcomes, wall, plain = run_rounds(workloads, measured, work_dir, tr,
                                           reference_rounds=max(1, rounds // 10))
        end = tr.mark()
        tr.enable()
        try:
            cover_failures, coverage = tracer_self_checks(cvq, tracer_mod, tr, op0.params["d"])
        finally:
            tr.disable()
        failures += cover_failures
        traced_first = outcomes[:len(plain)]
        if workloads.digest_lines(plain) != workloads.digest_lines(traced_first):
            failures.append("traced and untraced outputs differ")
        report["coverage_ncalls"] = coverage
    else:
        outcomes, wall, _ = run_rounds(workloads, measured, work_dir)

    repeat = workloads.run_op(op0, work_dir)
    if workloads.digest_lines([repeat]) != warm_digest:
        failures.append("repeating the set-up op changed its output")
    failures += threads_check(workloads, op0, work_dir)

    stats = latency_metrics(outcomes, wall)
    # no set-up sample means a failed child, which already fails the run
    stats["setup_s"] = statistics.median(setup_times) if setup_times else 0.0
    stats["setup_samples_s"] = setup_times
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_ops = [res for res in outcomes if res.failed]
    report.update(
        metrics=stats,
        outputs_sha256=workloads.digest_lines(outcomes),
        failures=failures,
        failed_ops=[{"op": res.op.index, "kind": res.op.kind, "params": res.op.params,
                     "error": res.error, "checks": res.check_failures}
                    for res in failed_ops[:50]],
        ops=[[res.op.index, res.op.kind, res.op.params.get("d"), res.seconds]
             for res in outcomes] if len(outcomes) <= 1000 else None,
        per_kind_median_s={
            kind: statistics.median(res.seconds for res in outcomes if res.op.kind == kind)
            for kind in sorted({res.op.kind for res in outcomes})
        },
    )

    if tr is not None:
        summary = tr.summary(start, end)
        layer = {}
        for name, unit, _ in per_layer_spec():
            if name == "warned_frac":
                value = stats["warned_frac"]
            elif name == "tracing.ops_per_s_untraced":
                value = len(plain) / sum(res.seconds for res in plain)
            elif name == "tracing.ops_per_s_traced":
                value = len(traced_first) / sum(res.seconds for res in traced_first)
            elif name.endswith(".precision_warnings"):
                value = tr.warnings[name.split(".")[0]]
            else:
                fn, key = name.rsplit(".", 1)
                value = summary[fn][key]
            layer[name] = {"value": value, "unit": unit}
        report["per_layer"] = layer
        report["spans"] = end[0] - start[0]
        report["layer_summary"] = {k: v for k, v in summary.items() if v["calls"]}
        import numpy as np

        np.savez(RESULTS / f"spans-{args.workload}.npz", **tr.arrays())
        result_metrics = layer
    else:
        result_metrics = {name: {"value": stats[name], "unit": unit}
                          for name, unit in END_TO_END if name in END_TO_END_GATED}

    correct = not failures and not failed_ops
    report["correct"] = correct
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"# {args.workload} seed={args.seed} rounds={rounds} ops={stats['op_samples']} "
          f"trace={args.trace} results={out_path.relative_to(ROOT)}")
    for name, unit in END_TO_END:
        extra = ""
        if name == "op_tail_s":
            extra = (f"  (p{stats['op_tail_percentile']:.2f}, {stats['op_tail_ops_beyond']} "
                     f"ops beyond, n={stats['op_samples']})")
        print(f"{args.workload} {name} {stats[name]:.6g} {unit}{extra}")
    if tr is not None:
        for name, rec in report["per_layer"].items():
            print(f"{args.workload} {name} {rec['value']:.6g} {rec['unit']}")
    for msg in failures:
        print(f"SELF-CHECK FAILED: {msg}", file=sys.stderr)
    for res in failed_ops[:10]:
        print(f"OP FAILED: #{res.op.index} {res.op.kind} {res.op.params}: "
              f"{res.error or res.check_failures}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": stats["op_samples"],
                      "failed": len(failed_ops), "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
