"""Write the ``--profile fast`` CSVs of this checkout, or compare two sets.

Usage (from any directory)::

    python tools/csv_delta.py --write DIR [--threads N]
    python tools/csv_delta.py DIR_A DIR_B

``--write`` runs every experiment that ``cvq list`` names with
``--profile fast``, each in a fresh interpreter with the package of this
checkout (its ``src`` directory) and with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to N (default 1), and
writes ``DIR/<experiment>.csv``.  It exits 1 if an experiment fails or
reports precision warnings.

``DIR_A DIR_B`` prints, for each CSV, whether the bytes match.  For a
file that differs it reports the ``#`` header lines that differ apart
from the data, and for each moved column the number of moved rows and
the largest absolute and relative change, each with its data row
(counted from 0).  It exits 0 when every file is byte-identical and 1
otherwise.  Only the standard library and NumPy are used.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cli(args, threads):
    env = dict(os.environ, PYTHONPATH=str(SRC), **{v: str(threads) for v in THREAD_VARS})
    return subprocess.run([sys.executable, "-m", "cvq.cli", *args], env=env,
                          capture_output=True, text=True)


def write_csvs(out_dir, threads=1):
    """Run every experiment at ``--profile fast``; returns the failed ids."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    listing = _cli(["list"], threads)
    if listing.returncode != 0:
        raise RuntimeError(listing.stderr)
    failed = []
    for eid in (line.split()[0] for line in listing.stdout.splitlines() if line.strip()):
        proc = _cli([eid, "--profile", "fast", "--out", str(out_dir / f"{eid}.csv")], threads)
        print(f"{eid}: exit {proc.returncode}", flush=True)
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            failed.append(eid)
    return failed


def _split(text):
    """(header lines, column names, rows of fields) of one CSV text."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return header, (body[0] if body else []), body[1:]


def file_delta(text_a, text_b):
    """Report lines for two differing CSV texts of one experiment."""
    head_a, names_a, rows_a = _split(text_a)
    head_b, names_b, rows_b = _split(text_b)
    out = []
    if head_a != head_b:
        out += [f"  header - {line}" for line in head_a if line not in head_b]
        out += [f"  header + {line}" for line in head_b if line not in head_a]
    if names_a != names_b or len(rows_a) != len(rows_b):
        out.append(f"  shape: columns {names_a} x {len(rows_a)} rows"
                   f" vs {names_b} x {len(rows_b)} rows")
        return out
    if rows_a == rows_b:
        return out
    cells_a, cells_b = np.array(rows_a), np.array(rows_b)
    a, b = cells_a.astype(float), cells_b.astype(float)
    diff = np.abs(b - a)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / np.abs(a))
    out.append(f"  {'column':<14} {'moved':>9} {'max abs':>10} {'row':>4}"
               f" {'max rel':>10} {'row':>4}")
    for j, name in enumerate(names_a):
        moved = cells_a[:, j] != cells_b[:, j]
        if not moved.any():
            continue
        i_abs, i_rel = int(np.nanargmax(diff[:, j])), int(np.nanargmax(rel[:, j]))
        out.append(f"  {name:<14} {f'{moved.sum()}/{len(moved)}':>9}"
                   f" {diff[i_abs, j]:>10.2e} {i_abs:>4} {rel[i_rel, j]:>10.2e} {i_rel:>4}")
    return out


def compare(dir_a, dir_b):
    """(report lines, identical count, file count) for two CSV directories."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.glob("*.csv")})
    lines, same = [], 0
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists()):
            lines.append(f"{name}: only in {dir_a if pa.exists() else dir_b}")
            continue
        if pa.read_bytes() == pb.read_bytes():
            lines.append(f"{name}: identical")
            same += 1
            continue
        lines.append(f"{name}: differs")
        lines += file_delta(pa.read_text(encoding="utf-8"), pb.read_text(encoding="utf-8"))
    lines.append(f"{same} of {len(names)} identical")
    return lines, same, len(names)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", metavar="DIR", help="DIR_A DIR_B to compare")
    parser.add_argument("--write", metavar="DIR", help="write the fast CSVs to DIR")
    parser.add_argument("--threads", type=int, default=1, help="BLAS threads for --write")
    args = parser.parse_args(argv)
    if args.write:
        if args.dirs:
            parser.error("--write takes no DIR_A DIR_B")
        return 1 if write_csvs(args.write, args.threads) else 0
    if len(args.dirs) != 2:
        parser.error("give DIR_A DIR_B, or --write DIR")
    lines, same, total = compare(*args.dirs)
    print("\n".join(lines))
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
