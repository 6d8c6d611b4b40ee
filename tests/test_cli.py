import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvq
from cvq import cli
from cvq.experiments import list_experiments, run_experiment


class TestRegistry:
    def test_full_listing(self):
        full = list_experiments()
        assert "gg02-kgr" in full and "kor-ratio" in full
        assert len(full) >= 10

    def test_filter(self):
        hits = list_experiments("nla")
        assert set(hits) == {"nla-kgr"}

    def test_unknown_filter_empty(self):
        assert list_experiments("zzz-nope") == {}

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("zzz-nope")


class TestCliProcess:
    def test_list_exit_zero(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gg02-kgr" in out

    def test_unknown_experiment_exit_64(self, capsys):
        assert cli.main(["does-not-exist"]) == 64

    def test_bad_key_exit_64(self):
        assert cli.main(["capacities", "--key", "oops"]) == 64

    def test_run_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["capacities", "--profile", "fast"]
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_shape_and_header(self, tmp_path):
        out = tmp_path / "c.csv"
        assert cli.main(
            ["bpsk-curves", "--profile", "fast", "--out", str(out),
             "--key", "points=7"]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# cvq ")
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",") == ["alpha2", "P_Hel", "P_SQL", "P_K", "P_IK", "P_HY"]
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 7

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("points = 5\nn_noise = 0.2  # thermal photons\n")
        out = tmp_path / "d.csv"
        rc = cli.main(
            ["capacities", "--profile", "fast", "--config", str(cfg),
             "--key", "points=6", "--out", str(out)]
        )
        assert rc == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("# points")]
        assert header == ["# points = 6"]  # command line wins

    def test_svg_emitted(self, tmp_path):
        out = tmp_path / "e.csv"
        svg = tmp_path / "e.svg"
        rc = cli.main(
            ["capacities", "--profile", "fast", "--out", str(out),
             "--svg", str(svg)]
        )
        assert rc == 0
        body = svg.read_text()
        assert body.startswith("<svg") and "polyline" in body

    def test_gg02_fast_run(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main(
            ["gg02-kgr", "--profile", "fast", "--out", str(out),
             "--key", "points=5", "--key", "eps=0.03"]
        )
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        ks = np.array([float(r.split(",")[1]) for r in rows])
        assert ks[0] > 0  # key at short distance

    def test_wiretap_fast_row_quiet(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = cli.main(
            ["wiretap-qpsk", "--profile", "fast", "--out", str(out),
             "--key", "d_min=5", "--key", "d_max=5", "--key", "points=1"]
        )
        assert rc == 0  # a PrecisionWarning would give exit code 2
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 1

    def test_bpsk_imperfect_without_dark_counts(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = cli.main(["bpsk-imperfect", "--profile", "fast", "--out", str(out),
                       "--key", "nu=0"])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        names = lines[0].split(",")
        rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
        probs = rows[:, [i for i, n in enumerate(names) if n.startswith("P_")]]
        assert probs.size and np.all((probs >= 0.0) & (probs <= 0.5))


class TestBlasThreads:
    """A fast row writes the same bytes with one and with two BLAS threads.

    The Gaussian rates run their seeding grids as batched LAPACK calls,
    ``psk-kgr`` and ``kor-ratio`` read the shared PSK mixture spectrum,
    and ``wiretap-qpsk`` takes Eve's S(E) from one 4(N+1)-row eigenproblem
    (at 1 km, where a two-mode Fock expansion once differed in the last
    bits); each experiment runs in a fresh interpreter, since BLAS reads
    its thread count at import.
    """

    @pytest.mark.parametrize("eid", ["gg02-kgr", "trusted-qpsk", "multispan-unconditional",
                                     "psk-kgr", "kor-ratio", "wiretap-qpsk"])
    def test_csv_identical_for_one_and_two_threads(self, eid, tmp_path):
        src = str(Path(cvq.__file__).resolve().parents[1])
        d_km = "1" if eid == "wiretap-qpsk" else "40"
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{threads}.csv"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from cvq.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", eid, "--profile", "fast",
                 "--key", f"d_min={d_km}", "--key", f"d_max={d_km}", "--key", "points=1",
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
