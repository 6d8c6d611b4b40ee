import math

import numpy as np
import pytest

from cvq import kor, numerics, qkd
from cvq.numerics import (
    bisect_root,
    golden_min,
    hermitian_sqrt,
    maximize_scalar,
    minimize_bounded,
    pointwise,
    simpson_integral,
    simpson_weights,
)


# the seeding grid and Nelder-Mead tolerances used throughout these tests
NM = (21, 1e-9, 1e-12)


class TestMinimizeBounded:
    def test_quadratic(self):
        x, f = minimize_bounded(lambda v: (v[..., 0] - 0.3) ** 2, [(0.0, 1.0)], *NM)
        assert abs(x[0] - 0.3) < 1e-6
        assert f < 1e-12

    def test_rosenbrock(self):
        def rosen(v):
            return (1 - v[..., 0]) ** 2 + 100.0 * (v[..., 1] - v[..., 0] ** 2) ** 2

        x, f = minimize_bounded(rosen, [(-2.0, 2.0), (-2.0, 2.0)], *NM)
        assert f < 1e-8
        assert np.allclose(x, [1.0, 1.0], atol=1e-3)

    def test_constant_returns_center(self):
        x, _ = minimize_bounded(pointwise(lambda v: 7.0, 1), [(0.0, 2.0), (-1.0, 3.0)], *NM)
        assert np.allclose(x, [1.0, 1.0])

    def test_nan_aborts_with_location(self):
        with pytest.raises(FloatingPointError, match="NaN"):
            minimize_bounded(pointwise(lambda v: float("nan"), 1), [(0.0, 1.0)], *NM)

    def test_deterministic(self):
        def f(v):
            return math.sin(5 * v[0]) + (v[0] - 0.4) ** 2

        a = minimize_bounded(pointwise(f, 1), [(0.0, 1.0)], *NM)
        b = minimize_bounded(pointwise(f, 1), [(0.0, 1.0)], *NM)
        assert a[0].tolist() == b[0].tolist() and a[1] == b[1]

    @pytest.mark.parametrize("xtol, ftol", [(0.0, 1e-12), (1e-9, -1e-12)])
    def test_rejects_nonpositive_tolerances(self, xtol, ftol):
        with pytest.raises(ValueError, match="tolerances"):
            minimize_bounded(lambda v: v[0] ** 2, [(0.0, 1.0)], 21, xtol, ftol)


class TestMaximizeScalar:
    def test_interior_maximum_within_tol(self):
        # x exp(-x) peaks at x = 1, off the grid and asymmetric in log x
        x, fx = maximize_scalar(pointwise(lambda x: x * math.exp(-x)), (1e-2, 50.0), 25, 1e-6)
        assert abs(math.log(x)) <= 1e-6
        assert fx == x * math.exp(-x)

    @pytest.mark.parametrize("sign, end", [(-1.0, 0.1), (1.0, 10.0)])
    def test_box_end_maximum(self, sign, end):
        x, fx = maximize_scalar(lambda x: sign * x, (0.1, 10.0), 9, 1e-7)
        assert x == end and fx == sign * end

    def test_one_golden_call_and_evaluation_budget(self, monkeypatch):
        golden_evals = []

        def spy(f, a, b, tol):
            count = [0]

            def counted(u):
                count[0] += 1
                return f(u)

            out = golden_min(counted, a, b, tol=tol)
            golden_evals.append(count[0])
            return out

        monkeypatch.setattr(numerics, "golden_min", spy)
        evals = [0]

        def f(x):
            evals[0] += np.size(x)  # a grid point counts as one evaluation
            return -((np.log(x) - 0.3) ** 2)

        maximize_scalar(f, (0.01, 100.0), 17, 1e-6)
        assert len(golden_evals) == 1
        assert evals[0] == 17 + golden_evals[0]

    @pytest.mark.parametrize("box", [(0.0, 1.0), (2.0, 1.0), (1.0, math.inf)])
    def test_rejects_bad_box(self, box):
        with pytest.raises(ValueError, match="box"):
            maximize_scalar(lambda x: x, box, 9, 1e-6)


class TestRoots:
    def test_linear(self):
        assert abs(bisect_root(lambda x: x - 0.5, 0.0, 1.0) - 0.5) < 1e-10

    def test_no_bracket(self):
        with pytest.raises(ValueError, match="no sign change"):
            bisect_root(lambda x: x + 2.0, 0.0, 1.0)

    def test_improved_kennedy_vs_fixed_point(self):
        # stationarity (b - a)/(b + a) = exp(-4 a b): fixed-point oracle
        a = 0.35

        def gap(b):
            return (b - a) / (b + a) - math.exp(-4.0 * a * b)

        root = bisect_root(gap, a, a + 5.0, tol=1e-12)
        b = a + 1.0
        for _ in range(400):
            b = a * (1.0 + math.exp(-4.0 * a * b)) / (1.0 - math.exp(-4.0 * a * b))
        assert abs(root - b) < 1e-8


class TestQuadrature:
    def test_normal_density_integrates_to_one(self):
        val, _ = simpson_integral(
            lambda x: np.exp(-(x**2) / 2) / math.sqrt(2 * math.pi), -10, 10
        )
        assert abs(val - 1.0) < 1e-12

    def test_simpson_refinement_order(self):
        f = lambda x: np.sin(x) ** 2 * np.exp(-x)

        def plain(n):  # composite Simpson without the Richardson step
            h = 3.0 / (n - 1)
            return float(simpson_weights(n) @ f(np.linspace(0.0, 3.0, n))) * h / 3.0

        coarse, fine = plain(21), plain(41)
        best, _ = simpson_integral(f, 0.0, 3.0, n_points=2001)
        # halving the step shrinks the error by about 2^4
        assert abs(fine - best) < abs(coarse - best) / 12.0

    def test_simpson_weights_integrate_cubic_exactly(self):
        xs = np.linspace(-1.0, 2.0, 7)
        cubic = 2.0 * xs**3 - xs**2 + 3.0
        val = np.sum(simpson_weights(7) * cubic) * (xs[1] - xs[0]) / 3.0
        assert abs(val - 13.5) < 1e-13  # [x^4/2 - x^3/3 + 3x] from -1 to 2

    @pytest.mark.parametrize("n", [1, 4])
    def test_simpson_weights_reject_bad_count(self, n):
        with pytest.raises(ValueError, match="odd"):
            simpson_weights(n)

    @pytest.mark.parametrize("call", [
        lambda: simpson_integral(np.exp, 0.0, 1.0, n_points=20),
        lambda: qkd.wiretap_qpsk_kgr(qkd.ChannelParams(0.5), 0.95, "pure",
                                     alpha2=0.4, n_nodes=100),
        lambda: kor.dh_rate(0.5, 0.95, alpha2=0.4, n_nodes=100),
    ], ids=["simpson_integral", "wiretap_qpsk_kgr", "dh_rate"])
    def test_even_node_count_raises(self, call):
        with pytest.raises(ValueError, match="odd"):
            call()


class TestHermitianSqrt:
    def test_square_recovers_input(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        sq, clipped = hermitian_sqrt(rho)
        assert clipped == 0.0
        assert np.linalg.norm(sq @ sq - rho) < 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            hermitian_sqrt(np.diag([1.0, -0.5]))
