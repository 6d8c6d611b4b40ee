"""Stacked Gaussian kernels and one-call seeding grids.

Every kernel that accepts a stack (..., 2n, 2n) must return exactly what
a loop of 2-D calls returns, bit for bit, because an optimizer compares
its grid values (one stacked call) with its polish values (one call per
point).  The stacks below are the CMs of the gg02, trusted-QPSK and
multi-span seeding grids.
"""

import math

import numpy as np
import pytest
from scipy import linalg

from cvq import amplifiers as amp
from cvq import gaussian as gs
from cvq import numerics, qkd

import oracles

CH = qkd.ChannelParams.from_distance(30.0, 0.02)
LOG_GRID = np.exp(np.linspace(math.log(1.01), math.log(250.0), 41))


def _gg02_stack():
    v = LOG_GRID
    return qkd._two_mode_cm(v, CH.T, CH.chi, np.sqrt(v * v - 1.0))


def _trusted_stack(tag="tL;tN"):
    a2 = np.exp(np.linspace(math.log(1e-3), math.log(4.0), 25))
    keep = {"tL;tN": 8, "tL;uN": 6, "uL;uN": 4}[tag]
    cm = qkd._trusted_cm(a2, CH, qkd.TrustScenario(tag, eta=0.7, eps_d=0.01))
    return cm[..., :keep, :keep]


def _multispan_grid(kind):
    """(link with an array gain, V) on the 15 x 15 grid of _optimize_v_gain."""
    u, frac = np.meshgrid(np.linspace(math.log(0.02), math.log(150.0), 15),
                          np.linspace(0.0, 1.0, 15), indexing="ij")
    v = 1.0 + np.exp(u.ravel())
    link = amp.SpanLink(5, 80.0, 0.05, kind=kind)
    gain = 1.0 + (np.maximum(amp.gain_cap(link, v), 1.0) - 1.0) * frac.ravel()
    return amp.SpanLink(5, 80.0, 0.05, gain, kind), v


def _scalar_link(link, i):
    return amp.SpanLink(link.m_spans, link.d_km, link.eps, float(link.gain[i]),
                        link.kind, link.kappa)


STACKS = {
    "gg02 4x4": _gg02_stack,
    "multispan 4x4": lambda: amp.span_link_cm(*_multispan_grid("psa")),
    "trusted 6x6": lambda: _trusted_stack("tL;uN"),
    "trusted 8x8": _trusted_stack,
    "conditional 8x8": lambda: amp._conditional_cms(*_multispan_grid("pia"), 2),
}


def _loop(kernel, stack):
    return np.array([kernel(cm) for cm in stack])


@pytest.mark.parametrize("name", list(STACKS))
class TestStackedKernelsEqualLoop:
    def test_symplectic_eigenvalues(self, name):
        stack = STACKS[name]()
        assert np.array_equal(gs.symplectic_eigenvalues(stack),
                              _loop(gs.symplectic_eigenvalues, stack))

    def test_entropy(self, name):
        stack = STACKS[name]()
        assert np.array_equal(gs.entropy_cm(stack), _loop(gs.entropy_cm, stack))

    def test_conditioning(self, name):
        stack = STACKS[name]()
        for quad in (0, 1):
            got = gs.condition_on_measurement(stack, 1, quad)
            assert np.array_equal(
                got, _loop(lambda cm: gs.condition_on_measurement(cm, 1, quad), stack)
            )

    def test_holevo(self, name):
        stack = STACKS[name]()
        for quad in (0, 1):
            got = qkd.holevo_from_cm(stack, quad=quad)
            assert np.array_equal(
                got, _loop(lambda cm: qkd.holevo_from_cm(cm, quad=quad), stack)
            )

    def test_mutual_information(self, name):
        stack = STACKS[name]()[..., :4, :4]
        for quad in (0, 1):
            got = gs.gaussian_mutual_information(stack, quad)
            assert np.array_equal(
                got, _loop(lambda cm: gs.gaussian_mutual_information(cm, quad), stack)
            )


class TestStackedBuildersEqualLoop:
    def test_two_mode_cm(self):
        v = LOG_GRID
        z = np.sqrt(v * v - 1.0)
        loop = [qkd._two_mode_cm(float(a), CH.T, CH.chi, float(b)) for a, b in zip(v, z)]
        assert np.array_equal(qkd._two_mode_cm(v, CH.T, CH.chi, z), loop)

    @pytest.mark.parametrize("tag", ["uL;uN", "tL;uN", "tL;tN"])
    def test_trusted_cm(self, tag):
        sc = qkd.TrustScenario(tag, eta=0.7, eps_d=0.01)
        a2 = np.exp(np.linspace(math.log(1e-3), math.log(4.0), 25))
        loop = [qkd._trusted_cm(float(x), CH, sc) for x in a2]
        assert np.array_equal(qkd._trusted_cm(a2, CH, sc), loop)

    @pytest.mark.parametrize("kind", ["pia", "psa"])
    def test_span_link_cm(self, kind):
        link, v = _multispan_grid(kind)
        loop = [amp.span_link_cm(_scalar_link(link, i), float(v[i])) for i in range(v.size)]
        assert np.array_equal(amp.span_link_cm(link, v), loop)

    @pytest.mark.parametrize("kind", ["pia", "psa"])
    @pytest.mark.parametrize("k_span", [1, 3, 5])
    def test_conditional_cms(self, kind, k_span):
        link, v = _multispan_grid(kind)
        loop = [amp._conditional_cms(_scalar_link(link, i), float(v[i]), k_span)
                for i in range(v.size)]
        assert np.array_equal(amp._conditional_cms(link, v, k_span), loop)

    def test_scalar_gain_with_array_v(self):
        link = amp.SpanLink(5, 80.0, 0.05, 1.3, "pia")
        v = LOG_GRID
        loop = [amp._conditional_cms(link, float(x), 2) for x in v]
        assert np.array_equal(amp._conditional_cms(link, v, 2), loop)

    def test_array_gain_below_one_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            amp.SpanLink(5, 80.0, 0.05, np.array([1.2, 0.9]), "pia")


class TestStackedChecksNameTheSlice:
    def _stack(self):
        return _gg02_stack()[:6].copy()

    def test_asymmetric_slice(self):
        stack = self._stack()
        stack[3, 0, 2] += 1e-3
        for kernel in (gs.symplectic_eigenvalues, gs.entropy_cm, qkd.holevo_from_cm):
            with pytest.raises(ValueError, match=r"symmetric \(stack index 3\)"):
                kernel(stack)

    def test_non_psd_slice(self):
        stack = self._stack()
        stack[4] = np.diag([2.0, 2.0, -0.5, 2.0])
        with pytest.raises(ValueError, match=r"positive semidefinite \(stack index 4\)"):
            gs.entropy_cm(stack)

    def test_unphysical_slice(self):
        stack = self._stack()
        stack[2] = 0.5 * np.eye(4)
        with pytest.raises(gs.UnphysicalStateError, match=r"stack index 2"):
            gs.entropy_cm(stack)
        with pytest.raises(gs.UnphysicalStateError, match=r"stack index 2"):
            qkd.holevo_from_cm(stack)

    def test_two_axis_stack_index(self):
        stack = np.broadcast_to(np.eye(4), (2, 3, 4, 4)).copy()
        stack[1, 2] = 0.5 * np.eye(4)
        with pytest.raises(gs.UnphysicalStateError, match=r"stack index \(1, 2\)"):
            gs.entropy_cm(stack)

    def test_non_positive_determinant_slice(self):
        stack = self._stack()
        stack[5, :2, :2] = np.diag([-3.0, 2.0])
        with pytest.raises(ValueError, match=r"determinant argument \(stack index 5\)"):
            gs.gaussian_mutual_information(stack)

    def test_single_matrix_message_unchanged(self):
        with pytest.raises(ValueError, match=r"^cm must be symmetric$"):
            gs.symplectic_eigenvalues(np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_single_matrix_returns_float(self):
        assert isinstance(gs.entropy_cm(np.eye(4)), float)
        assert isinstance(qkd.holevo_from_cm(_gg02_stack()[7]), float)


class TestClosedFormOracle:
    def test_stacked_two_mode_spectra(self):
        """Away from degeneracy the Delta/I4 closed form is an independent oracle."""
        rng = np.random.default_rng(7)
        stack, expected = [], []
        for _ in range(200):
            nus = np.array([rng.uniform(2.0, 4.0), rng.uniform(1.0, 1.6)])
            h = rng.normal(scale=0.3, size=(4, 4))
            s = linalg.expm(gs.omega(2) @ (h + h.T) / 2.0)
            stack.append(s @ np.diag(np.repeat(nus, 2)) @ s.T)
            expected.append(nus)
        stack = np.array(stack)
        got = gs.symplectic_eigenvalues(stack)
        closed = _loop(oracles.symplectic_eigenvalues_closed2, stack)
        assert np.allclose(got, closed, rtol=0.0, atol=1e-10)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-9)


class TestOmega:
    def test_read_only_and_cached(self):
        om = gs.omega(2)
        assert om is gs.omega(2)
        with pytest.raises(ValueError, match="read-only"):
            om[0, 1] = 2.0
        assert np.array_equal(om, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])

    def test_physicality_checks_still_work(self):
        assert gs.is_physical(np.eye(4))
        assert not gs.is_physical(0.5 * np.eye(4))
        gs.thermal_loss_channel(0.4, 0.2)
        gs.beam_splitter(0.3)
        with pytest.raises(ValueError, match="CP"):
            gs.GaussianChannel(2.0 * np.eye(2), np.zeros((2, 2)))


class TestOneCallGrids:
    def test_maximize_scalar_grid_is_one_call(self):
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return -((np.log(x) - 0.3) ** 2)

        numerics.maximize_scalar(f, (0.01, 100.0), 17, 1e-6)
        assert calls[0] == (17,)
        assert all(shape == () for shape in calls[1:])

    def test_minimize_bounded_grid_is_one_call(self):
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return np.sum((x - 0.3) ** 2, axis=-1)

        numerics.minimize_bounded(f, [(0.0, 1.0), (-1.0, 1.0)], 9, 1e-9, 1e-12)
        assert calls[0] == (81, 2)
        assert all(shape == (2,) for shape in calls[1:])

    @pytest.mark.parametrize("optimizer, box", [
        (numerics.maximize_scalar, (0.1, 1.0)),
        (lambda f, box, n, tol: numerics.minimize_bounded(f, [box], n, tol, tol), (0.0, 1.0)),
    ], ids=["maximize_scalar", "minimize_bounded"])
    def test_grid_must_return_one_value_per_point(self, optimizer, box):
        with pytest.raises(ValueError, match="grid points"):
            optimizer(lambda x: 1.0, box, 9, 1e-6)

    def test_pointwise_keeps_scalar_rounding(self):
        x = np.linspace(-3.0, 3.0, 1001)
        lifted = numerics.pointwise(math.exp)(x)
        assert np.array_equal(lifted, [math.exp(v) for v in x])
        assert numerics.pointwise(math.exp)(0.5) == math.exp(0.5)

    def test_pointwise_tuple_and_point_axes(self):
        f = numerics.pointwise(lambda p: (p[0] + p[1], p[0] * p[1]), 1)
        s, prod = f(np.arange(12.0).reshape(2, 3, 2))
        assert s.shape == prod.shape == (2, 3)
        assert s[1, 2] == 21.0 and prod[1, 2] == 110.0
        assert f(np.array([2.0, 3.0])) == (5.0, 6.0)


def _checked(optimizer, point_ndim):
    """``optimizer`` whose grid values are checked against scalar calls."""
    def run(f, *args, **kwargs):
        def checked(x):
            out = f(x)
            if np.ndim(x) > point_ndim:
                pts = np.reshape(x, (-1,) + np.shape(x)[np.ndim(x) - point_ndim:])
                scalar = np.array([f(p) for p in pts])
                assert np.array_equal(np.ravel(out), scalar)
            return out

        return optimizer(checked, *args, **kwargs)

    return run


class TestGridValuesEqualScalarCalls:
    """The real rate objectives: a grid value is bitwise its scalar call."""

    def test_gg02_and_trusted(self, monkeypatch):
        monkeypatch.setattr(qkd, "maximize_scalar", _checked(numerics.maximize_scalar, 0))
        qkd.gg02_kgr(CH, 0.95)
        for tag in ("uL;uN", "tL;uN", "tL;tN"):
            qkd.trusted_qpsk_kgr(CH, 0.95, qkd.TrustScenario(tag, eta=0.7, eps_d=0.01))

    def test_multispan(self, monkeypatch):
        monkeypatch.setattr(amp, "minimize_bounded", _checked(numerics.minimize_bounded, 1))
        amp.multispan_kgr_unconditional(amp.SpanLink(5, 60.0, 0.05, kind="psa"), 0.95, "IIb")
        amp.multispan_kgr_conditional(amp.SpanLink(3, 60.0, 0.05, kind="pia"), 0.95, 2)


def _counting(monkeypatch, module, name):
    """Count the CMs (stack slices) that ``module.name`` receives."""
    orig = getattr(module, name)
    seen = [0]

    def spy(cm, *args, **kwargs):
        seen[0] += int(np.prod(np.shape(cm)[:-2]))
        return orig(cm, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


# Points each rate objective evaluates (grid points count one each).  The
# gg02 and trusted counts date from before the seeding grids became one
# call; the multi-span counts are those of one seeding grid and one
# Nelder-Mead polish.
EVALUATION_COUNTS = [
    ("gg02", qkd, "holevo_from_cm", 76,
     lambda: qkd.gg02_kgr(qkd.ChannelParams.from_distance(50.0, 0.01), 0.95)),
    ("trusted", qkd, "holevo_from_cm", 55,
     lambda: qkd.trusted_qpsk_kgr(qkd.ChannelParams.from_distance(30.0, 0.01), 0.95,
                                  qkd.TrustScenario("tL;uN", 0.6, 0.02))),
    ("conditional", gs, "gaussian_mutual_information", 407,
     lambda: amp.multispan_kgr_conditional(amp.SpanLink(1, 60.0, 0.05, kind="pia"),
                                           0.95, 1)),
    ("unconditional", gs, "gaussian_mutual_information", 409,
     lambda: amp.multispan_kgr_unconditional(amp.SpanLink(5, 60.0, 0.05, kind="psa"),
                                             0.95, "IIb")),
]


@pytest.mark.parametrize("module, name, expected, run",
                         [case[1:] for case in EVALUATION_COUNTS],
                         ids=[case[0] for case in EVALUATION_COUNTS])
def test_evaluation_counts_unchanged(monkeypatch, module, name, expected, run):
    seen = _counting(monkeypatch, module, name)
    run()
    assert seen[0] == expected
