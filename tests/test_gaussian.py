import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

from cvq import gaussian as gs
from cvq.numerics import PrecisionWarning

import oracles


def random_physical_cm(rng, n_modes, nu_max=3.0):
    """sigma = S diag(nu) S^T with S = expm(Omega H), H symmetric."""
    h = rng.normal(scale=0.3, size=(2 * n_modes, 2 * n_modes))
    h = (h + h.T) / 2.0
    s = linalg.expm(gs.omega(n_modes) @ h)
    nus = rng.uniform(1.0, nu_max, size=n_modes)
    d = np.repeat(nus, 2)
    return s @ np.diag(d) @ s.T, np.sort(nus)[::-1]


class TestStatesAndChannels:
    def test_vacuum(self):
        v = gs.make_state("vacuum")
        assert np.allclose(v.fm, 0) and np.allclose(v.cm, np.eye(2))

    def test_tmsv_v1_is_two_vacua(self):
        assert np.allclose(gs.make_state("tmsv", V=1.0).cm, np.eye(4))

    def test_thermal_variance(self):
        # quadrature variance 1 + 2 nbar in shot-noise units
        assert np.allclose(gs.make_state("thermal", nbar=1.0).cm, 3 * np.eye(2))

    def test_invalid_modulation(self):
        with pytest.raises(ValueError):
            gs.make_state("tmsv", V=0.5)

    def test_identity_channel(self):
        st0 = gs.make_state("coherent", alpha=0.7 + 0.2j)
        ch = gs.thermal_loss_channel(1.0, 0.0)
        out = gs.apply_channel(st0, ch, modes=[0])
        assert np.allclose(out.fm, st0.fm) and np.allclose(out.cm, st0.cm)

    def test_loss_on_coherent_oracle(self):
        # direct matrix arithmetic: fm -> sqrt(T) fm, cm -> I + (1-T) 2 nbar I
        t, nbar = 0.37, 0.8
        st0 = gs.make_state("coherent", alpha=1.1 - 0.4j)
        out = gs.apply_channel(st0, gs.thermal_loss_channel(t, nbar), modes=[0])
        x = math.sqrt(t) * np.eye(2)
        y = (1 - t) * (1 + 2 * nbar) * np.eye(2)
        assert np.allclose(out.fm, x @ st0.fm)
        assert np.allclose(out.cm, x @ st0.cm @ x.T + y)

    def test_gg02_joint_cm(self):
        v, t, eps = 5.0, 0.5, 0.05
        nbar = t * eps / (2 * (1 - t))
        st0 = gs.make_state("tmsv", V=v)
        out = gs.apply_channel(st0, gs.thermal_loss_channel(t, nbar), modes=[1])
        chi = (1 - t) / t + eps
        z = math.sqrt(v * v - 1)
        sz = np.diag([1.0, -1.0])
        expect = np.block(
            [
                [v * np.eye(2), math.sqrt(t) * z * sz],
                [math.sqrt(t) * z * sz, t * (v + chi) * np.eye(2)],
            ]
        )
        assert np.allclose(out.cm, expect, atol=1e-12)

    def test_dimension_mismatch(self):
        st0 = gs.make_state("vacuum")
        with pytest.raises(ValueError):
            gs.apply_channel(st0, gs.beam_splitter(0.5), modes=[0, 1])

    def test_unitary_kinds_are_symplectic(self):
        for ch in (gs.beam_splitter(0.3), gs.two_mode_squeezer(0.7),
                   gs.phase_shift(1.1), gs.psa_channel(2.0)):
            assert ch.is_unitary()
        assert not gs.thermal_loss_channel(0.5, 0.1).is_unitary()
        assert not gs.pia_channel(2.0).is_unitary()


class TestSymplecticSpectrum:
    def test_identity(self):
        assert np.allclose(gs.symplectic_eigenvalues(np.eye(6)), 1.0)

    def test_tmsv_pure(self):
        nus = gs.symplectic_eigenvalues(gs.make_state("tmsv", V=3.0).cm)
        assert np.allclose(nus, 1.0, atol=1e-10)

    def test_single_mode_closed_form(self):
        assert np.allclose(gs.symplectic_eigenvalues(np.diag([3.0, 3.0])), [3.0])

    def test_two_mode_closed_form_vs_general_on_random_cms(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            cm, nus = random_physical_cm(rng, 2)
            closed = oracles.symplectic_eigenvalues_closed2(cm)
            general = gs.symplectic_eigenvalues(cm)
            assert np.allclose(closed, general, atol=1e-10)
            assert np.allclose(general, nus, atol=1e-9)

    def test_three_modes_uses_eigensolver(self):
        rng = np.random.default_rng(3)
        cm, nus = random_physical_cm(rng, 3)
        assert np.allclose(gs.symplectic_eigenvalues(cm), nus, atol=1e-9)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            gs.symplectic_eigenvalues(np.array([[1.0, 0.2], [0.1, 1.0]]))


class TestEntropy:
    def test_pure_state_zero(self):
        assert gs.entropy_cm(gs.make_state("tmsv", V=4.0).cm) < 1e-9

    def test_thermal_oracle(self):
        # independent oracle: -sum p_n log2 p_n of the geometric law
        nbar = 1.0
        n = np.arange(400)
        p = nbar**n / (1 + nbar) ** (n + 1)
        oracle = float(-np.sum(p * np.log2(p)))
        assert abs(gs.entropy_cm(gs.make_state("thermal", nbar=nbar).cm) - oracle) < 1e-9
        assert abs(oracle - 2.0) < 1e-12

    def test_gg02_closed_form_cross_check(self):
        # n = 2 closed form against the dense eigensolver route
        v, t, eps = 5.0, 0.5, 0.0
        st0 = gs.apply_channel(
            gs.make_state("tmsv", V=v), gs.thermal_loss_channel(t, 0.0), modes=[1]
        )
        nus = gs.symplectic_eigenvalues(st0.cm)
        dense = np.sort(np.abs(np.linalg.eigvals(1j * gs.omega(2) @ st0.cm).real))
        assert np.allclose(np.repeat(np.sort(nus), 2), dense, atol=1e-10)
        s_ab = float(np.sum(gs.h_entropy((nus - 1) / 2)))
        assert abs(gs.entropy_cm(st0.cm) - s_ab) < 1e-12

    def test_unphysical_raises(self):
        with pytest.raises(gs.UnphysicalStateError):
            gs.entropy_cm(0.5 * np.eye(2))

    def test_purity_entropy_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cm, nus = random_physical_cm(rng, 2, nu_max=2.0)
            pure = np.all(np.abs(nus - 1) < 1e-9)
            assert (gs.entropy_cm(cm) < 1e-6) == pure


class TestConditioning:
    def test_product_state_unchanged(self):
        joint = gs.make_state("thermal", nbar=0.5).tensor(
            gs.make_state("coherent", alpha=0.3)
        )
        for quad in (0, 1):
            cond = gs.condition_on_measurement(joint.cm, 1, quad)
            assert np.allclose(cond, 2.0 * np.eye(2))

    def test_tmsv_homodyne_symbolic(self):
        v = 2.7
        cond = gs.condition_on_measurement(gs.make_state("tmsv", V=v).cm, 1)
        assert np.allclose(cond, np.diag([1 / v, v]), atol=1e-12)

    def test_gg02_conditional_matrix(self):
        v, t, eps = 4.0, 0.4, 0.02
        nbar = t * eps / (2 * (1 - t))
        joint = gs.apply_channel(
            gs.make_state("tmsv", V=v), gs.thermal_loss_channel(t, nbar), modes=[1]
        )
        chi = (1 - t) / t + eps
        cond = gs.condition_on_measurement(joint.cm, 1)
        expect = np.diag([v - (v * v - 1) / (v + chi), v])
        assert np.allclose(cond, expect, atol=1e-12)

    @pytest.mark.parametrize("n_modes", [2, 3])
    def test_homodyne_is_finite_z_limit(self, n_modes):
        # the exact Schur limit against sigma_A - C (sigma_B + diag(z, 1/z))^-1 C^T:
        # the gap shrinks linearly in z (a factor 100 from z = 1e-4 to 1e-6)
        rng = np.random.default_rng(11 + n_modes)
        for _ in range(5):
            cm, _ = random_physical_cm(rng, n_modes)
            for mode in range(n_modes):
                for quad in (0, 1):
                    exact = gs.condition_on_measurement(cm, mode, quad)
                    gaps = [
                        np.max(np.abs(oracles.finite_z_homodyne(cm, mode, quad, z) - exact))
                        for z in (1e-4, 1e-6)
                    ]
                    assert gaps[1] < 0.02 * gaps[0] + 1e-9
                    assert gaps[1] < 1e-4

    @pytest.mark.parametrize("mode, quad", [(-1, 0), (2, 0), (1, 2), (1, -1)])
    def test_bad_mode_or_quadrature_rejected(self, mode, quad):
        cm = gs.make_state("tmsv", V=3.0).cm
        with pytest.raises(ValueError, match="measured_mode|quad"):
            gs.condition_on_measurement(cm, mode, quad)

    def test_single_mode_or_odd_shape_rejected(self):
        with pytest.raises(ValueError, match="two modes"):
            gs.condition_on_measurement(np.eye(2), 0)
        with pytest.raises(ValueError, match="2n x 2n"):
            gs.condition_on_measurement(np.eye(5), 0)


class TestMutualInformation:
    def test_zero_coupling(self):
        joint = gs.make_state("thermal", nbar=1.0).tensor(gs.make_state("vacuum"))
        i = gs.gaussian_mutual_information(joint.cm)
        assert abs(i) < 1e-12

    def test_lossless_symbolic(self):
        # V, T = 1, eps = 0, DH x homodyne: I = log2(V)/2
        v = 6.0
        joint = gs.make_state("tmsv", V=v)
        i = gs.gaussian_mutual_information(joint.cm)
        assert abs(i - 0.5 * math.log2(v)) < 1e-12

    def test_gg02_value(self):
        v, t, eps = 5.0, 0.5, 0.05
        nbar = t * eps / (2 * (1 - t))
        joint = gs.apply_channel(
            gs.make_state("tmsv", V=v), gs.thermal_loss_channel(t, nbar), modes=[1]
        )
        i = gs.gaussian_mutual_information(joint.cm)
        assert abs(i - 0.5 * math.log2(1 + t * (v - 1) / (1 + t * eps))) < 1e-12

    def test_requires_two_modes(self):
        with pytest.raises(ValueError, match="2-mode"):
            gs.gaussian_mutual_information(np.eye(6))


class TestFock:
    def test_vacuum(self):
        op = gs.fock_density_matrix(gs.make_state("vacuum"), 6)
        expect = np.zeros((7, 7))
        expect[0, 0] = 1.0
        assert np.allclose(op.matrix, expect, atol=1e-14)

    def test_coherent_poisson_diagonal(self):
        alpha = 0.9 + 0.5j
        a2 = abs(alpha) ** 2
        op = gs.fock_density_matrix(gs.make_state("coherent", alpha=alpha), 30)
        n = np.arange(31)
        expect = np.exp(-a2 + n * np.log(a2) - [math.lgamma(k + 1) for k in n])
        assert np.allclose(np.diag(op.matrix).real, expect, atol=1e-12)

    def test_thermal_geometric(self):
        nbar = 0.7
        op = gs.fock_density_matrix(gs.make_state("thermal", nbar=nbar), 50)
        n = np.arange(51)
        expect = nbar**n / (1 + nbar) ** (n + 1)
        assert np.allclose(np.diag(op.matrix).real, expect, atol=1e-12)

    def test_partial_trace_matches_reduced_cm(self):
        v = 1.9
        st0 = gs.apply_channel(
            gs.make_state("tmsv", V=v), gs.thermal_loss_channel(0.6, 0.2), modes=[1]
        )
        op2 = gs.fock_density_matrix(st0, (14, 14))
        for keep in (0, 1):
            red = op2.partial_trace(keep)
            op1 = gs.fock_density_matrix(st0.reduced([keep]), 14)
            assert np.max(np.abs(red.matrix - op1.matrix)) < 1e-8

    def test_entropy_matches_cm_when_tail_small(self):
        st0 = gs.make_state("thermal", nbar=0.6)
        op = gs.adaptive_fock(st0)
        assert op.tail_mass < 1e-10
        assert abs(op.entropy() - gs.entropy_cm(st0.cm)) < 1e-6

    @pytest.mark.parametrize("nbar", [0.3, 1.0])
    def test_adaptive_fock_silent_when_final_cutoff_converges(self, nbar):
        # the first cutoffs tried keep only 0.999965 (nbar 0.3) and
        # 0.998047, 0.999992 (nbar 1.0) of the state
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            op = gs.adaptive_fock(gs.make_state("thermal", nbar=nbar))
        assert op.tail_mass < 1e-10

    def test_adaptive_fock_warns_at_cap(self):
        with pytest.warns(PrecisionWarning, match="cap 20 reached"):
            op = gs.adaptive_fock(gs.make_state("thermal", nbar=5.0), cap=20)
        assert op.cutoffs == (20,) and op.tail_mass > 1e-10

    def test_displaced_squeezed_hermitian_psd(self):
        st0 = gs.GaussianState(
            np.array([0.8, -0.5]), np.diag([math.exp(1.0), math.exp(-1.0)])
        )
        op = gs.fock_density_matrix(st0, 40)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(op.matrix)) > -1e-9


class TestWigner:
    def test_vacuum_origin(self):
        op = gs.fock_density_matrix(gs.make_state("vacuum"), 8)
        w = gs.wigner(op, np.array([0.0]), np.array([0.0]))
        assert abs(w[0, 0] - 1.0 / (2 * math.pi)) < 1e-12

    def test_single_photon_negative(self):
        rho = np.zeros((6, 6))
        rho[1, 1] = 1.0
        op = gs.FockOperator(rho, (5,))
        w = gs.wigner(op, np.array([0.0]), np.array([0.0]))
        assert w[0, 0] < 0.0

    def test_coherent_peak_location(self):
        alpha = 0.7 - 0.3j
        op = gs.fock_density_matrix(gs.make_state("coherent", alpha=alpha), 25)
        grid = np.linspace(-3, 3, 61)
        w = gs.wigner(op, grid, grid)
        iq, ip = np.unravel_index(np.argmax(w), w.shape)
        assert abs(grid[iq] - 2 * alpha.real) < 0.11
        assert abs(grid[ip] - 2 * alpha.imag) < 0.11

    def test_normalization(self):
        op = gs.fock_density_matrix(gs.make_state("thermal", nbar=0.4), 25)
        grid = np.linspace(-8, 8, 161)
        w = gs.wigner(op, grid, grid)
        step = grid[1] - grid[0]
        assert abs(np.sum(w) * step * step - 1.0) < 1e-3


class TestCapacities:
    def test_zero_signal(self):
        c = gs.classical_capacities(0.0, 0.3)
        assert c["C_SH"] == 0.0 and c["C_DH"] == 0.0 and abs(c["C_H"]) < 1e-12

    def test_shannon_crossing_at_two(self):
        c = gs.classical_capacities(2.0, 0.0)
        assert abs(c["C_SH"] - c["C_DH"]) < 1e-12

    def test_holevo_nat_gap(self):
        c = gs.classical_capacities(100.0, 0.0)
        gap = c["C_H"] - c["C_DH"]
        assert abs(gap - math.log2(math.e)) < 0.05 * math.log2(math.e)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        t=st.floats(0.05, 1.0),
        nbar=st.floats(0.0, 3.0),
        v=st.floats(1.0, 20.0),
    )
    def test_channel_preserves_physicality(self, t, nbar, v):
        st0 = gs.apply_channel(
            gs.make_state("tmsv", V=v), gs.thermal_loss_channel(t, nbar), modes=[1]
        )
        assert gs.is_physical(st0.cm)
        assert np.min(gs.symplectic_eigenvalues(st0.cm)) >= 1.0 - 1e-9

    @settings(max_examples=20, deadline=None)
    @given(x=st.floats(0.0, 50.0))
    def test_h_entropy_nonnegative_monotone(self, x):
        assert gs.h_entropy(x) >= 0.0
        assert gs.h_entropy(x + 0.5) > gs.h_entropy(x)
