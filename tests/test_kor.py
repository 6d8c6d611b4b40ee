import math

import numpy as np
import pytest

from cvq import gaussian as gs
from cvq import kor, mary, qkd

import oracles

BETA = 0.95


def t_of(d):
    return 10.0 ** (-0.2 * d / 10.0)


class TestKorRate:
    def test_lossless_channel_no_leak(self):
        r = kor.kor_rate(0.5, np.zeros(4), 1.0 - 1e-12, BETA)
        assert r["chi_BE"] < 1e-9
        assert abs(r["K"] - BETA * r["I_AB"]) < 1e-9

    def test_outcome_probabilities_normalized(self):
        r = kor.kor_rate(0.8, [0, 1.0, 2.0, 3.0], 0.4, BETA)
        assert np.allclose(r["cond_probs"].sum(axis=1), 1.0, atol=1e-12)
        assert r["p_inconclusive"] < 1e-12

    def test_mutual_information_capped_at_two_bits(self):
        for a2 in (0.1, 1.0, 4.0):
            r = kor.kor_rate(a2, np.zeros(4), 0.9, BETA)
            assert r["I_AB"] <= 2.0 + 1e-12

    def test_low_energy_rate_matches_series_spectrum(self, monkeypatch):
        # at 200 km the smallest Gram eigenvalue is ~5e-15 of the largest
        args = (0.3, [0.0, math.pi, math.pi, 0.0], t_of(200.0), BETA)
        k = kor.kor_rate(*args)["K"]
        monkeypatch.setattr(mary, "gram_eigenvalues",
                            lambda m, e: m * oracles.psk_mixture_eigenvalues(m, e))
        assert abs(k / kor.kor_rate(*args)["K"] - 1.0) < 1e-10

    def test_eve_conditional_spectra_normalized(self):
        t, a2 = 0.5, 0.7
        cond = kor._cond_probs_batch(a2, t, np.zeros((1, 4)))[0]
        gram = qkd.coherent_overlap_matrix(
            math.sqrt(1 - t) * kor._qpsk_amps(a2)
        )
        p_b = cond.mean(axis=0)
        for j in range(4):
            w = cond[:, j] / (4 * p_b[j])
            sq = np.sqrt(w)
            h = sq[:, None] * gram * sq[None, :]
            ev = np.linalg.eigvalsh(h)
            assert abs(ev.sum() - 1.0) < 1e-10


class TestOptimizeKor:
    def test_kor_never_below_pgm(self):
        for d in (5.0, 30.0, 80.0):
            t = t_of(d)
            rp = kor.optimize_kor(t, BETA, mode="PGM")
            rk = kor.optimize_kor(t, BETA, mode="KOR", lattice=8)
            assert rk.K >= rp.K - 1e-9

    def test_short_distance_reduces_to_pgm(self):
        r = kor.optimize_kor(t_of(5.0), BETA, mode="KOR", lattice=8)
        assert kor.matches_phase_tuple(r.params["phases"], [0, 0, 0, 0], tol=0.05)

    def test_metropolitan_phase_plateau(self):
        target = [0.0, math.pi / 2, math.pi, math.pi / 2]
        canon = set()
        for d in (25.0, 40.0, 60.0):
            r = kor.optimize_kor(t_of(d), BETA, mode="KOR")
            assert kor.matches_phase_tuple(r.params["phases"], target, tol=0.05)
            canon.add(tuple(np.round(kor.canonical_phases(r.params["phases"]), 3)))
        assert len(canon) == 1  # distance independent

    def test_argmax_certificate(self):
        rng = np.random.default_rng(31)
        t = t_of(30.0)
        rk = kor.optimize_kor(t, BETA, mode="KOR")
        a2 = rk.params["alpha2"]
        draws = np.concatenate(
            [np.zeros((200, 1)), rng.uniform(0, 2 * np.pi, (200, 3))], axis=1
        )
        cond = kor._cond_probs_batch(a2, t, draws)
        ks, _, _ = kor._rates_from_cond(cond, a2, t, BETA)
        assert np.all(ks <= rk.K + 1e-9)

    def test_bad_mode_raises_before_any_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("receiver statistics computed before mode check")

        monkeypatch.setattr(kor, "_cond_probs_batch", no_search)
        with pytest.raises(ValueError, match="mode"):
            kor.optimize_kor(t_of(30.0), BETA, mode="kor")


class TestDhRate:
    def test_positive_and_decomposed(self):
        r = kor.dh_rate(t_of(30.0), BETA)
        assert r.K > 0 and r.check_decomposition(1e-12)

    def test_node_refinement_stable(self):
        a = kor.dh_rate(t_of(30.0), BETA, alpha2=0.6, n_nodes=151).K
        b = kor.dh_rate(t_of(30.0), BETA, alpha2=0.6, n_nodes=301).K
        assert abs(a - b) < 2e-5

    @pytest.mark.parametrize("d, a2", [(1.0, 3.1), (30.8, 0.6), (150.0, 0.48),
                                       (150.0, 0.01)])
    def test_mutual_information_matches_full_plane_oracle(self, d, a2):
        t = t_of(d)
        amps = 2.0 * math.sqrt(t) * kor._qpsk_amps(a2)
        ref = oracles.double_homodyne_mi(np.stack([amps.real, amps.imag], axis=1), 2.0)
        assert abs(kor.dh_rate(t, BETA, alpha2=a2, n_nodes=101).I_AB - ref) < 2e-12


class TestQdffreRate:
    def test_short_distance_beats_dh(self):
        t = t_of(10.0)
        rq = kor.qdffre_rate(t, BETA, 32)
        rdh = kor.dh_rate(t, BETA)
        assert rq.K > rdh.K

    def test_long_distance_saturates_below_dh(self):
        t = t_of(60.0)
        rq = kor.qdffre_rate(t, BETA, 32)
        rdh = kor.dh_rate(t, BETA)
        assert rq.K <= rdh.K


class TestMeasurementVector:
    def test_unit_norm(self):
        vec = kor.measurement_vector_fock([0, math.pi / 2, math.pi, math.pi / 2], 1.0,
                                          t_of(30.0))
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-8

    def test_povm_orthonormality_oracle(self):
        # <mu_j|mu_k> = delta_jk through explicit Fock inner products
        t, a2 = t_of(30.0), 1.0
        rec = mary.gus_receiver(4, t * a2, np.array([0, math.pi / 2, math.pi,
                                                     math.pi / 2]))
        amps = math.sqrt(t) * kor._qpsk_amps(a2)
        vecs = gs.coherent_fock_vector(amps, 48)
        mus = rec.a_mat.T @ vecs
        assert np.max(np.abs(mus.conj() @ mus.T - np.eye(4))) < 1e-8

    def test_wigner_negativity_both_receivers(self):
        grid = np.linspace(-4, 4, 41)
        for phases in ([0, 0, 0, 0], [0, math.pi / 2, math.pi, math.pi / 2]):
            w = kor.measurement_wigner(phases, 1.0, t_of(30.0), grid, grid)
            assert w.min() < -1e-4


class TestPhaseGauge:
    def test_orbit_preserves_rate(self):
        t, a2 = t_of(35.0), 0.6
        base = kor.kor_rate(a2, [0, 0.7, 2.1, 4.4], t, BETA)["K"]
        for rep in kor.phase_orbit([0, 0.7, 2.1, 4.4]):
            assert abs(kor.kor_rate(a2, rep, t, BETA)["K"] - base) < 1e-9

    def test_canonical_idempotent(self):
        ph = [0, 1.0, 2.0, 3.0]
        c1 = kor.canonical_phases(ph)
        assert np.allclose(kor.canonical_phases(c1), c1, atol=1e-9)
