import math

import numpy as np
import pytest
from scipy import special

from cvq import mary
from cvq.numerics import bisect_root

import oracles


class TestGram:
    def test_zero_energy(self):
        g, ev = mary.psk_gram(4, 0.0)
        assert np.allclose(g, np.ones((4, 4)))
        assert sorted(ev.tolist(), reverse=True) == [4.0, 0.0, 0.0, 0.0]

    def test_orthogonal_limit(self):
        g, _ = mary.psk_gram(4, 60.0)
        assert np.allclose(g, np.eye(4), atol=1e-20)

    def test_circulant_hermitian_psd(self):
        g, _ = mary.psk_gram(8, 1.2)
        assert np.allclose(g, g.conj().T)
        assert np.min(np.linalg.eigvalsh(g)) > -1e-12
        first = g[:, 0]
        for k in range(8):
            assert np.allclose(np.roll(first, k), g[:, k])

    def test_qpsk_eigenvalue_closed_forms(self):
        a2 = 1.3
        _, ev = mary.psk_gram(4, a2)
        e = 2 * math.exp(-a2)
        expect = [
            e * (math.cosh(a2) + math.cos(a2)),
            e * (math.sinh(a2) + math.sin(a2)),
            e * (math.cosh(a2) - math.cos(a2)),
            e * (math.sinh(a2) - math.sin(a2)),
        ]
        assert np.allclose(ev, expect, atol=1e-12)

    def test_dft_matches_dense_eigensolver(self):
        for m, a2 in ((4, 0.8), (8, 2.1)):
            g, ev = mary.psk_gram(m, a2)
            dense = np.sort(np.linalg.eigvalsh(g))
            assert np.max(np.abs(np.sort(ev) - dense)) < 1e-10
            u = mary.dft_eigenvectors(m)
            assert np.max(np.abs(u.conj().T @ g @ u - np.diag(ev))) < 1e-10


class TestPskSpectrum:
    @pytest.mark.parametrize("energy", [1e-4, 1e-3, 5e-3])
    def test_small_energy_matches_series_oracle(self, energy):
        lam = mary.gram_eigenvalues(4, energy) / 4
        oracle = oracles.psk_mixture_eigenvalues(4, energy)
        assert np.max(np.abs(lam / oracle - 1.0)) < 1e-13

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_zero_energy_exact(self, m):
        expect = np.zeros(m)
        expect[0] = m
        assert np.array_equal(mary.gram_eigenvalues(m, 0.0), expect)

    def test_negative_energy_raises(self):
        with pytest.raises(ValueError, match="energy"):
            mary.psk_log_eigenvalues(4, -1e-9)

    def test_log_sum_exp_is_scipy_bitwise(self):
        for m in (2, 4, 8, 16):
            for energy in np.geomspace(1e-6, 60.0, 50):
                n_terms = max(8, math.ceil((4.0 * energy + 40.0) / m))
                idx = np.arange(n_terms)[None, :] * m + np.arange(m)[:, None]
                logs = idx * math.log(energy) - special.gammaln(idx + 1.0)
                expect = -energy + special.logsumexp(logs, axis=-1)
                assert np.array_equal(mary.psk_log_eigenvalues(m, energy), expect)


class TestGusReceiver:
    def test_identities_on_random_phases(self):
        rng = np.random.default_rng(9)
        g, _ = mary.psk_gram(4, 0.9)
        ginv = np.linalg.inv(g)
        for _ in range(100):
            ph = np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, 3)])
            rec = mary.gus_receiver(4, 0.9, ph)
            assert np.max(np.abs(rec.a_mat @ rec.a_mat.conj().T - ginv)) < 1e-10
            assert np.max(np.abs(rec.b_mat.conj().T @ rec.b_mat - g)) < 1e-10
            assert np.allclose(rec.cond_probs.sum(axis=1), 1.0, atol=1e-10)

    def test_zero_phases_reach_pgm(self):
        rec = mary.gus_receiver(4, 0.7, np.zeros(4))
        pc = float(np.mean(np.diag(rec.cond_probs)))
        assert abs(pc - (1.0 - mary.pgm_error(4, 0.7))) < 1e-12

    def test_correct_probability_formula(self):
        ph = np.array([0.0, 0.9, 2.5, 4.0])
        rec = mary.gus_receiver(4, 1.1, ph)
        ev = mary.gram_eigenvalues(4, 1.1)
        pred = abs(np.sum(np.exp(-1j * ph) * np.sqrt(ev)) / 4.0) ** 2
        assert abs(rec.cond_probs[0, 0] - pred) < 1e-12

    def test_pgm_maximizes_correct_probability(self):
        rng = np.random.default_rng(21)
        best = 1.0 - mary.pgm_error(4, 0.9)
        for _ in range(120):
            ph = np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, 3)])
            rec = mary.gus_receiver(4, 0.9, ph)
            assert float(np.mean(np.diag(rec.cond_probs))) <= best + 1e-9


class TestPgmError:
    def test_blind_guess(self):
        assert mary.pgm_error(4, 0.0) == 0.75

    def test_against_dense_sqrt_oracle(self):
        for a2 in (0.2, 1.0, 3.3):
            g, _ = mary.psk_gram(4, a2)
            w, v = np.linalg.eigh(g)
            gs = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
            oracle = 1.0 - abs(gs[0, 0]) ** 2
            assert abs(mary.pgm_error(4, a2) - oracle) < 1e-10

    def test_high_energy_asymptote(self):
        a2 = 4.0
        assert abs(mary.pgm_error(4, a2) / (math.exp(-2 * a2) / 2) - 1) < 0.05


class TestQpskSql:
    def test_blind_guess(self):
        assert mary.qpsk_sql(0.0) == 0.75

    def test_closed_form(self):
        a2 = 2.0
        expect = 1 - 0.25 * (1 + math.erf(math.sqrt(a2 / 2))) ** 2
        assert abs(mary.qpsk_sql(a2) - expect) < 1e-15

    def test_asymptote(self):
        a2 = 9.0
        approx = math.sqrt(2 / (math.pi * a2)) * math.exp(-a2 / 2)
        assert abs(mary.qpsk_sql(a2) / approx - 1) < 0.10


class TestBondurant:
    def test_blind_guess(self):
        assert abs(mary.bondurant(0.0, "I") - 0.75) < 1e-15
        assert abs(mary.bondurant(0.0, "II") - 0.75) < 1e-15

    def test_sql_crossings(self):
        f1 = lambda a2: mary.bondurant(a2, "I") - mary.qpsk_sql(a2)
        f2 = lambda a2: mary.bondurant(a2, "II") - mary.qpsk_sql(a2)
        assert abs(bisect_root(f1, 0.3, 1.2) - 0.68) <= 0.03
        assert abs(bisect_root(f2, 0.1, 0.8) - 0.35) <= 0.03

    def test_type_two_near_optimal(self):
        a2 = 5.0
        ratio = mary.bondurant(a2, "II") / mary.pgm_error(4, a2)
        assert abs(ratio - 4.0) < 0.03 * 4.0

    def test_type_two_beats_type_one(self):
        for a2 in (0.5, 2.0, 5.0):
            assert mary.bondurant(a2, "II") <= mary.bondurant(a2, "I")


class TestQdre:
    def test_blind_guess(self):
        assert abs(mary.qdre(0.0).p_err - 0.75) < 1e-12

    def test_equal_split_closed_form(self):
        # direct reduction of the branch products at t1 = 1/3, t2 = 1/2
        for a2 in (0.4, 1.7, 3.0):
            u = math.exp(-2 * a2 / 3)
            expect = 0.25 * (4 * u - 2 * u**3 + u**4)
            assert abs(mary.qdre(a2).p_err - expect) < 1e-12

    def test_optimized_asymptote_and_splitting(self):
        r = mary.qdre(8.0, mode="optimized")
        assert abs(r.p_err / (1.25 * math.exp(-4 * 8.0 / 5)) - 1) < 0.05
        assert abs(r.params["t1"] - 0.4) < 0.02
        assert abs(r.params["t2"] - 1.0 / 3.0) < 0.02

    def test_optimized_beats_equal(self):
        for a2 in (0.5, 2.0, 6.0):
            assert mary.qdre(a2, "optimized").p_err <= mary.qdre(a2).p_err + 1e-12


class TestQdffre:
    def test_rows_sum_to_one(self):
        cond, _ = mary.qdffre(1.7, 12)
        assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-10)

    def test_first_symbol_never_clicks(self):
        cond, _ = mary.qdffre(2.0, 8)
        assert cond[0, 0] == 1.0

    def test_converges_to_type_one_bondurant(self):
        b1 = mary.bondurant(3.0, "I")
        _, p64 = mary.qdffre(3.0, 64)
        _, p128 = mary.qdffre(3.0, 128)
        assert abs(p64 / b1 - 1) < 0.08
        assert abs(p128 / b1 - 1) < abs(p64 / b1 - 1)  # O(1/N) approach

    def test_needs_three_copies(self):
        with pytest.raises(ValueError):
            mary.qdffre(1.0, 2)


class TestReceiverOrdering:
    def test_pgm_below_everything(self):
        for a2 in (0.3, 1.0, 3.0, 6.0):
            pmin = mary.pgm_error(4, a2)
            others = [
                mary.qpsk_sql(a2),
                mary.bondurant(a2, "I"),
                mary.bondurant(a2, "II"),
                mary.qdre(a2, "optimized").p_err,
                mary.qdffre(a2, 24)[1],
            ]
            for p in others:
                assert pmin <= p + 1e-12
                assert p <= 0.75 + 1e-12
