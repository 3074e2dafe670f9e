import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cyclewalk import (CoinConfig, InitialState, WalkState,
                       DegenerateClusterWarning, MODEL_MEMORY,
                       MODEL_RECYCLED, STATE_NAMES, apply_P,
                       apply_P_adjoint, apply_Q,
                       build_Mk, build_Nk, closed_form_distribution, closed_form_probability,
                       eigensystem, eigenvalue_multiset_distance, evolve,
                       limiting_distribution, limiting_distribution_memory,
                       memory_spectrum_mismatch, named_coin4,
                       position_distribution, spectral_cache,
                       spectral_cache_memory, total_variation)

from cyclewalk import _kernels, spectral, walk
from cyclewalk.spectral import PHASE_TOL

import oracles

SQ2 = 1.0 / math.sqrt(2.0)


class TestBlocks:
    def test_mk_k0_hadamard_angle(self):
        blk = build_Mk(0, 4, CoinConfig(0.0))
        mat = blk.matrix
        assert np.abs(mat.imag).max() == 0.0
        nz = mat[np.abs(mat) > 0]
        assert np.allclose(np.abs(nz), SQ2, atol=1e-15)

    def test_mk_rows_match_definition(self):
        d, k = 7, 3
        cfg = CoinConfig(1.3)
        x = np.exp(2j * np.pi * k / d)
        y = np.conj(x)
        c, s = math.cos(cfg.theta), math.sin(cfg.theta)
        want = np.array([[x * SQ2, x * SQ2, 0, 0],
                         [0, 0, x * c, x * s],
                         [y * SQ2, -y * SQ2, 0, 0],
                         [0, 0, y * s, -y * c]])
        assert np.allclose(build_Mk(k, d, cfg).matrix, want, atol=1e-15)

    def test_mk_phi2_printed_form(self):
        d, k = 9, 2
        x = np.exp(2j * np.pi * k / d)
        y = np.conj(x)
        want = np.array([[x, x, 0, 0],
                         [0, 0, -x, x],
                         [y, -y, 0, 0],
                         [0, 0, y, y]]) * SQ2
        assert np.allclose(build_Mk(k, d, CoinConfig(2.0)).matrix, want,
                           atol=1e-14)

    def test_nk_k0_exact(self):
        want = np.array([[1, 0, 1, 0],
                         [0, 1, 0, 1],
                         [0, 1, 0, -1],
                         [1, 0, -1, 0]]) * SQ2
        assert np.allclose(build_Nk(0, 5).matrix, want, atol=1e-15)

    @pytest.mark.parametrize("k,d,phi", [(0, 2, 0.0), (3, 7, 2.5),
                                         (11, 12, 6.0), (29, 30, 7.9)])
    def test_blocks_unitary(self, k, d, phi):
        for mat in (build_Mk(k, d, CoinConfig(phi)).matrix,
                    build_Nk(k, d).matrix):
            assert np.abs(mat.conj().T @ mat - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("k", [-1, 5, 99])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="momentum"):
            build_Mk(k, 5, CoinConfig(0.0))
        with pytest.raises(ValueError, match="momentum"):
            build_Nk(k, 5)

    @pytest.mark.parametrize("d", [3, 8, 13, 32])
    def test_nk_spectrum_equals_mk_phi2(self, d):
        assert memory_spectrum_mismatch(d) < 1e-9


class TestEigensystem:
    def test_identity_block(self):
        es = eigensystem(np.eye(4, dtype=np.complex128))
        assert np.allclose(es.eigenvalues, 1.0, atol=1e-14)
        gram = es.eigenvectors.conj().T @ es.eigenvectors
        assert np.abs(gram - np.eye(4)).max() < 1e-9

    def test_diagonal_unitary(self):
        es = eigensystem(np.diag([1.0, -1.0, 1j, -1j]))
        got = sorted(np.round(es.eigenvalues, 12).tolist(),
                     key=lambda z: (z.real, z.imag))
        want = sorted([1.0, -1.0, 1j, -1j],
                      key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, atol=1e-12)

    def test_residuals_and_orthonormality(self):
        cfg = CoinConfig(1.3)
        for k in range(7):
            blk = build_Mk(k, 7, cfg)
            es = eigensystem(blk)
            for j in range(4):
                res = blk.matrix @ es.eigenvectors[:, j] \
                    - es.eigenvalues[j] * es.eigenvectors[:, j]
                assert np.abs(res).max() < 1e-9
            gram = es.eigenvectors.conj().T @ es.eigenvectors
            assert np.abs(gram - np.eye(4)).max() < 1e-9
            assert np.abs(np.abs(es.eigenvalues) - 1.0).max() < 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            eigensystem(np.diag([1.0, 1.0, 1.0, 0.5]))

    def test_near_tolerance_gap_warns(self):
        mat = np.diag([1.0, np.exp(5e-10j), 1j, -1j])
        with pytest.warns(DegenerateClusterWarning):
            eigensystem(mat)

    def test_warning_points_at_caller(self):
        mat = np.diag([1.0, np.exp(5e-10j), 1j, -1j])
        with pytest.warns(DegenerateClusterWarning) as rec:
            eigensystem(mat)
        assert [w.filename for w in rec] == [__file__]

    def test_stack_warns_for_its_one_ambiguous_block(self):
        phases = np.array([[0.0, 1.0, 2.0, 3.0]] * 5)
        phases[2, 1] = 5e-10
        mats = np.stack([np.diag(np.exp(1j * row)) for row in phases])
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            lams, vecs = spectral._eig(mats)
            spectral._screen_blocks(lams, range(5), stacklevel=2)
        assert len(rec) == 1
        assert rec[0].category is DegenerateClusterWarning
        assert "block k=2" in str(rec[0].message)
        gram = vecs.conj().swapaxes(1, 2) @ vecs
        assert np.abs(gram - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("d,phi", [(5, 0.0), (9, 1.0), (12, 2.0),
                                       (11, 3.3)])
    def test_q_symmetry_of_spectra(self, d, phi):
        # The phi' = -(2+phi) walk has second-coin angle -theta; its
        # blocks must carry the same spectra.
        cfg = CoinConfig(phi)
        cfg_neg = CoinConfig(-(2.0 + phi))
        assert abs(math.cos(cfg_neg.theta) - math.cos(cfg.theta)) < 1e-12
        for k in range(d):
            lam_a = np.linalg.eigvals(build_Mk(k, d, cfg).matrix)
            lam_b = np.linalg.eigvals(build_Mk(k, d, cfg_neg).matrix)
            assert eigenvalue_multiset_distance(lam_a, lam_b) < 1e-9


class TestPhaseClusters:
    CUT = [np.pi - 2e-10, 0.5, -np.pi + 2e-10, -1.0]

    def test_merge_across_branch_cut(self):
        labels, _ = spectral._phase_clusters(np.array(self.CUT), PHASE_TOL)
        assert labels[0] == labels[2]
        assert len({labels[0], labels[1], labels[3]}) == 3

    def test_stack_rows_cluster_independently(self):
        rows = np.array([[0.1, 0.2, 0.3, 0.4], self.CUT,
                         [1.0, -2.0, 1.0 + 5e-10, 2.0]])
        labels, gaps = spectral._phase_clusters(rows, PHASE_TOL)
        assert labels.shape == gaps.shape == (3, 4)
        assert len(set(labels[0])) == 4
        assert labels[1, 0] == labels[1, 2]
        assert len(set(labels[1])) == 3
        assert labels[2, 0] == labels[2, 2]
        assert len(set(labels[2])) == 3
        for row, want in zip(rows, labels):
            assert np.array_equal(spectral._phase_clusters(row, PHASE_TOL)[0],
                                  want)

    def test_row_within_tol_is_one_cluster(self):
        row = 0.3 + np.array([0.0, 2e-10, -3e-10, 5e-10])
        labels, _ = spectral._phase_clusters(row, PHASE_TOL)
        assert len(set(labels)) == 1

    @staticmethod
    def _probe(phases):
        """(warned, same): whether _warn_ambiguous fires on the phases'
        gaps, and whether PHASE_TOL / 10 and 10 PHASE_TOL label them as
        PHASE_TOL does."""
        labels, gaps = spectral._phase_clusters(phases, PHASE_TOL)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            spectral._warn_ambiguous(gaps, "probe")
        same = all(np.array_equal(spectral._phase_clusters(phases, tol)[0],
                                  labels)
                   for tol in (0.1 * PHASE_TOL, 10.0 * PHASE_TOL))
        return bool(rec), same

    def test_unwarned_random_phases_need_no_tolerance_probe(self):
        # Near copies of random phases, at gaps from 1e-13 to 1e-6, some
        # of them across the branch cut.
        rng = np.random.default_rng(13)
        outcomes = set()
        for trial in range(400):
            base = rng.uniform(-np.pi, np.pi, size=rng.integers(4, 40))
            if trial % 2:
                base[0] = np.pi
            near = base[:rng.integers(1, len(base) + 1)]
            near = near + rng.choice((-1.0, 1.0), near.size) * 10.0 ** (
                rng.uniform(-13.0, -6.0, near.size))
            phases = np.angle(np.exp(1j * np.concatenate((base, near))))
            warned, same = self._probe(phases)
            assert warned or same
            outcomes.add((warned, same))
        # Both kinds occur, and the warning does mark label changes.
        assert {(False, True), (True, False)} <= outcomes

    def test_unwarned_c07_caches_need_no_tolerance_probe(self):
        silent = 0
        for d in range(2, 51):
            for m in range(80):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateClusterWarning)
                    cache = spectral_cache(d, CoinConfig(round(0.1 * m, 10)))
                warned, same = self._probe(np.angle(cache.eigenvalues.ravel()))
                assert warned or same
                silent += not warned
        assert silent > 0


class TestSpectralCache:
    def test_completeness_and_alpha_recompute(self, random_coin4):
        psi = random_coin4()
        cache = spectral_cache(9, CoinConfig(0.7))
        alphas = spectral._alphas(cache, psi)
        weights = np.sum(np.abs(alphas) ** 2, axis=1)
        assert np.allclose(weights, 1.0, atol=1e-12)
        for k in (0, 4, 8):
            for j in range(4):
                alpha = cache.eigenvectors[k][:, j].conj() @ psi
                assert abs(alpha - alphas[k, j]) < 1e-12

    def test_shared_cache_matches_fresh(self):
        # phi = 0 has flat bands, phi = 1 only small clusters.
        for cfg in (CoinConfig(1.0), CoinConfig(0.0)):
            cache = spectral_cache(8, cfg)
            for name in STATE_NAMES:
                psi = named_coin4(name)
                assert np.array_equal(
                    limiting_distribution(cfg, 8, psi, cache=cache).probs,
                    limiting_distribution(cfg, 8, psi).probs)
                assert np.array_equal(
                    closed_form_distribution(5, cfg, psi, cache=cache).probs,
                    closed_form_distribution(5, cfg, psi, d=8).probs)

    def test_cache_mismatch_rejected(self):
        cfg = CoinConfig(1.0)
        psi = named_coin4("psi_a")
        cache = spectral_cache(8, cfg)
        with pytest.raises(ValueError, match="cache"):
            closed_form_distribution(3, cfg, psi, d=9, cache=cache)
        with pytest.raises(ValueError, match="coin angle"):
            closed_form_distribution(3, CoinConfig(2.0), psi, cache=cache)
        with pytest.raises(ValueError, match="coin angle"):
            limiting_distribution(cfg, 8, psi,
                                  cache=spectral_cache_memory(8))
        with pytest.raises(TypeError):
            spectral_cache(8, cfg, psi)

    # Blocks k > d/2 are the conjugates of blocks d - k; these hold every
    # block, mirrored or not, to its own eigen-equation.
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 16, 101])
    @pytest.mark.parametrize("model", [MODEL_RECYCLED, MODEL_MEMORY])
    def test_every_block_satisfies_its_eigen_equation(self, d, model):
        spec = walk._walk_spec(model, CoinConfig(1.3))
        cache = spectral._spectral_cache(spec, d)
        vecs = cache.eigenvectors
        res = (spectral._block_stack(spec, d) @ vecs
               - vecs * cache.eigenvalues[:, None, :])
        assert np.abs(res).max() < 1e-13

    def test_complex_shift_blocks_rejected(self):
        # A coin with a complex phase makes A+ and A- complex, and then
        # M_{d-k} is no longer conj(M_k).
        phase = np.exp(0.3j)
        spec = walk._WalkSpec(_kernels._step_recycled,
                              (phase * math.cos(1.0), phase * math.sin(1.0)),
                              1.0)
        with pytest.raises(ValueError, match="real shift blocks"):
            spectral._spectral_cache(spec, 8)

    def test_mirrored_blocks_keep_their_warnings(self):
        # Blocks 9 and 15 mirror blocks 7 and 1, and warn in turn.
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            cache = spectral_cache(16, CoinConfig(3 + 2e-9))
            limiting_distribution(CoinConfig(3 + 2e-9), 16,
                                  named_coin4("psi_a"), cache=cache)
        assert all(w.category is DegenerateClusterWarning for w in rec)
        assert [str(w.message).split(":")[0] for w in rec] == [
            "block k=1", "block k=7", "block k=9", "block k=15",
            "d=16 limiting distribution"]

    def test_eigenvalue_off_unit_circle_rejected(self, monkeypatch):
        eig = np.linalg.eig

        def one_eigenvalue_shrunk(mats):
            lams, vecs = eig(mats)
            lams[0, 0] *= 0.5
            return lams, vecs

        monkeypatch.setattr(np.linalg, "eig", one_eigenvalue_shrunk)
        with pytest.raises(RuntimeError, match="unit circle"):
            spectral_cache(8, CoinConfig(1.0))


class TestClosedForm:
    def test_t0_point_mass(self):
        dist = closed_form_distribution(0, CoinConfig(0.0),
                                        named_coin4("psi_b"), d=6)
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(dist.probs[1:]).max() < 1e-12

    def test_one_step_hand_example(self):
        cfg = CoinConfig(0.0)
        assert closed_form_probability(1, 1, cfg, named_coin4("psi_a"),
                                       d=4) == pytest.approx(0.5, abs=1e-12)
        assert closed_form_probability(3, 1, cfg, named_coin4("psi_a"),
                                       d=4) == pytest.approx(0.5, abs=1e-12)
        assert closed_form_probability(0, 1, cfg, named_coin4("psi_a"),
                                       d=4) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d,T", [(11, 200), (1024, 300)])
    def test_matches_stepping(self, d, T):
        cfg = CoinConfig(1.3)
        init = InitialState.named("psi_b")
        cache = spectral_cache(d, cfg)
        state = WalkState.localized(d, init)
        worst = 0.0
        for t in range(T + 1):
            stepped = position_distribution(state).probs
            closed = closed_form_distribution(t, cfg, init.coin4,
                                              cache=cache).probs
            worst = max(worst, float(np.abs(stepped - closed).max()))
            state = evolve(state, 1, cfg)
        assert worst < 1e-8

    @pytest.mark.parametrize("phi", [0.0, 0.5, 2.0])
    def test_norm_holds_at_a_million_steps(self, phi):
        # Eigenvalues sit within ulps of the unit circle; raised to the
        # t-th power as numbers they would drift off it linearly in t.
        dist = closed_form_distribution(10 ** 6, CoinConfig(phi),
                                        named_coin4("psi_c"), d=64)
        assert abs(dist.probs.sum() - 1.0) < 1e-12

    def test_rejects_off_origin_start(self):
        init = InitialState.named("psi_a", position=2)
        with pytest.raises(ValueError, match="position 0"):
            closed_form_distribution(3, CoinConfig(0.0), init, d=5)

    def test_position_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            closed_form_probability(7, 1, CoinConfig(0.0),
                                    named_coin4("psi_a"), d=5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            closed_form_distribution(-1, CoinConfig(0.0),
                                     named_coin4("psi_a"), d=5)


class TestLimiting:
    def test_uniform_at_generic_phi(self):
        dist = limiting_distribution(CoinConfig(0.5), 5, named_coin4("psi_a"))
        assert total_variation(dist.probs, np.full(5, 0.2)) < 1e-6

    def test_d8_phi0_equals_phi2(self):
        p0 = limiting_distribution(CoinConfig(0.0), 8, named_coin4("psi_a"))
        p2 = limiting_distribution(CoinConfig(2.0), 8, named_coin4("psi_a"))
        assert total_variation(p0, p2) < 1e-8

    def test_memory_limiting_sums_to_one(self):
        dist = limiting_distribution_memory(3, named_coin4("psi_a"))
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [5, 12])
    @pytest.mark.parametrize("name", ["psi_b", "psi_d"])
    def test_memory_equals_recycled_phi2(self, d, name):
        psi = named_coin4(name)
        pm = limiting_distribution_memory(d, apply_P_adjoint(psi))
        pr = limiting_distribution(CoinConfig(2.0), d, psi)
        assert total_variation(pm, pr) < 1e-8

    def test_rejects_off_origin_start(self):
        init = InitialState.named("psi_a", position=1)
        with pytest.raises(ValueError, match="position 0"):
            limiting_distribution(CoinConfig(0.0), 5, init)

    # At d = 16, phi = 3 a cluster holds two eigenvectors of one block.
    # (9, 2.0) and (16, 0.0) take both routes in one call (see
    # test_oracle_cells_take_both_routes).
    @pytest.mark.parametrize("d,phi", [(5, 0.5), (5, 0.0), (8, 2.0),
                                       (12, 1.0), (7, 3.3), (12, 6.0),
                                       (16, 3.0), (9, 2.0), (16, 0.0)])
    @pytest.mark.parametrize("name", ["psi_a", "psi_c"])
    def test_matches_naive_double_loop(self, d, phi, name):
        psi = named_coin4(name)
        got = limiting_distribution(CoinConfig(phi), d, psi).probs
        want = oracles.naive_limiting(d, psi, phi=phi)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("d", [5, 8, 9, 16])
    def test_memory_matches_naive_double_loop(self, d, random_coin4):
        psi = random_coin4()
        got = limiting_distribution_memory(d, psi).probs
        want = oracles.naive_limiting(d, psi, phi=None)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("d,phi", [(9, 2.0), (16, 0.0), (9, None),
                                       (16, None)])
    def test_oracle_cells_take_both_routes(self, d, phi):
        # Lone eigenvalues, clusters of s >= 2 with s^2 <= d (summed as
        # pairs) and the two flat clusters of d (one transform each).
        cache = (spectral_cache_memory(d) if phi is None
                 else spectral_cache(d, CoinConfig(phi)))
        sizes = np.bincount(cache.labels)
        sizes = sizes[sizes > 0]
        assert np.any(sizes == 1)
        assert np.any((sizes > 1) & (sizes * sizes <= d))
        assert np.count_nonzero(sizes * sizes > d) == 2

    def test_random_state_generic_phi_uniform(self, random_coin4):
        psi = random_coin4()
        dist = limiting_distribution(CoinConfig(2.719), 9, psi)
        assert total_variation(dist.probs, np.full(9, 1 / 9)) < 1e-6

    @pytest.mark.parametrize("d,phi", [(10_000, 0.5), (4096, 0.0),
                                       (4096, None)])
    def test_large_d_peak_memory(self, d, phi):
        # Nothing may grow as d^2: one complex (d x d) matrix at d = 10^4
        # alone would take 1.6 GB.  phi = 0.5 has only small equal-phase
        # clusters; phi = 0 and the memory walk (phi = None) have flat
        # bands, two clusters of d eigenvectors each.
        psi = named_coin4("psi_b")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClusterWarning)
            tracemalloc.start()
            try:
                if phi is None:
                    got = limiting_distribution_memory(d, psi)
                else:
                    got = limiting_distribution(CoinConfig(phi), d, psi)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if phi is None:
                partner = limiting_distribution(CoinConfig(2.0), d,
                                                apply_P(psi))
            else:
                partner = limiting_distribution(CoinConfig(-(2.0 + phi)), d,
                                                apply_Q(psi))
        assert peak < 64 * 2 ** 20
        assert np.abs(got.probs - partner.probs).max() < 1e-10

    def test_flat_band_at_1e5(self):
        # Flat bands at d = 10^5: about d clusters of two are summed as
        # pairs into one inverse FFT, the two flat clusters take one each.
        psi = named_coin4("psi_b")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClusterWarning)
            tracemalloc.start()
            try:
                got = limiting_distribution(CoinConfig(0.0), 100_000, psi)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            partner = limiting_distribution(CoinConfig(6.0), 100_000,
                                            apply_Q(psi))
        assert peak < 200 * 2 ** 20
        assert np.abs(got.probs - partner.probs).max() < 1e-10

    def test_no_warning_on_clean_spectrum(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateClusterWarning)
            limiting_distribution(CoinConfig(0.0), 12, named_coin4("psi_a"))
            limiting_distribution_memory(12, named_coin4("psi_c"))


class TestBatchedLimit:
    # phi = 0, 2 and 6 have flat bands; at (16, 3.0) a cluster holds two
    # eigenvectors of one block.  phi = None is the memory walk.
    @pytest.mark.parametrize("d", [2, 3, 4, 9, 16, 101])
    @pytest.mark.parametrize("phi", [0.0, 2.0, 3.0, 6.0, 0.7, None])
    def test_batch_equals_single_states(self, d, phi, random_coin4):
        psis = np.array([named_coin4(n) for n in STATE_NAMES]
                        + [random_coin4()])
        if phi is None:
            cache = spectral_cache_memory(d)
            singles = [limiting_distribution_memory(d, psi, cache=cache)
                       for psi in psis]
        else:
            cache = spectral_cache(d, CoinConfig(phi))
            singles = [limiting_distribution(CoinConfig(phi), d, psi,
                                             cache=cache) for psi in psis]
        batch = spectral._limiting_probs(cache, psis)
        assert batch.shape == (len(psis), d)
        for got, single in zip(batch, singles):
            assert np.abs(got - single.probs).max() < 1e-15
        # The oracle's double loop is slow on flat bands at d = 101.
        if d <= 16 or phi in (0.0, None):
            want = oracles.naive_limiting(d, psis[-1], phi=phi)
            assert np.abs(batch[-1] - want).max() < 1e-12

    def test_transform_batches_split_states(self, monkeypatch, rng):
        # With room for three columns per batch, two flat clusters of
        # five states take batches of three and two states.
        d = 16
        psis = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        psis /= np.linalg.norm(psis, axis=1)[:, None]
        cache = spectral_cache(d, CoinConfig(0.0))
        want = spectral._limiting_probs(cache, psis)
        monkeypatch.setattr(_kernels, "_SCAN_CHUNK_AMPS", 3 * 4 * d)
        got = spectral._limiting_probs(cache, psis)
        assert np.abs(got - want).max() < 1e-15

    def test_one_warning_per_batch(self):
        cfg = CoinConfig(3 + 2e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClusterWarning)
            cache = spectral_cache(16, cfg)
        psis = np.array([named_coin4(n) for n in STATE_NAMES])
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            spectral._limiting_probs(cache, psis)
        assert [str(w.message).split(":")[0] for w in rec] == [
            "d=16 limiting distribution"]


class TestNearDegenerate:
    # At d = 16 near phi = 3 and 7 one block holds two phases just
    # outside PHASE_TOL, where eig returns nearly parallel eigenvectors.
    PHIS = [3 + 2e-9, 3 - 2e-9, 7 + 2e-9, 3 + 3e-8, 7 + 2e-8]

    @pytest.mark.parametrize("phi", PHIS)
    def test_limit_matches_naive_double_loop(self, phi):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClusterWarning)
            for name in STATE_NAMES:
                psi = named_coin4(name)
                got = limiting_distribution(CoinConfig(phi), 16, psi)
                want = oracles.naive_limiting(16, psi, phi=phi)
                assert np.abs(got.probs - want).max() < 1e-8

    @pytest.mark.parametrize("phi", PHIS)
    def test_closed_form_matches_stepping(self, phi):
        cfg = CoinConfig(phi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClusterWarning)
            cache = spectral_cache(16, cfg)
        for name in STATE_NAMES:
            init = InitialState.named(name)
            state = WalkState.localized(16, init)
            for t in range(201):
                closed = closed_form_distribution(t, cfg, init, cache=cache)
                stepped = position_distribution(state).probs
                assert np.abs(closed.probs - stepped).max() < 1e-8
                state = evolve(state, 1, cfg)
