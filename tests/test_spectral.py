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

from cyclewalk import _kernels, analysis, spectral, walk
from cyclewalk.spectral import PHASE_TOL

import oracles

SQ2 = 1.0 / math.sqrt(2.0)

# Limit cells held against the naive double loop.  At d = 16, phi = 3 a
# cluster holds two eigenvectors of one block.  (9, 2.0) and (16, 0.0)
# take both routes in one call (see test_oracle_cells_take_both_routes).
# On d = 6, 10 and 18 (d = 2 mod 4) no block mirrors itself under
# k -> d/2 - k.
ORACLE_CELLS = [(5, 0.5), (5, 0.0), (8, 2.0), (12, 1.0), (7, 3.3),
                (12, 6.0), (16, 3.0), (9, 2.0), (16, 0.0),
                (6, 0.0), (6, 2.0), (6, 0.5), (10, 0.0), (10, 2.0),
                (10, 0.5), (18, 0.0), (18, 2.0), (18, 0.5)]
MEMORY_ORACLE_D = [5, 8, 9, 16, 10]


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

    def test_cycle_of_one_site_rejected(self):
        for build in (lambda: build_Mk(0, 1, CoinConfig(0.5)),
                      lambda: spectral_cache(1, CoinConfig(0.5))):
            with pytest.raises(ValueError, match="cycle length d must be "
                               ">= 2, got 1"):
                build()

    @pytest.mark.parametrize("k", [-1, 5, 99])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="momentum"):
            build_Mk(k, 5, CoinConfig(0.0))
        with pytest.raises(ValueError, match="momentum"):
            build_Nk(k, 5)

    @pytest.mark.parametrize("call, message", [
        (lambda: build_Mk(1.5, 4, CoinConfig(0.5)),
         "momentum index k must be an integer, got 1.5"),
        (lambda: build_Nk(1.5, 4),
         "momentum index k must be an integer, got 1.5"),
        (lambda: build_Mk(1, 4.0, CoinConfig(0.5)),
         "cycle length d must be an integer, got 4.0"),
        (lambda: spectral_cache(7.9, CoinConfig(0.5)),
         "cycle length d must be an integer, got 7.9"),
        (lambda: limiting_distribution_memory(7.9, named_coin4("psi_a")),
         "cycle length d must be an integer, got 7.9"),
        (lambda: memory_spectrum_mismatch(7.9),
         "cycle length d must be an integer, got 7.9"),
    ], ids=["Mk", "Nk", "block-d", "cache-d", "limit-d", "mismatch-d"])
    def test_non_integer_input_rejected(self, call, message):
        # build_Mk(1.5, ...) once returned a matrix that is no block of
        # the walk.
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_numpy_integers_give_the_same_block(self):
        got = build_Mk(np.int64(3), np.int64(7), CoinConfig(1.3))
        want = build_Mk(3, 7, CoinConfig(1.3))
        assert (type(got.k), type(got.d)) == (int, int)
        assert got.matrix.tobytes() == want.matrix.tobytes()

    @pytest.mark.parametrize("d", [7, 64, 1001])
    def test_single_block_is_its_row_of_the_stack(self, d):
        for model, build in ((MODEL_RECYCLED,
                              lambda k: build_Mk(k, d, CoinConfig(1.3))),
                             (MODEL_MEMORY, lambda k: build_Nk(k, d))):
            stack = _kernels._fourier_blocks(
                d, walk._walk_spec(model, CoinConfig(1.3)))
            for k in range(d):
                assert np.array_equal(build(k).matrix, stack[k])

    def test_single_block_costs_no_stack(self):
        # A stack of d = 10^6 blocks would take hundreds of MB.
        tracemalloc.start()
        try:
            build_Mk(3, 10 ** 6, CoinConfig(1.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("d", [3, 8, 13, 32])
    def test_nk_spectrum_equals_mk_phi2(self, d):
        assert memory_spectrum_mismatch(d) < 1e-9

    def test_mismatch_reads_d_as_a_count(self):
        # d = 1 once gave a value for a cycle every other entry rejects.
        with pytest.raises(ValueError) as info:
            memory_spectrum_mismatch(1)
        assert str(info.value) == "cycle length d must be >= 2, got 1"
        assert (memory_spectrum_mismatch(np.int64(5))
                == memory_spectrum_mismatch(5))

    def test_mismatch_keeps_a_nan_block(self, monkeypatch):
        # max() over the blocks once dropped a NaN distance that did not
        # come first, so a NaN spectrum read as a match.
        real = np.linalg.eigvals

        def last_block_nan(stack):
            lam = real(stack)
            lam[-1, 0] = np.nan
            return lam

        monkeypatch.setattr(np.linalg, "eigvals", last_block_nan)
        assert math.isnan(memory_spectrum_mismatch(6))


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

    def test_block_must_be_4x4(self):
        with pytest.raises(ValueError,
                           match=r"expected a \(4, 4\) block, got \(3, 3\)"):
            eigensystem(np.eye(3))

    def test_eigenvalue_off_unit_circle_rejected(self, monkeypatch):
        lapack = spectral._lapack_eig

        def scaled(mats):
            lams, vecs = lapack(mats)
            return 1.1 * lams, vecs

        monkeypatch.setattr(spectral, "_lapack_eig", scaled)
        with pytest.raises(RuntimeError,
                           match=r"eigenvalue left the unit circle by 0\.1$"):
            eigensystem(build_Mk(1, 5, CoinConfig(0.5)))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            eigensystem(np.diag([1.0, 1.0, 1.0, 0.5]))

    def test_nan_block_rejected(self):
        with pytest.raises(ValueError, match=r"not unitary \(deviation nan\)"):
            eigensystem(np.diag([1.0, 1.0, 1.0, np.nan]))

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
            gaps, near, _ = spectral._block_screen(lams)
            for k in np.flatnonzero(near):
                spectral._warn_ambiguous(gaps[k], "block k=%d" % k)
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

    def test_multisets_of_different_sizes_rejected(self):
        with pytest.raises(ValueError,
                           match="multisets differ in size: 2 vs 1"):
            eigenvalue_multiset_distance([1, 2], [1])

    @pytest.mark.parametrize("a", [[np.nan, 1], [1, np.nan]])
    def test_nan_eigenvalue_is_no_match(self, a):
        assert math.isnan(eigenvalue_multiset_distance(a, [1, 1]))


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
        w, bra = spectral._projection([cache])
        alphas = spectral._alphas(w, bra, psi)
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

    # Blocks k > d/2 are the conjugates of blocks d - k; on even d only
    # the blocks k <= d/4 are diagonalized, and the others take (-lam, v)
    # from block k - d/2 or (-conj(lam), conj(v)) from block d/2 - k, or
    # conjugate one of those.  These hold every block, mirrored or not,
    # to its own eigen-equation, with orthonormal eigenvectors.
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 16, 101, 4096,
                                   6, 10, 12, 18, 64, 124, 4098])
    @pytest.mark.parametrize("model", [MODEL_RECYCLED, MODEL_MEMORY])
    def test_every_block_satisfies_its_eigen_equation(self, d, model):
        spec = walk._walk_spec(model, CoinConfig(1.3))
        cache = spectral._spectral_cache(spec, d)
        vecs = cache.eigenvectors
        res = (_kernels._fourier_blocks(d, spec) @ vecs
               - vecs * cache.eigenvalues[:, None, :])
        assert np.abs(res).max() < 1e-13
        gram = vecs.conj().swapaxes(1, 2) @ vecs
        assert np.abs(gram - np.eye(4)).max() <= 1e-13

    @pytest.mark.parametrize("d", [4096, 4097, 4098])
    @pytest.mark.parametrize("phi", [3.0, 7.0])
    def test_both_eigen_routes_meet_one_orthonormality_bar(self, d, phi):
        # Here some blocks fail the polynomial route's checks and go to
        # LAPACK, whose eigenvectors are held to the same bar.
        vecs = spectral_cache(d, CoinConfig(phi)).eigenvectors
        gram = vecs.conj().swapaxes(1, 2) @ vecs
        assert np.abs(gram - np.eye(4)).max() <= spectral._POLY_EIG_TOL

    @pytest.mark.parametrize("d", [3, 7, 61, 63, 353, 4097])
    @pytest.mark.parametrize("phi", [0.0, 0.7, 3.0, None])
    def test_odd_cycles_keep_the_half_blocks(self, d, phi):
        # Odd d has no half turn: its cache is the blocks k <= d/2, each
        # diagonalized, and the conjugates of those, bit for bit.
        lams, vecs = spectral._eig(_blocks(d, phi))
        cache = _cache(d, phi)
        want_lams, want_vecs = _mirrored(lams, vecs, d)
        assert cache.eigenvalues.tobytes() == want_lams.tobytes()
        assert cache.eigenvectors.tobytes() == want_vecs.tobytes()

    def test_complex_shift_blocks_rejected(self):
        # A coin with a complex phase makes A+ and A- complex, and then
        # M_{d-k} is no longer conj(M_k).
        # No spec holds such a pair, so no cache is built from one.
        phase = np.exp(0.3j)
        spec = walk._walk_spec(MODEL_RECYCLED, CoinConfig(1.3))
        with pytest.raises(ValueError, match="real shift blocks"):
            walk._WalkSpec(phase * spec.unitary, spec.mask, spec.theta)

    def test_mirrored_blocks_keep_their_warnings(self):
        # Blocks 7, 9 and 15 mirror block 1, and warn in turn.
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

    def test_nan_block_fails_the_unitarity_screen(self, monkeypatch):
        # NaN compares false with everything: the screen must reject it
        # rather than pass it to eig.
        real = _kernels._rep_blocks

        def with_nan(ds, spec):
            mats = real(ds, spec)
            mats[1, 2, 3] = np.nan
            return mats

        monkeypatch.setattr(_kernels, "_rep_blocks", with_nan)
        with pytest.raises(RuntimeError, match=r"lost unitarity \(nan\)"):
            spectral_cache(8, CoinConfig(1.0))


def _spec(phi):
    """The walk's spec; phi = None is the memory walk."""
    return (walk._walk_spec(MODEL_MEMORY) if phi is None
            else walk._walk_spec(MODEL_RECYCLED, CoinConfig(phi)))


def _blocks(d, phi, stop=None):
    """Blocks k < stop of the walk, by default k <= d/2."""
    return _kernels._fourier_blocks(d, _spec(phi),
                                    stop=d // 2 + 1 if stop is None else stop)


def _rep_stop(d):
    """Blocks that give all d: k <= d/4 on even d, k <= d/2 on odd d."""
    return d // 4 + 1 if d % 2 == 0 else d // 2 + 1


def _mirrored(lams, vecs, d):
    """All d eigensystems from those of the blocks k < _rep_stop(d).

    On even d, M_{d/2-k} = -conj(M_k) gives the blocks up to d/2; then
    M_{d-k} = conj(M_k) gives the rest, as for the blocks of a real pair.
    """
    half = range(len(lams), d // 2 + 1)
    lams = np.concatenate([lams] + [-lams[d // 2 - k].conj()[None]
                                    for k in half])
    vecs = np.concatenate([vecs] + [vecs[d // 2 - k].conj()[None]
                                    for k in half])
    return (np.concatenate((lams, lams[d - len(lams):0:-1].conj())),
            np.concatenate((vecs, vecs[d - len(vecs):0:-1].conj())))


def _cache(d, phi):
    return (spectral_cache_memory(d) if phi is None
            else spectral_cache(d, CoinConfig(phi)))


@pytest.fixture
def poly_everywhere(monkeypatch):
    """Send every stack through the polynomial route.

    Returns the list of stacks that then fell back to LAPACK.
    """
    fallbacks = []
    lapack = spectral._lapack_eig

    def recording(mats):
        fallbacks.append(mats.copy())
        return lapack(mats)

    monkeypatch.setattr(spectral, "_POLY_MIN_BLOCKS", 0)
    monkeypatch.setattr(spectral, "_lapack_eig", recording)
    return fallbacks


def _lapack_everywhere(monkeypatch):
    monkeypatch.setattr(spectral, "_POLY_MIN_BLOCKS", math.inf)


class TestMirrorMap:
    """Caches hold their distinct representatives once and map every block.

    Each test builds the reference gather of all d blocks from the
    representatives' eigensystems with _mirrored's loops, and holds the
    caches' eigenvalues and eigenvectors to it bit for bit.
    """

    D_VALUES = list(range(2, 130)) + [4096, 4097, 4098]

    @pytest.mark.parametrize("phi", [1.3, 0.0, None])
    def test_single_caches_match_the_reference_gather(self, phi):
        for d in self.D_VALUES:
            lams, vecs = spectral._eig(_blocks(d, phi, _rep_stop(d)))
            want_lams, want_vecs = _mirrored(lams, vecs, d)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateClusterWarning)
                cache = _cache(d, phi)
            assert len(cache.vectors) == _rep_stop(d)
            assert cache.eigenvalues.tobytes() == want_lams.tobytes()
            assert cache.eigenvectors.tobytes() == want_vecs.tobytes()

    @pytest.mark.parametrize("phi", [1.3, 0.0, None])
    def test_pack_caches_match_the_reference_gather(self, phi,
                                                     monkeypatch):
        stacks, real = [], spectral._eig

        def recording(mats, reps=None):
            lams, vecs = real(mats, reps)
            stacks.append((mats.copy(), lams, vecs))
            return lams, vecs

        monkeypatch.setattr(spectral, "_eig", recording)
        for pack in spectral._packs(range(2, 130)):
            built = spectral._spectral_caches([(_spec(phi), d)
                                               for d in pack])
            mats, lams, vecs = stacks[-1]
            assert len({m.tobytes() for m in mats}) == len(mats)
            for d, b in zip(pack, built):
                cache, stop = b.cache, _rep_stop(d)
                assert cache.vectors is vecs
                rep = cache.source[:stop]
                assert mats[rep].tobytes() == _blocks(d, phi,
                                                      stop).tobytes()
                want_lams, want_vecs = _mirrored(lams[rep], vecs[rep], d)
                assert cache.eigenvalues.tobytes() == want_lams.tobytes()
                assert cache.eigenvectors.tobytes() == want_vecs.tobytes()

    def test_c07_column_diagonalizes_each_distinct_block_once(
            self, monkeypatch):
        # The 505 representatives of d = 2..50 hold 338 distinct blocks
        # at a generic phi; the route is the one for 505 blocks.  A
        # single cache has no two equal blocks and takes no keying.
        calls, real = [], spectral._eig

        def recording(mats, reps=None):
            calls.append((len(mats), reps))
            return real(mats, reps)

        monkeypatch.setattr(spectral, "_eig", recording)
        spectral._spectral_caches([(_spec(0.7), d) for d in range(2, 51)])
        monkeypatch.setattr(spectral, "_distinct", None)
        spectral._spectral_cache(_spec(0.7), 50)
        assert calls == [(338, 505), (13, 13)]

    def test_limit_takes_caches_of_one_stack(self):
        caches = [_cache(d, 1.3) for d in (5, 6)]
        with pytest.raises(ValueError, match="share one eigenvector stack"):
            spectral._limiting_probs(caches, named_coin4("psi_a")[None])

    # Peak per site of one limit at d = 10^5, psi_a, as measured on
    # numpy 2.4: 590 B at phi = 0.5 and 945 B at phi = 0 (flat bands).
    # With every block's eigenvectors held gathered, and conjugated once
    # more for the overlaps, the peaks were 900 B and 1,252 B.
    @pytest.mark.parametrize("phi,bound", [(0.5, 700), (0.0, 1050)])
    def test_limit_peak_per_site_at_1e5(self, phi, bound):
        d = 100_000
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClusterWarning)
            tracemalloc.start()
            try:
                limiting_distribution(CoinConfig(phi), d,
                                      named_coin4("psi_a"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak / d < bound


class TestCharpoly:
    @pytest.mark.parametrize("d,phi", [(7, 1.3), (12, 0.0), (16, 3.0),
                                       (9, None), (16, None)])
    def test_matches_np_poly(self, d, phi):
        mats = _blocks(d, phi)
        got = spectral._charpoly(mats)
        assert got.shape == (len(mats), 5)
        for mat, c in zip(mats, got):
            assert np.abs(c - np.poly(mat)).max() < 1e-13

    @pytest.mark.parametrize("phi", [0.0, 0.5, 2.0, 3.7, 6.0])
    def test_recycled_is_self_inversive(self, phi):
        # z^4 + b z^3 - conj(b) z - 1 with b = -tr M_k.
        mats = _blocks(64, phi)
        b = -np.trace(mats, axis1=1, axis2=2)
        one = np.ones_like(b)
        want = np.stack([one, b, 0 * b, -b.conj(), -one], axis=-1)
        assert np.abs(spectral._charpoly(mats) - want).max() < 1e-14

    def test_memory_shares_that_of_phi2(self):
        got = spectral._charpoly(_blocks(64, None))
        want = spectral._charpoly(_blocks(64, 2.0))
        assert np.abs(got - want).max() < 1e-14


class TestPolyRoute:
    @pytest.mark.parametrize("d,phi", ORACLE_CELLS)
    @pytest.mark.parametrize("name", ["psi_a", "psi_c"])
    def test_matches_naive_double_loop(self, d, phi, name, poly_everywhere):
        TestLimiting().test_matches_naive_double_loop(d, phi, name)
        # Only d = 16, phi = 3 has repeated roots: blocks 1 and 7 each
        # hold one eigenvalue twice.  Block 7 mirrors block 1, which
        # alone falls back.
        if (d, phi) == (16, 3.0):
            (mats,) = poly_everywhere
            lam = np.sort(np.angle(np.linalg.eigvals(mats)), axis=-1)
            assert len(mats) == 1
            assert spectral._sorted_gaps(lam).min(axis=-1).max() < 1e-12
        else:
            assert poly_everywhere == []

    @pytest.mark.parametrize("d", MEMORY_ORACLE_D)
    def test_memory_matches_naive_double_loop(self, d, random_coin4,
                                              poly_everywhere):
        TestLimiting().test_memory_matches_naive_double_loop(d, random_coin4)
        assert poly_everywhere == []

    @pytest.mark.parametrize("d", [256, 4096])
    @pytest.mark.parametrize("phi", [0.0, 0.5, 2.0, 3.7, 6.0, None])
    def test_agrees_with_lapack(self, d, phi, monkeypatch):
        mats = _blocks(d, phi)
        lams, vecs = spectral._eig(mats)
        want = np.linalg.eigvals(mats)
        assert max(eigenvalue_multiset_distance(a, b)
                   for a, b in zip(lams, want)) <= 1e-13
        assert np.abs(mats @ vecs - vecs * lams[:, None, :]).max() <= 1e-13
        gram = vecs.conj().swapaxes(1, 2) @ vecs
        assert np.abs(gram - np.eye(4)).max() <= 1e-13
        psis = np.array([named_coin4(n) for n in STATE_NAMES])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClusterWarning)
            got = spectral._limiting_probs([_cache(d, phi)], psis)
            _lapack_everywhere(monkeypatch)
            ref = spectral._limiting_probs([_cache(d, phi)], psis)
        assert np.abs(got - ref).max() <= 1e-14

    @pytest.mark.parametrize("d,phi", [(4096, 0.5), (4096, 3.7),
                                       (4096, 6.9), (2048, None)])
    def test_large_generic_cells_need_no_fallback(self, d, phi):
        # The benchmark's large-d cells, and phi = 6.9, whose roots take
        # five Aberth steps: every root converges and every block passes
        # the checks.
        assert spectral._poly_eig(_blocks(d, phi))[2].all()

    def test_d4096_warning_unchanged(self, monkeypatch):
        def warned():
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                limiting_distribution(CoinConfig(0.5), 4096,
                                      named_coin4("psi_b"))
            return [str(w.message) for w in rec]

        got = warned()
        _lapack_everywhere(monkeypatch)
        assert warned() == got == [
            "d=4096 limiting distribution: 20 eigenvalue phase gap(s) within "
            "a decade of the matching tolerance 1e-09 (smallest 7.48e-10); "
            "equal-eigenvalue pairing may be ambiguous"]

    @pytest.mark.parametrize("d", [2, 16, 50, 61, 122])
    def test_small_stacks_stay_on_lapack(self, d, monkeypatch):
        # Every C07 sweep cell (d <= 50) and every pinned table (d <= 16)
        # keeps LAPACK's eigensystems bit for bit: below 32 blocks, an
        # odd d < 62 or an even d < 124.
        monkeypatch.setattr(spectral, "_poly_eig", None)
        for phi in (0.0, 3.0, 0.7, None):
            lams, vecs = spectral._lapack_eig(_blocks(d, phi, _rep_stop(d)))
            cache = _cache(d, phi)
            want_lams, want_vecs = _mirrored(lams, vecs, d)
            assert np.array_equal(cache.eigenvalues, want_lams)
            assert np.array_equal(cache.eigenvectors, want_vecs)

    @pytest.mark.parametrize("d", [63, 124, 4096])
    def test_large_stacks_take_the_polynomial_route(self, d, monkeypatch):
        calls = []
        poly = spectral._poly_eig

        def recording(mats):
            calls.append(len(mats))
            return poly(mats)

        monkeypatch.setattr(spectral, "_poly_eig", recording)
        spectral_cache(d, CoinConfig(0.7))
        assert sum(calls) == _rep_stop(d) >= spectral._POLY_MIN_BLOCKS
        assert max(calls) <= spectral._POLY_CHUNK

    def test_pack_pass_peak_memory(self):
        # One pass over the 505 blocks of a C07 column (d = 2..50), as a
        # sweep pack makes it.  Every (4, 4, n) product goes into one of
        # four arrays, so the traced peak stays below 5.5 times the
        # input; a fresh temporary per product takes it to 6.6 times.
        spec = walk._walk_spec(MODEL_RECYCLED, CoinConfig(3.7))
        mats = _kernels._rep_blocks(list(range(2, 51)), spec)
        assert len(mats) == 505
        tracemalloc.start()
        try:
            spectral._poly_eig(mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * mats.nbytes

    def test_fully_degenerate_blocks_fall_back(self):
        # A stack of identity blocks: every root repeated four times.
        mats = np.broadcast_to(np.eye(4, dtype=np.complex128), (40, 4, 4))
        assert not spectral._poly_eig(mats)[2].any()
        lams, vecs = spectral._eig(mats)
        assert np.abs(lams - 1.0).max() < 1e-15
        assert np.abs(vecs.conj().swapaxes(1, 2) @ vecs - np.eye(4)).max() \
            < 1e-15

    def test_eigensystem_stays_on_lapack(self, poly_everywhere):
        blk = build_Mk(3, 7, CoinConfig(1.3))
        es = eigensystem(blk)
        assert len(poly_everywhere) == 1
        lams, vecs = np.linalg.eig(blk.matrix)
        assert np.array_equal(es.eigenvalues, lams)


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

    def test_needs_d_or_cache(self):
        with pytest.raises(ValueError,
                           match="need either d or a SpectralCache"):
            closed_form_distribution(3, CoinConfig(0.0), named_coin4("psi_a"))

    def test_position_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            closed_form_probability(7, 1, CoinConfig(0.0),
                                    named_coin4("psi_a"), d=5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            closed_form_distribution(-1, CoinConfig(0.0),
                                     named_coin4("psi_a"), d=5)

    @pytest.mark.parametrize("call, message", [
        (lambda cfg, psi: closed_form_distribution(2.5, cfg, psi, d=5),
         "time step must be an integer, got 2.5"),
        (lambda cfg, psi: closed_form_probability(1, 2.5, cfg, psi, d=5),
         "time step must be an integer, got 2.5"),
        (lambda cfg, psi: closed_form_probability(1.5, 2, cfg, psi, d=5),
         "position must be an integer, got 1.5"),
        (lambda cfg, psi: closed_form_distribution(2, cfg, psi, d=5.0),
         "cycle length d must be an integer, got 5.0"),
        (lambda cfg, psi: closed_form_distribution(-1, cfg, psi, d=5),
         "time step must be >= 0, got -1"),
        (lambda cfg, psi: closed_form_probability(-1, 2, cfg, psi, d=5),
         "position must be >= 0, got -1"),
        (lambda cfg, psi: closed_form_probability(5, 2, cfg, psi, d=5),
         "position 5 outside cycle of length 5"),
    ], ids=["t", "probability-t", "position", "d", "negative-t",
            "negative-position", "position-past-d"])
    def test_inputs_read_as_counts(self, call, message):
        # A fractional t once gave a distribution at a time the walk
        # never reaches.
        with pytest.raises(ValueError) as info:
            call(CoinConfig(0.5), named_coin4("psi_b"))
        assert str(info.value) == message

    def test_numpy_integers_give_the_same_bytes(self):
        cfg, psi = CoinConfig(1.3), named_coin4("psi_c")
        got = closed_form_distribution(np.int64(37), cfg, psi,
                                       d=np.int64(11))
        want = closed_form_distribution(37, cfg, psi, d=11)
        assert got.probs.tobytes() == want.probs.tobytes()
        assert closed_form_probability(np.int64(4), np.int64(37), cfg, psi,
                                       d=11) == want.probs[4]


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

    @pytest.mark.parametrize("psi", [named_coin4("psi_a") * (1 + 1e-10),
                                     [1, 1, 0, 0]], ids=["near", "far"])
    @pytest.mark.parametrize("call", [
        lambda psi: limiting_distribution(CoinConfig(0.5), 5, psi),
        lambda psi: limiting_distribution_memory(5, psi),
        lambda psi: closed_form_distribution(3, CoinConfig(0.5), psi, d=5),
        lambda psi: analysis.verify_pbar_identities(5, psi),
        lambda psi: analysis.residue_distance_curve([5], psi),
    ], ids=["limit", "memory-limit", "closed-form", "pbar", "residue"])
    def test_raw_start_must_be_normalized(self, call, psi):
        # A raw coin vector once skipped InitialState's checks: 1 + 1e-10
        # gave a limit summing to 1 + 2e-10, and [1, 1, 0, 0] failed late
        # on its probabilities' sum.
        with pytest.raises(ValueError,
                           match="initial coin state must be normalized"):
            call(psi)

    @pytest.mark.parametrize("d,phi", ORACLE_CELLS)
    @pytest.mark.parametrize("name", ["psi_a", "psi_c"])
    def test_matches_naive_double_loop(self, d, phi, name):
        psi = named_coin4(name)
        got = limiting_distribution(CoinConfig(phi), d, psi).probs
        want = oracles.naive_limiting(d, psi, phi=phi)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("d", MEMORY_ORACLE_D)
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
        batch = spectral._limiting_probs([cache], psis)
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
        want = spectral._limiting_probs([cache], psis)
        monkeypatch.setattr(_kernels, "_SCAN_CHUNK_AMPS", 3 * 4 * d)
        got = spectral._limiting_probs([cache], psis)
        assert np.abs(got - want).max() < 1e-15

    def test_one_warning_per_batch(self):
        # A pack's batch warns not at all: its groups carry the warned
        # flag instead.  A single limit warns once.
        cfg = CoinConfig(3 + 2e-9)
        spec = walk._walk_spec(MODEL_RECYCLED, cfg)
        psis = np.array([named_coin4(n) for n in STATE_NAMES])
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            built = spectral._spectral_caches([(spec, 15), (spec, 16)])
            spectral._limiting_probs([b.cache for b in built], psis)
        assert rec == []
        assert [b.warned for b in built] == [False, True]
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            limiting_distribution(cfg, 16, psis[0], cache=built[1].cache)
        assert [str(w.message).split(":")[0] for w in rec] == [
            "d=16 limiting distribution"]


def _scatter_add_flat_bands(probs, ds, firsts, nbig, k, cid, phi, alpha):
    """spectral._add_flat_bands as np.add.at into zeros, batch by batch.

    The same batches in the same order, each with its own buffer: the
    bits that assigning each batch's members must give.
    """
    ns, c0 = len(probs), 0
    for d, first, n in zip(ds, firsts, nbig.tolist()):
        per = max(1, _kernels._SCAN_CHUNK_AMPS // (4 * d))
        nst = min(ns, per)
        ncl = per // nst
        for lo in range(c0, c0 + n, ncl):
            h = min(ncl, c0 + n - lo)
            sel = (cid >= lo) & (cid < lo + h)
            for s0 in range(0, ns, nst):
                w = min(nst, ns - s0)
                v = phi[sel] * alpha[s0:s0 + w, sel, None]
                buf = np.zeros((d, w, h, 4), dtype=np.complex128)
                np.add.at(buf, (k[sel] - first, slice(None), cid[sel] - lo),
                          v.swapaxes(0, 1))
                np.fft.ifft(buf, axis=0, out=buf)
                parts = buf.view(np.float64)
                probs[s0:s0 + w, first:first + d] += np.einsum(
                    "nscj,nscj->sn", parts, parts)
        c0 += n


def _one_cluster_per_phase(d, phases, rng):
    """A cache of random orthonormal blocks, eigenphases given per column.

    Eigenvector j of every block has eigenvalue exp(i phases[j]), so
    equal phases put eigenvectors of one block in one cluster.
    """
    mats = rng.normal(size=(d, 4, 4)) + 1j * rng.normal(size=(d, 4, 4))
    vecs = np.linalg.qr(mats)[0]
    lams = np.tile(np.exp(1j * np.asarray(phases)), (d, 1))
    labels = np.tile(np.unique(phases, return_inverse=True)[1], d)
    return spectral.SpectralCache(d=d, theta=None, eigenvalues=lams,
                                  vectors=vecs, source=np.arange(d),
                                  conjugate=np.zeros(d, dtype=bool),
                                  labels=labels, gaps=np.zeros(4 * d))


def _shared_blocks(cache):
    """How many transform-route members share a block with a clustermate.

    A cluster of s members takes the transform route when s^2 > d; its
    member K = 4k + j is eigenvector j of block k.
    """
    counts = np.bincount(cache.labels)
    flat = np.flatnonzero(counts[cache.labels] ** 2 > cache.d)
    pairs = cache.labels[flat] * cache.d + flat // 4
    return pairs.size - np.unique(pairs).size, flat.size


class TestFlatBandScatter:
    """The transform route's assignment per batch, against np.add.at."""

    STATES = 5

    def _psis(self, rng, count):
        psis = rng.normal(size=(count, 4)) + 1j * rng.normal(size=(count, 4))
        return psis / np.linalg.norm(psis, axis=1)[:, None]

    # The default cap gives each cache of the pack one batch; 192 = 3
    # columns of d = 16 splits one cache's states over batches; 1000
    # gives each cluster of the larger caches a batch of its own.
    @pytest.mark.parametrize("cap", [None, 3 * 4 * 16, 1000])
    @pytest.mark.parametrize("phi", [0.0, 2.0, None])
    def test_pack_has_the_scatter_add_bits(self, monkeypatch, rng, phi,
                                           cap):
        built = spectral._spectral_caches([(_spec(phi), d)
                                           for d in range(2, 51)])
        caches = [b.cache for b in built]
        psis = self._psis(rng, self.STATES)
        if cap is not None:
            monkeypatch.setattr(_kernels, "_SCAN_CHUNK_AMPS", cap)
        got = spectral._limiting_probs(caches, psis)
        alone = np.concatenate([spectral._limiting_probs([c], psis)
                                for c in caches], axis=1)
        monkeypatch.setattr(spectral, "_add_flat_bands",
                            _scatter_add_flat_bands)
        want = spectral._limiting_probs(caches, psis)
        assert got.tobytes() == want.tobytes()
        assert alone.tobytes() == want.tobytes()

    def test_no_walk_cluster_shares_a_block(self):
        # The flat bands are filled by one assignment per batch; a cluster
        # with two eigenvectors of one block would send every batch of
        # its call through np.add.at.  The C07 grid and the memory walk,
        # one pack per column, and the flat phi at large d.
        seen = []
        for phi in [round(0.1 * m, 10) for m in range(80)] + [None]:
            built = spectral._spectral_caches([(_spec(phi), d)
                                               for d in range(2, 51)])
            seen += [(phi, b.cache.d) + _shared_blocks(b.cache)
                     for b in built]
        for phi in (0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 0.5, None):
            for d in (1023, 1024, 2048, 4095, 4096):
                cache = spectral._spectral_cache(_spec(phi), d)
                seen.append((phi, d) + _shared_blocks(cache))
        assert [s for s in seen if s[2]] == []
        # Each flat walk's two flat bands take the route on every cycle.
        assert all(s[3] >= 2 * s[1] for s in seen
                   if s[0] in (0.0, 2.0, 4.0, 6.0, None))

    @pytest.mark.parametrize("phases", [(0.0, 0.0, 0.0, 0.0),
                                        (0.0, 1.0, 0.0, 1.0),
                                        (0.5, 0.5, 0.5, 2.0)])
    def test_clusters_that_share_a_block(self, monkeypatch, rng, phases):
        # No walk has a transform-route cluster with two eigenvectors of
        # one block (test_no_walk_cluster_shares_a_block); here every
        # block holds 2 to 4 members of one cluster, which np.add.at adds.
        d = 7
        cache = _one_cluster_per_phase(d, phases, rng)
        psis = self._psis(rng, 3)
        got = spectral._limiting_probs([cache], psis)
        for probs, psi in zip(got, psis):
            want = oracles.naive_limit_of(cache.eigenvalues,
                                          cache.eigenvectors, psi)
            assert np.abs(probs - want).max() < 1e-14
        if phases == (0.0, 0.0, 0.0, 0.0):
            # One cluster holds every eigenvector: the start stays put.
            assert np.abs(got - np.eye(d)[0]).max() < 1e-14
        monkeypatch.setattr(_kernels, "_SCAN_CHUNK_AMPS", 4 * d * 2)
        split = spectral._limiting_probs([cache], psis)
        monkeypatch.setattr(spectral, "_add_flat_bands",
                            _scatter_add_flat_bands)
        assert split.tobytes() == spectral._limiting_probs(
            [cache], psis).tobytes()
        monkeypatch.undo()
        monkeypatch.setattr(spectral, "_add_flat_bands",
                            _scatter_add_flat_bands)
        assert got.tobytes() == spectral._limiting_probs(
            [cache], psis).tobytes()

    # At the default cap one column of d = 4096 fills a batch and one of
    # d = 2048 half of one, so a single cache's four states split over
    # four and two batches.
    @pytest.mark.parametrize("phi,d", [(0.0, 4096), (None, 2048)])
    def test_large_cache_has_the_scatter_add_bits(self, monkeypatch, phi,
                                                  d):
        cache = spectral._spectral_cache(_spec(phi), d)
        psis = np.array([named_coin4(n) for n in STATE_NAMES])
        got = spectral._limiting_probs([cache], psis)
        monkeypatch.setattr(spectral, "_add_flat_bands",
                            _scatter_add_flat_bands)
        assert got.tobytes() == spectral._limiting_probs(
            [cache], psis).tobytes()

    @pytest.mark.parametrize("phi", [0.0, 2.0])
    def test_buffers_stay_within_the_cap(self, monkeypatch, phi):
        # The C07 pack, four states: the transform route holds a buffer
        # of at most _SCAN_CHUNK_AMPS amplitudes and the arrays that fill
        # it, and does not set the call's peak.
        caches = [b.cache for b in spectral._spectral_caches(
            [(_spec(phi), d) for d in range(2, 51)])]
        psis = np.array([named_coin4(n) for n in STATE_NAMES])
        real, seen = spectral._add_flat_bands, []

        def measured(*args):
            start, before = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            real(*args)
            seen.append((start, before, tracemalloc.get_traced_memory()[1]))

        monkeypatch.setattr(spectral, "_add_flat_bands", measured)
        spectral._limiting_probs(caches, psis)
        tracemalloc.start()
        try:
            spectral._limiting_probs(caches, psis)
        finally:
            tracemalloc.stop()
        start, before, peak = seen[-1]
        assert peak - start <= 4 * 16 * _kernels._SCAN_CHUNK_AMPS
        assert peak < before


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

    @staticmethod
    def _warned_files(call):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            call()
        assert rec
        assert all(w.category is DegenerateClusterWarning for w in rec)
        return {w.filename for w in rec}

    def test_recycled_warnings_point_at_caller(self):
        cfg, psi = CoinConfig(self.PHIS[0]), named_coin4("psi_a")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClusterWarning)
            cache = spectral_cache(16, cfg)
        for call in (lambda: spectral_cache(16, cfg),
                     lambda: closed_form_distribution(3, cfg, psi, d=16),
                     lambda: limiting_distribution(cfg, 16, psi),
                     lambda: limiting_distribution(cfg, 16, psi,
                                                   cache=cache)):
            assert self._warned_files(call) == {__file__}

    def test_memory_warnings_point_at_caller(self, monkeypatch):
        # The memory walk has no phase gap near PHASE_TOL, so the
        # tolerance moves onto its smallest gap within a block at d = 16.
        lams = spectral_cache_memory(16).eigenvalues
        gaps = spectral._sorted_gaps(np.sort(np.angle(lams), axis=-1))
        monkeypatch.setattr(spectral, "PHASE_TOL",
                            float(gaps[gaps > 1e-12].min()))
        psi = named_coin4("psi_a")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClusterWarning)
            cache = spectral_cache_memory(16)
        for call in (lambda: spectral_cache_memory(16),
                     lambda: limiting_distribution_memory(16, psi),
                     lambda: limiting_distribution_memory(16, psi,
                                                          cache=cache)):
            assert self._warned_files(call) == {__file__}

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
