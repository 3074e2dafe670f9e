import numpy as np
import pytest

from cyclewalk import MODEL_MEMORY, MODEL_RECYCLED, CoinConfig, _kernels, walk

import oracles


def _random_state(rng, d):
    v = rng.normal(size=(d, 4)) + 1j * rng.normal(size=(d, 4))
    v = v.astype(np.complex128)
    return v / np.sqrt(np.sum(np.abs(v) ** 2))


RECYCLED = walk._walk_spec(MODEL_RECYCLED, CoinConfig(2.0))
MEMORY = walk._walk_spec(MODEL_MEMORY)


class TestKernelSemantics:
    def test_accumulate_matches_stepwise(self, rng):
        # Both walks, on both sides of the momentum/site crossover and
        # across a chunk boundary, against plain stepping and against
        # the dense operators of the oracles.
        cross = _kernels._FOURIER_SCAN_MAX_D
        for d in (8, cross, cross + 1):
            walks = ((RECYCLED, oracles.dense_recycled_operator(d, 2.0)),
                     (MEMORY, oracles.dense_memory_operator(d)))
            for steps in (0, 1, 200, _kernels._scan_chunk_len(d) + 3):
                for spec, op in walks:
                    a = _random_state(rng, d)
                    final, acc = _kernels.evolve_accumulate(a, steps, spec)
                    stepped = dense = a
                    by_step, by_dense = np.zeros(d), np.zeros(d)
                    for _ in range(steps):
                        stepped = _kernels.evolve(stepped, 1, spec)
                        dense = oracles.dense_evolve(dense, op, 1)
                        by_step += np.sum(np.abs(stepped) ** 2, axis=1)
                        by_dense += oracles.dense_distribution(dense)
                    # Compare running averages: sums grow with steps.
                    scale = max(steps, 1)
                    assert np.abs(acc - by_step).max() / scale < 1e-12
                    assert np.abs(acc - by_dense).max() / scale < 1e-12
                    assert np.abs(final - stepped).max() < 1e-12
                    assert np.abs(final - dense).max() < 1e-12

    def test_inputs_not_mutated(self, rng):
        a = _random_state(rng, 5)
        before = a.copy()
        _kernels.evolve(a, 10, RECYCLED)
        _kernels.evolve(a, 10, MEMORY)
        _kernels.evolve_accumulate(a, 10, RECYCLED)
        _kernels.normscan(a, 10, MEMORY)
        # The scan inverts its own buffer in place, never the input.
        for chunk in _kernels._scan(a, 10, RECYCLED):
            assert not np.shares_memory(chunk, a)
        assert np.array_equal(a, before)

    def test_normscan_tracks_norm(self, rng):
        a = _random_state(rng, 5)
        _, drift, norm = _kernels.normscan(a, 20, MEMORY)
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= drift < 1e-13


class TestShiftBlocks:
    def test_memoized_blocks_are_read_only(self):
        # A+, A-, their float forms and the two constant terms of
        # _real_blocks, all from one memoized spec.
        spec = walk._walk_spec(MODEL_RECYCLED, CoinConfig(2.0))
        assert walk._walk_spec(MODEL_RECYCLED, CoinConfig(2.0)) is spec
        for block in (spec.a_plus, spec.a_minus, spec.floats, spec.terms):
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 1.0
            with pytest.raises(ValueError):
                block.setflags(write=True)
            with pytest.raises(ValueError):
                block[0, 0] = 1.0
            with pytest.raises(ValueError):
                block.setflags(write=True)

    def test_coins_one_bit_apart_get_their_own_blocks(self):
        # At phi = 4.05 one bit of phi is one of theta, of c and of s.
        cfg = CoinConfig(4.05)
        near = CoinConfig(np.nextafter(cfg.phi, 0.0))
        assert near.theta != cfg.theta
        a, b = (walk._walk_spec(MODEL_RECYCLED, x) for x in (cfg, near))
        # cos and sin of theta sit in row 1 of A+ and row 3 of A-.
        for spec, x in ((a, cfg), (b, near)):
            c, s = np.cos(x.theta), np.sin(x.theta)
            assert spec.a_plus[1, 2] == c and spec.a_plus[1, 3] == s
            assert spec.a_minus[3, 2] == s and spec.a_minus[3, 3] == -c
        assert not np.array_equal(a.a_plus, b.a_plus)
        assert not np.array_equal(a.a_minus, b.a_minus)


class TestBlocks:
    """The one block builder: M_k = x A+ + conj(x) A-, x = e^{2 pi i k/d}."""

    @pytest.mark.parametrize("d", [2, 3, 8, 353])
    @pytest.mark.parametrize("spec", [RECYCLED, MEMORY],
                             ids=["recycled", "memory"])
    def test_complex_blocks_are_the_formula(self, d, spec):
        x = np.exp(2j * np.pi * np.arange(d) / d)[:, None, None]
        want = x * spec.a_plus + x.conj() * spec.a_minus
        for stop in (None, d // 2 + 1):
            got = _kernels._fourier_blocks(d, spec, stop=stop)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want[:stop])

    @pytest.mark.parametrize("d", [2, 3, 8, 353])
    @pytest.mark.parametrize("spec", [RECYCLED, MEMORY],
                             ids=["recycled", "memory"])
    def test_real_blocks_step_float_views(self, d, spec, rng):
        # A row of 4 amplitudes as 8 interleaved floats times B_k is
        # the float view of M_k v.
        mats = _kernels._fourier_blocks(d, spec)
        real = _kernels._real_blocks(d, spec)
        assert real.shape == (d, 8, 8) and real.dtype == np.float64
        v = rng.uniform(-1, 1, (d, 3, 4)) + 1j * rng.uniform(-1, 1, (d, 3, 4))
        got = v.view(np.float64) @ real
        want = np.einsum("kij,krj->kri", mats, v).view(np.float64)
        assert np.abs(got - want).max() < 1e-15


class TestPowerRoute:
    """evolve from the crossover on: t steps as one power of the blocks."""

    @staticmethod
    def _walks(d):
        # The sparse form of the oracle keeps d = 1025 small in memory.
        sparse = d > 64
        return ((RECYCLED, oracles.dense_recycled_operator(d, 2.0, sparse)),
                (MEMORY, oracles.dense_memory_operator(d, sparse)))

    def test_sparse_oracle_is_the_dense_one(self):
        for dense, sparse in ((oracles.dense_recycled_operator(8, 2.0),
                               oracles.dense_recycled_operator(8, 2.0, True)),
                              (oracles.dense_memory_operator(8),
                               oracles.dense_memory_operator(8, True))):
            assert np.array_equal(sparse.toarray(), dense)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 353, 1025])
    def test_matches_dense_oracle(self, d, rng):
        # d = 2 has no mirrored block, odd d none that is its own
        # mirror, even d the real block d/2.
        cross = _kernels._power_min_steps(d)
        steps = {0, 1, 2, 3, 7, 8, 63, 64, 65, cross - 1, cross, cross + 1}
        assert min(steps) < cross <= max(steps)
        for spec, op in self._walks(d):
            a = _random_state(rng, d)
            before = a.copy()
            for t in sorted(steps):
                got = _kernels.evolve(a, t, spec)
                want = oracles.dense_evolve(a, op, t)
                assert np.abs(got - want).max() < 1e-12, (d, t)
            assert np.array_equal(a, before)

    def test_route_follows_the_crossover(self, rng, monkeypatch):
        # Below the crossover (single steps included) site steps run;
        # from it on, the power of the blocks.
        ladders = []
        squarings = _kernels._squarings
        monkeypatch.setattr(_kernels, "_squarings",
                            lambda p: ladders.append(p) or squarings(p))
        for d in (2, 8, 353, 1025, 4096):
            cross = _kernels._power_min_steps(d)
            assert cross > 2
            a = _random_state(rng, d)
            for t in (1, cross - 1):
                _kernels.evolve(a, t, RECYCLED)
            assert not ladders
            _kernels.evolve(a, cross, RECYCLED)
            assert len(ladders) == 1
            # Only the blocks k <= d/2, in their real 8x8 form.
            assert ladders.pop().shape == (d // 2 + 1, 8, 8)

    @pytest.mark.parametrize("d, cross", [(1024, 13), (2048, 27)])
    def test_route_pinned_either_side_of_the_rule(self, d, cross, rng,
                                                  monkeypatch):
        # The measured break-even: 13-15 steps at d = 1024, 26-28 at 2048.
        assert _kernels._power_min_steps(d) == cross
        ladders = []
        squarings = _kernels._squarings
        monkeypatch.setattr(_kernels, "_squarings",
                            lambda p: ladders.append(p) or squarings(p))
        a = _random_state(rng, d)
        site = _kernels.evolve(a, cross - 1, RECYCLED)
        assert not ladders
        power = _kernels.evolve(a, cross, RECYCLED)
        assert len(ladders) == 1
        assert np.abs(_kernels._site_step(site, RECYCLED) - power).max() < 1e-13

    def test_complex_shift_blocks_rejected(self):
        # Every kernel takes a spec, and no spec holds a complex pair:
        # here the walk out[n] = 1j a[n+1].
        with pytest.raises(ValueError, match="real shift"):
            walk._WalkSpec(1j * np.eye(4), np.zeros((4, 4)), None)
