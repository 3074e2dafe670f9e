import numpy as np
import pytest

from cyclewalk import _kernels

import oracles


def _random_state(rng, d):
    v = rng.normal(size=(d, 4)) + 1j * rng.normal(size=(d, 4))
    v = v.astype(np.complex128)
    return v / np.sqrt(np.sum(np.abs(v) ** 2))


RECYCLED = (_kernels._step_recycled, np.cos(3 * np.pi / 4),
            np.sin(3 * np.pi / 4))
MEMORY = (_kernels._step_memory,)


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
                for rule, op in walks:
                    a = _random_state(rng, d)
                    final, acc = _kernels.evolve_accumulate(a, steps, *rule)
                    stepped = dense = a
                    by_step, by_dense = np.zeros(d), np.zeros(d)
                    for _ in range(steps):
                        stepped = _kernels.evolve(stepped, 1, *rule)
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
        _kernels.evolve(a, 10, *RECYCLED)
        _kernels.evolve(a, 10, *MEMORY)
        _kernels.evolve_accumulate(a, 10, *RECYCLED)
        _kernels.normscan(a, 10, *MEMORY)
        # The scan inverts its own buffer in place, never the input.
        for chunk in _kernels._scan(a, 10, *RECYCLED):
            assert not np.shares_memory(chunk, a)
        assert np.array_equal(a, before)

    def test_normscan_tracks_norm(self, rng):
        a = _random_state(rng, 5)
        _, drift, norm = _kernels.normscan(a, 20, *MEMORY)
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= drift < 1e-13


class TestShiftBlocks:
    def test_memoized_blocks_are_read_only(self):
        # A+, A- and the two constant terms of _real_blocks.
        blocks = (*_kernels._shift_blocks(*RECYCLED),
                  _kernels._block_terms(*RECYCLED))
        again = (*_kernels._shift_blocks(*RECYCLED),
                 _kernels._block_terms(*RECYCLED))
        for block, same in zip(blocks, again):
            assert block is same
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 1.0
            with pytest.raises(ValueError):
                block.setflags(write=True)

    def test_coins_one_bit_apart_get_their_own_blocks(self):
        step, c, s = RECYCLED
        near = np.nextafter(c, 0.0)
        assert near != c
        a_plus, a_minus = _kernels._shift_blocks(step, c, s)
        b_plus, b_minus = _kernels._shift_blocks(step, near, s)
        # c sits in row 1 of A+ and row 3 of A- (see _step_recycled).
        assert a_plus[1, 2] == c and b_plus[1, 2] == near
        assert a_minus[3, 3] == -c and b_minus[3, 3] == -near


class TestBlocks:
    """The one block builder: M_k = x A+ + conj(x) A-, x = e^{2 pi i k/d}."""

    @pytest.mark.parametrize("d", [2, 3, 8, 353])
    @pytest.mark.parametrize("rule", [RECYCLED, MEMORY],
                             ids=["recycled", "memory"])
    def test_complex_blocks_are_the_formula(self, d, rule):
        a_plus, a_minus = _kernels._shift_blocks(*rule)
        x = np.exp(2j * np.pi * np.arange(d) / d)[:, None, None]
        want = x * a_plus + x.conj() * a_minus
        for stop in (None, d // 2 + 1):
            got = _kernels._fourier_blocks(d, *rule, stop=stop)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want[:stop])

    @pytest.mark.parametrize("d", [2, 3, 8, 353])
    @pytest.mark.parametrize("rule", [RECYCLED, MEMORY],
                             ids=["recycled", "memory"])
    def test_real_blocks_step_float_views(self, d, rule, rng):
        # A row of 4 amplitudes as 8 interleaved floats times B_k is
        # the float view of M_k v.
        mats = _kernels._fourier_blocks(d, *rule)
        real = _kernels._real_blocks(d, *rule)
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
        for rule, op in self._walks(d):
            a = _random_state(rng, d)
            before = a.copy()
            for t in sorted(steps):
                got = _kernels.evolve(a, t, *rule)
                want = oracles.dense_evolve(a, op, t)
                assert np.abs(got - want).max() < 1e-12, (d, t)
            assert np.array_equal(a, before)

    def test_route_follows_the_crossover(self, rng, monkeypatch):
        # Below the crossover (single steps included) the site rule
        # runs; from it on, the power of the blocks.
        ladders = []
        squarings = _kernels._squarings
        monkeypatch.setattr(_kernels, "_squarings",
                            lambda p: ladders.append(p) or squarings(p))
        for d in (2, 8, 353, 1025, 4096):
            cross = _kernels._power_min_steps(d)
            assert cross > 2
            a = _random_state(rng, d)
            for t in (1, cross - 1):
                _kernels.evolve(a, t, *RECYCLED)
            assert not ladders
            _kernels.evolve(a, cross, *RECYCLED)
            assert len(ladders) == 1
            # Only the blocks k <= d/2, in their real 8x8 form.
            assert ladders.pop().shape == (d // 2 + 1, 8, 8)

    def test_complex_shift_blocks_rejected(self):
        def step(a):
            return 1j * np.roll(a, -1, axis=0)
        table = np.eye(4, dtype=np.complex128)[:3]
        with pytest.raises(ValueError, match="real shift"):
            _kernels.evolve(table, 40, step)
        # The scan steps the same blocks, so it rejects the rule too.
        with pytest.raises(ValueError, match="real shift"):
            _kernels.normscan(table, 40, step)
        with pytest.raises(ValueError, match="real shift"):
            _kernels.evolve_accumulate(table, 40, step)
