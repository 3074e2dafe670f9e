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
        blocks = _kernels._shift_blocks(*RECYCLED)
        again = _kernels._shift_blocks(*RECYCLED)
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
