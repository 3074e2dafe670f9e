import numpy as np
import pytest

from cyclewalk import _kernels


def _random_state(rng, d):
    v = rng.normal(size=(d, 4)) + 1j * rng.normal(size=(d, 4))
    v = v.astype(np.complex128)
    return v / np.sqrt(np.sum(np.abs(v) ** 2))


RECYCLED = (_kernels._step_recycled, np.cos(3 * np.pi / 4),
            np.sin(3 * np.pi / 4))
MEMORY = (_kernels._step_memory,)


class TestKernelSemantics:
    def test_accumulate_matches_stepwise(self, rng):
        a = _random_state(rng, 8)
        _, acc = _kernels.evolve_accumulate(a, 12, *RECYCLED)
        manual = np.zeros(8)
        cur = a
        for _ in range(12):
            cur = _kernels.evolve(cur, 1, *RECYCLED)
            manual += np.sum(np.abs(cur) ** 2, axis=1)
        assert np.allclose(acc, manual, atol=1e-13)

    def test_inputs_not_mutated(self, rng):
        a = _random_state(rng, 5)
        before = a.copy()
        _kernels.evolve(a, 10, *RECYCLED)
        _kernels.evolve(a, 10, *MEMORY)
        _kernels.evolve_accumulate(a, 10, *RECYCLED)
        _kernels.normscan(a, 10, *MEMORY)
        assert np.array_equal(a, before)

    def test_normscan_tracks_norm(self, rng):
        a = _random_state(rng, 5)
        _, drift, norm = _kernels.normscan(a, 20, *MEMORY)
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= drift < 1e-13
