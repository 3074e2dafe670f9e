import tracemalloc

import numpy as np
import pytest

from cyclewalk import MODEL_MEMORY, MODEL_RECYCLED, CoinConfig, _kernels, walk
from cyclewalk.analysis import default_horizons

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


def _stepped_sums(a, horizons, spec, op):
    """Sums of p(., t), t < h, by one-step evolve and by the dense oracle."""
    by_step, by_dense = [], []
    stepped = dense = a
    step_sum, dense_sum = np.zeros(a.shape[0]), np.zeros(a.shape[0])
    for t in range(horizons[-1]):
        step_sum += np.sum(np.abs(stepped) ** 2, axis=1)
        dense_sum += oracles.dense_distribution(dense)
        if t + 1 in horizons:
            by_step.append(step_sum.copy())
            by_dense.append(dense_sum.copy())
        stepped = _kernels.evolve(stepped, 1, spec)
        dense = oracles.dense_evolve(dense, op, 1)
    return np.array(by_step), np.array(by_dense)


class TestSums:
    """Running sums: the Gram route from the rule on, the stream below it."""

    @staticmethod
    def _routes(monkeypatch, run=True):
        """Record each route taken; with run=False, take none of them."""
        ran = []
        for name in ("_gram_sums", "_stream_sums"):
            real = getattr(_kernels, name) if run else lambda *args: None
            monkeypatch.setattr(
                _kernels, name,
                lambda *args, _real=real, _name=name:
                ran.append(_name) or _real(*args))
        return ran

    @pytest.mark.parametrize("d", [5, 12])
    def test_matches_stepping_either_side_of_the_rule(self, d, rng,
                                                      monkeypatch):
        # Horizons 1, 2^m, 2^m + 1 and an odd last one; 2051 >= 256
        # and >= 2 d c for their c = 14 conjugations takes the Gram
        # route, 201 < 256 the stream.
        ran = self._routes(monkeypatch)
        cases = (((1, 64, 65, 201), "_stream_sums"),
                 ((1, 2048, 2049, 2051), "_gram_sums"))
        walks = ((RECYCLED, oracles.dense_recycled_operator(d, 2.0)),
                 (MEMORY, oracles.dense_memory_operator(d)))
        for horizons, route in cases:
            for spec, op in walks:
                a = _random_state(rng, d)
                before = a.copy()
                got = _kernels.sums(a, horizons, spec)
                assert ran.pop() == route and not ran
                by_step, by_dense = _stepped_sums(a, horizons, spec, op)
                scale = np.array(horizons)[:, None]
                assert got.shape == (len(horizons), d)
                assert (np.abs(got - by_step) / scale).max() < 1e-12
                assert (np.abs(got - by_dense) / scale).max() < 1e-12
                assert np.array_equal(a, before)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 12, 128])
    def test_routes_agree(self, d, rng):
        # Every bit pattern up to 2^7, the combine of several set bits
        # in particular, a lone horizon T = 1, and horizons on either
        # side of the stream's chunk boundaries (T = c + 1 ends on one),
        # from a non-localized complex table and from a real named
        # start away from site 0, for both walks.  d = 5 and 12 are the
        # long-horizon benchmark's cycles, d = 128 the Gram cap.
        c = _kernels._scan_chunk_len(d)
        named = walk.WalkState.localized(
            d, walk.InitialState.named("psi_c", d // 2)).amplitudes
        for spec in (RECYCLED, MEMORY):
            for a in (_random_state(rng, d), named):
                for horizons in ((1,), (2,), (3,), (1, 2, 3, 5, 6, 7, 8, 9),
                                 (11, 64, 65, 127, 128, 129, 255),
                                 (c, c + 1, c + 2, 2 * c + 1, 2 * c + 3)):
                    gram = _kernels._gram_sums(a, horizons, spec)
                    stream = _kernels._stream_sums(a, horizons, spec)
                    scale = np.array(horizons)[:, None]
                    assert (np.abs(gram - stream) / scale).max() < 1e-12
                p0 = np.sum(np.abs(a) ** 2, axis=1)
                for route in (_kernels._gram_sums, _kernels._stream_sums):
                    got = route(a, (1,), spec)[0]
                    assert np.abs(got - p0).max() < 1e-15

    def test_conjugations_counted(self, rng, monkeypatch):
        # The rule prices the Gram route by the Q^T G Q products it
        # takes: one per doubling, one per set bit of a horizon but its
        # lowest.
        count = []
        real = _kernels._conjugated
        monkeypatch.setattr(_kernels, "_conjugated",
                            lambda *args: count.append(1) or real(*args))
        a = _random_state(rng, 4)
        for horizons, want in (((1,), 0), ((2,), 1), ((3,), 2), ((8,), 3),
                               ((1, 2, 4, 8), 3), ((7, 8), 5),
                               ((5, 6, 7), 6), ((255,), 14),
                               (tuple(range(9, 16)), 15)):
            assert _kernels._conjugations(horizons) == want
            _kernels._gram_sums(a, horizons, RECYCLED)
            assert len(count) == want
            count.clear()

    @pytest.mark.parametrize("d, stream, gram", [
        (8, 255, 256),      # the floor: 2 d c is below 256 here
        (32, 639, 640),     # 16 conjugations against 10; 640 = 2 d 10
        (128, 3071, 3072),  # 21 conjugations against 12; 3072 = 2 d 12
    ])
    def test_route_pinned_either_side_of_the_rule(self, d, stream, gram,
                                                  monkeypatch):
        # The measured break-even: T = max(256, 2 d c) for the c
        # conjugations of the Gram route, for d <= 128.
        ran = self._routes(monkeypatch, run=False)
        a = np.zeros((d, 4), dtype=np.complex128)
        for horizons in ((stream,), (1, 2, stream)):
            _kernels.sums(a, horizons, RECYCLED)
            assert ran.pop() == "_stream_sums"
        for horizons in ((gram,), (1, 2, gram), (1, 2, 10 ** 9)):
            _kernels.sums(a, horizons, RECYCLED)
            assert ran.pop() == "_gram_sums"

    def test_horizon_count_bounds_the_grams(self, monkeypatch):
        # More horizons than bit_length(T) + 1 would hold more Grams at
        # once, however cheap their conjugations.
        ran = self._routes(monkeypatch, run=False)
        a = np.zeros((8, 4), dtype=np.complex128)
        steps = 1 << 20
        many = tuple(range(1, steps.bit_length() + 2))
        _kernels.sums(a, many + (steps,), RECYCLED)
        assert ran.pop() == "_stream_sums"
        _kernels.sums(a, many[1:] + (steps,), RECYCLED)
        assert ran.pop() == "_gram_sums"

    def test_many_multi_bit_horizons_stream(self, monkeypatch):
        # Fifteen horizons just below 2^14 take 180 conjugations, about
        # 13 times those of T = 2^14 alone: the Gram route would be
        # nearly twice as slow as the stream at d = 128, and is still
        # the faster at d = 32.
        ran = self._routes(monkeypatch, run=False)
        horizons = tuple(range(16369, 16384))
        assert _kernels._conjugations(horizons) == 180
        for d, route in ((32, "_gram_sums"), (64, "_stream_sums"),
                         (128, "_stream_sums")):
            a = np.zeros((d, 4), dtype=np.complex128)
            _kernels.sums(a, horizons, RECYCLED)
            assert ran.pop() == route
        a = np.zeros((128, 4), dtype=np.complex128)
        _kernels.sums(a, (16384,), RECYCLED)
        assert ran.pop() == "_gram_sums"

    def test_stream_above_the_gram_cap(self, monkeypatch):
        # A Gram has (8h)^2 entries, h = d//2 + 1; above d = 128 the sums
        # stream in O(d) memory at any horizon.
        ran = self._routes(monkeypatch, run=False)
        assert _kernels._GRAM_MAX_D == 128
        for d, route in ((128, "_gram_sums"), (129, "_stream_sums"),
                         (4096, "_stream_sums")):
            a = np.zeros((d, 4), dtype=np.complex128)
            _kernels.sums(a, (10 ** 9,), RECYCLED)
            assert ran.pop() == route

    def test_long_horizons_take_the_gram_route(self):
        # C09's one horizon and the mixing curve's default horizons at
        # T = 10^4, on the cycles of the long-horizon benchmark and
        # around them.
        for d in range(5, 13):
            assert _kernels._gram_route(d, (10 ** 4,))
            assert _kernels._gram_route(d, default_horizons(10 ** 4))

    def test_gram_memory_is_three_grams(self, rng):
        # At the cap a Gram is 2.1 MiB; one horizon holds the Gram and a
        # conjugation's two products at a time.
        a = _random_state(rng, 128)
        tracemalloc.start()
        try:
            _kernels._gram_sums(a, (1 << 14,), RECYCLED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9e6

    def test_accumulate_on_the_gram_route(self, rng, monkeypatch):
        # acc sums t = 1..steps: the sums started one step in.
        ran = self._routes(monkeypatch)
        d, steps = 8, 1537
        for spec, op in ((RECYCLED, oracles.dense_recycled_operator(d, 2.0)),
                         (MEMORY, oracles.dense_memory_operator(d))):
            a = _random_state(rng, d)
            final, acc = _kernels.evolve_accumulate(a, steps, spec)
            assert ran.pop() == "_gram_sums" and not ran
            by_step, by_dense = _stepped_sums(a, (steps + 1,), spec, op)
            p0 = np.sum(np.abs(a) ** 2, axis=1)
            assert np.abs(acc - (by_step[0] - p0)).max() / steps < 1e-12
            assert np.abs(acc - (by_dense[0] - p0)).max() / steps < 1e-12
            want = oracles.dense_evolve(a, op, steps)
            assert np.abs(final - want).max() < 1e-12

    def test_gram_route_takes_no_eigendecomposition(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition in the running sums")
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        a = _random_state(rng, 7)
        want = _kernels._stream_sums(a, (1, 1024, 1100), MEMORY)
        got = _kernels.sums(a, (1, 1024, 1100), MEMORY)
        assert np.abs(got - want).max() / 1100 < 1e-13
        assert not hasattr(_kernels, "spectral")


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

    def test_memory_walk_has_one_spec(self):
        # The memory walk has no free parameter: a cfg passed with it
        # gets the one spec, so the spectral module groups its caches
        # as one walk.
        assert walk._walk_spec(MODEL_MEMORY, CoinConfig(1.0)) \
            is walk._walk_spec(MODEL_MEMORY) is MEMORY

    def test_memory_calls_leave_the_spec_cache_alone(self):
        # 300 memory-walk calls, each with a cfg of its own, take no
        # entry of the recycled walk's cache and evict none of it.
        spec = walk._walk_spec(MODEL_RECYCLED, CoinConfig(2.0))
        before = walk._recycled_spec.cache_info()
        for p in range(300):
            assert walk._walk_spec(MODEL_MEMORY, CoinConfig(0.01 * p)) \
                is MEMORY
        assert walk._recycled_spec.cache_info() == before
        assert walk._walk_spec(MODEL_RECYCLED, CoinConfig(2.0)) is spec

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

    @pytest.mark.parametrize("d", [2, 4, 6, 10, 12, 64, 4098])
    @pytest.mark.parametrize("spec", [RECYCLED, MEMORY],
                             ids=["recycled", "memory"])
    def test_even_cycles_mirror_half_a_turn(self, d, spec):
        # x flips sign when k moves by d/2: M_{k+d/2} = -M_k and
        # M_{d/2-k} = -conj(M_k), to rounding in x.
        mats = _kernels._fourier_blocks(d, spec)
        k = np.arange(d // 2)
        assert np.abs(mats[k + d // 2] + mats[k]).max() <= 1e-15
        assert np.abs(mats[d // 2 - k] + mats[k].conj()).max() <= 1e-15

    @pytest.mark.parametrize("ds", [[2], [3], [4], [6], [9], [12],
                                    list(range(2, 51)), [4097, 4098]])
    def test_rep_blocks_are_the_first_blocks(self, ds):
        # k <= d/4 on even d, k <= d/2 on odd d, each d in turn.
        stops = [d // 4 + 1 if d % 2 == 0 else d // 2 + 1 for d in ds]
        assert _kernels._rep_stops(ds) == stops
        for spec in (RECYCLED, MEMORY):
            want = np.concatenate([_kernels._fourier_blocks(d, spec, stop=s)
                                   for d, s in zip(ds, stops)])
            assert _kernels._rep_blocks(ds, spec).tobytes() == want.tobytes()


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
            walk._WalkSpec(1j * np.eye(4), (1, 1, 1, 1), None)


def _site_stepped(a, steps, spec):
    """steps full-cycle site steps, without evolve."""
    for _ in range(steps):
        a = _kernels._site_step(a, spec)
    return a


class TestWindowRoute:
    """evolve's power route on the arc that the walk can reach."""

    @staticmethod
    def _ladders(monkeypatch):
        """Record the block stack of each squaring ladder."""
        ladders = []
        squarings = _kernels._squarings
        monkeypatch.setattr(_kernels, "_squarings",
                            lambda p: ladders.append(p.shape) or squarings(p))
        return ladders

    @pytest.mark.parametrize("d", [40, 41, 1024, 1025])
    def test_matches_oracles_and_site_steps(self, d, rng, monkeypatch):
        # A start at site 0, one at d - 1 and a mixed-parity one whose
        # arc wraps past d - 1 -> 0; the arc and t steps either side
        # fill d - 2 or d - 1 sites (window), d or d + 1 (whole cycle).
        ladders = self._ladders(monkeypatch)
        starts = ([0], [d - 1], [d - 2, 0, 1])
        for spec, op in TestPowerRoute._walks(d):
            for rows in starts:
                width = 1 if len(rows) == 1 else 4
                a = np.zeros((d, 4), dtype=np.complex128)
                a[rows] = _random_state(rng, len(rows))
                before = a.copy()
                for size in (d - 2, d - 1, d, d + 1):
                    if (size - width) % 2:
                        continue
                    t = (size - width) // 2
                    assert t >= _kernels._power_min_steps(d)
                    got = _kernels.evolve(a, t, spec)
                    window = size < d
                    assert ladders.pop() == (
                        (size if window else d) // 2 + 1, 8, 8)
                    assert not ladders
                    want = oracles.dense_evolve(a, op, t)
                    assert np.abs(got - want).max() < 1e-12, (d, rows, t)
                    stepped = _site_stepped(a, t, spec)
                    assert np.abs(got - stepped).max() < 1e-12, (d, rows, t)
                    assert np.array_equal(a, before)
                    if not window:
                        continue
                    # Outside the cone, and off parity for a start on
                    # one site, every row is exactly 0.
                    first = rows[0] - t
                    reach = np.zeros(d, dtype=bool)
                    offsets = np.arange(size)
                    if len(rows) == 1:
                        offsets = offsets[::2]
                    reach[(first + offsets) % d] = True
                    assert np.all(got[~reach] == 0.0)
                    assert np.count_nonzero(got.any(axis=1)) == reach.sum()

    def test_far_rows_share_one_window(self, rng, monkeypatch):
        # Rows 0, 2 and 6 of 64: one parity, arc width 7; at t = 20 the
        # window holds 47 sites, its odd offsets exactly 0.
        ladders = self._ladders(monkeypatch)
        d, t = 64, 20
        a = np.zeros((d, 4), dtype=np.complex128)
        a[[0, 2, 6]] = _random_state(rng, 3)
        for spec, op in TestPowerRoute._walks(d):
            got = _kernels.evolve(a, t, spec)
            assert ladders.pop() == (47 // 2 + 1, 8, 8)
            assert np.abs(got - oracles.dense_evolve(a, op, t)).max() < 1e-12
            sites = np.arange(-t, 7 + t) % d
            assert np.all(np.delete(got, sites[::2], axis=0) == 0.0)
            assert np.all(got[sites[::2]].any(axis=1))

    def test_zero_table_stays_zero(self):
        a = np.zeros((64, 4), dtype=np.complex128)
        assert np.all(_kernels.evolve(a, 20, RECYCLED) == 0.0)

    @pytest.mark.parametrize("rows, start, width, even", [
        ([0], 0, 1, True), ([63], 63, 1, True), ([62, 0, 1], 62, 4, False),
        ([0, 2, 6], 0, 7, True), ([10, 40], 10, 31, True),
        ([0, 22, 43], 22, 43, False), ([], 0, 0, True)])
    def test_support_arc(self, rows, start, width, even):
        # The widest gap is left out: on the 64-cycle, rows 10 and 40
        # are 30 apart one way and 34 the other.  Rows 0, 22 and 43
        # have gaps 22, 21, 21, so the arc runs from 22 past the wrap.
        a = np.zeros((64, 4), dtype=np.complex128)
        a[rows, 2] = 1j
        assert _kernels._support_arc(a) == (start, width, even)

    def test_odd_cycle_parity_runs_along_the_arc(self):
        # On the 63-cycle, rows 61 and 0 are two steps apart along the
        # arc, though 61 is odd and 0 even.
        a = np.zeros((63, 4), dtype=np.complex128)
        a[[61, 0], 0] = 1.0
        assert _kernels._support_arc(a) == (61, 3, True)

    def test_guard_skips_the_scan(self, rng, monkeypatch):
        # Below the crossover (single steps included) and where the cone
        # of one site covers the cycle, evolve never looks for the
        # support; a localized start just inside both bounds does.
        scans = []
        arc = _kernels._support_arc
        monkeypatch.setattr(_kernels, "_support_arc",
                            lambda a: scans.append(a.shape[0]) or arc(a))
        for d in (8, 40, 353, 4096):
            cross = _kernels._power_min_steps(d)
            a = np.zeros((d, 4), dtype=np.complex128)
            a[0] = _random_state(rng, 1)
            for t in {1, cross - 1, (d - 1) // 2, d // 2, d}:
                if t < cross or 2 * t + 1 >= d:
                    _kernels.evolve(a, t, MEMORY)
            assert not scans
            if 2 * cross + 1 < d:
                _kernels.evolve(a, cross, MEMORY)
                assert scans.pop() == d
