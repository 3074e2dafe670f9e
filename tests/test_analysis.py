"""Distances, equivalence checks, sweeps and time averages."""

import concurrent.futures
import itertools
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from cyclewalk import (MODEL_MEMORY, MODEL_RECYCLED, STATE_NAMES, CoinConfig,
                       Distribution, InitialState, WalkState, _kernels,
                       analysis, named_coin4, spectral, walk)
from cyclewalk.analysis import (SweepGrid, classify_uniform, crosscheck_limiting,
                                default_horizons, mixing_curve,
                                residue_distance_curve, sweep,
                                theorem1_max_deviation, theorem2_max_deviation,
                                total_variation, tv_from_uniform,
                                verify_pbar_identities, verify_theorem1,
                                verify_theorem2)
from cyclewalk.walk import (apply_P_adjoint, apply_Q, evolve,
                            position_distribution)


def _rand_dist(rng, d):
    w = rng.random(d)
    return w / w.sum()


def _recycled_spec(phi):
    return walk._walk_spec(MODEL_RECYCLED, CoinConfig(phi))


MEMORY_SPEC = walk._walk_spec(MODEL_MEMORY)

# Cycles on both sides of the momentum/site crossover of the kernel scan.
CHUNKED_D = (11, _kernels._FOURIER_SCAN_MAX_D + 1)


def _localized(d, coin4):
    return WalkState.localized(d, InitialState(0, coin4)).amplitudes


def _stepped_max_gap(t_max, lhs, rhs):
    """Worst |p_l - p_r| over t = 0..t_max, one kernel step at a time.

    lhs and rhs are (amplitudes, walk spec) pairs.
    """
    (a, spec_a), (b, spec_b) = lhs, rhs
    worst = 0.0
    for t in range(t_max + 1):
        if t:
            a = _kernels.evolve(a, 1, spec_a)
            b = _kernels.evolve(b, 1, spec_b)
        gap = np.abs(np.sum(np.abs(a) ** 2, axis=1)
                     - np.sum(np.abs(b) ** 2, axis=1)).max()
        worst = max(worst, float(gap))
    return worst


def _chunk_t_max(d):
    # Three steps into the second chunk of the scan.
    return _kernels._scan_chunk_len(d) + 3


class TestTotalVariation:
    def test_identical_is_zero(self):
        p = np.array([0.25, 0.25, 0.5])
        assert total_variation(p, p) == 0.0

    def test_disjoint_support_is_one(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_half_shift(self):
        assert total_variation([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.5)

    def test_accepts_distribution_objects(self):
        d1 = Distribution(2, np.array([1.0, 0.0]))
        d2 = Distribution.uniform(2)
        assert total_variation(d1, d2) == pytest.approx(0.5)
        assert total_variation(d1, np.array([0.5, 0.5])) == pytest.approx(0.5)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 12))
            p, q, r = (_rand_dist(rng, d) for _ in range(3))
            assert total_variation(p, q) == pytest.approx(total_variation(q, p))
            assert (total_variation(p, r)
                    <= total_variation(p, q) + total_variation(q, r) + 1e-15)
            assert 0.0 <= total_variation(p, q) <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different cycles"):
            total_variation([0.5, 0.5], [1.0, 0.0, 0.0])

    def test_from_uniform_matches_total_variation(self, rng):
        for d in (2, 3, 7, 50):
            p = Distribution(d, _rand_dist(rng, d))
            assert tv_from_uniform(p) == total_variation(
                p, Distribution.uniform(d))


class TestClassifyUniform:
    def test_uniform_is_uniform(self):
        assert classify_uniform(Distribution.uniform(7), 1e-6)

    def test_point_mass_is_not(self):
        probs = np.zeros(7)
        probs[3] = 1.0
        assert not classify_uniform(Distribution(7, probs), 1e-6)

    def test_limiting_example(self):
        # generic phi on an odd cycle mixes to uniform
        dist = spectral.limiting_distribution(CoinConfig(0.5), 5,
                                              named_coin4("psi_a"))
        assert classify_uniform(dist, 1e-6)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            classify_uniform(Distribution.uniform(3), 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            classify_uniform(Distribution.uniform(3), -1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_epsilon_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            classify_uniform(Distribution.uniform(3), bad)


class TestTheorem1:
    def test_step_zero_is_exact(self):
        assert verify_theorem1(9, 0, 1.3, named_coin4("psi_c")) == 0.0

    def test_hadamard_phi_zero(self):
        assert verify_theorem1(11, 40, 0.0, named_coin4("psi_b")) < 1e-10

    def test_phi_one(self):
        assert verify_theorem1(24, 60, 1.0, named_coin4("psi_c")) < 1e-10

    @pytest.mark.parametrize("phi", [0.0, 0.7, 2.0, 3.3])
    def test_max_deviation_over_time(self, phi):
        assert theorem1_max_deviation(10, 30, phi, named_coin4("psi_d")) < 1e-10

    def test_random_states(self, rng, random_coin4):
        for _ in range(5):
            phi = float(rng.uniform(0.0, 8.0))
            assert verify_theorem1(7, 25, phi, random_coin4()) < 1e-10

    def test_translation_invariance(self):
        # the identity holds verbatim from any start site
        coin = named_coin4("psi_b")
        base = theorem1_max_deviation(9, 20, 0.7, InitialState(0, coin))
        for s in (1, 2):
            dev = theorem1_max_deviation(9, 20, 0.7, InitialState(s, coin))
            assert dev < 1e-10
            assert abs(dev - base) < 1e-12

    def test_negative_t_max_rejected(self):
        # An empty range of steps would check nothing and pass.
        with pytest.raises(ValueError, match="t_max"):
            theorem1_max_deviation(5, -1, 0.5, named_coin4("psi_b"))

    @pytest.mark.parametrize("d", CHUNKED_D)
    def test_across_chunk_boundary(self, d):
        phi, psi = 0.7, named_coin4("psi_d")
        t_max = _chunk_t_max(d)
        ref = _stepped_max_gap(
            t_max, (_localized(d, psi), _recycled_spec(phi)),
            (_localized(d, apply_Q(psi)), _recycled_spec(-(2.0 + phi))))
        dev = theorem1_max_deviation(d, t_max, phi, psi)
        assert dev < 1e-10
        assert abs(dev - ref) < 1e-12

    @pytest.mark.parametrize("d", CHUNKED_D)
    def test_detects_missing_q(self, d, monkeypatch):
        # Without Q the two sides are different walks: the streamed gap
        # must be large and equal the one-step reference, time by time
        # aligned across the chunk boundary.
        phi, psi = 0.7, named_coin4("psi_d")
        t_max = _chunk_t_max(d)
        ref = _stepped_max_gap(
            t_max, (_localized(d, psi), _recycled_spec(phi)),
            (_localized(d, psi), _recycled_spec(-(2.0 + phi))))
        monkeypatch.setattr(analysis, "apply_Q", np.array)
        dev = theorem1_max_deviation(d, t_max, phi, psi)
        assert dev > 1e-3
        assert abs(dev - ref) < 1e-12


class TestTheorem2:
    def test_step_zero_is_exact(self):
        assert verify_theorem2(6, 0, named_coin4("psi_b")) == 0.0

    def test_psi_a(self):
        assert verify_theorem2(7, 30, named_coin4("psi_a")) < 1e-10

    def test_psi_d_max_deviation(self):
        assert theorem2_max_deviation(12, 50, named_coin4("psi_d")) < 1e-10

    def test_random_states(self, random_coin4):
        for _ in range(5):
            assert verify_theorem2(9, 25, random_coin4()) < 1e-10

    def test_translation_invariance(self):
        coin = named_coin4("psi_c")
        for s in (0, 1, 2):
            assert theorem2_max_deviation(8, 20, InitialState(s, coin)) < 1e-10

    def test_negative_t_max_rejected(self):
        with pytest.raises(ValueError, match="t_max"):
            theorem2_max_deviation(5, -3, named_coin4("psi_b"))

    @pytest.mark.parametrize("d", CHUNKED_D)
    def test_across_chunk_boundary(self, d):
        psi = named_coin4("psi_d")
        t_max = _chunk_t_max(d)
        ref = _stepped_max_gap(
            t_max, (_localized(d, psi), _recycled_spec(2.0)),
            (_localized(d, apply_P_adjoint(psi)), MEMORY_SPEC))
        dev = theorem2_max_deviation(d, t_max, psi)
        assert dev < 1e-10
        assert abs(dev - ref) < 1e-12

    @pytest.mark.parametrize("d", CHUNKED_D)
    def test_detects_missing_p_adjoint(self, d, monkeypatch):
        psi = named_coin4("psi_d")
        t_max = _chunk_t_max(d)
        ref = _stepped_max_gap(
            t_max, (_localized(d, psi), _recycled_spec(2.0)),
            (_localized(d, psi), MEMORY_SPEC))
        monkeypatch.setattr(analysis, "apply_P_adjoint", np.array)
        dev = theorem2_max_deviation(d, t_max, psi)
        assert dev > 1e-3
        assert abs(dev - ref) < 1e-12


class TestPbarIdentities:
    def test_pairs_reported(self):
        out = verify_pbar_identities(5, named_coin4("psi_a"))
        assert set(out) == {(0.0, 6.0), (2.0, 4.0), (1.0, 5.0)}

    def test_spec_scale_examples(self):
        # each pair on the cycle size where the effect was first seen
        assert verify_pbar_identities(42, named_coin4("psi_a"))[(0.0, 6.0)] < 1e-8
        assert verify_pbar_identities(11, named_coin4("psi_b"))[(2.0, 4.0)] < 1e-8
        assert verify_pbar_identities(24, named_coin4("psi_c"))[(1.0, 5.0)] < 1e-8

    def test_all_pairs_small(self, random_coin4):
        for d in (7, 12):
            out = verify_pbar_identities(d, random_coin4())
            assert max(out.values()) < 1e-8

    def test_accepts_initial_state(self):
        out = verify_pbar_identities(9, InitialState.named("psi_d"))
        assert max(out.values()) < 1e-8

    def test_rejects_off_origin_start(self):
        with pytest.raises(ValueError, match="position 0"):
            verify_pbar_identities(9, InitialState.named("psi_d", position=2))


class TestResidueCurve:
    def test_multiples_of_four_vanish(self):
        pts = residue_distance_curve((4, 8, 12, 16), named_coin4("psi_a"))
        for d, mod, tv in pts:
            assert mod == 0
            assert tv < 1e-8

    def test_class_ordering_at_matched_r(self):
        pts = dict((d, tv) for d, _, tv
                   in residue_distance_curve((20, 21, 22, 23),
                                             named_coin4("psi_a")))
        assert pts[22] > pts[21] > pts[23] > pts[20]

    def test_psi_a_decays_within_class(self):
        pts = [tv for _, _, tv
               in residue_distance_curve((10, 22, 46), named_coin4("psi_a"))]
        assert pts[0] > pts[1] > pts[2]
        assert pts[2] < 0.02

    def test_psi_c_does_not_decay(self):
        pts = [tv for _, _, tv
               in residue_distance_curve((6, 22, 58), named_coin4("psi_c"))]
        assert pts[-1] > 0.3
        assert pts[-1] > pts[0]

    def test_large_d_classes(self):
        # d = 4096..4099: one flat-band limit pair per d.
        pts = residue_distance_curve((4096, 4097, 4098, 4099),
                                     named_coin4("psi_a"))
        assert [m for _, m, _ in pts] == [0, 1, 2, 3]
        tvs = [tv for _, _, tv in pts]
        assert tvs[0] < 1e-12
        assert tvs[2] == max(tvs)

    def test_mod_column(self):
        pts = residue_distance_curve((5, 6, 7, 8), named_coin4("psi_b"))
        assert [m for _, m, _ in pts] == [1, 2, 3, 0]


class TestWholeNumberInputs:
    """Each step count, time, horizon and cycle length is read whole."""

    @pytest.mark.parametrize("call, message", [
        (lambda psi: verify_theorem1(5, 3.5, 0.5, psi.coin4),
         "step count must be an integer, got 3.5"),
        (lambda psi: theorem1_max_deviation(5, 3.5, 0.5, psi.coin4),
         "t_max must be an integer, got 3.5"),
        (lambda psi: default_horizons(10.0),
         "t_max must be an integer, got 10.0"),
        (lambda psi: mixing_curve(5, 0.5, psi, 10.5),
         "t_max must be an integer, got 10.5"),
        (lambda psi: crosscheck_limiting(5, 0.5, psi, 100.5),
         "t_horizon must be an integer, got 100.5"),
        (lambda psi: SweepGrid(d_values=(7.9,), phi_values=(0.5,),
                               states=(psi,)),
         "cycle length d must be an integer, got 7.9"),
        (lambda psi: theorem1_max_deviation(5, -1, 0.5, psi.coin4),
         "t_max must be >= 0, got -1"),
        (lambda psi: default_horizons(0), "t_max must be >= 1, got 0"),
        (lambda psi: crosscheck_limiting(5, 0.5, psi, 0),
         "t_horizon must be >= 1, got 0"),
        (lambda psi: SweepGrid(d_values=(4, 1), phi_values=(0.5,),
                               states=(psi,)),
         "cycle length d must be >= 2, got 1"),
        (lambda psi: sweep(SweepGrid((4,), (0.5,), (psi,)), jobs=0),
         "jobs must be >= 1, got 0"),
    ], ids=["theorem1-t", "theorem1-t-max", "horizons-t-max",
            "mixing-t-max", "crosscheck-t", "sweep-d", "negative-t-max",
            "zero-horizon", "zero-crosscheck-t", "sweep-d-of-one",
            "zero-jobs"])
    def test_messages(self, call, message):
        # SweepGrid once swept d = 7 for 7.9.
        with pytest.raises(ValueError) as info:
            call(InitialState.named("psi_b"))
        assert str(info.value) == message

    def test_numpy_integers_give_the_same_values(self):
        psi = InitialState.named("psi_b")
        n = np.int64
        assert (theorem1_max_deviation(n(7), n(20), 0.5, psi.coin4)
                == theorem1_max_deviation(7, 20, 0.5, psi.coin4))
        assert (crosscheck_limiting(n(7), 0.5, psi, n(300))
                == crosscheck_limiting(7, 0.5, psi, 300))
        assert default_horizons(n(10)) == default_horizons(10)
        grid = SweepGrid((n(5), n(6)), (0.5,), (psi,))
        assert [type(d) for d in grid.d_values] == [int, int]
        got = sweep(grid)
        want = sweep(SweepGrid((5, 6), (0.5,), (psi,)))
        assert [(r.d, r.tv_from_uniform) for r in got] == [
            (r.d, r.tv_from_uniform) for r in want]


#: Every library entry that takes a start: psi -> the floats it
#: returns, and whether it requires the start at position 0.
_START_ENTRIES = {
    "closed-form": (lambda psi: spectral.closed_form_distribution(
        5, CoinConfig(0.5), psi, d=7).probs, True),
    "limiting": (lambda psi: spectral.limiting_distribution(
        CoinConfig(0.5), 7, psi).probs, True),
    "limiting-memory": (lambda psi: spectral.limiting_distribution_memory(
        7, psi).probs, True),
    "pbar-identities": (lambda psi: list(
        verify_pbar_identities(7, psi).values()), True),
    "residue": (lambda psi: [tv for _, _, tv in residue_distance_curve(
        (5, 6), psi)], True),
    "crosscheck": (lambda psi: crosscheck_limiting(7, 0.5, psi, 64), True),
    "sweep-grid": (lambda psi: [r.tv_from_uniform for r in sweep(
        SweepGrid((5, 6), (0.5,), (psi,)))], True),
    "theorem1": (lambda psi: verify_theorem1(7, 5, 0.5, psi), False),
    "theorem1-max": (lambda psi: theorem1_max_deviation(7, 6, 0.5, psi),
                     False),
    "theorem2": (lambda psi: verify_theorem2(7, 5, psi), False),
    "theorem2-max": (lambda psi: theorem2_max_deviation(7, 6, psi), False),
    "mixing": (lambda psi: mixing_curve(7, 0.5, psi, 32).sd, False),
}


class TestStartMatrix:
    """Every entry reads its start through walk._initial."""

    COIN = np.array([0.5, 0.5j, -0.5, 0.5])

    @pytest.mark.parametrize("entry", sorted(_START_ENTRIES))
    def test_coin_vector_is_the_start_at_site_0(self, entry):
        call, _ = _START_ENTRIES[entry]
        got = np.asarray(call(self.COIN), dtype=float)
        want = np.asarray(call(InitialState(0, self.COIN)), dtype=float)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("entry", sorted(_START_ENTRIES))
    def test_start_at_site_2(self, entry):
        call, origin = _START_ENTRIES[entry]
        start = InitialState(2, self.COIN)
        if origin:
            with pytest.raises(ValueError) as info:
                call(start)
            assert str(info.value) == ("the start must be at position 0, "
                                       "got position 2")
        else:
            # Taken at its own site, by translation invariance equal to
            # the start at site 0.
            got = np.asarray(call(start), dtype=float)
            want = np.asarray(call(InitialState(0, self.COIN)), dtype=float)
            assert np.abs(got - want).max() <= 1e-12


class TestSweepGrid:
    def test_named_factory(self):
        grid = SweepGrid.named((3, 4), (0.0, 0.5), ("psi_a", "psi_c"))
        assert grid.cells() == 8
        assert all(isinstance(s, InitialState) for s in grid.states)

    def test_validation(self):
        st = (InitialState.named("psi_a"),)
        with pytest.raises(ValueError, match="non-empty"):
            SweepGrid(d_values=(), phi_values=(0.0,), states=st)
        with pytest.raises(ValueError, match=">= 2"):
            SweepGrid(d_values=(1,), phi_values=(0.0,), states=st)
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            SweepGrid(d_values=(3,), phi_values=(8.0,), states=st)
        with pytest.raises(ValueError, match="epsilon"):
            SweepGrid(d_values=(3,), phi_values=(0.0,), states=st, epsilon=0.0)
        # A coin vector is a start at position 0.
        grid = SweepGrid(d_values=(3,), phi_values=(0.0,),
                         states=(named_coin4("psi_a"),))
        (start,) = grid.states
        assert start.position == 0
        assert np.array_equal(start.coin4, named_coin4("psi_a"))
        with pytest.raises(ValueError, match="position 0"):
            SweepGrid(d_values=(3,), phi_values=(0.0,),
                      states=(InitialState.named("psi_a", position=1),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_epsilon_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SweepGrid.named((3,), (0.0,), ("psi_a",), epsilon=bad)


class TestSweep:
    def test_classifications_and_order(self):
        grid = SweepGrid.named((11, 12), (0.0, 0.5, 1.0), ("psi_a",))
        records = sweep(grid)
        assert [(r.d, r.phi) for r in records] == [
            (11, 0.0), (11, 0.5), (11, 1.0),
            (12, 0.0), (12, 0.5), (12, 1.0)]
        by_cell = {(r.d, r.phi): r for r in records}
        # integer phi = 1 distinguishes cycles divisible by 12
        assert by_cell[(11, 1.0)].classified_uniform
        assert not by_cell[(12, 1.0)].classified_uniform
        assert not by_cell[(11, 0.0)].classified_uniform
        assert by_cell[(11, 0.5)].classified_uniform
        assert by_cell[(12, 1.0)].divisible_by_12
        assert by_cell[(11, 1.0)].d_mod_4 == 3
        assert all(r.error is None for r in records)
        assert all(r.probs is not None and r.probs.shape == (r.d,)
                   for r in records)

    def test_jobs_do_not_change_records(self):
        grid = SweepGrid.named((5, 6, 7), (0.0, 1.5, 2.0),
                               ("psi_a", "psi_d"))
        seq = sweep(grid, jobs=1)
        par = sweep(grid, jobs=3)
        assert len(seq) == len(par) == grid.cells()
        for a, b in zip(seq, par):
            assert (a.d, a.phi, a.state) == (b.d, b.phi, b.state)
            assert a.tv_from_uniform == b.tv_from_uniform
            assert a.classified_uniform == b.classified_uniform
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_keep_probs_off(self):
        grid = SweepGrid.named((4,), (0.0,), ("psi_b",))
        records = sweep(grid, keep_probs=False)
        assert records[0].probs is None

    def test_jobs_validation(self):
        grid = SweepGrid.named((4,), (0.0,), ("psi_b",))
        with pytest.raises(ValueError, match="jobs"):
            sweep(grid, jobs=0)

    def test_cell_errors_are_isolated(self, monkeypatch):
        real = spectral._spectral_caches

        def flaky(groups):
            return [b._replace(cache=None,
                               error=RuntimeError("injected failure"))
                    if d == 7 else b for (_, d), b in zip(groups, real(groups))]

        monkeypatch.setattr(spectral, "_spectral_caches", flaky)
        grid = SweepGrid.named((6, 7, 8), (0.5,), ("psi_a",))
        records = sweep(grid, jobs=1)
        bad = [r for r in records if r.d == 7]
        good = [r for r in records if r.d != 7]
        assert len(bad) == 1
        assert bad[0].error == "injected failure"
        assert math.isnan(bad[0].tv_from_uniform)
        assert bad[0].classified_uniform is None
        assert all(r.error is None for r in good)
        assert all(r.classified_uniform for r in good)

    def test_invalid_distribution_fails_only_its_row(self, monkeypatch):
        real = spectral._limiting_probs

        def second_row_doubled(caches, psis):
            probs = real(caches, psis)
            probs[1] *= 2.0
            return probs

        monkeypatch.setattr(analysis.spectral, "_limiting_probs",
                            second_row_doubled)
        grid = SweepGrid.named((6,), (0.5,), ("psi_a", "psi_b", "psi_c"))
        records = sweep(grid, jobs=1)
        assert [r.error is None for r in records] == [True, False, True]
        assert "sum to" in records[1].error
        assert math.isnan(records[1].tv_from_uniform)
        assert records[0].classified_uniform and records[2].classified_uniform

    def test_pack_wide_error_fails_every_row(self, monkeypatch):
        def boom(caches, psis):
            raise RuntimeError("boom")

        monkeypatch.setattr(analysis.spectral, "_limiting_probs", boom)
        states = tuple(InitialState.named(n) for n in ("psi_a", "psi_c"))
        cells = analysis._sweep_pack((0.5, [5, 6, 7], states, False))
        assert cells.error.shape == (3, 2)
        assert (cells.error == "boom").all()
        assert np.isnan(cells.tv).all()
        assert cells.probs is None
        records = sweep(SweepGrid((5, 6, 7), (0.5,), states), jobs=1)
        assert len(records) == 6
        for r in records:
            assert r.error == "boom"
            assert r.classified_uniform is None
            assert r.boundary is False and r.warned is False

    def test_group_warning_marks_every_row(self):
        # d = 16, phi near 3 has phase gaps just outside the tolerance.
        grid = SweepGrid.named((16,), (3 + 2e-9, 0.5), STATE_NAMES)
        records = sweep(grid, jobs=1)
        assert [r.warned for r in records] == [True] * 4 + [False] * 4
        assert all(r.error is None for r in records)

    def test_one_limit_and_one_spec_per_sweep(self, monkeypatch):
        # Structural guard, no timing: one batched limit per pack, here
        # the one pack of d = 2..12, and the walk's (A+, A-) built once
        # for the sweep.
        calls = {"limit": 0, "spec": 0}
        real_limit, real_spec = spectral._limiting_probs, walk._WalkSpec

        def counting_limit(caches, psis):
            calls["limit"] += 1
            return real_limit(caches, psis)

        def counting_spec(*args):
            calls["spec"] += 1
            return real_spec(*args)

        monkeypatch.setattr(spectral, "_limiting_probs", counting_limit)
        monkeypatch.setattr(walk, "_WalkSpec", counting_spec)
        walk._recycled_spec.cache_clear()
        records = sweep(SweepGrid.named(range(2, 13), (0.5,), STATE_NAMES))
        assert len(records) == 11 * len(STATE_NAMES)
        assert calls == {"limit": 1, "spec": 1}

    def test_four_state_group_peak_memory(self):
        # A flat-band group at d = 4096: the transform batches stay
        # bounded, so the whole group fits the single-limit budget.
        states = tuple(InitialState.named(n) for n in STATE_NAMES)
        tracemalloc.start()
        try:
            cells = analysis._sweep_pack((0.0, [4096], states, True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert cells.error.tolist() == [[None] * len(STATE_NAMES)]
        assert all(p.shape == (4096,) for p in cells.probs[0])


class _FakePool:
    """Stands in for ProcessPoolExecutor: records its size, starts no
    process, and maps in process."""

    def __init__(self, made, max_workers):
        self.max_workers, self.chunksize = max_workers, None
        made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        self.chunksize = chunksize
        return map(fn, tasks)


class TestPoolSizing:
    """analysis._run sizes its pool by the work; no process starts."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: _FakePool(made, max_workers))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        return made

    @pytest.mark.parametrize("jobs, tasks, workers, chunk", [
        (10_000, 3, 3, 1), (2, 100, 2, 13), (3, 5, 3, 1), (64, 1000, 64, 4)])
    def test_workers_and_chunks(self, pools, jobs, tasks, workers, chunk):
        assert analysis._run(abs, list(range(-tasks, 0)), jobs) == list(
            range(tasks, 0, -1))
        assert [(p.max_workers, p.chunksize) for p in pools] == [
            (workers, chunk)]

    def test_cpu_count_caps_the_workers(self, pools, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        analysis._run(abs, list(range(100)), 8)
        assert [(p.max_workers, p.chunksize) for p in pools] == [(4, 7)]

    @pytest.mark.parametrize("jobs, tasks, cpus", [
        (1, 10, 64), (5, 1, 64), (5, 0, 64), (4, 10, 1), (4, 10, None)])
    def test_one_worker_builds_no_pool(self, pools, monkeypatch, jobs, tasks,
                                       cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert analysis._run(abs, [-1] * tasks, jobs) == [1] * tasks
        assert pools == []

    def test_sweep_sizes_its_pool(self, pools):
        grid = SweepGrid.named((5, 6), (0.0, 0.5, 1.0), ("psi_a",))
        assert [r.tv_from_uniform for r in sweep(grid, jobs=10_000)] == [
            r.tv_from_uniform for r in sweep(grid, jobs=1)]
        # One pack per phi: three tasks.
        assert [(p.max_workers, p.chunksize) for p in pools] == [(3, 1)]


# The C07 grid's 80 phi and one with phase gaps just outside the
# tolerance (d = 16).
PACK_PHIS = tuple(round(0.1 * m, 10) for m in range(80)) + (3 + 2e-9,)


def _recording_eig(monkeypatch):
    """Record every stack that spectral._eig diagonalizes."""
    stacks = []
    real = spectral._eig

    def recording(mats, *args):
        stacks.append(mats.copy())
        return real(mats, *args)

    monkeypatch.setattr(spectral, "_eig", recording)
    return stacks


def _stop(d):
    """Representative blocks of a d-cycle: k <= d/4 on even d, else d/2."""
    return d // 4 + 1 if d % 2 == 0 else d // 2 + 1


def _distinct_blocks(ds, phi):
    """How many distinct blocks, by bits, the representatives of ds hold.

    A pack diagonalizes each once.  Blocks of one walk with equal bits
    of x = e^{2 pi i k/d} are equal; equal fractions k/d need not give
    equal x, so d = 2..50 has 323 fractions but 338 patterns of x.  At
    phi = 0, 2 and 4 the blocks of 1/13 and 3/39, whose x differ in
    the last bit of Im x, are equal too: 337 distinct blocks there.
    """
    mats = _kernels._rep_blocks(list(ds), _recycled_spec(phi))
    return len({m.tobytes() for m in mats})


def _corrupt_groups(monkeypatch, edits):
    """Edit one block of some groups of every stack _rep_blocks builds.

    edits maps a cycle length d to a function applied to the 4x4 block
    k = 1 of its group.
    """
    real = _kernels._rep_blocks

    def corrupted(ds, spec):
        mats = real(ds, spec)
        lo = 0
        for d in ds:
            if d in edits:
                mats[lo + 1] = edits[d](mats[lo + 1])
            lo += _stop(d)
        return mats

    monkeypatch.setattr(_kernels, "_rep_blocks", corrupted)


class TestPacks:
    """A sweep diagonalizes each pack of a phi column in one stack."""

    def test_pack_path_matches_per_group_path(self, monkeypatch):
        # Each group of a pack against the one-group path (its own
        # spectral_cache and limit) on the same eigensystems: _eig then
        # serves the group's share of the pack's stack.  Caches, rows and
        # warned flags agree bit for bit.
        d_values = range(2, 51)
        eigs, packed = [], []
        real_eig, real_limit = spectral._eig, spectral._limiting_probs

        def recording_eig(mats, reps=None):
            lams, vecs = real_eig(mats, reps)
            eigs.append((mats.copy(), lams.copy(), vecs.copy()))
            return lams, vecs

        def recording_limit(caches, psis):
            packed.extend(caches)
            return real_limit(caches, psis)

        monkeypatch.setattr(spectral, "_eig", recording_eig)
        monkeypatch.setattr(spectral, "_limiting_probs", recording_limit)
        records = sweep(SweepGrid.named(d_values, PACK_PHIS, STATE_NAMES))
        monkeypatch.undo()
        # One stack per column, the distinct blocks of the 505
        # representatives (338 at a generic phi): the polynomial route,
        # as for 505.
        assert [len(m) for m, _, _ in eigs] == [
            _distinct_blocks(d_values, phi) for phi in PACK_PHIS]
        assert len(eigs[7][0]) == 338 and PACK_PHIS[7] == 0.7
        assert len(packed) == len(PACK_PHIS) * len(d_values)
        by_cell = {(r.d, r.phi, r.state): r for r in records}
        psis = np.array([named_coin4(n) for n in STATE_NAMES])
        packed = iter(packed)
        for phi, (stack, lams, vecs) in zip(PACK_PHIS, eigs):
            cfg = CoinConfig(phi)
            for d in d_values:
                # The group's representatives, read through its map.
                pack_cache = next(packed)
                assert pack_cache.d == d
                rep = pack_cache.source[:_stop(d)]
                assert not pack_cache.conjugate[:_stop(d)].any()
                blocks = _kernels._fourier_blocks(d, _recycled_spec(phi),
                                                  stop=_stop(d))
                assert stack[rep].tobytes() == blocks.tobytes()

                def share(mats, reps, rep=rep):
                    assert mats.tobytes() == stack[rep].tobytes()
                    assert reps == len(rep)
                    return lams[rep], vecs[rep]

                monkeypatch.setattr(spectral, "_eig", share)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter(
                        "always", spectral.DegenerateClusterWarning)
                    cache = spectral.spectral_cache(d, cfg)
                    spectral.limiting_distribution(cfg, d, psis[0],
                                                   cache=cache)
                monkeypatch.undo()
                assert (pack_cache.eigenvalues.tobytes()
                        == cache.eigenvalues.tobytes())
                assert (pack_cache.eigenvectors.tobytes()
                        == cache.eigenvectors.tobytes())
                assert pack_cache.labels.tobytes() == cache.labels.tobytes()
                assert pack_cache.gaps.tobytes() == cache.gaps.tobytes()
                probs = spectral._limiting_probs([cache], psis)
                for name, p in zip(STATE_NAMES, probs):
                    r = by_cell[(d, phi, name)]
                    dist = Distribution(d=d, probs=p)
                    tv = tv_from_uniform(dist)
                    assert r.tv_from_uniform == tv
                    assert r.classified_uniform == (tv < 1e-6)
                    assert r.boundary == (1e-7 <= tv <= 1e-5)
                    assert r.warned == bool(caught)
                    assert r.error is None
                    assert r.probs.tobytes() == dist.probs.tobytes()
        # Exact in-block degeneracies (gaps far below PHASE_TOL) do not
        # warn; the gaps just outside it at phi = 3 + 2e-9 do.
        for name in STATE_NAMES:
            assert not by_cell[(16, 3.0, name)].warned
            assert not by_cell[(16, 7.0, name)].warned
            assert by_cell[(16, 3 + 2e-9, name)].warned

    def test_pack_path_stays_near_lapack(self):
        # The pack takes the polynomial route, each group alone would
        # take LAPACK (d <= 50); the two agree to rounding.
        phis = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 0.5, 3.3, 6.1,
                3 + 2e-9)
        records = sweep(SweepGrid.named(range(2, 51), phis, STATE_NAMES),
                        keep_probs=False)
        psis = np.array([named_coin4(n) for n in STATE_NAMES])
        for (d, phi), rows in itertools.groupby(
                records, key=lambda r: (r.d, r.phi)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(
                    "always", spectral.DegenerateClusterWarning)
                cache = spectral.spectral_cache(d, CoinConfig(phi))
                spectral.limiting_distribution(CoinConfig(phi), d, psis[0],
                                               cache=cache)
            probs = spectral._limiting_probs([cache], psis)
            for r, p in zip(rows, probs):
                tv = tv_from_uniform(Distribution(d=d, probs=p))
                assert abs(r.tv_from_uniform - tv) <= 1e-14
                assert r.classified_uniform == (tv < 1e-6)
                assert r.warned == bool(caught)

    def test_packs_cut_by_the_block_budget(self):
        ds = list(range(2, 81)) + [4098, 3, 4]
        packs = spectral._packs(ds)
        assert [d for pack in packs for d in pack] == ds
        sizes = [sum(map(_stop, pack)) for pack in packs]
        # 4098 alone is over the budget and forms its own pack.
        assert packs[2] == [4098] and sizes[2] > spectral._POLY_CHUNK
        assert all(size <= spectral._POLY_CHUNK
                   for pack, size in zip(packs, sizes) if len(pack) > 1)
        # No pack could have taken its successor's first d.
        assert all(size + _stop(nxt[0]) > spectral._POLY_CHUNK
                   for size, nxt in zip(sizes, packs[1:]))

    # d = 2..80 is 1,259 blocks per phi: two packs, both on the
    # polynomial route, of groups that alone would take LAPACK (even d,
    # and odd d < 62) and groups that alone would take the polynomial
    # route (odd d >= 63).
    WIDE = SweepGrid.named(range(2, 81), (0.5, 2.0, 6.1), ("psi_a", "psi_c"))

    def test_jobs_do_not_change_records_across_packs(self):
        assert len(spectral._packs(self.WIDE.d_values)) == 2
        seq = sweep(self.WIDE, jobs=1)
        par = sweep(self.WIDE, jobs=3)
        assert len(seq) == len(par) == self.WIDE.cells()
        for a, b in zip(seq, par):
            assert (a.d, a.phi, a.state) == (b.d, b.phi, b.state)
            assert a.tv_from_uniform == b.tv_from_uniform
            assert (a.classified_uniform, a.boundary, a.warned, a.error) == \
                (b.classified_uniform, b.boundary, b.warned, b.error)
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_one_eig_per_pack_and_one_limit_per_group(self, monkeypatch):
        # One limit per pack, which holds the cache of every group.
        stacks = _recording_eig(monkeypatch)
        calls = []
        real_limit = spectral._limiting_probs

        def counting_limit(caches, psis):
            calls.append([c.d for c in caches])
            return real_limit(caches, psis)

        monkeypatch.setattr(spectral, "_limiting_probs", counting_limit)
        records = sweep(self.WIDE, keep_probs=False)
        assert all(r.error is None for r in records)
        packs = spectral._packs(self.WIDE.d_values)
        assert [len(m) for m in stacks] == [
            _distinct_blocks(pack, phi) for phi in self.WIDE.phi_values
            for pack in packs]
        assert calls == packs * 3

    def test_wide_column_holds_one_pack_at_a_time(self):
        # d = 2..400 is 30,299 blocks in 32 packs.  One pack of about
        # 1,024 blocks peaks near 2 MiB; all of the column's caches at
        # once take about 30 MiB, and would grow as d^2.
        grid = SweepGrid.named(range(2, 401), (0.5,), ("psi_a",))
        tracemalloc.start()
        try:
            records = sweep(grid, keep_probs=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.error is None for r in records)
        assert peak < 8 * 2 ** 20

    def test_bad_blocks_fail_only_their_group(self, monkeypatch):
        grid = SweepGrid.named(range(2, 51), (0.5,), STATE_NAMES)
        clean = sweep(grid)
        nan = np.full((4, 4), np.nan)
        _corrupt_groups(monkeypatch, {20: lambda m: nan,
                                      33: lambda m: 1.5 * m})
        stacks = _recording_eig(monkeypatch)
        records = sweep(grid)
        # The 338 distinct blocks, and d = 20's block 1, which no longer
        # equals d = 40's block 2.
        assert [len(m) for m in stacks] == [339]
        for a, b in zip(clean, records):
            if a.d in (20, 33):
                assert b.error.startswith("momentum block lost unitarity")
                assert b.classified_uniform is None and not b.warned
            else:
                assert b.error is None
                assert b.tv_from_uniform == a.tv_from_uniform
                np.testing.assert_array_equal(a.probs, b.probs)

    @pytest.mark.parametrize("factor", [0.5, math.nan])
    def test_eigenvalues_off_the_circle_fail_only_their_group(
            self, factor, monkeypatch):
        # Block 1 of d = 33 belongs to its group alone; block 1 of d = 20
        # is block 2 of d = 40 too, and the pack diagonalizes it once.
        grid = SweepGrid.named(range(2, 51), (0.5,), ("psi_a",))
        real = spectral._eig
        for d, failed in ((33, [33]), (20, [20, 40])):
            block = _kernels._fourier_blocks(d, _recycled_spec(0.5),
                                             stop=2)[1]

            def one_moved(mats, *args, block=block):
                lams, vecs = real(mats, *args)
                lams[(mats == block).all(axis=(1, 2)), 0] *= factor
                return lams, vecs

            monkeypatch.setattr(spectral, "_eig", one_moved)
            records = sweep(grid)
            assert [r.d for r in records if r.error is not None] == failed
            assert all("unit circle" in records[f - 2].error
                       for f in failed)


class TestMixing:
    def test_default_horizons(self):
        assert default_horizons(10) == (1, 2, 4, 8, 10)
        assert default_horizons(16) == (1, 2, 4, 8, 16)
        assert default_horizons(1) == (1,)
        with pytest.raises(ValueError, match="t_max"):
            default_horizons(0)

    def test_sd_shrinks_along_curve(self):
        curve = mixing_curve(11, 0.5, InitialState.named("psi_b"), 4096)
        assert curve.horizons[0] == 1
        assert curve.horizons[-1] == 4096
        assert curve.sd[0] > 0.5
        assert curve.sd[-1] < 0.01
        assert curve.sd[0] > curve.sd[4] > curve.sd[8] > curve.sd[-1]

    def test_t_one_matches_initial_distribution(self):
        # SD(1) is the TV of the start distribution from uniform
        curve = mixing_curve(9, 1.3, InitialState.named("psi_c"), 4)
        assert curve.sd[0] == pytest.approx(1.0 - 1.0 / 9)

    def test_uniform_start_never_moves(self):
        d = 12
        amps = np.tile(named_coin4("psi_b") / math.sqrt(d), (d, 1))
        state = WalkState(d=d, amplitudes=amps, model="recycled")
        curve = mixing_curve(d, 1.3, state, 256, label="flat")
        assert curve.state == "flat"
        assert max(curve.sd) < 1e-12

    def test_walkstate_dimension_check(self):
        state = WalkState.localized(6, InitialState.named("psi_a"))
        with pytest.raises(ValueError, match="6-cycle"):
            mixing_curve(7, 0.0, state, 8)

    def test_distinct_profiles_for_distinct_phi(self):
        a = mixing_curve(9, 0.3, InitialState.named("psi_b"), 64)
        b = mixing_curve(9, 2.6, InitialState.named("psi_b"), 64)
        assert a.horizons == b.horizons
        assert max(abs(x - y) for x, y in zip(a.sd, b.sd)) > 1e-3

    def test_horizon_validation(self):
        psi = InitialState.named("psi_a")
        with pytest.raises(ValueError, match="increasing"):
            mixing_curve(5, 0.0, psi, 10, horizons=(4, 2))
        with pytest.raises(ValueError, match="increasing"):
            mixing_curve(5, 0.0, psi, 10, horizons=(2, 2, 4))
        with pytest.raises(ValueError, match="exceeds t_max"):
            mixing_curve(5, 0.0, psi, 10, horizons=(1, 16))
        with pytest.raises(ValueError, match="empty"):
            mixing_curve(5, 0.0, psi, 10, horizons=())

    @pytest.mark.parametrize("horizons", [(1.5, 3), (1, 2.0), ("2", 3)])
    def test_non_integer_horizons_rejected(self, horizons):
        # 1.5 used to be truncated to 1 without a word.
        with pytest.raises(ValueError, match="integers"):
            mixing_curve(5, 0.0, InitialState.named("psi_a"), 10,
                         horizons=horizons)

    def test_integer_like_horizons_accepted(self):
        psi = InitialState.named("psi_a")
        curve = mixing_curve(5, 0.0, psi, 10, horizons=np.array([2, 10]))
        assert curve.horizons == (2, 10)
        assert all(type(h) is int for h in curve.horizons)
        assert curve.sd == mixing_curve(5, 0.0, psi, 10,
                                        horizons=(2, 10)).sd

    def test_memory_model_curve(self):
        curve = mixing_curve(8, None, InitialState.named("psi_a"), 512,
                             model="memory")
        assert curve.phi is None
        assert curve.sd[-1] < curve.sd[0]

    @pytest.mark.parametrize("d, model, phi", [
        (8, "recycled", 0.5), (8, "memory", None),
        (_kernels._FOURIER_SCAN_MAX_D + 1, "recycled", 1.3)])
    def test_matches_stepping_across_chunks(self, d, model, phi):
        # Horizon T averages the states t = 0..T-1; the stream's first
        # chunk after the start holds t = 1..c, so T = c + 1 ends on a
        # chunk boundary.
        c = _kernels._scan_chunk_len(d)
        horizons = (1, c, c + 1, c + 2, 2 * c + 2)
        psi = InitialState.named("psi_b")
        curve = mixing_curve(d, phi, psi, horizons[-1], horizons=horizons,
                             model=model)
        cfg = None if phi is None else CoinConfig(phi)
        state = WalkState.localized(d, psi, model)
        total = np.zeros(d)
        ref = []
        for t in range(horizons[-1]):
            total += position_distribution(state).probs
            if t + 1 in horizons:
                ref.append(0.5 * np.abs(total / (t + 1) - 1.0 / d).sum())
            state = evolve(state, 1, cfg)
        assert curve.horizons == horizons
        assert np.abs(np.array(curve.sd) - ref).max() < 1e-12

    @pytest.mark.parametrize("model, phi", [("recycled", 1.3),
                                            ("memory", None)])
    def test_gram_route_matches_stepping(self, model, phi, rng, monkeypatch):
        # A non-localized start, at horizons the Gram route takes
        # (T = 1031 >= max(256, 2 d c), c = 14 conjugations): SD(T)
        # against one-step evolve.
        ran = []
        gram = _kernels._gram_sums
        monkeypatch.setattr(_kernels, "_gram_sums",
                            lambda *args: ran.append(1) or gram(*args))
        d = 9
        amps = rng.normal(size=(d, 4)) + 1j * rng.normal(size=(d, 4))
        state = WalkState(d=d, model=model,
                          amplitudes=amps / np.linalg.norm(amps))
        horizons = (1, 512, 513, 1031)
        curve = mixing_curve(d, phi, state, 1031, horizons=horizons)
        assert ran == [1]
        cfg = None if phi is None else CoinConfig(phi)
        total, ref = np.zeros(d), []
        for t in range(horizons[-1]):
            total += position_distribution(state).probs
            if t + 1 in horizons:
                ref.append(0.5 * np.abs(total / (t + 1) - 1.0 / d).sum())
            state = evolve(state, 1, cfg)
        assert curve.state == "custom"
        assert np.abs(np.array(curve.sd) - ref).max() < 1e-12

    def test_recycled_needs_phi(self):
        with pytest.raises(ValueError, match="CoinConfig"):
            mixing_curve(5, None, InitialState.named("psi_a"), 8)


class TestCrosscheck:
    def test_t_one_is_definitional(self):
        # the T = 1 average is just p(., 1)
        d, phi = 9, 0.7
        psi = InitialState.named("psi_b")
        got = crosscheck_limiting(d, phi, psi, 1)
        cfg = CoinConfig(phi)
        p1 = position_distribution(evolve(WalkState.localized(d, psi), 1, cfg))
        pbar = spectral.limiting_distribution(cfg, d, psi.coin4)
        assert got == pytest.approx(total_variation(pbar, p1), abs=1e-14)

    def test_average_converges(self):
        psi = InitialState.named("psi_b")
        far = crosscheck_limiting(11, 0.5, psi, 64)
        near = crosscheck_limiting(11, 0.5, psi, 4096)
        assert near < far
        assert near < 5e-3

    def test_memory_model(self):
        got = crosscheck_limiting(7, None, InitialState.named("psi_a"), 2000,
                                  model="memory")
        assert got < 5e-3

    def test_validation(self):
        psi = InitialState.named("psi_a")
        with pytest.raises(ValueError, match="t_horizon"):
            crosscheck_limiting(5, 0.0, psi, 0)
        with pytest.raises(ValueError, match="at position 0, got position 1"):
            crosscheck_limiting(5, 0.0, InitialState.named("psi_a", position=1), 4)

    def test_recycled_needs_phi(self):
        with pytest.raises(ValueError, match="CoinConfig"):
            crosscheck_limiting(5, None, InitialState.named("psi_a"), 8)
