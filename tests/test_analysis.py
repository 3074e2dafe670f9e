"""Distances, equivalence checks, sweeps and time averages."""

import math
import tracemalloc

import numpy as np
import pytest

from cyclewalk import (STATE_NAMES, CoinConfig, Distribution, InitialState,
                       WalkState, _kernels, analysis, named_coin4, spectral)
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


def _recycled_rule(phi):
    theta = CoinConfig(phi).theta
    return (_kernels._step_recycled, math.cos(theta), math.sin(theta))


MEMORY_RULE = (_kernels._step_memory,)

# Cycles on both sides of the momentum/site crossover of the kernel scan.
CHUNKED_D = (11, _kernels._FOURIER_SCAN_MAX_D + 1)


def _localized(d, coin4):
    return WalkState.localized(d, InitialState(0, coin4)).amplitudes


def _stepped_max_gap(t_max, lhs, rhs):
    """Worst |p_l - p_r| over t = 0..t_max, one kernel step at a time.

    lhs and rhs are (amplitudes, rule) pairs; rule is the one-step rule
    followed by its coin arguments.
    """
    (a, rule_a), (b, rule_b) = lhs, rhs
    worst = 0.0
    for t in range(t_max + 1):
        if t:
            a = _kernels.evolve(a, 1, *rule_a)
            b = _kernels.evolve(b, 1, *rule_b)
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
        base = theorem1_max_deviation(9, 20, 0.7, named_coin4("psi_b"),
                                      position=0)
        for s in (1, 2):
            dev = theorem1_max_deviation(9, 20, 0.7, named_coin4("psi_b"),
                                         position=s)
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
            t_max, (_localized(d, psi), _recycled_rule(phi)),
            (_localized(d, apply_Q(psi)), _recycled_rule(-(2.0 + phi))))
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
            t_max, (_localized(d, psi), _recycled_rule(phi)),
            (_localized(d, psi), _recycled_rule(-(2.0 + phi))))
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
        for s in (0, 1, 2):
            assert theorem2_max_deviation(8, 20, named_coin4("psi_c"),
                                          position=s) < 1e-10

    def test_negative_t_max_rejected(self):
        with pytest.raises(ValueError, match="t_max"):
            theorem2_max_deviation(5, -3, named_coin4("psi_b"))

    @pytest.mark.parametrize("d", CHUNKED_D)
    def test_across_chunk_boundary(self, d):
        psi = named_coin4("psi_d")
        t_max = _chunk_t_max(d)
        ref = _stepped_max_gap(
            t_max, (_localized(d, psi), _recycled_rule(2.0)),
            (_localized(d, apply_P_adjoint(psi)), MEMORY_RULE))
        dev = theorem2_max_deviation(d, t_max, psi)
        assert dev < 1e-10
        assert abs(dev - ref) < 1e-12

    @pytest.mark.parametrize("d", CHUNKED_D)
    def test_detects_missing_p_adjoint(self, d, monkeypatch):
        psi = named_coin4("psi_d")
        t_max = _chunk_t_max(d)
        ref = _stepped_max_gap(
            t_max, (_localized(d, psi), _recycled_rule(2.0)),
            (_localized(d, psi), MEMORY_RULE))
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
        with pytest.raises(TypeError, match="InitialState"):
            SweepGrid(d_values=(3,), phi_values=(0.0,),
                      states=(named_coin4("psi_a"),))
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
        real = spectral.spectral_cache

        def flaky(d, cfg):
            if d == 7:
                raise RuntimeError("injected failure")
            return real(d, cfg)

        monkeypatch.setattr(analysis.spectral, "spectral_cache", flaky)
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

        def second_row_doubled(cache, psis):
            probs = real(cache, psis)
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

    def test_group_warning_marks_every_row(self):
        # d = 16, phi near 3 has phase gaps just outside the tolerance.
        grid = SweepGrid.named((16,), (3 + 2e-9, 0.5), STATE_NAMES)
        records = sweep(grid, jobs=1)
        assert [r.warned for r in records] == [True] * 4 + [False] * 4
        assert all(r.error is None for r in records)

    def test_one_limit_and_one_probe_per_sweep(self, monkeypatch):
        # Structural guard, no timing: one batched limit per (d, phi)
        # group, and the step rule's (A+, A-) read once for the sweep.
        calls = {"limit": 0, "probe": 0}
        real_limit, real_step = spectral._limiting_probs, _kernels._step_recycled

        def counting_limit(cache, psis):
            calls["limit"] += 1
            return real_limit(cache, psis)

        def counting_step(a, c, s):
            calls["probe"] += a.shape == (3, 4, 4)
            return real_step(a, c, s)

        monkeypatch.setattr(spectral, "_limiting_probs", counting_limit)
        monkeypatch.setattr(_kernels, "_step_recycled", counting_step)
        records = sweep(SweepGrid.named(range(2, 13), (0.5,), STATE_NAMES))
        assert len(records) == 11 * len(STATE_NAMES)
        assert calls == {"limit": 11, "probe": 1}

    def test_four_state_group_peak_memory(self):
        # A flat-band group at d = 4096: the transform batches stay
        # bounded, so the whole group fits the single-limit budget.
        items = tuple((n, tuple(named_coin4(n))) for n in STATE_NAMES)
        tracemalloc.start()
        try:
            rows = analysis._sweep_cell_group(
                (4096, 0.0, items, 1e-6, True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert [row[0] for row in rows] == list(STATE_NAMES)
        assert all(row[5] is None and row[6].shape == (4096,) for row in rows)


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
        with pytest.raises(ValueError, match="position-0"):
            crosscheck_limiting(5, 0.0, InitialState.named("psi_a", position=1), 4)

    def test_recycled_needs_phi(self):
        with pytest.raises(ValueError, match="CoinConfig"):
            crosscheck_limiting(5, None, InitialState.named("psi_a"), 8)
