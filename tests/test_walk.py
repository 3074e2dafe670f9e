import hashlib
import math
import time

import numpy as np
import pytest

from cyclewalk import (CoinConfig, InitialState, WalkState, MODEL_MEMORY,
                       MODEL_RECYCLED, apply_P, apply_P_adjoint, apply_Q,
                       coin_block, coin_operator, evolve, named_coin4,
                       norm_drift_scan, position_distribution, step_memory,
                       step_recycled)
from cyclewalk import _kernels, spectral, walk

import oracles

SQ2 = 1.0 / math.sqrt(2.0)


class TestCoinConfig:
    @pytest.mark.parametrize("raw,reduced", [
        (0.0, 0.0), (8.0, 0.0), (-2.0, 6.0), (9.5, 1.5), (7.9, 7.9),
        (16.25, 0.25),
    ])
    def test_phi_reduced_mod_8(self, raw, reduced):
        assert CoinConfig(raw).phi == pytest.approx(reduced, abs=1e-12)

    def test_theta_formula(self):
        assert CoinConfig(0.0).theta == math.pi / 4
        assert CoinConfig(1.0).theta == math.pi / 2
        assert CoinConfig(2.0).theta == 3 * math.pi / 4

    def test_tiny_negative_phi_stays_below_8(self):
        # -1e-20 % 8 rounds to 8.0, outside [0, 8).
        assert CoinConfig(-1e-20).phi == 0.0
        assert CoinConfig(-1e-20) == CoinConfig(0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            CoinConfig(bad)


class TestCoinOperator:
    def test_hadamard_block(self):
        h = coin_block(math.pi / 4)
        assert np.allclose(h, np.array([[1, 1], [1, -1]]) * SQ2, atol=1e-15)

    def test_phi0_both_blocks_hadamard(self):
        # The first block is the exact Hadamard the walk steps with, the
        # second C(pi/4), whose diagonal cos(pi/4) is one ulp above
        # 1/sqrt(2).
        op = coin_operator(CoinConfig(0.0))
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.array_equal(op[:2, :2], h)
        assert np.array_equal(op[2:, 2:], coin_block(math.pi / 4))
        assert np.abs(op[:2, :2] - op[2:, 2:]).max() <= 1.2e-16

    def test_phi2_lower_block(self):
        op = coin_operator(CoinConfig(2.0))
        want = np.array([[-1, 1], [1, 1]]) * SQ2
        assert np.allclose(op[2:, 2:], want, atol=1e-15)
        assert np.allclose(op[:2, 2:], 0.0) and np.allclose(op[2:, :2], 0.0)

    @pytest.mark.parametrize("phi", [0.0, 0.3, 1.0, 2.5, 5.0, 7.9])
    def test_unitary(self, phi):
        op = coin_operator(CoinConfig(phi))
        assert np.abs(op @ op.conj().T - np.eye(4)).max() < 1e-12


class TestStates:
    def test_named_states_exact(self):
        assert np.array_equal(named_coin4("psi_a"), [1, 0, 0, 0])
        assert np.allclose(named_coin4("psi_b"),
                           np.array([1, 1, 0, 0]) / math.sqrt(2), atol=1e-16)
        assert np.array_equal(named_coin4("psi_c"),
                              np.array([1, 1, 1, 1]) / 2)
        assert np.array_equal(named_coin4("psi_d"),
                              np.array([1, 1, 1, -1]) / 2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            named_coin4("psi_z")

    def test_initial_state_requires_unit_norm(self):
        with pytest.raises(ValueError, match="normalized"):
            InitialState(position=0, coin4=np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_initial_state_must_be_finite(self, bad):
        # A NaN norm passes every comparison, so the norm check alone
        # lets it through.
        with pytest.raises(ValueError, match="finite"):
            InitialState(position=0, coin4=np.array([bad, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_distribution_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            walk.Distribution(3, np.array([bad, 0.5, 0.5]))

    def test_coin_state_needs_four_amplitudes(self):
        with pytest.raises(ValueError, match=r"coin state must have exactly "
                           r"4 amplitudes, got shape \(3,\)"):
            InitialState(0, [1, 0, 0])

    def test_walk_state_checks_model_and_shape(self):
        with pytest.raises(ValueError, match="unknown model 'quantum'"):
            WalkState(d=4, model="quantum",
                      amplitudes=np.zeros((4, 4), dtype=np.complex128))
        with pytest.raises(ValueError, match=r"amplitude table must have "
                           r"shape \(4, 4\), got \(5, 4\)"):
            WalkState(d=4, model=MODEL_RECYCLED,
                      amplitudes=np.zeros((5, 4), dtype=np.complex128))

    def test_distribution_checks_shape_and_sign(self):
        with pytest.raises(ValueError,
                           match=r"shape \(3,\), got \(2,\)"):
            walk.Distribution(d=3, probs=[0.5, 0.5])
        with pytest.raises(ValueError, match="negative probability -0.5"):
            walk.Distribution(d=2, probs=[1.5, -0.5])

    @pytest.mark.parametrize("call, message", [
        (lambda: walk.Distribution.uniform(0),
         "cycle length d must be >= 2, got 0"),
        (lambda: walk.Distribution.uniform(2.0),
         "cycle length d must be an integer, got 2.0"),
        (lambda: walk.Distribution(d=2.5, probs=[0.5, 0.5]),
         "cycle length d must be an integer, got 2.5"),
    ], ids=["uniform-0", "uniform-float", "fractional"])
    def test_distribution_reads_d_as_a_count(self, call, message):
        # uniform(0) once divided by zero, and d = 2.5 read "must have
        # shape (2,), got (2,)".
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_localized_position_range(self):
        init = InitialState.named("psi_a", position=5)
        with pytest.raises(ValueError, match="outside"):
            WalkState.localized(4, init)
        st = WalkState.localized(6, init)
        assert st.amplitudes[5, 0] == 1.0
        assert st.norm() == pytest.approx(1.0, abs=1e-15)

    def test_d_lower_bound(self):
        with pytest.raises(ValueError, match=">= 2"):
            WalkState.localized(1, InitialState.named("psi_a"))

    def test_amplitudes_immutable(self):
        st = WalkState.localized(4, InitialState.named("psi_a"))
        with pytest.raises(ValueError):
            st.amplitudes[0, 0] = 0.0


class TestSingleSteps:
    def test_recycled_hand_example_d4(self):
        # phi=0 from psi_a: coin gives (dd+du)/sqrt2, shift sends the
        # active-down piece to 3 and the active-up piece to 1, swap
        # turns du into ud.
        st = WalkState.localized(4, InitialState.named("psi_a"))
        out = step_recycled(st, CoinConfig(0.0))
        amps = out.amplitudes
        assert amps[3, 0] == pytest.approx(SQ2, abs=1e-15)
        assert amps[1, 2] == pytest.approx(SQ2, abs=1e-15)
        probs = position_distribution(out).probs
        assert probs[0] == 0.0 and probs[2] == 0.0
        assert probs[1] == pytest.approx(0.5, abs=1e-14)
        assert probs[3] == pytest.approx(0.5, abs=1e-14)

    def test_recycled_hand_example_d5_psi_b(self):
        # Hadamard maps (down+up)/sqrt2 on the active coin to down, so
        # the whole walker moves left deterministically.
        st = WalkState.localized(5, InitialState.named("psi_b"))
        out = step_recycled(st, CoinConfig(0.0))
        probs = position_distribution(out).probs
        assert probs[4] == pytest.approx(1.0, abs=1e-14)
        assert out.amplitudes[4, 0] == pytest.approx(1.0, abs=1e-14)

    def test_memory_hand_example_d4(self):
        st = WalkState.localized(
            4, InitialState(position=0, coin4=np.array([1.0, 0, 0, 0])),
            MODEL_MEMORY)
        out = step_memory(st)
        amps = out.amplitudes
        assert amps[3, 0] == pytest.approx(SQ2, abs=1e-15)
        assert amps[1, 3] == pytest.approx(SQ2, abs=1e-15)
        assert position_distribution(out).probs[3] == pytest.approx(0.5)

    def test_model_mismatch_rejected(self):
        rec = WalkState.localized(4, InitialState.named("psi_a"))
        mem = WalkState.localized(4, InitialState.named("psi_a"),
                                  MODEL_MEMORY)
        with pytest.raises(ValueError, match="recycled"):
            step_recycled(mem, CoinConfig(0.0))
        with pytest.raises(ValueError, match="memory"):
            step_memory(rec)

    def test_shift_locality(self, random_coin4):
        for d, pos in [(5, 0), (8, 3), (2, 1), (17, 16)]:
            st = WalkState.localized(
                d, InitialState(position=pos, coin4=random_coin4()))
            probs = position_distribution(
                step_recycled(st, CoinConfig(1.7))).probs
            support = set(np.nonzero(probs > 1e-15)[0].tolist())
            assert support <= {(pos - 1) % d, (pos + 1) % d}


class TestEvolve:
    def test_zero_steps_is_identity(self):
        st = WalkState.localized(6, InitialState.named("psi_c"))
        assert evolve(st, 0, CoinConfig(1.0)) is st

    def test_zero_step_scans_return_the_state(self):
        st = WalkState.localized(6, InitialState.named("psi_c"))
        final, acc = walk.evolve_accumulate(st, 0, CoinConfig(1.0))
        assert final is st
        assert np.array_equal(acc, np.zeros(6))
        assert norm_drift_scan(st, 0, CoinConfig(1.0)) == (
            st, 0.0, st.norm())

    def test_negative_steps_rejected(self):
        st = WalkState.localized(6, InitialState.named("psi_c"))
        with pytest.raises(ValueError, match=">= 0"):
            evolve(st, -1, CoinConfig(1.0))

    def test_recycled_requires_cfg(self):
        st = WalkState.localized(6, InitialState.named("psi_c"))
        with pytest.raises(ValueError, match="CoinConfig"):
            evolve(st, 3)

    def test_composition(self, random_coin4):
        cfg = CoinConfig(2.5)
        st = WalkState.localized(
            9, InitialState(position=2, coin4=random_coin4()))
        once = evolve(st, 7, cfg)
        split = evolve(evolve(st, 3, cfg), 4, cfg)
        assert np.allclose(once.amplitudes, split.amplitudes, atol=1e-13)

    def test_norm_drift_long_run(self):
        st = WalkState.localized(12, InitialState.named("psi_a"))
        _, drift, norm = norm_drift_scan(st, 1000, CoinConfig(1.0))
        assert drift < 1e-12
        assert abs(norm - 1.0) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 8, 17, 32,
                                   _kernels._FOURIER_SCAN_MAX_D + 1])
    def test_unitarity_both_models(self, d, rng, random_coin4):
        # The scan's final state must be the walk's, not just a unit
        # vector: pin it to the dense oracle and to plain stepping, at a
        # short run and at one that crosses a chunk of the Fourier scan;
        # the largest d runs the scan by site steps.
        cfg = CoinConfig(float(rng.uniform(0, 8)))
        cases = ((MODEL_RECYCLED, cfg,
                  oracles.dense_recycled_operator(d, cfg.phi)),
                 (MODEL_MEMORY, None, oracles.dense_memory_operator(d)))
        for steps in (200, _kernels._scan_chunk_len(d) + 3):
            for model, c, op in cases:
                st = WalkState.localized(
                    d, InitialState(position=0, coin4=random_coin4()), model)
                out, drift, norm = norm_drift_scan(st, steps, c)
                assert drift < 1e-12 and abs(norm - 1.0) < 1e-10
                want = oracles.dense_evolve(st.amplitudes, op, steps)
                assert np.abs(out.amplitudes - want).max() < 1e-12
                stepped = evolve(st, steps, c).amplitudes
                assert np.abs(out.amplitudes - stepped).max() < 1e-12

    def test_phi_periodicity(self, random_coin4):
        st = WalkState.localized(
            7, InitialState(position=0, coin4=random_coin4()))
        a = evolve(st, 25, CoinConfig(1.3))
        b = evolve(st, 25, CoinConfig(9.3))
        assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("call, message", [
        (lambda st, cfg: evolve(st, 2.5, cfg),
         "step count must be an integer, got 2.5"),
        (lambda st, cfg: evolve(st, 2.0, cfg),
         "step count must be an integer, got 2.0"),
        (lambda st, cfg: walk.evolve_accumulate(st, 2.5, cfg),
         "step count must be an integer, got 2.5"),
        (lambda st, cfg: norm_drift_scan(st, 2.5, cfg),
         "step count must be an integer, got 2.5"),
        (lambda st, cfg: WalkState.localized(
            6, InitialState.named("psi_a", position=1.5)),
         "position must be an integer, got 1.5"),
        (lambda st, cfg: WalkState.localized(6.0, InitialState.named("psi_a")),
         "cycle length d must be an integer, got 6.0"),
        (lambda st, cfg: WalkState(6.0, MODEL_RECYCLED, st.amplitudes),
         "cycle length d must be an integer, got 6.0"),
    ], ids=["evolve", "evolve-whole-float", "accumulate", "normscan",
            "position", "localized-d", "state-d"])
    def test_non_integer_input_rejected(self, call, message):
        # A fractional step count was once cut to its integer part.
        st = WalkState.localized(6, InitialState.named("psi_c"))
        with pytest.raises(ValueError) as info:
            call(st, CoinConfig(1.0))
        assert str(info.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda st, cfg: evolve(st, -1, cfg),
         "step count must be >= 0, got -1"),
        (lambda st, cfg: walk.evolve_accumulate(st, -2, cfg),
         "step count must be >= 0, got -2"),
        (lambda st, cfg: norm_drift_scan(st, -3, cfg),
         "step count must be >= 0, got -3"),
        (lambda st, cfg: WalkState.localized(1, InitialState.named("psi_a")),
         "cycle length d must be >= 2, got 1"),
        (lambda st, cfg: WalkState(0, MODEL_RECYCLED, st.amplitudes),
         "cycle length d must be >= 2, got 0"),
        (lambda st, cfg: WalkState.localized(
            6, InitialState.named("psi_a", position=6)),
         "position 6 outside cycle of length 6"),
    ], ids=["evolve", "accumulate", "normscan", "localized-d", "state-d",
            "position"])
    def test_out_of_range_messages(self, call, message):
        st = WalkState.localized(6, InitialState.named("psi_c"))
        with pytest.raises(ValueError) as info:
            call(st, CoinConfig(1.0))
        assert str(info.value) == message

    def test_numpy_integers_give_the_same_bytes(self):
        cfg = CoinConfig(1.3)
        a = WalkState.localized(
            np.int64(9), InitialState.named("psi_b", position=np.int64(3)))
        b = WalkState.localized(9, InitialState.named("psi_b", position=3))
        assert type(a.d) is int
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
        # 300 steps at d = 9 take the Gram route of the running sums.
        for steps in (40, 300):
            n = np.int64(steps)
            assert (evolve(a, n, cfg).amplitudes.tobytes()
                    == evolve(b, steps, cfg).amplitudes.tobytes())
            assert (walk.evolve_accumulate(a, n, cfg)[1].tobytes()
                    == walk.evolve_accumulate(b, steps, cfg)[1].tobytes())
            assert (norm_drift_scan(a, n, cfg)[1:]
                    == norm_drift_scan(b, steps, cfg)[1:])

    def test_uniform_position_superposition(self):
        d = 8
        amps = np.zeros((d, 4), dtype=np.complex128)
        amps[:, 1] = 1.0 / math.sqrt(d)
        st = WalkState(d=d, model=MODEL_RECYCLED, amplitudes=amps)
        assert np.allclose(position_distribution(st).probs, 1.0 / d,
                           atol=1e-15)


class TestLongHorizon:
    """evolve costs O(d log t): a million steps at d = 10^4 in seconds."""

    @pytest.mark.parametrize("model,cfg", [(MODEL_RECYCLED, CoinConfig(0.5)),
                                           (MODEL_MEMORY, None)])
    def test_million_steps_at_d_10000(self, model, cfg):
        st = WalkState.localized(10_000, InitialState.named("psi_c"), model)
        start = time.perf_counter()
        out = evolve(st, 10 ** 6, cfg)
        # Site by site this would take minutes.
        assert time.perf_counter() - start < 5.0
        assert abs(out.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, 0.5, 2.0])
    def test_million_steps_match_closed_form(self, phi):
        cfg, init = CoinConfig(phi), InitialState.named("psi_c")
        got = evolve(WalkState.localized(64, init), 10 ** 6, cfg)
        want = spectral.closed_form_distribution(10 ** 6, cfg, init, d=64)
        assert np.abs(position_distribution(got).probs
                      - want.probs).max() < 1e-10


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("d,phi,t", [(2, 0.0, 8), (3, 1.0, 9),
                                         (5, 2.0, 10), (8, 3.3, 7),
                                         (11, 6.0, 6)])
    def test_recycled_matches_dense_operator(self, d, phi, t, random_coin4):
        psi = random_coin4()
        st = WalkState.localized(d, InitialState(position=0, coin4=psi))
        got = evolve(st, t, CoinConfig(phi)).amplitudes
        op = oracles.dense_recycled_operator(d, phi)
        assert np.abs(op @ op.conj().T - np.eye(4 * d)).max() < 1e-12
        want = oracles.dense_evolve(st.amplitudes, op, t)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("d,t", [(2, 8), (4, 9), (7, 10), (12, 6)])
    def test_memory_matches_dense_operator(self, d, t, random_coin4):
        psi = random_coin4()
        st = WalkState.localized(d, InitialState(position=0, coin4=psi),
                                 MODEL_MEMORY)
        got = evolve(st, t).amplitudes
        op = oracles.dense_memory_operator(d)
        assert np.abs(op @ op.conj().T - np.eye(4 * d)).max() < 1e-12
        want = oracles.dense_evolve(st.amplitudes, op, t)
        assert np.allclose(got, want, atol=1e-12)


class TestTransforms:
    def test_Q_examples(self):
        assert np.array_equal(apply_Q(named_coin4("psi_a")),
                              named_coin4("psi_a"))
        assert np.array_equal(apply_Q(named_coin4("psi_c")),
                              named_coin4("psi_d"))
        assert np.array_equal(apply_Q(named_coin4("psi_d")),
                              named_coin4("psi_c"))

    def test_Q_involution(self, random_coin4):
        v = random_coin4()
        assert np.array_equal(apply_Q(apply_Q(v)), v)

    def test_P_examples(self):
        assert np.array_equal(apply_P(named_coin4("psi_a")),
                              named_coin4("psi_a"))
        assert np.array_equal(apply_P_adjoint(named_coin4("psi_a")),
                              named_coin4("psi_a"))
        got = apply_P(named_coin4("psi_d"))
        assert np.allclose(got, np.array([1, 1, -1, 1]) / 2, atol=1e-16)

    def test_P_inverse(self, random_coin4):
        v = random_coin4()
        assert np.allclose(apply_P_adjoint(apply_P(v)), v, atol=1e-16)
        assert np.allclose(apply_P(apply_P_adjoint(v)), v, atol=1e-16)

    def test_transforms_preserve_norm(self, random_coin4):
        v = random_coin4()
        for out in (apply_Q(v), apply_P(v), apply_P_adjoint(v)):
            assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestEquivalenceOnShiftBlocks:
    """Results 1 and 2 on the (A+, A-) pairs of the walk specs.

    Both results are conjugations of the one-step unitary, so they must
    hold entry by entry for A+ and A-, not only for the position
    distributions; a changed coin or shift entry in either pair breaks
    one of them or the unitarity of A+ + A-.
    """

    P = np.column_stack([apply_P(e) for e in np.eye(4)])
    Q = np.column_stack([apply_Q(e) for e in np.eye(4)])

    @staticmethod
    def _blocks(model, cfg=None):
        spec = walk._walk_spec(model, cfg)
        return spec.a_plus, spec.a_minus

    def test_result2_memory_is_recycled_phi2_conjugated_by_P(self):
        rec = self._blocks(MODEL_RECYCLED, CoinConfig(2.0))
        mem = self._blocks(MODEL_MEMORY)
        for a_rec, a_mem in zip(rec, mem):
            assert np.abs(self.P.conj().T @ a_rec @ self.P - a_mem).max() \
                < 1e-14

    def test_result1_Q_maps_phi_to_minus_2_minus_phi(self):
        phis = [0.1 * m for m in range(80)] \
            + list(np.random.default_rng(3).uniform(-20.0, 20.0, 200))
        for phi in phis:
            lhs = self._blocks(MODEL_RECYCLED, CoinConfig(phi))
            rhs = self._blocks(MODEL_RECYCLED, CoinConfig(-(2.0 + phi)))
            for a_phi, a_reflected in zip(lhs, rhs):
                assert np.abs(self.Q @ a_phi @ self.Q - a_reflected).max() \
                    < 1e-14, phi

    @pytest.mark.parametrize("model,cfg", [(MODEL_RECYCLED, CoinConfig(1.3)),
                                           (MODEL_MEMORY, None)])
    def test_coin_and_swap_is_unitary(self, model, cfg):
        a_plus, a_minus = self._blocks(model, cfg)
        g = a_plus + a_minus
        assert np.abs(g.conj().T @ g - np.eye(4)).max() < 1e-14

    # The same two results on each walk's unitary U = A+ + A- and shift
    # mask: A+ = diag(mask) U, so they hold for the pair once they hold
    # for (U, diag(mask)).
    RESULT1_PHIS = [0.1 * m for m in range(80)] \
        + list(np.random.default_rng(3).uniform(-20.0, 20.0, 200))

    @staticmethod
    def _unitary_and_mask(model, cfg=None):
        spec = walk._walk_spec(model, cfg)
        return spec.unitary, np.diag(spec.mask)

    def test_result2_on_unitary_and_mask(self):
        u_rec, pi_rec = self._unitary_and_mask(MODEL_RECYCLED,
                                               CoinConfig(2.0))
        u_mem, pi_mem = self._unitary_and_mask(MODEL_MEMORY)
        assert np.abs(self.P.T @ u_rec @ self.P - u_mem).max() <= 2.3e-16
        assert np.array_equal(self.P.T @ pi_rec @ self.P, pi_mem)

    def test_result1_on_unitary_and_mask(self):
        for phi in self.RESULT1_PHIS:
            u_phi, pi_rec = self._unitary_and_mask(MODEL_RECYCLED,
                                                   CoinConfig(phi))
            u_reflected, _ = self._unitary_and_mask(
                MODEL_RECYCLED, CoinConfig(-(2.0 + phi)))
            assert np.abs(self.Q @ u_phi @ self.Q - u_reflected).max() \
                < 1e-14, phi
            assert np.array_equal(self.Q @ pi_rec, pi_rec @ self.Q)

    def test_non_orthogonal_unitary_rejected(self):
        # A spec checks U^T U = 1 once, when it is built: a scaled U
        # would step a walk that gains norm.
        spec = walk._walk_spec(MODEL_RECYCLED, CoinConfig(1.3))
        with pytest.raises(ValueError, match="orthogonal"):
            walk._WalkSpec(1.5 * spec.unitary, spec.mask, spec.theta)
        # The complex check comes first.
        with pytest.raises(ValueError, match="real shift blocks"):
            walk._WalkSpec(1.5j * spec.unitary, spec.mask, spec.theta)


class TestSpecBytes:
    """The spec arrays, pinned bit for bit, signed zeros included.

    Every kernel and spectral path reads only these four arrays, so
    equal bytes here keep every table; the value tests above compare
    with a tolerance and cannot see a -0.0 for a +0.0.
    """

    @staticmethod
    def _digest(specs):
        h = hashlib.sha256()
        for spec in specs:
            for arr in (spec.a_plus, spec.a_minus, spec.floats, spec.terms):
                h.update(arr.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("cfgs,want", [
        ([CoinConfig(round(0.1 * m, 10)) for m in range(80)],
         "b2e0503f531cca9acfeb691872dd0a29cd82bf3bc01a12d84158788d5d45490e"),
        ([CoinConfig(4.05), CoinConfig(np.nextafter(4.05, 0.0))],
         "87bc02f6fc1f74c2bdf56c76080c173f3a9e03167cc6980f87600c8e32cde26a"),
    ], ids=["c07-grid", "one-bit-pair"])
    def test_recycled_specs(self, cfgs, want):
        specs = [walk._walk_spec(MODEL_RECYCLED, cfg) for cfg in cfgs]
        assert self._digest(specs) == want

    def test_memory_spec(self):
        assert self._digest([walk._walk_spec(MODEL_MEMORY)]) == \
            "d9a5b30e5c8a1d589e151c0220cbc52663320e52cdb60a67ca4798f9639ec069"


class TestPairsAgainstOracle:
    """Each spec's (A+, A-) are the blocks of the oracle's dense operator.

    The operator is built from the walk's operator-product definition,
    independently of the spec.  In out[n] = A+ a[n+1] + A- a[n-1], A+
    is the 4x4 block of rows at site n and columns at site n+1, and A-
    the one at columns n-1; on the 3-cycle these are different sites.
    """

    @staticmethod
    def _gap(spec, op):
        # Rows of site 0; columns of site 1 = 0 + 1 and of site 2 = 0 - 1.
        return max(np.abs(spec.a_plus - op[:4, 4:8]).max(),
                   np.abs(spec.a_minus - op[:4, 8:12]).max())

    def test_recycled_pairs(self):
        rng = np.random.default_rng(14)
        outside = rng.uniform(8.0, 48.0, 50) * rng.choice([-1.0, 1.0], 50)
        phis = [round(0.1 * m, 10) for m in range(80)] + list(outside)
        assert not any(0.0 <= phi < 8.0 for phi in outside)
        for phi in phis:
            spec = walk._walk_spec(MODEL_RECYCLED, CoinConfig(phi))
            op = oracles.dense_recycled_operator(3, phi)
            assert self._gap(spec, op) <= 1e-15, phi

    def test_memory_pair(self):
        spec = walk._walk_spec(MODEL_MEMORY)
        assert self._gap(spec, oracles.dense_memory_operator(3)) <= 1e-15
