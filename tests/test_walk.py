import math

import numpy as np
import pytest

from cyclewalk import (CoinConfig, InitialState, WalkState, MODEL_MEMORY,
                       MODEL_RECYCLED, apply_P, apply_P_adjoint, apply_Q,
                       coin_block, coin_operator, evolve, named_coin4,
                       norm_drift_scan, position_distribution, step_memory,
                       step_recycled)
from cyclewalk import _kernels, walk

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            CoinConfig(bad)


class TestCoinOperator:
    def test_hadamard_block(self):
        h = coin_block(math.pi / 4)
        assert np.allclose(h, np.array([[1, 1], [1, -1]]) * SQ2, atol=1e-15)

    def test_phi0_both_blocks_hadamard(self):
        op = coin_operator(CoinConfig(0.0))
        h = coin_block(math.pi / 4)
        assert np.array_equal(op[:2, :2], op[2:, 2:])
        assert np.allclose(op[:2, :2], h, atol=1e-15)

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

    def test_uniform_position_superposition(self):
        d = 8
        amps = np.zeros((d, 4), dtype=np.complex128)
        amps[:, 1] = 1.0 / math.sqrt(d)
        st = WalkState(d=d, model=MODEL_RECYCLED, amplitudes=amps)
        assert np.allclose(position_distribution(st).probs, 1.0 / d,
                           atol=1e-15)


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
    """Results 1 and 2 on the (A+, A-) pairs read off the step rules.

    Both results are conjugations of the one-step rule, so they must
    hold entry by entry for A+ and A-, not only for the position
    distributions; a changed coin or shift entry in either rule breaks
    one of them or the unitarity of A+ + A-.
    """

    P = np.column_stack([apply_P(e) for e in np.eye(4)])
    Q = np.column_stack([apply_Q(e) for e in np.eye(4)])

    @staticmethod
    def _blocks(model, cfg=None):
        spec = walk._walk_spec(model, cfg)
        return _kernels._shift_blocks(spec.step, *spec.coin)

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
