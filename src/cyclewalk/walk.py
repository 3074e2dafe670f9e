"""State representation and unitary evolution for two walks on the d-cycle.

The recycled-coin walk carries two qubit coins next to the position
register.  Per site the four amplitudes are ordered by (c1 c2) with c1
first: index 0 is down-down, 1 is down-up, 2 is up-down, 3 is up-up.
One step applies the block coin diag(C(pi/4), C(theta)) on coin 2
conditioned on coin 1, shifts the position by coin 2 (down moves to
n-1, up to n+1, mod d), then swaps the two coins.  The second block
angle is theta = pi*(1+phi)/4 with the memory parameter phi taken
mod 8.

The memory walk carries one memory qubit and one coin qubit.  Per site
the amplitudes are ordered (coin, memory): index 0 is coin-down
memory-down, 1 is coin-down memory-up, 2 is coin-up memory-down, 3 is
coin-up memory-up.  One step applies C(pi/4) to the coin and then the
memory-conditioned shift that moves against the coin direction when
memory and coin agree.

C(theta) is the real symmetric coin [[cos, sin], [sin, -cos]]; pi/4
gives the Hadamard.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

MODEL_RECYCLED = "recycled"
MODEL_MEMORY = "memory"

#: Coin labels in index order, coin 1 (or the active coin) first.
COIN_LABELS = ("dd", "du", "ud", "uu")

PHI_PERIOD = 8.0


def coin_block(theta: float) -> np.ndarray:
    """2x2 coin C(theta) = [[cos, sin], [sin, -cos]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


@dataclass(frozen=True)
class CoinConfig:
    """Memory parameter phi, stored reduced to [0, 8)."""

    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite, got %r" % (self.phi,))
        object.__setattr__(self, "phi", float(self.phi) % PHI_PERIOD)

    @property
    def theta(self) -> float:
        # Single source of the angle map; everything else takes theta
        # from here.
        return math.pi * (1.0 + self.phi) / 4.0


def coin_operator(cfg: CoinConfig) -> np.ndarray:
    """4x4 block coin diag(C(pi/4), C(theta)) in the (c1 c2) basis."""
    op = np.zeros((4, 4), dtype=np.complex128)
    op[:2, :2] = coin_block(math.pi / 4.0)
    op[2:, 2:] = coin_block(cfg.theta)
    return op


def _as_coin4(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != (4,):
        raise ValueError("coin state must have exactly 4 amplitudes, got shape %s"
                         % (arr.shape,))
    return arr


_NAMED_COIN4 = {
    "psi_a": np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128),
    "psi_b": np.array([1.0, 1.0, 0.0, 0.0], dtype=np.complex128) / np.sqrt(2.0),
    "psi_c": np.array([1.0, 1.0, 1.0, 1.0], dtype=np.complex128) / 2.0,
    "psi_d": np.array([1.0, 1.0, 1.0, -1.0], dtype=np.complex128) / 2.0,
}

STATE_NAMES = tuple(sorted(_NAMED_COIN4))


def named_coin4(name: str) -> np.ndarray:
    """Coin 4-vector for one of the reference states psi_a..psi_d."""
    try:
        return _NAMED_COIN4[name].copy()
    except KeyError:
        raise ValueError("unknown state name %r (expected one of %s)"
                         % (name, ", ".join(STATE_NAMES))) from None


@dataclass(frozen=True)
class InitialState:
    """Localized start: position n0 with a normalized coin 4-vector."""

    position: int
    coin4: np.ndarray
    name: str | None = None

    def __post_init__(self):
        arr = _as_coin4(self.coin4).copy()
        norm = np.sqrt(np.sum(np.abs(arr) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("initial coin state must be normalized "
                             "(norm deviates by %.3g)" % abs(norm - 1.0))
        arr.setflags(write=False)
        object.__setattr__(self, "coin4", arr)

    @classmethod
    def named(cls, name: str, position: int = 0) -> "InitialState":
        return cls(position=position, coin4=named_coin4(name), name=name)


@dataclass(frozen=True)
class WalkState:
    """Full state of a walk: a (d, 4) complex amplitude table."""

    d: int
    model: str
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("cycle length d must be >= 2, got %d" % self.d)
        if self.model not in (MODEL_RECYCLED, MODEL_MEMORY):
            raise ValueError("unknown model %r" % (self.model,))
        arr = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if arr.shape != (self.d, 4):
            raise ValueError("amplitude table must have shape (%d, 4), got %s"
                             % (self.d, arr.shape))
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def localized(cls, d: int, initial: InitialState,
                  model: str = MODEL_RECYCLED) -> "WalkState":
        if not 0 <= initial.position < d:
            raise ValueError("position %d outside cycle of length %d"
                             % (initial.position, d))
        amps = np.zeros((d, 4), dtype=np.complex128)
        amps[initial.position] = initial.coin4
        return cls(d=d, model=model, amplitudes=amps)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


@dataclass(frozen=True)
class Distribution:
    """Position probability vector over the d-cycle."""

    d: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.shape != (self.d,):
            raise ValueError("probability vector must have shape (%d,), got %s"
                             % (self.d, arr.shape))
        if arr.min(initial=0.0) < -1e-9:
            raise ValueError("negative probability %.3g" % arr.min())
        arr = np.clip(arr, 0.0, None)
        total = arr.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError("probabilities sum to %.17g, expected 1" % total)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def uniform(cls, d: int) -> "Distribution":
        return cls(d=d, probs=np.full(d, 1.0 / d))


def position_distribution(state: WalkState) -> Distribution:
    """Trace out the internal registers: p(n) = sum_i |a[n, i]|^2."""
    return Distribution(d=state.d,
                        probs=np.sum(np.abs(state.amplitudes) ** 2, axis=1))


def _check_steps(steps: int) -> int:
    if steps < 0:
        raise ValueError("step count must be >= 0, got %d" % steps)
    return int(steps)


def _coin_cs(cfg: CoinConfig) -> tuple[float, float]:
    return math.cos(cfg.theta), math.sin(cfg.theta)


@dataclass(frozen=True)
class _WalkSpec:
    """One walk: its one-step rule and the rule's coin arguments.

    Stepping, the norm scan and the Fourier blocks of the spectral
    module are all derived from ``step(a, *coin)``.  theta is the
    second-coin angle, None for the memory walk.
    """

    step: Callable
    coin: tuple
    theta: float | None


def _walk_spec(model: str, cfg: CoinConfig | None = None) -> _WalkSpec:
    """The spec of a model; the recycled-coin walk needs a CoinConfig."""
    if model == MODEL_MEMORY:
        return _WalkSpec(_kernels._step_memory, (), None)
    if cfg is None:
        raise ValueError("recycled-coin evolution requires a CoinConfig")
    return _WalkSpec(_kernels._step_recycled, _coin_cs(cfg), cfg.theta)


def evolve(state: WalkState, steps: int,
           cfg: CoinConfig | None = None) -> WalkState:
    """Apply the model's one-step unitary `steps` times.

    The recycled-coin walk needs a CoinConfig; the memory walk has no
    free parameter and ignores cfg.
    """
    steps = _check_steps(steps)
    if steps == 0:
        return state
    spec = _walk_spec(state.model, cfg)
    amps = _kernels.evolve(state.amplitudes, steps, spec.step, *spec.coin)
    return WalkState(d=state.d, model=state.model, amplitudes=amps)


def step_recycled(state: WalkState, cfg: CoinConfig) -> WalkState:
    if state.model != MODEL_RECYCLED:
        raise ValueError("step_recycled needs a recycled-coin state, got %r"
                         % state.model)
    return evolve(state, 1, cfg)


def step_memory(state: WalkState) -> WalkState:
    if state.model != MODEL_MEMORY:
        raise ValueError("step_memory needs a memory-walk state, got %r"
                         % state.model)
    return evolve(state, 1)


def evolve_accumulate(state: WalkState, steps: int,
                      cfg: CoinConfig | None = None
                      ) -> tuple[WalkState, np.ndarray]:
    """Evolve and return (final state, sum of p(., t) for t = 1..steps).

    This is direct evolution, with no eigendecomposition.  On cycles up
    to ``_kernels._FOURIER_SCAN_MAX_D`` sites the states come in
    chunks of 4x4 Fourier block products built by doubling, and each
    chunk is transformed back to the sites before its probabilities
    are summed; on larger cycles the states come from site steps (see
    ``_kernels``).  Either way the sums match plain stepping to
    rounding.
    """
    steps = _check_steps(steps)
    if steps == 0:
        return state, np.zeros(state.d)
    spec = _walk_spec(state.model, cfg)
    amps, acc = _kernels.evolve_accumulate(state.amplitudes, steps,
                                           spec.step, *spec.coin)
    return WalkState(d=state.d, model=state.model, amplitudes=amps), acc


def norm_drift_scan(state: WalkState, steps: int,
                    cfg: CoinConfig | None = None
                    ) -> tuple[WalkState, float, float]:
    """Evolve while watching the norm.

    Returns (final state, max per-step norm change, final norm).  No
    renormalization happens anywhere; the drift is a direct measure of
    floating-point error.  On cycles up to
    ``_kernels._FOURIER_SCAN_MAX_D`` sites the states come from
    products of 4x4 Fourier blocks built by doubling within chunks of
    steps (see ``_kernels``), so the drift bounds the rounding of those
    block products in each chunk, not of T sequential site steps; on
    larger cycles they come from site steps.
    """
    steps = _check_steps(steps)
    if steps == 0:
        n = state.norm()
        return state, 0.0, n
    spec = _walk_spec(state.model, cfg)
    amps, drift, norm = _kernels.normscan(state.amplitudes, steps,
                                          spec.step, *spec.coin)
    return (WalkState(d=state.d, model=state.model, amplitudes=amps),
            float(drift), float(norm))


# ---------------------------------------------------------------------------
# Register transforms used by the two equivalence results.

def apply_Q(coin4) -> np.ndarray:
    """Q = diag(1, 1, 1, -1): flips the sign of the up-up amplitude."""
    out = _as_coin4(coin4).copy()
    out[3] = -out[3]
    return out


def apply_P(coin4) -> np.ndarray:
    """Permutation P mapping (a0, a1, a2, a3) to (a0, a2, a3, a1).

    P carries memory-walk amplitudes to recycled-coin amplitudes; the
    adjoint goes the other way, so a recycled coin vector psi starts
    the memory walk as apply_P_adjoint(psi).
    """
    a = _as_coin4(coin4)
    return np.array([a[0], a[2], a[3], a[1]], dtype=np.complex128)


def apply_P_adjoint(coin4) -> np.ndarray:
    """Inverse of apply_P: (a0, a1, a2, a3) to (a0, a3, a1, a2)."""
    a = _as_coin4(coin4)
    return np.array([a[0], a[3], a[1], a[2]], dtype=np.complex128)
