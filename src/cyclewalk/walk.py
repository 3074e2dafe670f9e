"""State representation and unitary evolution for two walks on the d-cycle.

The recycled-coin walk carries two qubit coins next to the position
register.  Per site the four amplitudes are ordered by (c1 c2) with c1
first: index 0 is down-down, 1 is down-up, 2 is up-down, 3 is up-up.
One step applies the block coin diag(H, C(theta)) on coin 2
conditioned on coin 1, shifts the position by coin 2 (down moves to
n-1, up to n+1, mod d), then swaps the two coins.  The second block
angle is theta = pi*(1+phi)/4 with the memory parameter phi taken
mod 8.

The memory walk carries one memory qubit and one coin qubit.  Per site
the amplitudes are ordered (coin, memory): index 0 is coin-down
memory-down, 1 is coin-down memory-up, 2 is coin-up memory-down, 3 is
coin-up memory-up.  One step applies H to the coin and then the
memory-conditioned shift that moves against the coin direction when
memory and coin agree.

H is the exact Hadamard [[1, 1], [1, -1]]/sqrt(2), and C(theta) the
real symmetric coin [[cos, sin], [sin, -cos]]; C(pi/4) is H up to one
ulp on its diagonal.

Each walk is one real 4x4 unitary U, its coin followed by the register
move (the coin swap, or writing the direction into memory), and one
0/1 shift mask Pi: the components in Pi take their amplitude from site
n+1, the rest from n-1.  So one step is out[n] = A+ a[n+1] + A- a[n-1]
with the pair of shift blocks A+ = Pi U and A- = (1 - Pi) U, which
share no nonzero row.  ``_walk_spec`` gives each walk's spec, built
from (U, Pi) alone; stepping, the norm scan and the spectral module's
Fourier blocks all come from it.

The library reads each whole-number input (a step count, a time, a
cycle size, a momentum or a position) through one function, ``_count``,
which rejects a value that is not an integer or is below its floor.
It reads each start through one function too, ``_initial``: an
InitialState as it is, a coin 4-vector as that coin at position 0.
The entries whose phase bookkeeping holds at position 0 only (the
closed form, the limits, the sweep and the crosscheck) raise one
ValueError for a start elsewhere; the theorem checks and the mixing
curve take the start at its own position.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

MODEL_RECYCLED = "recycled"
MODEL_MEMORY = "memory"

PHI_PERIOD = 8.0

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def coin_block(theta: float) -> np.ndarray:
    """2x2 coin C(theta) = [[cos, sin], [sin, -cos]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


@dataclass(frozen=True)
class CoinConfig:
    """Memory parameter phi, stored reduced to [0, 8)."""

    phi: float

    def __post_init__(self):
        if not isinstance(self.phi, numbers.Real):
            raise ValueError("phi must be a real number, got %r"
                             % (self.phi,))
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite, got %r" % (self.phi,))
        # A negative phi of size below about 4.4e-16 reduces to 8.0 once;
        # the second remainder takes that to 0.0 and leaves the rest alone.
        object.__setattr__(self, "phi",
                           float(self.phi) % PHI_PERIOD % PHI_PERIOD)

    @property
    def theta(self) -> float:
        # Single source of the angle map; everything else takes theta
        # from here.
        return math.pi * (1.0 + self.phi) / 4.0


def coin_operator(cfg: CoinConfig) -> np.ndarray:
    """4x4 block coin diag(H, C(theta)) in the (c1 c2) basis.

    H is the exact Hadamard (module docstring).  This is the only
    description of the recycled-coin walk's coin: ``_walk_spec`` builds
    the walk from it.
    """
    op = np.zeros((4, 4), dtype=np.complex128)
    op[:2, :2] = _HADAMARD
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
        object.__setattr__(self, "position",
                           _count(self.position, "position"))
        arr = _as_coin4(self.coin4).copy()
        if not np.isfinite(arr).all():
            raise ValueError("initial coin state must be finite, got %s"
                             % (arr,))
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
        object.__setattr__(self, "d", _count(self.d, "cycle length d", 2))
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
        d = _count(d, "cycle length d", 2)
        if initial.position >= d:
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
        object.__setattr__(self, "d", _count(self.d, "cycle length d", 2))
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.shape != (self.d,):
            raise ValueError("probability vector must have shape (%d,), got %s"
                             % (self.d, arr.shape))
        low = arr.min(initial=0.0)
        arr = np.clip(arr, 0.0, None)
        error = _probs_error(low, arr.sum())
        if error is not None:
            raise ValueError(error)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def uniform(cls, d: int) -> "Distribution":
        d = _count(d, "cycle length d", 2)
        return cls(d=d, probs=np.full(d, 1.0 / d))


def _probs_error(low, total):
    """Why a probability vector is not a distribution, or None if it is.

    low is its smallest entry, total the sum of its entries once
    clipped at 0.
    """
    if low < -1e-9:
        return "negative probability %.3g" % low
    # NaN passes every comparison above; a NaN or inf entry makes the
    # sum NaN or inf.
    if not math.isfinite(total):
        return "probabilities must be finite, sum to %r" % float(total)
    if abs(total - 1.0) > 1e-9:
        return "probabilities sum to %.17g, expected 1" % total
    return None


def position_distribution(state: WalkState) -> Distribution:
    """Trace out the internal registers: p(n) = sum_i |a[n, i]|^2."""
    return Distribution(d=state.d,
                        probs=np.sum(np.abs(state.amplitudes) ** 2, axis=1))


def _count(value, name: str, low: int = 0) -> int:
    """value as a Python int, whole and at least low (module docstring).

    A value that operator.index does not take (a float, even a whole
    one) raises ValueError naming the input, as does one below low.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r"
                         % (name, value)) from None
    if n < low:
        raise ValueError("%s must be >= %d, got %d" % (name, low, n))
    return n


def _initial(psi, origin: bool = False) -> InitialState:
    """psi as a start (module docstring).

    An InitialState comes back unchanged and a coin 4-vector as
    InitialState(0, psi), with InitialState's checks.  With origin set,
    a start at any position but 0 raises ValueError.
    """
    init = psi if isinstance(psi, InitialState) else InitialState(0, psi)
    if origin and init.position != 0:
        raise ValueError("the start must be at position 0, got position %d"
                         % init.position)
    return init


@dataclass(frozen=True, eq=False)
class _WalkSpec:
    """One walk as its unitary U and shift mask Pi (module docstring).

    unitary is U as a read-only real 4x4 array.  A complex U raises
    ValueError, since every kernel and the spectral cache rest on
    M_{d-k} = conj(M_k), and so does a real U with max |U^T U - 1|
    above 1e-12 or not a number, since a walk that is not unitary has
    no spectral limit.  mask is Pi as a tuple of four 0/1 entries.
    The pair A+ = diag(mask) U and A- = U - A+ is derived once, as
    read-only real 4x4 arrays, and from it two read-only forms:
    ``floats``, A+ and A- as (2, 8, 8) on the float view of a row of 4
    amplitudes, for the site step, and ``terms``, the two constant
    terms of ``_kernels._momentum_blocks``.  theta is the second-coin
    angle, None for the memory walk.
    """

    unitary: np.ndarray
    mask: tuple
    theta: float | None
    a_plus: np.ndarray = field(init=False, repr=False)
    a_minus: np.ndarray = field(init=False, repr=False)
    floats: np.ndarray = field(init=False, repr=False)
    terms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.asarray(self.unitary)
        if u.imag.any():
            raise ValueError("the mirror M_{d-k} = conj(M_k) needs real "
                             "shift blocks A+ and A-; this walk's are complex")
        # + 0.0 turns a -0.0 entry (np.kron makes them) into +0.0, so a
        # walk's arrays have the same bytes however U was written.
        u = u.real + 0.0
        if not np.abs(u.T @ u - np.eye(4)).max() <= 1e-12:
            raise ValueError("a walk's U must be orthogonal; this one's "
                             "max |U^T U - 1| exceeds 1e-12")
        a_plus = np.where(np.array(self.mask, dtype=bool)[:, None], u, 0.0)
        a_plus, a_minus = pair = np.array((a_plus, u - a_plus))
        # forms[f, j, p, i, q] is entry F[2j + p, 2i + q] of form f: the
        # float forms of A+ and A-, float(v) @ F = float(A v), then the
        # two terms of _momentum_blocks.
        forms = np.zeros((4, 4, 2, 4, 2))
        forms[:2, :, 0, :, 0] = forms[:2, :, 1, :, 1] = pair.swapaxes(1, 2)
        forms[2, :, 0, :, 0] = forms[2, :, 1, :, 1] = (a_plus + a_minus).T
        forms[3, :, 0, :, 1] = (a_plus - a_minus).T
        forms[3, :, 1, :, 0] = (a_minus - a_plus).T
        for arr in (u, pair, forms):
            arr.setflags(write=False)
        # Views of read-only arrays, which cannot be made writeable.
        for name, value in zip(
                ("unitary", "a_plus", "a_minus", "floats", "terms"),
                (u, *pair, forms[:2].reshape(2, 8, 8),
                 forms[2:].reshape(2, 64))):
            object.__setattr__(self, name, value)


# The memory walk: H on the coin, then the shift writes the direction
# into memory (rows 2 and 3 of H x I swapped); components 0 and 2, whose
# memory now reads down, arrive from site n+1.
_MEMORY_SPEC = _WalkSpec(np.kron(_HADAMARD, np.eye(2))[[0, 1, 3, 2]],
                         (1, 0, 1, 0), None)


def _walk_spec(model: str, cfg: CoinConfig | None = None) -> _WalkSpec:
    """The spec of a model.

    The recycled-coin walk needs a CoinConfig, and its spec is built
    once per cfg (``_recycled_spec``).  The memory walk has no free
    parameter: every call gets the one ``_MEMORY_SPEC``, whatever cfg
    it passes, before the cache, so such calls take no cache entry.
    """
    if model == MODEL_MEMORY:
        return _MEMORY_SPEC
    if cfg is None:
        raise ValueError("recycled-coin evolution requires a CoinConfig")
    return _recycled_spec(cfg)


@functools.lru_cache(maxsize=256)
def _recycled_spec(cfg: CoinConfig) -> _WalkSpec:
    """The recycled-coin walk's spec at cfg.

    Its U is ``coin_operator`` with rows 1 and 2 swapped (the coin
    swap), and components 0 and 1, whose coin 1 now reads down, arrive
    from site n+1.
    """
    return _WalkSpec(coin_operator(cfg).take([0, 2, 1, 3], axis=0),
                     (1, 1, 0, 0), cfg.theta)


def evolve(state: WalkState, steps: int,
           cfg: CoinConfig | None = None) -> WalkState:
    """Apply the model's one-step unitary `steps` times.

    The recycled-coin walk needs a CoinConfig; the memory walk has no
    free parameter and ignores cfg.  Below a crossover of 3 to 32
    steps, growing with d (``_kernels._power_min_steps``), the pair
    (A+, A-) steps the table site by site, O(d) per step.  From it on,
    the steps are one power of the real 8x8 momentum blocks k <= d/2,
    by repeated squaring, in O(d log t) time and O(d) memory: a million
    steps at d = 10^4 take well under a second.  When the shortest arc
    of sites that holds the start, and t sites either side of it, fill
    fewer than d sites, the power runs on that window alone, and every
    site the walk cannot reach in t steps is exactly 0: those outside
    the window and, when the start's sites lie an even distance apart
    along the arc, those of the other parity.  Every route matches the
    dense operator of the test oracles to 1e-12, and the power route
    holds the norm to about 1e-13 even at t = 10^6.
    """
    steps = _count(steps, "step count")
    if steps == 0:
        return state
    spec = _walk_spec(state.model, cfg)
    amps = _kernels.evolve(state.amplitudes, steps, spec)
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

    This is direct evolution, with no eigendecomposition.  The sums
    come from ``_kernels.sums``, started at the state after one step.
    On cycles up to ``_kernels._GRAM_MAX_D`` sites, from
    max(256, 2 d c) steps on, for the c = log2 steps to 2 log2 steps
    conjugations that ``_kernels._conjugations`` counts, they double
    the real Gram sum_t X_t^T X_t of the momentum rows X_t of the
    table's real and imaginary parts, with powers of the real 8x8
    momentum blocks, in O(d^2 log steps) time; otherwise they sum the
    stream of states (products of those blocks on small cycles, site
    steps on large ones) in O(d steps).  The final state comes from
    ``evolve``.  Either way the sums match plain stepping to rounding.
    """
    steps = _count(steps, "step count")
    if steps == 0:
        return state, np.zeros(state.d)
    spec = _walk_spec(state.model, cfg)
    amps, acc = _kernels.evolve_accumulate(state.amplitudes, steps, spec)
    return WalkState(d=state.d, model=state.model, amplitudes=amps), acc


def norm_drift_scan(state: WalkState, steps: int,
                    cfg: CoinConfig | None = None
                    ) -> tuple[WalkState, float, float]:
    """Evolve while watching the norm.

    Returns (final state, max per-step norm change, final norm).  No
    renormalization happens anywhere; the drift is a direct measure of
    floating-point error.  On cycles up to
    ``_kernels._FOURIER_SCAN_MAX_D`` sites the states come from
    products of the real 8x8 momentum blocks on the float views of the
    Fourier rows, built by doubling within chunks of steps (see
    ``_kernels``), so the drift bounds the rounding of those block
    products in each chunk, not of T sequential site steps; on larger
    cycles they come from site steps.
    """
    steps = _count(steps, "step count")
    if steps == 0:
        n = state.norm()
        return state, 0.0, n
    spec = _walk_spec(state.model, cfg)
    amps, drift, norm = _kernels.normscan(state.amplitudes, steps, spec)
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
