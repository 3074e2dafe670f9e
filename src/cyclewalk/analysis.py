"""Distances, equivalence checks, parameter sweeps and mixing curves.

Everything here reduces to two primitives: exact unitary evolution,
read as one chunked stream of probabilities per walk or as its running
sums (``_kernels.sums``), and limiting distributions from the spectral
module.  The two equivalence results are checked by running both sides
and measuring the worst pointwise probability gap, never by assuming
the algebra; the sweep classifies limiting distributions against the
uniform one in total variation.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, spectral
from .walk import (CoinConfig, Distribution, InitialState, WalkState,
                   MODEL_MEMORY, MODEL_RECYCLED, _walk_spec, apply_P_adjoint,
                   apply_Q, evolve, position_distribution)


def total_variation(p, q) -> float:
    """Total variation distance, 0.5 * sum |p - q|."""
    pa = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)
    qa = q.probs if isinstance(q, Distribution) else np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError("distributions live on different cycles: %s vs %s"
                         % (pa.shape, qa.shape))
    return 0.5 * float(np.abs(pa - qa).sum())


def tv_from_uniform(dist: Distribution) -> float:
    """Total variation distance to the uniform distribution on the cycle."""
    return 0.5 * float(np.abs(dist.probs - 1.0 / dist.d).sum())


def classify_uniform(dist: Distribution, epsilon: float) -> bool:
    """True when the distribution is uniform up to epsilon in TV."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite, got %g"
                         % epsilon)
    return tv_from_uniform(dist) < epsilon


# ---------------------------------------------------------------------------
# Equivalence checks
#
# Result 1: the recycled-coin walk at phi started from psi and the one
# at (-(2+phi)) mod 8 started from Q psi give identical position
# distributions at every step.  Result 2: the memory walk started from
# P^dag psi reproduces the recycled-coin walk at phi = 2 started from
# psi.  Both are checked for arbitrary start positions; translation
# invariance makes the position choice immaterial and the tests use
# that as an extra probe.

def _gap_at(sides, t):
    pl, pr = (position_distribution(evolve(s, t, cfg)).probs
              for s, cfg in sides)
    return float(np.abs(pl - pr).max())


def _max_gap(sides, t_max):
    """Worst pointwise gap between two walks' p(., t) over t = 0..t_max."""
    if t_max < 0:
        raise ValueError("t_max must be >= 0, got %d" % t_max)
    lhs, rhs = (_kernels._states(s.amplitudes, t_max,
                                 _walk_spec(s.model, cfg))
                for s, cfg in sides)
    return max(float(np.abs(_kernels._probs(a) - _kernels._probs(b)).max())
               for a, b in zip(lhs, rhs))


def _start(d, position, coin4, model=MODEL_RECYCLED):
    return WalkState.localized(d, InitialState(position, coin4), model)


def _theorem1_sides(d, phi, psi, position):
    psi0 = np.asarray(psi, dtype=np.complex128)
    return ((_start(d, position, psi0), CoinConfig(phi)),
            (_start(d, position, apply_Q(psi0)), CoinConfig(-(2.0 + phi))))


def verify_theorem1(d: int, t: int, phi: float, psi,
                    position: int = 0) -> float:
    """Max pointwise gap between the two sides of result 1 at step t."""
    return _gap_at(_theorem1_sides(d, phi, psi, position), t)


def theorem1_max_deviation(d: int, t_max: int, phi: float, psi,
                           position: int = 0) -> float:
    """Worst verify_theorem1 value over t = 0..t_max, in one stream."""
    return _max_gap(_theorem1_sides(d, phi, psi, position), t_max)


def _theorem2_sides(d, psi, position):
    psi0 = np.asarray(psi, dtype=np.complex128)
    return ((_start(d, position, psi0), CoinConfig(2.0)),
            (_start(d, position, apply_P_adjoint(psi0), MODEL_MEMORY), None))


def verify_theorem2(d: int, t: int, psi, position: int = 0) -> float:
    """Max pointwise gap between the two sides of result 2 at step t."""
    return _gap_at(_theorem2_sides(d, psi, position), t)


def theorem2_max_deviation(d: int, t_max: int, psi,
                           position: int = 0) -> float:
    """Worst verify_theorem2 value over t = 0..t_max, in one stream."""
    return _max_gap(_theorem2_sides(d, psi, position), t_max)


#: The three phi pairs whose limiting distributions coincide once the
#: second walker starts from Q psi.
PBAR_IDENTITY_PAIRS = ((0.0, 6.0), (2.0, 4.0), (1.0, 5.0))


def verify_pbar_identities(d: int, psi) -> dict:
    """TV between pbar(phi; psi) and pbar(phi'; Q psi) for each pair."""
    psi0 = spectral._coin4_or_initial(psi)
    qpsi = apply_Q(psi0)
    out = {}
    for phi_a, phi_b in PBAR_IDENTITY_PAIRS:
        pa = spectral.limiting_distribution(CoinConfig(phi_a), d, psi0)
        pb = spectral.limiting_distribution(CoinConfig(phi_b), d, qpsi)
        out[(phi_a, phi_b)] = total_variation(pa, pb)
    return out


def residue_distance_curve(d_values, psi) -> list:
    """(d, d mod 4, TV(pbar(phi=0; psi), pbar(phi=2; Q psi))) per d.

    This is the distance the phi pairs (0, 6) and (2, 4) do NOT close:
    it vanishes when 4 divides d, is largest on the d = 4r + 2 class,
    and for psi_a decays with d inside each residue class.
    """
    psi0 = spectral._coin4_or_initial(psi)
    qpsi = apply_Q(psi0)
    spec0, spec2 = (_walk_spec(MODEL_RECYCLED, CoinConfig(phi))
                    for phi in (0.0, 2.0))
    out = []
    for d in d_values:
        # One stack per d for both walks; a column of d per walk would
        # move the small tables onto the polynomial route.
        build0, build2 = spectral._spectral_caches([(spec0, d), (spec2, d)])
        p0 = spectral._limiting(spec0, d, psi0, build0())
        p2 = spectral._limiting(spec2, d, qpsi, build2())
        out.append((int(d), int(d) % 4, total_variation(p0, p2)))
    return out


# ---------------------------------------------------------------------------
# Sweeps

@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid of (d, phi, start state) cells for classification."""

    d_values: tuple
    phi_values: tuple
    states: tuple
    epsilon: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "d_values",
                           tuple(int(d) for d in self.d_values))
        object.__setattr__(self, "phi_values",
                           tuple(float(p) for p in self.phi_values))
        object.__setattr__(self, "states", tuple(self.states))
        if not self.d_values or not self.phi_values or not self.states:
            raise ValueError("sweep grid must be non-empty on every axis")
        if any(d < 2 for d in self.d_values):
            raise ValueError("all cycle lengths must be >= 2")
        if any(not 0.0 <= p < 8.0 for p in self.phi_values):
            raise ValueError("all phi values must lie in [0, 8)")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        for st in self.states:
            if not isinstance(st, InitialState):
                raise TypeError("grid states must be InitialState instances")
            if st.position != 0:
                raise ValueError("sweep cells start at position 0")

    @classmethod
    def named(cls, d_values, phi_values, names,
              epsilon: float = 1e-6) -> "SweepGrid":
        states = tuple(InitialState.named(n) for n in names)
        return cls(d_values=tuple(d_values), phi_values=tuple(phi_values),
                   states=states, epsilon=epsilon)

    def cells(self) -> int:
        return len(self.d_values) * len(self.phi_values) * len(self.states)


@dataclass(frozen=True)
class SweepRecord:
    """Outcome of one sweep cell.

    boundary marks TV values within a decade of epsilon, where the
    uniform call would flip under a modest tolerance change; warned
    marks cells whose eigenvalue pairing raised
    DegenerateClusterWarning.  error holds the message of a failed
    cell; failed cells never abort the sweep.
    """

    d: int
    phi: float
    state: str
    tv_from_uniform: float
    classified_uniform: bool | None
    boundary: bool
    warned: bool
    d_mod_4: int
    divisible_by_12: bool
    error: str | None = None
    probs: np.ndarray | None = field(default=None, repr=False)


def _state_label(st: InitialState) -> str:
    return st.name if st.name is not None else "custom"


def _failed_row(label, exc):
    return (label, math.nan, None, False, False, str(exc), None)


def _sweep_cell_group(d, build, psis, state_items, epsilon, keep_probs):
    """All states of one (d, phi) cell, from its cache builder.

    One cache and one batched limit serve every state.  An error there
    fails every row of the group, an invalid distribution only its own;
    a DegenerateClusterWarning from either marks every row warned.
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", spectral.DegenerateClusterWarning)
            batch = spectral._limiting_probs(build(), psis)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        return [_failed_row(label, exc) for label, _ in state_items]
    warned = any(issubclass(w.category, spectral.DegenerateClusterWarning)
                 for w in caught)
    rows = []
    for (label, _), probs in zip(state_items, batch):
        try:
            dist = Distribution(d=d, probs=probs)
        except ValueError as exc:
            rows.append(_failed_row(label, exc))
            continue
        tv = tv_from_uniform(dist)
        rows.append((label, tv, bool(tv < epsilon),
                     bool(epsilon / 10.0 <= tv <= epsilon * 10.0),
                     warned, None, dist.probs.copy() if keep_probs else None))
    return rows


def _sweep_pack(task):
    """The (d, phi) groups of one pack of d at one phi; runs in workers.

    One spectral._spectral_caches call diagonalizes the whole pack; each
    group then finishes its own cache and limit (_sweep_cell_group).
    """
    phi, ds, state_items, epsilon, keep_probs = task
    spec = _walk_spec(MODEL_RECYCLED, CoinConfig(phi))
    try:
        builders = spectral._spectral_caches([(spec, d) for d in ds])
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        return [[_failed_row(label, exc) for label, _ in state_items]
                for _ in ds]
    psis = np.array([coin4 for _, coin4 in state_items], dtype=np.complex128)
    return [_sweep_cell_group(d, build, psis, state_items, epsilon,
                              keep_probs)
            for d, build in zip(ds, builders)]


def _run(fn, tasks, jobs, chunksize=1) -> list:
    """[fn(task) for task in tasks], in order.

    In process for jobs = 1 or a single task, else on a pool of jobs
    processes, which hands each worker chunksize tasks at a time; fn
    must then be a module-level function, so that it pickles.
    """
    if jobs == 1 or len(tasks) == 1:
        return list(map(fn, tasks))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


def sweep(grid: SweepGrid, jobs: int = 1, keep_probs: bool = True) -> list:
    """Classify every grid cell against the uniform distribution.

    Cells are processed in deterministic (d, phi, state) order and the
    result order never depends on jobs.  Each phi's d values are cut
    into packs (spectral._packs, which depends on the grid alone), and
    each pack is one diagonalization of all of its blocks; with
    jobs > 1 the packs are distributed over processes.  Each (d, phi)
    group then finishes its cache and takes one batched limit for all
    of its states, so an error there, or a DegenerateClusterWarning,
    applies to every row of the group and to no other group; a row
    whose distribution fails validation fails alone.  Eigenvalues
    count as equal within spectral.PHASE_TOL; a group with a phase gap
    within a decade of it is warned.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1, got %d" % jobs)
    state_items = tuple((_state_label(st), tuple(complex(c) for c in st.coin4))
                        for st in grid.states)
    packs = spectral._packs(grid.d_values)
    tasks = [(phi, ds, state_items, grid.epsilon, keep_probs)
             for phi in grid.phi_values for ds in packs]
    # Groups arrive phi by phi, each phi's d in grid order.
    groups = list(itertools.chain.from_iterable(_run(_sweep_pack, tasks,
                                                     jobs)))
    nd = len(grid.d_values)
    records = []
    for i, d in enumerate(grid.d_values):
        for j, phi in enumerate(grid.phi_values):
            for row in groups[j * nd + i]:
                label, tv, uniform, boundary, warned, error, probs = row
                records.append(SweepRecord(
                    d=d, phi=phi, state=label, tv_from_uniform=tv,
                    classified_uniform=uniform, boundary=boundary,
                    warned=warned, d_mod_4=d % 4,
                    divisible_by_12=(d % 12 == 0), error=error, probs=probs))
    return records


# ---------------------------------------------------------------------------
# Time averages

@dataclass(frozen=True)
class MixingCurve:
    """Standard deviation SD(T) of the running average from uniform.

    SD(T) = TV((1/T) sum_{t=0}^{T-1} p(., t), uniform), sampled at the
    given horizons.
    """

    d: int
    model: str
    phi: float | None
    state: str
    horizons: tuple
    sd: tuple


def default_horizons(t_max: int) -> tuple:
    """Powers of two up to t_max, with t_max itself appended."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1, got %d" % t_max)
    hs = []
    h = 1
    while h <= t_max:
        hs.append(h)
        h *= 2
    if hs[-1] != t_max:
        hs.append(t_max)
    return tuple(hs)


def _check_horizons(horizons, t_max) -> tuple:
    """The horizons as a tuple of ints, checked against t_max."""
    horizons = tuple(horizons)
    try:
        horizons = tuple(map(operator.index, horizons))
    except TypeError:
        raise ValueError("horizons must be integers, got %r"
                         % (horizons,)) from None
    if not horizons:
        raise ValueError("horizons must not be empty")
    if horizons[0] < 1 or list(horizons) != sorted(set(horizons)):
        raise ValueError("horizons must be strictly increasing and >= 1")
    if horizons[-1] > t_max:
        raise ValueError("largest horizon exceeds t_max")
    return horizons


def mixing_curve(d: int, phi: float | None, psi, t_max: int,
                 horizons=None, model: str = MODEL_RECYCLED,
                 label: str | None = None) -> MixingCurve:
    """Sample SD(T) at increasing horizons from one call to the kernels.

    psi may be an InitialState, a coin 4-vector (start at position 0),
    or a full WalkState for non-localized starts.  The running sums
    come from ``_kernels.sums``: by doubling the momentum Gram in
    O(d^2 log T) on small cycles at long horizons, from the stream of
    states otherwise; neither route diagonalizes anything.
    """
    if isinstance(psi, WalkState):
        if psi.d != d:
            raise ValueError("state lives on a %d-cycle, asked for d=%d"
                             % (psi.d, d))
        state, model, name = psi, psi.model, label or "custom"
    else:
        init = psi if isinstance(psi, InitialState) else InitialState(0, psi)
        state = WalkState.localized(d, init, model)
        name = label or (init.name or "custom")
    if horizons is None:
        horizons = default_horizons(t_max)
    else:
        horizons = _check_horizons(horizons, t_max)
    cfg = None if phi is None else CoinConfig(phi)
    spec = _walk_spec(model, cfg)
    position_distribution(state)  # rejects a start that is not normalized
    sums = _kernels.sums(state.amplitudes, horizons, spec)
    sds = [0.5 * float(np.abs(total / h - 1.0 / d).sum())
           for h, total in zip(horizons, sums)]
    return MixingCurve(d=d, model=model,
                       phi=None if spec.theta is None else cfg.phi,
                       state=name, horizons=horizons, sd=tuple(sds))


def crosscheck_limiting(d: int, phi: float | None, psi, t_horizon: int,
                        model: str = MODEL_RECYCLED) -> float:
    """TV between the spectral limiting distribution and a long average.

    Both sides come from one walk description.  The running average is
    (1/T) sum_{t=1}^{T} p(., t), from ``_kernels.sums`` after one step:
    the momentum Gram doubled by powers of the blocks on small cycles
    at long horizons, the stream of states (block products or site
    steps) otherwise.  Neither route takes an eigendecomposition or
    reads the spectral module, so the average stays independent of the
    spectral path; the two share only the walk's spec and its Fourier
    blocks.  It converges to the limiting distribution like 1/T, so at
    T = 10^6 the two should agree to well under 1e-2 in TV.
    """
    init = psi if isinstance(psi, InitialState) else InitialState(0, psi)
    if init.position != 0:
        raise ValueError("crosscheck requires a position-0 start")
    if t_horizon < 1:
        raise ValueError("t_horizon must be >= 1, got %d" % t_horizon)
    amps = WalkState.localized(d, init, model).amplitudes
    spec = _walk_spec(model, None if phi is None else CoinConfig(phi))
    pbar = spectral._limiting(spec, d, init, None)
    # The states t = 1..T are those t' = 0..T-1 after one step.
    acc = _kernels.sums(_kernels._site_step(amps, spec), (t_horizon,),
                        spec)[0]
    return total_variation(pbar.probs, acc / t_horizon)
