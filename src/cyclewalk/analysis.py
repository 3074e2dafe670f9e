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
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels, spectral
from .walk import (CoinConfig, Distribution, InitialState, WalkState,
                   MODEL_MEMORY, MODEL_RECYCLED, _count, _probs_error,
                   _walk_spec, apply_P_adjoint, apply_Q, evolve,
                   position_distribution)


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
    t_max = _count(t_max, "t_max")
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
        built0, built2 = spectral._spectral_caches([(spec0, d), (spec2, d)])
        p0 = spectral._limiting(spec0, d, psi0, spectral._checked(built0))
        p2 = spectral._limiting(spec2, d, qpsi, spectral._checked(built2))
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
        object.__setattr__(self, "d_values", tuple(
            _count(d, "cycle length d", 2) for d in self.d_values))
        object.__setattr__(self, "phi_values",
                           tuple(float(p) for p in self.phi_values))
        object.__setattr__(self, "states", tuple(self.states))
        if not self.d_values or not self.phi_values or not self.states:
            raise ValueError("sweep grid must be non-empty on every axis")
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


class _Cells(NamedTuple):
    """The cells of some sweep groups as (group, state) arrays.

    tv is NaN, and warned False, in a failed cell; error holds its
    message (an object array, None elsewhere).  probs, when kept, is an
    object array of each cell's distribution (None in a failed cell).
    The verdicts against epsilon are the grid's (_sweep_columns).
    """

    tv: np.ndarray
    warned: np.ndarray
    error: np.ndarray
    probs: np.ndarray | None


def _failed_cells(groups, states, keep_probs) -> _Cells:
    """Cells of groups by states that all fail, with no message yet."""
    shape = (groups, states)
    return _Cells(np.full(shape, math.nan), np.zeros(shape, dtype=bool),
                  np.full(shape, None, dtype=object),
                  np.full(shape, None, dtype=object) if keep_probs else None)


def _limit_cells(ds, warned, probs, keep_probs) -> _Cells:
    """The cells of groups whose limits sit side by side in probs.

    probs is (S, sum of ds), as spectral._limiting_probs returns it for
    caches of the cycle lengths ds; warned holds each group's flag.
    Each cell is checked as Distribution checks it (walk._probs_error,
    called only for the cells that fail the check) and its TV from
    uniform taken as tv_from_uniform takes it, on (groups, states)
    arrays; only the two sums run group by group, so every bit is the
    one-group path's.  A cell that fails the check fails alone.
    """
    firsts = list(itertools.accumulate(ds[:-1], initial=0))
    low = np.minimum.reduceat(probs, firsts, axis=1).T
    probs = np.clip(probs, 0.0, None)
    dev = np.abs(probs - np.repeat(1.0 / np.array(ds), ds))
    groups = list(zip(firsts, ds))
    totals = np.array([probs[:, lo:lo + d].sum(axis=-1) for lo, d in groups])
    tv = 0.5 * np.array([dev[:, lo:lo + d].sum(axis=-1) for lo, d in groups])
    bad = ((low < -1e-9) | ~np.isfinite(totals)
           | (np.abs(totals - 1.0) > 1e-9))
    error = np.full(bad.shape, None, dtype=object)
    for g, s in zip(*np.nonzero(bad)):
        error[g, s] = _probs_error(float(low[g, s]), float(totals[g, s]))
    tv[bad] = math.nan
    kept = None
    if keep_probs:
        kept = np.full(bad.shape, None, dtype=object)
        for g, (lo, d) in enumerate(groups):
            for s in np.flatnonzero(~bad[g]):
                kept[g, s] = probs[s, lo:lo + d]
    return _Cells(tv, np.array(warned)[:, None] & ~bad, error, kept)


def _sweep_pack(task) -> _Cells:
    """The (d, phi) groups of one pack of d at one phi; runs in workers.

    One spectral._spectral_caches call builds the caches of every group
    and one spectral._limiting_probs call takes their limits for every
    state (_limit_cells turns them into cells).  A group whose cache
    fails fails its cells; an error in the pack-wide steps fails every
    cell of the pack.
    """
    phi, ds, states, keep_probs = task
    spec = _walk_spec(MODEL_RECYCLED, CoinConfig(phi))
    psis = np.array([st.coin4 for st in states], dtype=np.complex128)
    cells = _failed_cells(len(ds), len(states), keep_probs)
    try:
        built = spectral._spectral_caches([(spec, d) for d in ds])
        good = [g for g, b in enumerate(built) if b.error is None]
        if good:
            caches = [built[g].cache for g in good]
            limits = _limit_cells(
                [c.d for c in caches], [built[g].warned for g in good],
                spectral._limiting_probs(caches, psis), keep_probs)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        cells.error[:] = str(exc)
        return cells
    for g, b in enumerate(built):
        if b.error is not None:
            cells.error[g] = str(b.error)
    if good:
        for mine, theirs in zip(cells, limits):
            if mine is not None:
                mine[good] = theirs
    return cells


def _run(fn, tasks, jobs) -> list:
    """[fn(task) for task in tasks], in order, on at most jobs processes.

    jobs is a whole number >= 1.  A pool starts all of its workers at
    once, so the work sizes it: min(jobs, len(tasks), os.cpu_count())
    workers, and the tasks run in process when that is one.  A pool
    hands each worker chunks of ceil(len(tasks) / (4 workers)) tasks,
    the rule of multiprocessing.Pool.map; fn must then be a
    module-level function, so that it pickles.
    """
    workers = min(_count(jobs, "jobs", 1), len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return list(map(fn, tasks))
    # Here, not at the top: an in-process run loads neither
    # concurrent.futures nor multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks,
                             chunksize=-(-len(tasks) // (4 * workers))))


def _sweep_columns(grid: SweepGrid, jobs: int, keep_probs: bool) -> dict:
    """Every cell of the grid as columns, in (d, phi, state) order.

    Keys and values are those of SweepRecord's fields, in its order,
    each a list of one value per cell; probs is there only when kept.
    The packs' (group, state) arrays arrive phi by phi, each phi's d in
    grid order, in process or from the pool, and are reordered once per
    column.  The verdicts against epsilon are taken once, on the grid's
    tv column: classified_uniform is tv < epsilon (None in a failed
    cell), boundary tv within a decade of epsilon.
    """
    packs = spectral._packs(grid.d_values)
    tasks = [(phi, ds, grid.states, keep_probs)
             for phi in grid.phi_values for ds in packs]
    parts = _run(_sweep_pack, tasks, jobs)
    nd, nphi, ns = len(grid.d_values), len(grid.phi_values), len(grid.states)

    def cells(field):
        # (phi, d, state) in, (d, phi, state) out.
        arr = np.concatenate([getattr(part, field) for part in parts])
        return arr.reshape(nphi, nd, ns).transpose(1, 0, 2).ravel()

    ds = np.repeat(grid.d_values, nphi * ns)
    error = cells("error")
    tv = cells("tv")
    eps = grid.epsilon
    uniform = (tv < eps).astype(object)
    uniform[np.not_equal(error, None)] = None
    columns = {
        "d": ds.tolist(),
        "phi": np.tile(np.repeat(grid.phi_values, ns), nd).tolist(),
        "state": [_state_label(st) for st in grid.states] * (nd * nphi),
        "tv_from_uniform": tv.tolist(),
        "classified_uniform": uniform.tolist(),
        "boundary": ((eps / 10.0 <= tv) & (tv <= eps * 10.0)).tolist(),
        "warned": cells("warned").tolist(),
        "d_mod_4": (ds % 4).tolist(),
        "divisible_by_12": (ds % 12 == 0).tolist(),
        "error": error.tolist(),
    }
    if keep_probs:
        columns["probs"] = cells("probs").tolist()
    return columns


def sweep(grid: SweepGrid, jobs: int = 1, keep_probs: bool = True) -> list:
    """Classify every grid cell against the uniform distribution.

    Cells are processed in deterministic (d, phi, state) order and the
    result order never depends on jobs.  Each phi's d values are cut
    into packs (spectral._packs, which depends on the grid alone); with
    jobs > 1 the packs are distributed over processes.  Each pack takes
    one diagonalization of all of its blocks, which builds the caches
    of all of its (d, phi) groups, and one limit for all of its groups
    and states, whose cells are the one-group path's bit for bit.  A
    group whose cache fails fails every cell of the group and no other
    group; a cell whose distribution fails validation fails alone.
    Eigenvalues count as equal within spectral.PHASE_TOL; a group with
    a block or cluster phase gap within a decade of it is warned, as a
    single limit would warn of it.  The records are built from the
    columns that the sweep command writes (_sweep_columns).
    """
    return list(map(SweepRecord, *_sweep_columns(grid, jobs,
                                                 keep_probs).values()))


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
    t_max = _count(t_max, "t_max", 1)
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
    come from ``_kernels.sums``: by doubling the real Gram of the
    momentum rows in O(d^2 log T) on small cycles at long horizons,
    from the stream of states otherwise; neither route diagonalizes
    anything.
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
    the real Gram of the momentum rows doubled by powers of the real
    blocks on small cycles at long horizons, the stream of states
    (block products or site steps) otherwise.  Neither route takes an
    eigendecomposition or reads the spectral module, so the average
    stays independent of the spectral path; the two share only the
    walk's spec and its Fourier blocks.  It converges to the limiting
    distribution like 1/T, so at T = 10^6 the two should agree to well
    under 1e-2 in TV.
    """
    init = psi if isinstance(psi, InitialState) else InitialState(0, psi)
    if init.position != 0:
        raise ValueError("crosscheck requires a position-0 start")
    t_horizon = _count(t_horizon, "t_horizon", 1)
    amps = WalkState.localized(d, init, model).amplitudes
    spec = _walk_spec(model, None if phi is None else CoinConfig(phi))
    pbar = spectral._limiting(spec, d, init, None)
    # The states t = 1..T are those t' = 0..T-1 after one step.
    acc = _kernels.sums(_kernels._site_step(amps, spec), (t_horizon,),
                        spec)[0]
    return total_variation(pbar.probs, acc / t_horizon)
