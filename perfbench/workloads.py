"""The four benchmark workloads: their operations, gates and reasons.

Each workload function turns a seeded ``numpy.random.Generator`` into
one round of operations.  An operation is one library call or one
in-process ``cli.main`` invocation; its gate checks the output and
returns None or a failure message.  Inputs, and the reference values
the gates compare against, are made before any round is timed.
Operations look up the package functions at call time, so the tracer's
wrappers are used.

Why each workload exists, and which later optimization it should show
or not show, is written in ``perfbench/README.md``; the one-line reason
is the ``why`` below, which ``BENCHMARK.json`` repeats.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

NORM_STEP_TOL = 1e-12      # C01 per-step drift
NORM_TOTAL_TOL = 1e-9      # C01 cumulative drift
THEOREM_TOL = 1e-10        # C03/C04 deviation
CLOSED_FORM_TOL = 1e-8     # C02 closed form against stepping
SAME_DIST_TOL = 1e-10      # two routes to one limiting distribution
LIGHT_CONE_TOL = 1e-12     # evolve at large d against evolve at small d
# The running average converges to the limit like 1/T; the worst C09
# case (d=11, phi=0.5, psi_b) sits at 24/T at T=1e4.
CROSSCHECK_C = 50.0


@dataclass(frozen=True)
class Op:
    """One timed operation and the gate on its output.

    ``table`` marks ``(exit code, text)`` outputs of a CLI invocation,
    whose SHA-256 the runner records and compares across rounds.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    table: bool = False


def cli_call(cw, args):
    """Run ``cyclewalk <args>`` in process; returns (exit code, table text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cw.cli.main(list(args))
    return code, buf.getvalue()


def table_rows(text):
    """Data rows of a CSV table as dicts, skipping the '#' metadata lines."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _random_coin4(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def _cli_op(cw, name, args, check):
    def gate(out):
        code, text = out
        if code != 0:
            return "exit code %d" % code
        try:
            return check(table_rows(text))
        except (KeyError, ValueError) as exc:
            return "unreadable table: %s" % exc
    return Op(name, partial(cli_call, cw, args), gate, table=True)


def _probs_gate(column, ref, tol):
    def check(rows):
        got = np.array([float(r[column]) for r in rows])
        if got.shape != ref.shape:
            return "%d rows, expected %d" % (got.size, ref.size)
        if abs(got.sum() - 1.0) > 1e-9:
            return "probabilities sum to %.17g" % got.sum()
        gap = float(np.abs(got - ref).max())
        return None if gap < tol else "off the reference by %.3g" % gap
    return check


# ---------------------------------------------------------------------------
# short-walks

def _norm_scan(cw, state, steps, cfg):
    return cw.walk.norm_drift_scan(state, steps, cfg)


def _check_norm(out):
    _, drift, norm = out
    if drift >= NORM_STEP_TOL or abs(norm - 1.0) >= NORM_TOTAL_TOL:
        return "norm drift %.3g per step, %.3g total" % (drift, abs(norm - 1.0))
    return None


def _check_theorem(dev):
    return None if dev < THEOREM_TOL else "theorem deviation %.3g" % dev


def short_walks(cw, rng, smoke=False):
    """C01-shaped 500-step walks at d = 2..32 plus one-step theorem cells."""
    d_values = (2, 7, 32) if smoke else range(2, 33)
    steps, t_max = (50, 10) if smoke else (500, 50)
    cells1, cells2 = (2, 1) if smoke else (24, 12)
    walk = cw.walk
    ops = []
    for d in d_values:
        for model in ("recycled", "memory"):
            phi, psi = float(rng.uniform(0.0, 8.0)), _random_coin4(rng)
            cfg = walk.CoinConfig(phi) if model == "recycled" else None
            state = walk.WalkState.localized(d, walk.InitialState(0, psi),
                                             model)
            ops.append(Op("walk d=%d %s" % (d, model),
                          partial(_norm_scan, cw, state, steps, cfg),
                          _check_norm))
    for _ in range(cells1):
        d, phi = int(rng.integers(3, 17)), float(rng.uniform(0.0, 8.0))
        psi = _random_coin4(rng)
        ops.append(Op("theorem1 d=%d phi=%.3f" % (d, phi),
                      lambda d=d, phi=phi, psi=psi:
                      cw.analysis.theorem1_max_deviation(d, t_max, phi, psi),
                      _check_theorem))
    for _ in range(cells2):
        d, psi = int(rng.integers(3, 17)), _random_coin4(rng)
        ops.append(Op("theorem2 d=%d" % d,
                      lambda d=d, psi=psi:
                      cw.analysis.theorem2_max_deviation(d, t_max, psi),
                      _check_theorem))
    return ops


# ---------------------------------------------------------------------------
# long-horizon

_C09_CASES = ((5, 0.0, "psi_a"), (11, 0.0, "psi_b"), (12, 2.0, "psi_c"),
              (11, 0.5, "psi_b"))
_STATES = ("psi_a", "psi_b", "psi_c", "psi_d")


def _limit(cw, d, phi, state):
    coin4 = cw.walk.named_coin4(state)
    if phi is None:
        return cw.spectral.limiting_distribution_memory(d, coin4).probs
    return cw.spectral.limiting_distribution(cw.walk.CoinConfig(phi), d,
                                             coin4).probs


def _mixing_gate(pbar, horizon):
    # |SD(T) - TV(pbar, uniform)| <= TV(running average, pbar) = O(1/T).
    target = 0.5 * float(np.abs(pbar - 1.0 / pbar.size).sum())

    def check(rows):
        if int(rows[-1]["T"]) != horizon:
            return "last horizon %s, expected %d" % (rows[-1]["T"], horizon)
        gap = abs(float(rows[-1]["sd"]) - target)
        return (None if gap < CROSSCHECK_C / horizon
                else "SD(T) off the limit by %.3g" % gap)
    return check


def _check_crosscheck(horizon, tv):
    return (None if tv < CROSSCHECK_C / horizon
            else "running average off the limit by %.3g" % tv)


def long_horizon(cw, rng, smoke=False):
    """Long running averages: `mixing` for both walks and C09 crosschecks."""
    horizon = 200 if smoke else 10 ** 4
    mem_state = _STATES[rng.integers(4)]
    extra = _C09_CASES[rng.integers(len(_C09_CASES))]
    mixing = (("recycled", 11, 0.5, "psi_b"), ("memory", 12, None, mem_state),
              ("recycled",) + extra)
    ops = []
    for model, d, phi, state in mixing:
        args = ["mixing", "--model", model, "--d", str(d), "--state", state,
                "--t-max", str(horizon)]
        if phi is not None:
            args += ["--phi", repr(phi)]
        ops.append(_cli_op(cw, "mixing %s d=%d phi=%s %s"
                           % (model, d, phi, state), args,
                           _mixing_gate(_limit(cw, d, phi, state), horizon)))
    cases = [("recycled",) + case for case in _C09_CASES]
    cases.append(("memory", 12, None, _STATES[rng.integers(4)]))
    for model, d, phi, state in cases:
        init = cw.walk.InitialState.named(state)
        ops.append(Op("crosscheck %s d=%d phi=%s %s" % (model, d, phi, state),
                      lambda d=d, phi=phi, init=init, model=model:
                      cw.analysis.crosscheck_limiting(d, phi, init, horizon,
                                                      model=model),
                      partial(_check_crosscheck, horizon)))
    return ops


# ---------------------------------------------------------------------------
# sweep-grid

def _sweep_gate(d_values, phi):
    cells = len(d_values) * len(_STATES)

    def check(rows):
        if len(rows) != cells:
            return "%d cells, expected %d" % (len(rows), cells)
        for r in rows:
            d = int(r["d"])
            if r["error"]:
                return "cell d=%d failed: %s" % (d, r["error"])
            if r["uniform"] != "false":
                continue
            if not (phi.is_integer() and int(phi) in (0, 1, 2, 4, 5, 6)):
                return "stray non-uniform cell d=%d phi=%g" % (d, phi)
            if int(phi) in (1, 5) and d % 12 != 0:
                return "non-uniform phi=%g cell at d=%d" % (phi, d)
        return None
    return check


def sweep_grid(cw, rng, smoke=False, jobs=1):
    """C07's d = 2..50 grid, all four states, integer phi plus seeded phi."""
    d_lo, d_hi = (2, 8) if smoke else (2, 50)
    integer_phi = (0, 1, 5) if smoke else range(8)
    generic = [m for m in range(80) if m % 10]
    picks = rng.choice(generic, size=1 if smoke else 4, replace=False)
    phis = sorted([float(p) for p in integer_phi]
                  + [round(0.1 * int(m), 10) for m in picks])
    d_values = range(d_lo, d_hi + 1)
    return [_cli_op(cw, "sweep phi=%g" % phi,
                    ["sweep", "--d-range", "%d..%d" % (d_lo, d_hi),
                     "--phi", repr(phi), "--jobs", str(jobs)],
                    _sweep_gate(d_values, phi))
            for phi in phis]


# ---------------------------------------------------------------------------
# large-d

def _closed_form(cw, t, phi, coin4, d):
    return cw.spectral.closed_form_distribution(t, cw.walk.CoinConfig(phi),
                                                coin4, d=d)


def _stepped(cw, d, t, phi, state, model="recycled"):
    walk = cw.walk
    start = walk.WalkState.localized(d, walk.InitialState.named(state), model)
    cfg = walk.CoinConfig(phi) if model == "recycled" else None
    return walk.position_distribution(walk.evolve(start, t, cfg)).probs


def _closed_form_gate(ref):
    def check(dist):
        gap = float(np.abs(dist.probs - ref).max())
        return (None if gap < CLOSED_FORM_TOL
                else "closed form off stepping by %.3g" % gap)
    return check


def _light_cone_ref(cw, d, t, phi, state, model):
    # Before the walker wraps round (2t < d) the distribution on offsets
    # -t..t does not depend on d, and every other site is exactly 0.
    small = _stepped(cw, 2 * t + 2, t, phi, state, model)
    ref = np.zeros(d)
    offsets = np.arange(-t, t + 1)
    ref[offsets % d] = small[offsets % (2 * t + 2)]
    return ref


def large_d(cw, rng, smoke=False):
    """Exact distributions at large d: limiting, closed form and evolve."""
    walk = cw.walk
    d_rec, d_mem = (64, 48) if smoke else (4096, 2048)
    closed = ((16, 10), (16, 20)) if smoke else ((256, 10), (256, 100),
                                                 (320, 50))
    evolves = ((40, 10), (60, 20)) if smoke else ((2048, 200), (2560, 250),
                                                  (3072, 300), (4096, 400))
    # phi = 0.5 has eigenphase gaps within a decade of PHASE_TOL at
    # d = 2048 and 4096, so the ambiguous-pairing warning path runs.
    phi = 0.5
    rec_state, mem_state = _STATES[rng.integers(4)], _STATES[rng.integers(4)]
    ops = []

    # Result 1 carries over to limits: pbar(phi; psi) = pbar(-(2+phi); Q psi).
    ref = cw.spectral.limiting_distribution(
        walk.CoinConfig(-(2.0 + phi)), d_rec,
        walk.apply_Q(walk.named_coin4(rec_state))).probs
    ops.append(_cli_op(cw, "limiting recycled d=%d phi=%g %s"
                       % (d_rec, phi, rec_state),
                       ["limiting", "--d", str(d_rec), "--phi", repr(phi),
                        "--state", rec_state],
                       _probs_gate("pbar", ref, SAME_DIST_TOL)))
    # Result 2: the memory walk from psi is the phi=2 walk from P psi.
    ref = cw.spectral.limiting_distribution(
        walk.CoinConfig(2.0), d_mem,
        walk.apply_P(walk.named_coin4(mem_state))).probs
    ops.append(_cli_op(cw, "limiting memory d=%d %s" % (d_mem, mem_state),
                       ["limiting", "--model", "memory", "--d", str(d_mem),
                        "--state", mem_state],
                       _probs_gate("pbar", ref, SAME_DIST_TOL)))

    for d, t in closed:
        cf_phi = round(0.1 * int(rng.integers(80)), 10)
        state = _STATES[rng.integers(4)]
        ops.append(Op("closed_form d=%d t=%d phi=%g %s" % (d, t, cf_phi, state),
                      partial(_closed_form, cw, t, cf_phi,
                              walk.named_coin4(state), d),
                      _closed_form_gate(_stepped(cw, d, t, cf_phi, state))))

    for d, t in evolves:
        for model in ("recycled", "memory"):
            ev_phi = round(0.1 * int(rng.integers(80)), 10)
            state = _STATES[rng.integers(4)]
            args = ["evolve", "--model", model, "--d", str(d), "--t", str(t),
                    "--state", state]
            if model == "recycled":
                args += ["--phi", repr(ev_phi)]
            ops.append(_cli_op(
                cw, "evolve %s d=%d t=%d" % (model, d, t), args,
                _probs_gate("probability",
                            _light_cone_ref(cw, d, t, ev_phi, state, model),
                            LIGHT_CONE_TOL)))
    return ops


#: name -> (workload function, one-line reason, repeated in BENCHMARK.json)
WORKLOADS = {
    "short-walks": (short_walks, "many short walks and one-step theorem "
                    "loops: per-call overhead in _kernels and walk dominates; "
                    "spectral does no work"),
    "long-horizon": (long_horizon, "few long single-walk accumulations: "
                     "time blocking shows here, batching across walks cannot"),
    "sweep-grid": (sweep_grid, "C07 sweep grid at jobs=1: spectral "
                   "diagonalization and pair sums do almost all the work, "
                   "no stepping"),
    "large-d": (large_d, "exact distributions at d in the thousands: d^2 "
                "costs (dense DFT, Gram and time-power matrices) dominate "
                "time and memory"),
}
