"""Command line front end.

Subcommands: evolve, limiting, sweep, mixing, verify, residue.  Every
command validates its configuration, runs the experiment, and returns
one deterministic table with the failure message of the experiment, if
any; `main` writes the table (CSV or JSON) to --out or stdout, then
prints that message.  Exit codes: 0 success, 1 experiment-level failure
(a theorem deviation above threshold, a failed sweep cell or a failed
numerical check), 2 usage error.

Flags override an optional JSON --config file; the effective
scientific configuration is echoed into the output metadata.  The
output bytes are a pure function of that configuration: paths, jobs
and diagnostics never leak into the table.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from operator import itemgetter

import numpy as np

from . import analysis, spectral
from .output import Table, write_table
from .walk import (CoinConfig, InitialState, WalkState, MODEL_MEMORY,
                   MODEL_RECYCLED, STATE_NAMES, evolve,
                   position_distribution)

#: phi values exercised by `verify` when no grid is given; 0, 1 and 2
#: probe the distinguished integer parameters, the rest are generic.
VERIFY_PHI_DEFAULT = (0.0, 0.7, 1.0, 2.0, 3.3)
THEOREM_TOL = 1e-10
#: Most points a --phi grid may hold, far beyond any grid of the paper
#: (C07 takes 80).
PHI_GRID_MAX_POINTS = 100_000
#: Most cycle lengths a --d-range may hold (C07 takes 49).
D_RANGE_MAX_POINTS = 100_000


class UsageError(Exception):
    pass


def _diag(msg: str):
    print("cyclewalk: %s" % msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Value parsing

def parse_d_range(text: str) -> list:
    """Inclusive integer range 'A..B' of at most D_RANGE_MAX_POINTS values.

    The values are counted before any is built.
    """
    parts = text.split("..")
    if len(parts) != 2:
        raise UsageError("bad --d-range %r (expected A..B)" % text)
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError("bad --d-range %r (expected integers)" % text) from None
    if lo > hi:
        raise UsageError("empty --d-range %r" % text)
    if lo < 2:
        raise UsageError("cycle sizes must be >= 2, got %d" % lo)
    if hi - lo + 1 > D_RANGE_MAX_POINTS:
        raise UsageError("--d-range %r has %d values, more than %d"
                         % (text, hi - lo + 1, D_RANGE_MAX_POINTS))
    return list(range(lo, hi + 1))


def parse_phi_grid(text: str) -> list:
    """Inclusive arithmetic grid 'start:step:end', rounded to 10 places.

    The rounding pins grid points like 0.1 * k to their decimal values
    so integer phi cells are exactly integers.  A step below 1e-10, a
    grid of more than PHI_GRID_MAX_POINTS points, or one whose rounded
    points do not strictly increase, is rejected.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("bad --phi-grid %r (expected start:step:end)" % text)
    try:
        start, step, end = (float(p) for p in parts)
    except ValueError:
        raise UsageError("bad --phi-grid %r (expected numbers)" % text) from None
    if not all(map(math.isfinite, (start, step, end))):
        raise UsageError("bad --phi-grid %r (expected finite numbers)" % text)
    if step <= 0:
        raise UsageError("--phi-grid step must be positive")
    # Below the rounding's resolution, points would repeat.
    if step < 1e-10:
        raise UsageError("--phi-grid step %r is below 1e-10, the grid's "
                         "resolution" % step)
    if end < start:
        raise UsageError("empty --phi-grid %r" % text)
    # The first point at or past 8 lies below 8 + step, so a farther end
    # cannot change the verdict; the grid is checked before it is built.
    end = min(end, 8.0 + step)
    count = (end - start) / step
    if not math.isfinite(count):
        raise UsageError("bad --phi-grid %r (step too small)" % text)
    n = int(round(count))
    if start + n * step > end + 1e-9:
        n -= 1
    if not 0.0 <= round(start, 10) <= round(start + n * step, 10) < 8.0:
        raise UsageError("phi grid must stay inside [0, 8)")
    if n + 1 > PHI_GRID_MAX_POINTS:
        raise UsageError("--phi-grid %r has %d points, more than %d"
                         % (text, n + 1, PHI_GRID_MAX_POINTS))
    grid = [round(start + i * step, 10) for i in range(n + 1)]
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise UsageError("--phi-grid %r repeats points once rounded to 10 "
                         "places" % text)
    return grid


def parse_state(text: str) -> InitialState:
    """A named state psi_a..psi_d or custom:<four complex literals>.

    Custom vectors use comma-separated literals like 0.5+0.5i and are
    normalized on input; a deviation of more than 1e-6 from unit norm
    draws a diagnostic.
    """
    if text in STATE_NAMES:
        return InitialState.named(text)
    if not text.startswith("custom:"):
        raise UsageError("unknown state %r (expected %s or custom:...)"
                         % (text, "|".join(STATE_NAMES)))
    body = text[len("custom:"):]
    parts = body.split(",")
    if len(parts) != 4:
        raise UsageError("custom state needs exactly 4 components, got %d"
                         % len(parts))
    try:
        comps = [complex(p.strip().lower().replace("i", "j")) for p in parts]
    except ValueError:
        raise UsageError("bad complex literal in custom state %r" % body) \
            from None
    vec = np.array(comps, dtype=np.complex128)
    if not np.isfinite(vec).all():
        raise UsageError("custom state components must be finite, got %r"
                         % body)
    # math.hypot scales its arguments; dividing the parts as reals keeps
    # numpy from multiplying by 1/norm, which overflows for tiny norms.
    parts = vec.view(np.float64)
    norm = math.hypot(*parts)
    if not 0.0 < norm < math.inf:
        raise UsageError("custom state must be nonzero with a finite norm")
    if abs(norm - 1.0) > 1e-6:
        _diag("warning: custom state norm deviates from 1 by %.3g; "
              "normalizing" % abs(norm - 1.0))
    return InitialState(position=0, coin4=(parts / norm).view(np.complex128),
                        name=None)


def _state_config(init: InitialState):
    if init.name is not None:
        return init.name
    return [[float(c.real), float(c.imag)] for c in init.coin4]


# ---------------------------------------------------------------------------
# Argument plumbing

#: argparse keywords of every flag, by name; every default is None, so a
#: config file value fills exactly the flags left unset.
_FLAGS = {
    "d": {"type": int},
    "d-range": {"metavar": "A..B"},
    "phi": {"type": float},
    "phi-grid": {"metavar": "START:STEP:END"},
    "state": {},
    "t": {"type": int},
    "t-max": {"type": int},
    "epsilon": {"type": float},
    "jobs": {"type": int},
    "model": {"choices": (MODEL_RECYCLED, MODEL_MEMORY)},
    "format": {"choices": ("csv", "json"),
               "help": "output format (default csv)"},
    "out": {"metavar": "PATH", "help": "output file (default stdout)"},
    "config": {"metavar": "PATH",
               "help": "JSON file with defaults; flags take precedence"},
}

#: Flags that every command takes, after its own.
_COMMON = ("format", "out", "config")

#: A --state that may be given several times; the namespace holds a list.
_STATES = ("state", {"action": "append",
                     "help": "repeatable; default: all four named states"})


def _command_flags(command: str) -> dict:
    """Flag name -> argparse keywords of every flag that command takes."""
    named = ((f, {}) if isinstance(f, str) else f
             for f in _COMMANDS[command][1] + _COMMON)
    return {name: {**_FLAGS[name], **extra} for name, extra in named}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclewalk",
        description="Simulate and analyze the recycled-coin and memory "
                    "quantum walks on the d-cycle.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, keywords in _command_flags(command).items():
            p.add_argument("--" + name, default=None, **keywords)
    return parser


def _apply_config_file(ns: argparse.Namespace):
    if ns.config is None:
        return
    try:
        with open(ns.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read config file: %s" % exc) from None
    except json.JSONDecodeError as exc:
        raise UsageError("bad JSON in config file: %s" % exc) from None
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    flags = _command_flags(ns.command)
    for key, value in data.items():
        name = key.replace("_", "-")
        if name not in _FLAGS or name == "config":
            raise UsageError("unknown config key %r" % key)
        if name not in flags:
            raise UsageError("config key %r does not apply to %r"
                             % (key, ns.command))
        value = _config_value(key, flags[name], value)
        dest = name.replace("-", "_")
        if getattr(ns, dest) is None:
            setattr(ns, dest, value)


def _config_value(key, flag, value):
    """A config file value, held to the type and choices of its flag.

    flag holds the flag's argparse keywords.  JSON has its own types,
    so argparse's conversion does not apply: an integer flag takes an
    integer (not a bool), a float flag any number, a flag with choices
    one of them, and every other flag a string; a repeatable --state
    takes a string or a list of strings.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    choices, kind = flag.get("choices"), flag.get("type")
    if choices is not None:
        want = "one of %s" % ", ".join(choices)
        ok = isinstance(value, str) and value in choices
    elif kind is int:
        want, ok = "an integer", number and isinstance(value, int)
    elif kind is float:
        # float() of an integer past the float range would overflow.
        want = "a number"
        ok = number and (isinstance(value, float)
                         or abs(value) <= sys.float_info.max)
    elif flag.get("action") == "append":
        want = "a string or a list of strings"
        value = [value] if isinstance(value, str) else value
        ok = isinstance(value, list) and all(isinstance(v, str)
                                             for v in value)
    else:
        want, ok = "a string", isinstance(value, str)
    if not ok:
        raise UsageError("config key %r takes %s, got %s"
                         % (key, want, json.dumps(value)))
    return float(value) if kind is float else value


def _fallback(value, default):
    return default if value is None else value


def _at_least(ns, attr, low, default=None) -> int:
    """Integer flag attr, else default (required if None), at least low."""
    flag = "--" + attr.replace("_", "-")
    value = _fallback(getattr(ns, attr), default)
    if value is None:
        raise UsageError("missing required flag %s" % flag)
    if value < low:
        raise UsageError("%s must be >= %d" % (flag, low))
    return value


def _single_state(ns) -> InitialState:
    return parse_state(_fallback(ns.state, "psi_a"))


def _state_list(ns) -> list:
    names = ns.state if ns.state else list(STATE_NAMES)
    return [parse_state(str(n)) for n in names]


def _d_values(ns) -> list:
    if ns.d_range is not None and ns.d is not None:
        raise UsageError("give either --d or --d-range, not both")
    if ns.d_range is not None:
        return parse_d_range(str(ns.d_range))
    if ns.d is not None:
        return [_check_d(ns.d)]
    raise UsageError("missing required flag --d or --d-range")


def _phi_values(ns) -> list:
    if ns.phi_grid is not None and getattr(ns, "phi", None) is not None:
        raise UsageError("give either --phi or --phi-grid, not both")
    if ns.phi_grid is not None:
        return parse_phi_grid(str(ns.phi_grid))
    if getattr(ns, "phi", None) is not None:
        return [float(ns.phi)]
    raise UsageError("missing required flag --phi or --phi-grid")


def _check_d(d: int) -> int:
    if d is None:
        raise UsageError("missing required flag --d")
    if d < 2:
        raise UsageError("cycle size must be >= 2, got %d" % d)
    return int(d)


def _single_walk(ns, **lows):
    """(d, model, start, cfg, config) of a command on one walk.

    Reads --d, --model, the integer flag of each keyword (required, and
    at least the keyword's value), --state and, for the recycled walk
    only, --phi, in that order, and echoes them into config in that
    order; cfg is None for the memory walk.
    """
    d = _check_d(ns.d)
    model = _fallback(ns.model, MODEL_RECYCLED)
    fields = {attr: _at_least(ns, attr, low) for attr, low in lows.items()}
    start = _single_state(ns)
    config = {"command": ns.command, "model": model, "d": d,
              "state": _state_config(start), **fields}
    cfg = None
    if model == MODEL_RECYCLED:
        if ns.phi is None:
            raise UsageError("missing required flag --phi")
        cfg = CoinConfig(ns.phi)
        config["phi"] = cfg.phi
    return d, model, start, cfg, config


# ---------------------------------------------------------------------------
# Commands
#
# Each returns (table, failure): failure is None, or the message that
# main prints after writing the table, with exit code 1.

def cmd_evolve(ns):
    d, model, start, cfg, config = _single_walk(ns, t=0)
    state = evolve(WalkState.localized(d, start, model), config["t"], cfg)
    dist = position_distribution(state)
    return Table(schema="evolve.v1", config=config,
                 columns=("n", "probability"),
                 data=(range(d), dist.probs)), None


def cmd_limiting(ns):
    d, _, start, cfg, config = _single_walk(ns)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", spectral.DegenerateClusterWarning)
        if cfg is None:
            dist = spectral.limiting_distribution_memory(d, start.coin4)
        else:
            dist = spectral.limiting_distribution(cfg, d, start.coin4)
    warned = False
    for w in caught:
        if issubclass(w.category, spectral.DegenerateClusterWarning):
            warned = True
            _diag("warning: %s" % w.message)
    tv = analysis.tv_from_uniform(dist)
    return Table(schema="limiting.v1", config=config,
                 columns=("n", "pbar", "warned"),
                 data=(range(d), dist.probs, [warned] * d),
                 meta={"tv_from_uniform": tv}), None


def cmd_sweep(ns):
    d_values = _d_values(ns)
    phi_values = _phi_values(ns)
    states = _state_list(ns)
    epsilon = _fallback(ns.epsilon, 1e-6)
    grid = analysis.SweepGrid(d_values=tuple(d_values),
                              phi_values=tuple(phi_values),
                              states=tuple(states), epsilon=epsilon)
    cells = analysis._sweep_columns(grid, _at_least(ns, "jobs", 1, 1),
                                    keep_probs=False)
    config = {"command": "sweep", "d_values": list(grid.d_values),
              "phi_values": list(grid.phi_values),
              "states": [_state_config(s) for s in states],
              "epsilon": epsilon}
    errors = cells["error"]
    failures = len(errors) - errors.count(None)
    if failures:
        for i, error in enumerate(errors):
            if error is not None:
                _diag("cell d=%d phi=%g state=%s failed: %s"
                      % (cells["d"][i], cells["phi"][i], cells["state"][i],
                         error))
    table = Table(schema="sweep.v1", config=config,
                  columns=("d", "phi", "state", "tv_from_uniform",
                           "uniform", "boundary", "warned", "d_mod_4",
                           "divisible_by_12", "error"),
                  data=tuple(cells.values()),
                  meta={"cells": len(errors)})
    return table, ("%d of %d sweep cells failed" % (failures, len(errors))
                   if failures else None)


def cmd_mixing(ns):
    d, model, start, cfg, config = _single_walk(ns, t_max=1)
    curve = analysis.mixing_curve(d, None if cfg is None else cfg.phi, start,
                                  config["t_max"], model=model)
    return Table(schema="mixing.v1", config=config, columns=("T", "sd"),
                 data=(list(curve.horizons), list(curve.sd))), None


def _verify_cell(task):
    check, d, phi, start, t_max = task
    if check == "theorem1":
        return analysis.theorem1_max_deviation(d, t_max, phi, start.coin4)
    return analysis.theorem2_max_deviation(d, t_max, start.coin4)


def cmd_verify(ns):
    d_values = _d_values(ns) if (ns.d is not None or ns.d_range is not None) \
        else list(range(3, 13))
    phi_values = parse_phi_grid(str(ns.phi_grid)) if ns.phi_grid is not None \
        else list(VERIFY_PHI_DEFAULT)
    states = _state_list(ns)
    t_max = _at_least(ns, "t_max", 0, 40)
    threshold = _fallback(ns.epsilon, THEOREM_TOL)
    if not (math.isfinite(threshold) and threshold > 0):
        raise UsageError("--epsilon must be positive and finite")
    tasks = [("theorem1", d, phi, s, t_max)
             for d in d_values for phi in phi_values for s in states]
    tasks += [("theorem2", d, None, s, t_max)
              for d in d_values for s in states]
    devs = analysis._run(_verify_cell, tasks, _at_least(ns, "jobs", 1, 1))
    config = {"command": "verify", "d_values": d_values,
              "phi_values": phi_values,
              "states": [_state_config(s) for s in states],
              "t_max": t_max, "threshold": threshold}
    checks, ds, phis, starts = (list(map(itemgetter(i), tasks))
                                for i in range(4))
    passed = [dev < threshold for dev in devs]
    failures = passed.count(False)
    table = Table(schema="verify.v1", config=config,
                  columns=("check", "d", "phi", "state", "max_deviation",
                           "pass"),
                  data=(checks, ds, phis,
                        list(map(analysis._state_label, starts)),
                        list(devs), passed),
                  meta={"failures": failures})
    return table, ("%d of %d verification cells exceeded %g"
                   % (failures, len(tasks), threshold) if failures else None)


def cmd_residue(ns):
    d_values = _d_values(ns)
    init = _single_state(ns)
    config = {"command": "residue", "d_values": d_values,
              "state": _state_config(init)}
    curve = analysis.residue_distance_curve(d_values, init.coin4)
    return Table(schema="residue.v1", config=config,
                 columns=("d", "d_mod_4", "tv"),
                 data=tuple(list(map(itemgetter(i), curve))
                            for i in range(3))), None


#: Each command's help line, its own flags (a name of _FLAGS, or a name
#: with keywords that differ for this command) and its function.
_COMMANDS = {
    "evolve": ("position distribution after t steps",
               ("d", "phi", "state", "t", "model"), cmd_evolve),
    "limiting": ("time-averaged limiting distribution",
                 ("d", "phi", "state", "model"), cmd_limiting),
    "sweep": ("classify limiting distributions against uniform over a grid",
              ("d", "d-range", "phi", "phi-grid", _STATES, "epsilon",
               "jobs"), cmd_sweep),
    "mixing": ("SD(T) of the running average against uniform",
               ("d", "phi", "state", "t-max", "model"), cmd_mixing),
    "verify": ("run both equivalence checks over a grid; nonzero exit on "
               "deviation",
               ("d", "d-range", "phi-grid", _STATES, "t-max",
                ("epsilon", {"help": "deviation threshold (default 1e-10)"}),
                "jobs"), cmd_verify),
    "residue": ("TV(pbar(0; psi), pbar(2; Q psi)) per cycle size",
                ("d", "d-range", "state"), cmd_residue),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: an argparse parser lives in reference
    # cycles (each add_argument makes a HelpFormatter that points at
    # itself), so a parser per call is garbage that only a full
    # collection frees, and repeated in-process calls pile it up.
    return build_parser()


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        _apply_config_file(ns)
        table, failure = _COMMANDS[ns.command][2](ns)
        write_table(table, _fallback(ns.format, "csv"), ns.out)
    except (UsageError, ValueError, OSError) as exc:
        _diag("error: %s" % exc)
        return 2
    except (RuntimeError, MemoryError) as exc:
        # A numerical check failed (lost unitarity, an eigenvalue off
        # the unit circle), a worker process died (BrokenProcessPool
        # is a RuntimeError) or an array did not fit in memory.
        _diag("error: %s" % exc)
        return 1
    if failure is None:
        return 0
    _diag(failure)
    return 1
