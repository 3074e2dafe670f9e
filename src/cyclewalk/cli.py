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
import os
import sys
import warnings

import numpy as np

from . import analysis, spectral
from .output import Table, write_table
from .walk import (CoinConfig, InitialState, WalkState, MODEL_MEMORY,
                   MODEL_RECYCLED, STATE_NAMES, evolve, named_coin4,
                   position_distribution)

#: phi values exercised by `verify` when no grid is given; 0, 1 and 2
#: probe the distinguished integer parameters, the rest are generic.
VERIFY_PHI_DEFAULT = (0.0, 0.7, 1.0, 2.0, 3.3)
THEOREM_TOL = 1e-10


class UsageError(Exception):
    pass


def _diag(msg: str):
    print("cyclewalk: %s" % msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Value parsing

def parse_d_range(text: str) -> list:
    """Inclusive integer range 'A..B'."""
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
    return list(range(lo, hi + 1))


def parse_phi_grid(text: str) -> list:
    """Inclusive arithmetic grid 'start:step:end', rounded to 10 places.

    The rounding pins grid points like 0.1 * k to their decimal values
    so integer phi cells are exactly integers.
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
    return [round(start + i * step, 10) for i in range(n + 1)]


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclewalk",
        description="Simulate and analyze the recycled-coin and memory "
                    "quantum walks on the d-cycle.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag in flags + _COMMON:
            name, extra = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument("--" + name, default=None,
                           **{**_FLAGS[name], **extra})
    return parser


@functools.cache
def _config_flags() -> dict:
    """dest -> {command: argparse action} of every flag a config may set."""
    commands = next(a for a in _parser()._actions if a.dest == "command")
    flags = {}
    for command, p in commands.choices.items():
        for action in p._actions:
            if action.dest not in ("help", "config"):
                flags.setdefault(action.dest, {})[command] = action
    return flags


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
    for key, value in data.items():
        dest = key.replace("-", "_")
        flags = _config_flags().get(dest)
        if flags is None:
            raise UsageError("unknown config key %r" % key)
        if ns.command not in flags:
            raise UsageError("config key %r does not apply to %r"
                             % (key, ns.command))
        value = _config_value(key, flags[ns.command], value)
        if getattr(ns, dest) is None:
            setattr(ns, dest, value)


def _config_value(key, flag, value):
    """A config file value, held to the type and choices of its flag.

    JSON has its own types, so argparse's conversion does not apply:
    an integer flag takes an integer (not a bool), a float flag any
    number, a flag with choices one of them, and every other flag a
    string; a repeatable --state takes a string or a list of strings.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if flag.choices is not None:
        want = "one of %s" % ", ".join(flag.choices)
        ok = isinstance(value, str) and value in flag.choices
    elif flag.type is int:
        want, ok = "an integer", number and isinstance(value, int)
    elif flag.type is float:
        # float() of an integer past the float range would overflow.
        want = "a number"
        ok = number and (isinstance(value, float)
                         or abs(value) <= sys.float_info.max)
    elif isinstance(flag, argparse._AppendAction):
        want = "a string or a list of strings"
        value = [value] if isinstance(value, str) else value
        ok = isinstance(value, list) and all(isinstance(v, str)
                                             for v in value)
    else:
        want, ok = "a string", isinstance(value, str)
    if not ok:
        raise UsageError("config key %r takes %s, got %s"
                         % (key, want, json.dumps(value)))
    return float(value) if flag.type is float else value


def _need(ns, attr, flag):
    value = getattr(ns, attr)
    if value is None:
        raise UsageError("missing required flag %s" % flag)
    return value


def _fallback(value, default):
    return default if value is None else value


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


def _jobs(ns) -> int:
    """--jobs, else CYCLEWALK_JOBS, else 1."""
    jobs, source = ns.jobs, "--jobs"
    if jobs is None:
        raw = os.environ.get("CYCLEWALK_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs, source = int(raw), "CYCLEWALK_JOBS"
        except ValueError:
            raise UsageError("CYCLEWALK_JOBS=%r is not an integer"
                             % raw) from None
    if jobs < 1:
        raise UsageError("%s must be >= 1" % source)
    return jobs


def _coin_config(ns, config) -> CoinConfig | None:
    """--phi for config's model, echoed into config; None for memory."""
    if config["model"] == MODEL_MEMORY:
        return None
    cfg = CoinConfig(_need(ns, "phi", "--phi"))
    config["phi"] = cfg.phi
    return cfg


# ---------------------------------------------------------------------------
# Commands
#
# Each returns (table, failure): failure is None, or the message that
# main prints after writing the table, with exit code 1.

def cmd_evolve(ns):
    d = _check_d(ns.d)
    model = _fallback(ns.model, MODEL_RECYCLED)
    t = _need(ns, "t", "--t")
    if t < 0:
        raise UsageError("--t must be >= 0")
    init = _single_state(ns)
    config = {"command": "evolve", "model": model, "d": d,
              "state": _state_config(init), "t": t}
    cfg = _coin_config(ns, config)
    state = evolve(WalkState.localized(d, init, model), t, cfg)
    dist = position_distribution(state)
    rows = list(zip(range(d), dist.probs.tolist()))
    return Table(schema="evolve.v1", config=config,
                 columns=("n", "probability"), rows=rows), None


def cmd_limiting(ns):
    d = _check_d(ns.d)
    model = _fallback(ns.model, MODEL_RECYCLED)
    init = _single_state(ns)
    config = {"command": "limiting", "model": model, "d": d,
              "state": _state_config(init)}
    cfg = _coin_config(ns, config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", spectral.DegenerateClusterWarning)
        if cfg is None:
            dist = spectral.limiting_distribution_memory(d, init.coin4)
        else:
            dist = spectral.limiting_distribution(cfg, d, init.coin4)
    warned = False
    for w in caught:
        if issubclass(w.category, spectral.DegenerateClusterWarning):
            warned = True
            _diag("warning: %s" % w.message)
    tv = analysis.tv_from_uniform(dist)
    rows = list(zip(range(d), dist.probs.tolist(), [warned] * d))
    return Table(schema="limiting.v1", config=config,
                 columns=("n", "pbar", "warned"), rows=rows,
                 meta={"tv_from_uniform": tv}), None


def cmd_sweep(ns):
    d_values = _d_values(ns)
    phi_values = _phi_values(ns)
    states = _state_list(ns)
    epsilon = _fallback(ns.epsilon, 1e-6)
    grid = analysis.SweepGrid(d_values=tuple(d_values),
                              phi_values=tuple(phi_values),
                              states=tuple(states), epsilon=epsilon)
    records = analysis.sweep(grid, jobs=_jobs(ns), keep_probs=False)
    config = {"command": "sweep", "d_values": list(grid.d_values),
              "phi_values": list(grid.phi_values),
              "states": [_state_config(s) for s in states],
              "epsilon": epsilon}
    rows = []
    failures = 0
    for r in records:
        if r.error is not None:
            failures += 1
            _diag("cell d=%d phi=%g state=%s failed: %s"
                  % (r.d, r.phi, r.state, r.error))
        rows.append((r.d, r.phi, r.state, r.tv_from_uniform,
                     r.classified_uniform, r.boundary, r.warned,
                     r.d_mod_4, r.divisible_by_12, r.error))
    table = Table(schema="sweep.v1", config=config,
                  columns=("d", "phi", "state", "tv_from_uniform",
                           "uniform", "boundary", "warned", "d_mod_4",
                           "divisible_by_12", "error"),
                  rows=rows, meta={"cells": len(rows)})
    return table, ("%d of %d sweep cells failed" % (failures, len(rows))
                   if failures else None)


def cmd_mixing(ns):
    d = _check_d(ns.d)
    model = _fallback(ns.model, MODEL_RECYCLED)
    t_max = _need(ns, "t_max", "--t-max")
    if t_max < 1:
        raise UsageError("--t-max must be >= 1")
    init = _single_state(ns)
    config = {"command": "mixing", "model": model, "d": d,
              "state": _state_config(init), "t_max": t_max}
    cfg = _coin_config(ns, config)
    curve = analysis.mixing_curve(d, None if cfg is None else cfg.phi, init,
                                  t_max, model=model)
    rows = list(zip(curve.horizons, curve.sd))
    return Table(schema="mixing.v1", config=config,
                 columns=("T", "sd"), rows=rows), None


def _verify_cell(task):
    check, d, phi, _, coin4, t_max, position = task
    if check == "theorem1":
        return analysis.theorem1_max_deviation(d, t_max, phi, coin4, position)
    return analysis.theorem2_max_deviation(d, t_max, coin4, position)


def cmd_verify(ns):
    d_values = _d_values(ns) if (ns.d is not None or ns.d_range is not None) \
        else list(range(3, 13))
    phi_values = parse_phi_grid(str(ns.phi_grid)) if ns.phi_grid is not None \
        else list(VERIFY_PHI_DEFAULT)
    states = _state_list(ns)
    t_max = _fallback(ns.t_max, 40)
    if t_max < 0:
        raise UsageError("--t-max must be >= 0")
    threshold = _fallback(ns.epsilon, THEOREM_TOL)
    if not (math.isfinite(threshold) and threshold > 0):
        raise UsageError("--epsilon must be positive and finite")
    items = [(s.name or "custom", tuple(complex(c) for c in s.coin4))
             for s in states]
    tasks = [("theorem1", d, phi, label, coin4, t_max, 0)
             for d in d_values for phi in phi_values
             for label, coin4 in items]
    tasks += [("theorem2", d, None, label, coin4, t_max, 0)
              for d in d_values for label, coin4 in items]
    devs = analysis._run(_verify_cell, tasks, _jobs(ns), chunksize=4)
    config = {"command": "verify", "d_values": d_values,
              "phi_values": phi_values,
              "states": [_state_config(s) for s in states],
              "t_max": t_max, "threshold": threshold}
    rows = []
    failures = 0
    for (check, d, phi, label, _, _, _), dev in zip(tasks, devs):
        ok = dev < threshold
        failures += 0 if ok else 1
        rows.append((check, d, phi, label, dev, ok))
    table = Table(schema="verify.v1", config=config,
                  columns=("check", "d", "phi", "state", "max_deviation",
                           "pass"),
                  rows=rows, meta={"failures": failures})
    return table, ("%d of %d verification cells exceeded %g"
                   % (failures, len(rows), threshold) if failures else None)


def cmd_residue(ns):
    d_values = _d_values(ns)
    init = _single_state(ns)
    config = {"command": "residue", "d_values": d_values,
              "state": _state_config(init)}
    curve = analysis.residue_distance_curve(d_values, init.coin4)
    rows = [(d, r, tv) for d, r, tv in curve]
    return Table(schema="residue.v1", config=config,
                 columns=("d", "d_mod_4", "tv"), rows=rows), None


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
    except RuntimeError as exc:
        # A numerical check failed (lost unitarity, an eigenvalue off
        # the unit circle) or a worker process died (BrokenProcessPool
        # is a RuntimeError).
        _diag("error: %s" % exc)
        return 1
    if failure is None:
        return 0
    _diag(failure)
    return 1
