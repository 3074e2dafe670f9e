"""Run one workload in this process and print its measurements as one JSON line.

``run.py`` starts this in a fresh process per run, so the peak resident
memory it reports belongs to this workload alone.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--smoke]

A run is a warm-up round, which also records every CLI table's SHA-256,
then timed rounds until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds are done.  Every operation of every round is
gated; a later round whose table bytes differ from the warm-up round's
fails that operation.  With ``--trace 1`` half the time runs untraced
and half traced, so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
from probe import ROOT, import_package  # noqa: E402
from workloads import WORKLOADS, sweep_grid  # noqa: E402

MIN_ROUNDS = 5
# The calibration loop runs between operations at most this often.
CALIBRATE_EVERY_S = 0.25
# calibrate() takes about this long on a 2-vCPU Intel Xeon
# (Sapphire Rapids, KVM guest) in a quiet period.  Reported times are
# scaled to it: measured * CALIBRATION_REF_S / (this run's median).
CALIBRATION_REF_S = 0.008
MIN_TRACE_ROUNDS = 3
TAIL_SAMPLES = 10
# Stop starting rounds after this long, so a run ends well inside 180 s.
HARD_STOP_S = 120.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_size(name):
    try:
        return os.sysconf(name)
    except (ValueError, OSError):
        return None


def environment(cw, seed):
    """Where the numbers came from; ``jobs`` is that of every timed operation."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "backend": getattr(cw._kernels, "BACKEND", "unknown"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_size("SC_LEVEL2_CACHE_SIZE"),
        "l3_bytes": _cache_size("SC_LEVEL3_CACHE_SIZE"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "jobs": 1,
        "seed": seed,
    }


def calibrate():
    """Seconds for a fixed stepping-like loop of small numpy operations.

    A shared machine's speed drifts by up to 2x between minutes.  The
    ratio of an operation's time to this loop's time, measured close
    together, drifts much less, so each operation's time is scaled by
    CALIBRATION_REF_S over the loop's recent median (see Runner.round).
    """
    a = np.zeros((8, 4), dtype=np.complex128)
    a[0, 0] = 1.0
    start = time.perf_counter()
    for _ in range(200):
        up, dn = np.roll(a, -1, axis=0), np.roll(a, 1, axis=0)
        out = np.empty_like(a)
        out[:, 0] = 0.7 * (up[:, 0] + up[:, 1])
        out[:, 1] = 0.6 * dn[:, 2] - 0.8 * dn[:, 3]
        out[:, 2] = up[:, 3]
        out[:, 3] = dn[:, 0]
        a = out
        float(np.sqrt(np.sum(np.abs(a) ** 2)))
    return time.perf_counter() - start


class Runner:
    """Runs rounds of one operation list and keeps the failure count."""

    def __init__(self, ops, digests=None):
        self.ops = ops
        self.digests = digests if digests is not None else [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.calibration = []
        self.speed = []

    def _gate(self, i, op, out):
        if op.table:
            digest = hashlib.sha256(out[1].encode("utf-8")).hexdigest()
            if self.digests[i] is None:
                self.digests[i] = digest
            elif self.digests[i] != digest:
                return "table bytes differ from the first run of this operation"
        return op.check(out)

    def round(self, tracer=None, calibrated=False):
        """One pass over every operation; returns the latencies in seconds.

        With ``calibrated`` set, the calibration loop runs before the
        first operation and then between operations every
        CALIBRATE_EVERY_S, outside the timed calls; ``self.speed`` then
        holds, per operation, the median of the last three loop times.
        """
        latencies = []
        self.speed = []
        last = -np.inf
        for i, op in enumerate(self.ops):
            if calibrated and time.perf_counter() - last > CALIBRATE_EVERY_S:
                self.calibration.append(calibrate())
                last = time.perf_counter()
            if calibrated:
                self.speed.append(float(np.median(self.calibration[-3:])))
            if tracer is not None:
                tracer.op_id = i
            start = time.perf_counter()
            try:
                out, err = op.run(), None
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted, not raised
                out, err = None, "%s: %s" % (type(exc).__name__, exc)
            latencies.append(time.perf_counter() - start)
            if err is None:
                try:
                    err = self._gate(i, op, out)
                except Exception as exc:  # noqa: BLE001 - a broken output fails the gate
                    err = "gate raised %s: %s" % (type(exc).__name__, exc)
            self.attempted += 1
            if err is not None:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append("%s: %s" % (op.name, err))
        return latencies

    def rounds(self, seconds, min_rounds, t_start, tracer=None):
        """Rounds until `seconds` have passed and `min_rounds` are done.

        Returns the latencies as a (rounds, operations) array, and for
        untraced rounds the calibration in force at each operation.
        """
        latencies, speed = [], []
        begin = time.perf_counter()
        while (len(latencies) < min_rounds
               or time.perf_counter() - begin < seconds):
            if latencies and time.perf_counter() - t_start > HARD_STOP_S:
                break
            if tracer is not None:
                tracer.start_round()
            latencies.append(self.round(tracer, calibrated=tracer is None))
            speed.append(self.speed)
            if tracer is not None:
                tracer.end_round()
        return np.array(latencies), np.array(speed)


def end_to_end(runner, measured, speed):
    """End-to-end metrics from (rounds, operations) latency arrays.

    Each operation's median over the rounds stands for it, which keeps
    short stalls of a shared machine out of ``wall_s`` and
    ``op_p50_ms``.  The tail is taken over every sample, at the highest
    percentile that has TAIL_SAMPLES samples beyond it in any run
    (MIN_ROUNDS rounds), so the percentile is fixed per workload.
    Each latency is scaled to the reference machine speed by the
    calibration in force when it ran (see CALIBRATION_REF_S); the
    report keeps the measured values.
    """
    pct = 100.0 * (1.0 - TAIL_SAMPLES / (measured.shape[1] * MIN_ROUNDS))

    def summary(latencies):
        per_op = np.median(latencies, axis=0)
        return per_op, {"wall_s": float(per_op.sum()),
                        "op_p50_ms": float(np.median(per_op)) * 1e3,
                        "op_tail_ms": float(np.percentile(latencies, pct)) * 1e3}
    scaled = measured * (CALIBRATION_REF_S / speed)
    per_op, values = summary(scaled)
    metrics = {
        "wall_s": (values["wall_s"], "s"),
        "op_p50_ms": (values["op_p50_ms"], "ms"),
        "op_tail_ms": (values["op_tail_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "pass_ratio": (1.0 - runner.failed / runner.attempted, "ratio"),
    }
    op_ms = [[op.name, float(t) * 1e3] for op, t in zip(runner.ops, per_op)]
    return metrics, {
        "rounds": measured.shape[0], "measured": summary(measured)[1],
        "speed_scale": CALIBRATION_REF_S / float(np.median(speed)),
        "calibration_samples": len(runner.calibration),
        "op_tail": {"percentile": pct, "samples": int(scaled.size),
                    "beyond": int(np.sum(scaled * 1e3
                                         > values["op_tail_ms"]))},
        "op_median_ms": op_ms}


def traced_run(cw, name, seed, seconds, smoke, runner, t_start):
    """Untraced and traced halves, an allocation round and the pool probe."""
    walls_plain = runner.rounds(seconds / 2.0, MIN_TRACE_ROUNDS,
                                t_start)[0].sum(axis=1)
    tracer = tracing.Tracer(cw)
    tracer.install()
    try:
        walls_traced = runner.rounds(seconds / 2.0, MIN_TRACE_ROUNDS, t_start,
                                     tracer)[0].sum(axis=1)
        per_round = [tracing.layer_metrics(spans, warned)
                     for spans, warned in tracer.rounds]
        peak_alloc = 0.0
        if any(m["spectral.self_s"] for m in per_round):
            tracer.track_alloc = True
            tracer.start_round()
            runner.round(tracer)
            spans, warned = tracer.spans, tracer.warning_count
            tracer.track_alloc = False
            peak_alloc = tracing.layer_metrics(
                spans, warned)["spectral.peak_alloc_mb"]
    finally:
        tracer.uninstall()
    layer = {key: statistics.median(m[key] for m in per_round)
             for key in per_round[0]}
    layer["spectral.peak_alloc_mb"] = peak_alloc
    wall_plain = float(np.median(walls_plain))
    layer["trace.overhead_ratio"] = float(np.median(walls_traced)) / wall_plain
    pool_speedup = 0.0
    jobs = os.cpu_count() or 1
    if name == "sweep-grid":
        # Same grid and seed at jobs=nproc; the tables must keep their bytes.
        pool_ops = sweep_grid(cw, np.random.default_rng(seed), smoke,
                              jobs=jobs)
        pool = Runner(pool_ops, digests=runner.digests)
        pool_speedup = wall_plain / sum(pool.round())
        runner.attempted += pool.attempted
        runner.failed += pool.failed
        runner.failures += pool.failures
    layer["analysis.pool_speedup"] = pool_speedup
    metrics = {key: (layer[key], unit) for key, unit in tracing.UNITS.items()}
    mid = int(np.argsort(walls_traced)[len(walls_traced) // 2])
    shares = tracing.self_shares(tracer.rounds[mid][0], walls_traced[mid])
    report = {"wall_s_untraced": walls_plain.tolist(),
              "wall_s_traced": walls_traced.tolist(),
              "self_share_of_wall": shares, "pool_jobs": jobs}
    return metrics, report, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the harness self-test")
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    cw = import_package()
    build, why = WORKLOADS[args.workload]
    ops = build(cw, np.random.default_rng(args.seed), args.smoke)
    runner = Runner(ops)
    runner.round()
    report = {"workload": args.workload, "why": why,
              "env": environment(cw, args.seed),
              "ops_per_round": len(ops)}
    if args.trace:
        metrics, extra, tracer = traced_run(
            cw, args.workload, args.seed, args.seconds, args.smoke, runner,
            t_start)
        report.update(extra)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / ("spans-%s-seed%d.json"
                                % (args.workload, args.seed))
        spans_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics, extra = end_to_end(
            runner, *runner.rounds(args.seconds, MIN_ROUNDS, t_start))
        report.update(extra)
    report["failures"] = runner.failures
    report["table_sha256"] = [[op.name, digest] for op, digest
                              in zip(ops, runner.digests) if digest]
    report["fail_ratio"] = runner.failed / runner.attempted
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {key: {"value": value, "unit": unit}
                                  for key, (value, unit) in metrics.items()},
                      "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
