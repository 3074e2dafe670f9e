"""cyclewalk benchmark: one workload, its metrics, and correctness gates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  The workload runs in a fresh worker process (``worker.py``).
With ``--trace 0`` the last line of standard output carries every
end-to-end metric, including ``setup_s``: the median time of several
fresh ``probe.py`` processes.  With ``--trace 1`` it carries every
per-layer metric.  The line before it is a report: environment, table
digests, tail percentile and sample count, failures.

Exit codes: 0 with a result line (``correct`` false if any gate
failed), 1 if the worker crashed or overran, 2 if the checkout has no
package to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8
# A run must end within 180 s; leave room to report.
DEADLINE_S = 170.0


def _python(script, *args, timeout):
    return subprocess.run([sys.executable, str(HERE / script), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=False)


def setup_probes(count, deadline):
    """Wall times of `count` fresh probe processes."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = _python("probe.py", timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr[-2000:])
    return times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the harness self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cyclewalk" / "__init__.py").is_file():
        print("perfbench: no src/cyclewalk package under %s" % ROOT,
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        worker_args.append("--smoke")
    try:
        # Half the set-up probes run before the workload and half after,
        # so their median spans the run; one untimed probe goes first.
        setup = []
        if not args.trace:
            setup = setup_probes(SETUP_PROBES // 2 + 1, deadline)[1:]
        proc = _python("worker.py", *worker_args,
                       timeout=deadline - time.monotonic())
        if not args.trace and proc.returncode == 0:
            setup += setup_probes(SETUP_PROBES - len(setup), deadline)
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: worker exited with %d\n%s"
              % (proc.returncode, proc.stderr[-4000:]), file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    report = result.pop("report")
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
