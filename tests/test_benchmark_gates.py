"""Every benchmark operation runs and passes its gate at smoke size.

The benchmark in perfbench/ drives the package through its public API
and counts an operation whose call raises or whose gate fails as a
failed operation.  Here each workload is built at smoke size from a
fixed seed and each operation runs once in process, so a changed
signature or output fails a test instead of the benchmark's pass ratio.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclewalk
from cyclewalk import analysis, cli, output, spectral, walk  # noqa: F401

_WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, _WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_op_passes_its_gate(name):
    build, _ = WORKLOADS[name]
    ops = build(cyclewalk, np.random.default_rng(3), smoke=True)
    assert ops
    failed = {op.name: gate for op in ops
              if (gate := op.check(op.run())) is not None}
    assert failed == {}


def test_full_size_sweep_ops_pass_their_gates():
    # At smoke size (d = 2..8, 17 blocks) a sweep column stays below
    # spectral._POLY_MIN_BLOCKS; at full size (d = 2..50, 505 blocks) it
    # takes the pack and polynomial route that the benchmark times.
    # phi = 0 and 2 are flat columns, 2 with pair clusters in every cache.
    build, _ = WORKLOADS["sweep-grid"]
    ops = {op.name: op for op in build(cyclewalk, np.random.default_rng(3))}
    generic = [name for name in ops
               if not float(name.split("=")[1]).is_integer()]
    assert "sweep phi=0" in ops and "sweep phi=2" in ops and generic
    for name in ("sweep phi=0", "sweep phi=2", generic[0]):
        op = ops[name]
        assert op.check(op.run()) is None, name


def test_full_size_large_d_ops_pass_their_gates():
    # The d = 4096 ops print the largest tables the benchmark times: a
    # dense limit column, and evolve columns that are exact zeros
    # outside the light cone.  A writer that changes a value fails here.
    # phi = 0.5 at d = 4096 has gaps near PHASE_TOL, so the reference
    # limit warns, as the workload says.
    build, _ = WORKLOADS["large-d"]
    with pytest.warns(spectral.DegenerateClusterWarning):
        ops = {op.name: op
               for op in build(cyclewalk, np.random.default_rng(3))}
    names = [name for name in ops
             if name.startswith(("limiting recycled d=4096",
                                 "evolve recycled d=4096",
                                 "evolve memory d=4096"))]
    assert len(names) == 3
    for name in names:
        op = ops[name]
        assert op.check(op.run()) is None, name
