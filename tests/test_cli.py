"""Command line interface and table serialization."""

import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cyclewalk
import oracles
from cyclewalk import _kernels, cli, output
from cyclewalk.cli import (D_RANGE_MAX_POINTS, PHI_GRID_MAX_POINTS,
                           UsageError, main, parse_d_range, parse_phi_grid,
                           parse_state)
from cyclewalk.output import Table, render_csv, render_json
from cyclewalk.walk import (MODEL_MEMORY, MODEL_RECYCLED, InitialState,
                            WalkState)


def run_cli(*args):
    """Invoke main() in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse-level usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    """Returns (meta dict, header list, row lists) from CSV output."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            body = line[2:]
            key, _, val = body.partition("=")
            if " " in key:  # version banner, not a key=value pair
                meta["banner"] = body
            else:
                meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestParsers:
    def test_d_range(self):
        assert parse_d_range("3..6") == [3, 4, 5, 6]
        assert parse_d_range("7..7") == [7]

    @pytest.mark.parametrize("bad", ["6..3", "3", "a..b", "1..5", "3..4..5"])
    def test_d_range_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_d_range(bad)

    def test_d_range_point_cap(self, tmp_path):
        # The values are counted before any is built: 2..10000000000
        # would be 10^10 Python ints.  By flag, and by config file.
        assert len(parse_d_range("2..100001")) == D_RANGE_MAX_POINTS
        with pytest.raises(UsageError, match="100001 values"):
            parse_d_range("2..100002")
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="10000000000 values"):
                parse_d_range("2..10000000001")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        cfg = tmp_path / "run.json"
        cfg.write_text('{"d_range": "2..10000000001"}')
        for command, extra in (("sweep", ("--d-range", "2..10000000001")),
                               ("verify", ("--config", str(cfg))),
                               ("residue", ("--config", str(cfg)))):
            code, out, err = run_cli(command, *extra)
            assert code == 2, command
            assert out == ""
            assert "10000000000 values" in err

    def test_phi_grid_tenths(self):
        grid = parse_phi_grid("0:0.1:7.9")
        assert len(grid) == 80
        assert grid[0] == 0.0
        # grid points are pinned to decimals, so integer cells are exact
        assert grid[10] == 1.0
        assert grid[50] == 5.0
        assert grid[-1] == 7.9

    def test_phi_grid_plain(self):
        assert parse_phi_grid("0:0.5:2") == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert parse_phi_grid("1:1:1") == [1.0]

    def test_phi_grid_non_divisible_end(self):
        # end is not on the lattice; grid stops at the last point inside
        assert parse_phi_grid("0:0.3:1") == [0.0, 0.3, 0.6, 0.9]

    @pytest.mark.parametrize("bad", ["0:0:1", "2:0.5:1", "0:0.5", "x:1:2",
                                     "7:0.5:8", "0:-1:5", "0:1:inf",
                                     "nan:1:2", "0:nan:2", "-inf:1:2",
                                     "0:inf:1", "-0.5:1:2", "0:3:9",
                                     "0:1:1e7", "0:1:1e12", "0:1:1e308",
                                     "0:1e-320:1", "0:3e-11:2e-10",
                                     "0:9.9e-11:1e-9", "0:1e-12:7.9",
                                     "5e-11:1e-10:2.05e-9"])
    def test_phi_grid_rejects(self, bad):
        # A far-off end is rejected from the last point, before the grid
        # is built: 0:1:1e12 once took minutes, 0:1:inf a traceback.  A
        # step below the 1e-10 rounding is rejected before the grid is
        # built (0:3e-11:2e-10 once gave 8 points, 3 of them distinct),
        # and a grid whose rounded points repeat after it: from 5e-11 in
        # steps of 1e-10 the points sit on the rounding's midpoints.
        with pytest.raises(UsageError):
            parse_phi_grid(bad)

    def test_phi_grid_at_its_resolution(self):
        assert parse_phi_grid("0:1e-10:1e-9") == [
            round(i * 1e-10, 10) for i in range(11)]

    def test_phi_grid_repeats_exit_2(self):
        code, out, err = run_cli("sweep", "--d-range", "3..4",
                                 "--phi-grid", "0:3e-11:2e-10")
        assert code == 2
        assert out == ""
        assert "1e-10" in err

    def test_phi_grid_point_cap(self):
        # The points are counted before any is built: 0:1e-9:7 would
        # be 7e9 of them.
        assert len(parse_phi_grid("0:1e-4:7.9999")) == 80000
        assert len(parse_phi_grid("0:1e-5:0.99999")) == PHI_GRID_MAX_POINTS
        with pytest.raises(UsageError, match="100001 points"):
            parse_phi_grid("0:1e-5:1")
        code, out, err = run_cli("sweep", "--d-range", "3..4",
                                 "--phi-grid", "0:1e-9:7")
        assert code == 2
        assert out == ""
        assert "7000000001 points" in err

    def test_phi_grid_end_past_eight(self):
        # The end may lie past 8 as long as the last point stays below.
        assert parse_phi_grid("0:3:8") == [0.0, 3.0, 6.0]
        assert parse_phi_grid("7:2:8.5") == [7.0]

    def test_named_state(self):
        st = parse_state("psi_b")
        assert st.name == "psi_b"
        np.testing.assert_allclose(st.coin4,
                                   np.array([1, 1, 0, 0]) / math.sqrt(2))

    def test_custom_state(self):
        st = parse_state("custom:0.5+0.5i,0.5-0.5i,0,0")
        assert st.name is None
        np.testing.assert_allclose(
            st.coin4, np.array([0.5 + 0.5j, 0.5 - 0.5j, 0, 0]))

    def test_custom_state_normalizes(self):
        st = parse_state("custom:2,0,0,0")
        np.testing.assert_allclose(st.coin4, np.array([1, 0, 0, 0]))

    @pytest.mark.parametrize("bad", ["psi_z", "custom:1,0,0", "custom:a,b,c,d",
                                     "custom:0,0,0,0", "custom:1,0,0,0,0"])
    def test_state_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_state(bad)

    @pytest.mark.parametrize("bad", ["custom:nan,0,0,0", "custom:1e999,0,0,0",
                                     "custom:1,0,0,nan+1i"])
    def test_state_rejects_non_finite(self, bad):
        with pytest.raises(UsageError, match="finite"):
            parse_state(bad)

    def test_non_finite_state_is_usage_error(self):
        # Once, this printed empty cells and a config line with a NaN
        # token, which is not JSON, and exited 0.
        code, out, err = run_cli("evolve", "--d", "5", "--phi", "0.5",
                                 "--state", "custom:nan,0,0,0", "--t", "3")
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestOutput:
    def test_csv_cells(self):
        assert output._csv_cell(0.5) == "0.5"
        assert output._csv_cell(True) == "true"
        assert output._csv_cell(False) == "false"
        assert output._csv_cell(None) == ""
        assert output._csv_cell(float("nan")) == ""
        assert output._csv_cell(np.float64(0.25)) == "0.25"
        assert output._csv_cell('say "hi", now') == '"say ""hi"", now"'
        # 17 significant digits round-trip doubles exactly
        x = 1.0 / 3.0
        assert float(output._csv_cell(x)) == x

    def test_csv_layout(self):
        table = Table(schema="demo.v1", config={"b": 2, "a": 1},
                      columns=("x", "y"), data=([1], [0.5]), meta={"k": 3})
        lines = render_csv(table).splitlines()
        assert lines[0] == "# cyclewalk 0.1.0 schema=demo.v1"
        assert lines[1] == '# config={"a":1,"b":2}'
        assert lines[2] == "# k=3"
        assert lines[3] == "x,y"
        assert lines[4] == "1,0.5"

    def test_json_valid_and_nan_safe(self):
        table = Table(schema="demo.v1", config={"a": 1}, columns=("x",),
                      data=([float("nan")],))
        doc = json.loads(render_json(table))
        assert doc["schema"] == "demo.v1"
        assert doc["rows"] == [[None]]

    def test_unknown_format(self):
        table = Table(schema="s", config={}, columns=("x",), data=([],))
        with pytest.raises(ValueError, match="format"):
            output.render(table, "yaml")

    def test_ragged_tables_raise(self):
        with pytest.raises(ValueError, match="2 columns for 3 names"):
            Table("t.v1", {}, ("n", "p", "flag"), (range(3), [0.5] * 3))
        with pytest.raises(ValueError, match="differ in length: 3, 4"):
            Table("t.v1", {}, ("n", "p"), (range(3), np.zeros(4)))
        with pytest.raises(ValueError):
            Table("t.v1", {}, ("n", "p"), rows=[(0, 0.5), (1,)])

    def test_rows_are_transposed_once(self):
        # The row layout still constructs: the rows become columns.
        table = Table(schema="s", config={}, columns=("n", "p"),
                      rows=[(0, 0.5), (1, 0.25)])
        assert "rows" not in {f.name for f in dataclasses.fields(Table)}
        assert table.data == ([0, 1], [0.5, 0.25])
        assert render_csv(table) == render_csv(
            Table("s", {}, ("n", "p"), (range(2), np.array([0.5, 0.25]))))
        assert Table("s", {}, ("n",), rows=[]).data == ([],)

    def test_version_single_source(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["version"] == cyclewalk.__version__
        assert output.TOOL_VERSION == cyclewalk.__version__


_SPECIAL_FLOATS = (math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0,
                   5e-324, 1.0 / 3.0, 1e22, -1.5e-300)
_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
_texts = st.text(alphabet=st.sampled_from('ab ,"\n1.'), max_size=6)
# Cell strategies by column kind: the plain kinds the writers take a
# column at a time, and the kinds they take a cell at a time.
_CELLS = {
    "float": _floats,
    "int": st.integers(-2 ** 70, 2 ** 70),
    "bool": st.booleans(),
    "str": _texts,
    "none": st.none(),
    "np.float64": _floats.map(np.float64),
    "np.int64": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    "np.bool_": st.booleans().map(np.bool_),
    "bool+int": st.one_of(st.booleans(), st.integers(-3, 3)),
    "float+none": st.one_of(_floats, st.none()),
}
_CELLS["any"] = st.one_of(*_CELLS.values())


# Array cells come in runs of one value, as the exact zeros outside an
# evolve light cone do.
_ARRAY_CELLS = st.one_of(st.just(0.0), _floats)


@st.composite
def _column(draw, kind, n):
    """One column of n cells: a list of a _CELLS kind, a range or a
    float64 array."""
    if kind == "range":
        start = draw(st.integers(-3, 3))
        return range(start, start + n)
    if kind == "ndarray":
        cells = []
        while len(cells) < n:
            cells += [draw(_ARRAY_CELLS)] * draw(st.integers(1, 5))
        return np.array(cells[:n], dtype=np.float64)
    return draw(st.lists(_CELLS[kind], min_size=n, max_size=n))


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS) + ["ndarray",
                                                            "range"]),
                          min_size=1, max_size=5))
    n = draw(st.integers(0, 16))
    data = tuple(draw(_column(k, n)) for k in kinds)
    names = tuple(draw(st.one_of(st.sampled_from(("n", "p")), _texts))
                  for _ in kinds)
    meta = draw(st.dictionaries(st.sampled_from("ab"), _CELLS["any"],
                                max_size=2))
    return Table(schema="t.v1", config={"k": 1}, columns=names, data=data,
                 meta=meta)


def _outcome(render, table):
    """The text, or the type of the error (json rejects inf and numpy
    scalars in meta)."""
    try:
        return render(table)
    except (TypeError, ValueError) as exc:
        return type(exc)


class TestColumnRenderer:
    """The column-at-a-time writers against the per-cell oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_tables())
    @example(Table("t.v1", {}, ("x",), ([],)))
    @example(Table("t.v1", {}, ("flag",), ([True, 1, False, 0],)))
    @example(Table("t.v1", {}, ("n", "p"), (range(6), np.array(
        [0.0, -0.0, math.nan, -math.nan, math.inf, 5e-324]))))
    def test_matches_per_cell_oracle(self, table):
        version = output.TOOL_VERSION
        assert render_csv(table) == oracles.render_csv_per_cell(
            table, "cyclewalk", version)
        assert _outcome(render_json, table) == _outcome(
            lambda t: oracles.render_json_per_cell(t, "cyclewalk", version),
            table)

    def test_bool_stays_bool_beside_int(self):
        table = Table("t.v1", {}, ("flag",), ([True, 1, False, 0],))
        assert render_csv(table).splitlines()[-4:] == ["true", "1", "false",
                                                       "0"]
        assert json.loads(render_json(table))["rows"] == [[True], [1],
                                                          [False], [0]]

    def test_nan_cells_are_empty_and_null(self):
        cells = [0.5, math.nan, -math.nan, -0.0, 0.0]
        for column in (cells, np.array(cells)):
            table = Table("t.v1", {}, ("p",), (column,))
            assert render_csv(table).splitlines()[-5:] == ["0.5", "", "",
                                                           "-0", "0"]
            assert json.loads(render_json(table))["rows"] == [
                [0.5], [None], [None], [-0.0], [0.0]]

    def test_plain_columns_skip_the_per_cell_path(self, monkeypatch):
        calls = []
        for name in ("_csv_cell", "_clean"):
            inner = getattr(output, name)
            monkeypatch.setattr(output, name,
                                lambda v, inner=inner: calls.append(v)
                                or inner(v))
        ns = list(range(1000))
        columns = (ns, [n / 7.0 for n in ns], [n % 3 == 0 for n in ns])
        for data in (columns, (range(1000), np.array(columns[1]),
                               columns[2])):
            table = Table("t.v1", {}, ("n", "p", "flag"), data)
            text = render_csv(table)
            json_text = render_json(table)
            assert calls == []
            assert text.splitlines()[-1] == "999,142.71428571428572,true"
            assert json.loads(json_text)["rows"][-1] == [999, 999 / 7.0, True]

    def test_only_cells_off_plus_zero_are_formatted(self, monkeypatch):
        calls = []
        inner = output._FLOAT_CELL
        monkeypatch.setattr(output, "_FLOAT_CELL",
                            lambda v: calls.append(v) or inner(v))
        p = np.zeros(12)
        p[[2, 4, 5, 9]] = (0.25, -0.0, math.nan, 5e-324)
        text = render_csv(Table("t.v1", {}, ("n", "p"), (range(12), p)))
        assert len(calls) == 4
        assert [line.split(",")[1] for line in text.splitlines()[-12:]] == [
            "0", "0", "0.25", "0", "-0", "", "0", "0", "0",
            "4.9406564584124654e-324", "0", "0"]

    def test_text_and_none_columns_skip_the_per_cell_path(self, monkeypatch):
        # The sweep table's state column holds only str, its error
        # column only None.
        calls = []
        inner = output._csv_cell
        monkeypatch.setattr(output, "_csv_cell",
                            lambda v: calls.append(v) or inner(v))
        states = ["psi_a", 'a,"b"', "two\nlines"]
        text = render_csv(Table("t.v1", {}, ("state", "error"),
                                (states, [None] * 3)))
        assert calls == []
        body = [line for line in text.splitlines(keepends=True)
                if not line.startswith("#")]
        assert list(csv.reader(body))[1:] == [[s, ""] for s in states]

    def test_header_cells_quoted_like_data_cells(self):
        names = ("n", "a,b", 'say "x"', "two\nlines")
        table = Table("t.v1", {}, names, ([1], ["x"], ["y"], ["z"]))
        text = render_csv(table)
        body = [line for line in text.splitlines(keepends=True)
                if not line.startswith("#")]
        assert list(csv.reader(body)) == [list(names), ["1", "x", "y", "z"]]
        assert body[0] == 'n,"a,b","say ""x""","two\n'


# SHA-256 of stdout (CSV, JSON) for small fixed runs of every command,
# taken before the writers went column by column; the warned limit also
# pins its stderr.  A change of any byte of any table shows here.  The
# even-d limits (limiting-memory, limiting-warned, sweep, residue) were
# re-pinned when even cycles began to mirror the blocks k <= d/4: their
# cells moved by at most 2.5e-16, their stderr not at all.
_PINNED = {
    "evolve": (("evolve", "--d", "9", "--phi", "0.5", "--state", "psi_b",
                "--t", "7"),
               "823f4a3d5dcd22bdec02511c490fae81895785feceed7db84697df803a0c503c",
               "5103ac6bffe02ef524b9c214ec1bdce8cecde0ebfe5e3f7acbcfb546e1b7e547"),
    "evolve-power": (("evolve", "--d", "16", "--phi", "2.5", "--state",
                      "psi_c", "--t", "45"),
                     "36e9ffa9d0f4cc3f176cdab40bca7ba516ae80610057c8457b7a2e1a2cf0d599",
                     "4b806475059cf958a2a6c33e370dac79cf1c9bd72ee21a12d864bf43f322bf1f"),
    "evolve-memory": (("evolve", "--d", "8", "--model", "memory", "--state",
                       "psi_d", "--t", "5"),
                      "66a52d6b033870105c9cd99c528a721bfb9018553297dd348dfbaa48044e91e4",
                      "ba969d95ff7a62003e92b2e61dd0ed733de19302fdd8741b5ecbf34fef6f2daf"),
    "limiting": (("limiting", "--d", "12", "--phi", "0.5", "--state",
                  "psi_a"),
                 "a00f8dd14b1d4d976a82a0e0068143e6bd4df4ee534d213282d91b8470f41072",
                 "7069896fd9f2f579181285e9716aa55cbfd85c9843ab669ff54b449642f6ffea"),
    "limiting-memory": (("limiting", "--d", "10", "--model", "memory",
                         "--state", "psi_b"),
                        "06d940689290a7b5134b8378cae0bbed44327d3c315421de9e3376cc781f5e75",
                        "229433185506e79d0d41763751295902b56785435ab2ad5582e3e988f27cf7b9"),
    "limiting-warned": (("limiting", "--d", "16", "--phi", "3.000000002",
                         "--state", "psi_a"),
                        "f08659dda13d183295acb8eba57e61cd30f4d3becce0da52530a8f1aae80b486",
                        "572d9bdd5088c31ef9cdf5df846a6597ff585b1ea8e788ba47a248fd05aba7aa"),
    "sweep": (("sweep", "--d-range", "3..8", "--phi-grid", "0:1.5:6",
               "--jobs", "1"),
              "7a37ccf9d9e8704ca65ffad6b3ec550a50791524ee56fab16684786fbdc1bb8f",
              "4fed33f9ca51a1e1c882b2c2a26121994da538aaeea6096590164d1787c497c0"),
    # One pack on the polynomial route, with flat bands and pair
    # clusters in every cache.
    "sweep-flat": (("sweep", "--d-range", "2..50", "--phi", "2"),
                   "6af6dc7f0b579309b3e5962fbd3fe4b3067854826415ba69ab23b987adf50118",
                   "12c00de0fca5b582ba4c2adc79ed1539e263b904b5507e53eaff08fd55780a14"),
    "mixing": (("mixing", "--d", "7", "--phi", "0.5", "--state", "psi_b",
                "--t-max", "64"),
               "95de152b8f437fd260efc14ea06884981f960ed63c26348577655469f78fd938",
               "b097ba27efa66d855a0fd4062125b7c5c5de841f9adf0ca5a53e10a3302a973a"),
    "verify": (("verify", "--d-range", "3..5", "--phi-grid", "0:2:4",
                "--t-max", "10", "--jobs", "1"),
               "03cc73cc114cb73465337be95a7cfa7a999a2bd70a3c557e6008329247b5ce66",
               "6caaacd4a85ba1cba1fafae599a84ca33435ae4ae3f603b20397c82449e99f51"),
    "residue": (("residue", "--d-range", "3..10", "--state", "psi_a"),
                "b07b93d56098f3a0b5ed6b13e6ba61797769963c52406dfa83494a371c9c64c3",
                "886896187914e031440bba37fc9a0147480264a02f84d7529648b9a944bdad91"),
}
_WARNED_STDERR = \
    "f575d5cdae24083951e41efd1c7dad4d3b7be7aeb385d9ba3d16857189e3bf99"
#: The CSV of a sweep whose d = 3 cell fails, from
#: test_failed_sweep_cell_keeps_the_other_rows.
_FAILED_SWEEP_CSV = \
    "ed2eb537eeda92f572d2ccd2708cf264604b487bad6936ce0a66ca83b30b4078"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_table_bytes(self, name, fmt):
        args, csv_digest, json_digest = _PINNED[name]
        code, out, err = run_cli(*args, "--format", fmt)
        assert code == 0
        assert _sha256(out) == (csv_digest if fmt == "csv" else json_digest)
        if name == "limiting-warned":
            assert _sha256(err) == _WARNED_STDERR
        else:
            assert err == ""


class TestEvolveCommand:
    def test_single_step_example(self):
        code, out, err = run_cli("evolve", "--d", "4", "--phi", "0",
                                 "--state", "psi_a", "--t", "1")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert meta["banner"].endswith("schema=evolve.v1")
        assert header == ["n", "probability"]
        probs = [float(r[1]) for r in rows]
        assert probs == pytest.approx([0.0, 0.5, 0.0, 0.5], abs=1e-15)
        config = json.loads(meta["config"])
        assert config["d"] == 4 and config["t"] == 1
        assert config["phi"] == 0.0 and config["state"] == "psi_a"

    def test_t_zero_point_mass(self):
        code, out, _ = run_cli("evolve", "--d", "6", "--phi", "1.5",
                               "--state", "psi_c", "--t", "0")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [float(r[1]) for r in rows] == [1.0, 0, 0, 0, 0, 0]

    def test_million_steps(self):
        code, out, _ = run_cli("evolve", "--d", "64", "--phi", "0.5",
                               "--state", "psi_c", "--t", "1000000")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 64
        assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-12)

    def test_memory_model_ignores_phi(self):
        code, out, _ = run_cli("evolve", "--d", "5", "--model", "memory",
                               "--state", "psi_b", "--t", "1")
        assert code == 0
        _, _, rows = parse_csv(out)
        # psi_b feeds both coin values through the same Hadamard column
        assert sum(float(r[1]) for r in rows) == pytest.approx(1.0)

    def test_missing_t_is_usage_error(self):
        code, _, err = run_cli("evolve", "--d", "4", "--phi", "0")
        assert code == 2
        assert "--t" in err

    def test_missing_phi_is_usage_error(self):
        code, _, err = run_cli("evolve", "--d", "4", "--t", "3")
        assert code == 2
        assert "--phi" in err

    @pytest.mark.parametrize("args", [("evolve", "--t", "3"), ("limiting",),
                                      ("mixing", "--t-max", "8")])
    def test_phi_needed_by_recycled_model_only(self, args):
        # One model -> phi rule serves all three one-walk commands.
        code, _, err = run_cli(*args, "--d", "4", "--model", "recycled")
        assert code == 2
        assert "--phi" in err
        code, _, _ = run_cli(*args, "--d", "4", "--model", "memory")
        assert code == 0

    def test_bad_d(self):
        code, _, err = run_cli("evolve", "--d", "1", "--phi", "0", "--t", "1")
        assert code == 2
        assert ">= 2" in err

    def test_bad_state(self):
        code, _, err = run_cli("evolve", "--d", "4", "--phi", "0",
                               "--t", "1", "--state", "psi_z")
        assert code == 2
        assert "psi_z" in err

    def test_custom_state_norm_warning_on_stderr(self):
        code, out, err = run_cli("evolve", "--d", "4", "--phi", "0",
                                 "--t", "1", "--state", "custom:2,0,0,0")
        assert code == 0
        assert "normalizing" in err
        # diagnostics stay off stdout
        assert "normalizing" not in out
        _, _, rows = parse_csv(out)
        assert [float(r[1]) for r in rows] == pytest.approx(
            [0.0, 0.5, 0.0, 0.5], abs=1e-15)

    @pytest.mark.parametrize("custom,named",
                             [("custom:1e200,1e200,0,0", "psi_b"),
                              ("custom:1e-200,0,0,0", "psi_a")])
    def test_custom_state_norm_is_scaled(self, custom, named):
        # A plain sqrt(sum |a|^2) overflows on the first vector and
        # underflows to zero on the second.
        args = ("evolve", "--d", "6", "--phi", "0.5", "--t", "3", "--state")
        code, out, _ = run_cli(*args, custom)
        assert code == 0
        code, ref, _ = run_cli(*args, named)
        assert code == 0
        assert parse_csv(out)[2] == parse_csv(ref)[2]


class TestLargeEvolveCommand:
    """evolve at d = 4096 through the CLI against the sparse oracle."""

    @pytest.mark.parametrize("model", [MODEL_RECYCLED, MODEL_MEMORY])
    def test_matches_sparse_oracle(self, model):
        d, t, phi = 4096, 400, 0.5
        args = ["evolve", "--model", model, "--d", str(d), "--t", str(t),
                "--state", "psi_c"]
        if model == MODEL_RECYCLED:
            args += ["--phi", str(phi)]
            op = oracles.dense_recycled_operator(d, phi, sparse=True)
        else:
            op = oracles.dense_memory_operator(d, sparse=True)
        code, out, _ = run_cli(*args)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [int(r[0]) for r in rows] == list(range(d))
        cells = [r[1] for r in rows]
        start = WalkState.localized(d, InitialState.named("psi_c"), model)
        want = oracles.dense_distribution(
            oracles.dense_evolve(start.amplitudes, op, t))
        assert np.abs(np.array(cells, dtype=float) - want).max() < 1e-12
        # Outside the light cone |n| <= t, and at the parity the walk
        # cannot reach, every cell is written as exact zero.
        offsets = np.arange(-t, t + 1, 2)
        reach = np.zeros(d, dtype=bool)
        reach[offsets % d] = True
        assert all(c == "0" for c in np.array(cells)[~reach])
        assert want[~reach].max() == 0.0


class TestLimitingCommand:
    def test_uniform_cell(self):
        code, out, _ = run_cli("limiting", "--d", "5", "--phi", "0.5",
                               "--state", "psi_a")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["n", "pbar", "warned"]
        assert [float(r[1]) for r in rows] == pytest.approx([0.2] * 5)
        assert all(r[2] == "false" for r in rows)
        assert float(meta["tv_from_uniform"]) < 1e-9

    def test_nonuniform_cell(self):
        code, out, _ = run_cli("limiting", "--d", "42", "--phi", "0",
                               "--state", "psi_a")
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert float(meta["tv_from_uniform"]) > 1e-3
        probs = np.array([float(r[1]) for r in rows])
        assert probs.sum() == pytest.approx(1.0)
        # residual weight piles up around the start site
        assert probs.max() > 2.0 / 42
        assert int(np.argmax(probs)) in (0, 1, 2)

    def test_memory_model(self):
        code, out, _ = run_cli("limiting", "--d", "7", "--model", "memory",
                               "--state", "psi_d")
        assert code == 0
        meta, _, rows = parse_csv(out)
        config = json.loads(meta["config"])
        assert config["model"] == "memory"
        assert "phi" not in config
        assert sum(float(r[1]) for r in rows) == pytest.approx(1.0)

    def test_failed_spectral_check_exits_one(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("momentum block lost unitarity (0.1)")

        monkeypatch.setattr(cli.spectral, "limiting_distribution", broken)
        code, out, err = run_cli("limiting", "--d", "5", "--phi", "0.5")
        assert code == 1
        assert out == ""
        assert err == "cyclewalk: error: momentum block lost unitarity (0.1)\n"


class TestSweepCommand:
    def test_grid_and_expected_classes(self):
        code, out, _ = run_cli("sweep", "--d-range", "11..12",
                               "--phi-grid", "0:1:1", "--state", "psi_a",
                               "--state", "psi_c")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert meta["cells"] == "8"
        assert header[:5] == ["d", "phi", "state", "tv_from_uniform",
                              "uniform"]
        cells = {(r[0], r[1], r[2]): r for r in rows}
        assert cells[("11", "1", "psi_a")][4] == "true"
        assert cells[("12", "1", "psi_a")][4] == "false"
        assert cells[("12", "1", "psi_a")][8] == "true"  # divisible_by_12
        assert all(r[9] == "" for r in rows)  # no errors

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_epsilon_is_usage_error(self, bad):
        # A NaN epsilon used to mark a cell at TV 2e-16 non-uniform.
        code, out, err = run_cli("sweep", "--d", "5", "--phi", "0.5",
                                 "--state", "psi_a", "--epsilon", bad,
                                 "--format", "json")
        assert code == 2
        assert out == ""
        assert "epsilon must be positive and finite" in err

    def test_jobs_do_not_change_bytes(self, tmp_path):
        args = ("sweep", "--d-range", "4..6", "--phi-grid", "0:0.5:2",
                "--state", "psi_b")
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _, _ = run_cli(*args, "--jobs", "1", "--out", str(f1))
        code2, _, _ = run_cli(*args, "--jobs", "2", "--out", str(f2))
        assert code1 == code2 == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_records_match_the_table(self, monkeypatch):
        # analysis.sweep builds its records from the columns that the
        # command writes; the d = 3 group of each phi fails here.
        real = _kernels._rep_blocks

        def scaled(ds, spec):
            mats = real(ds, spec)
            mats[0] *= 1.1
            return mats

        monkeypatch.setattr(_kernels, "_rep_blocks", scaled)
        code, out, _ = run_cli("sweep", "--d-range", "3..8", "--phi-grid",
                               "0:2:2", "--state", "psi_a", "--state",
                               "psi_c", "--format", "json")
        assert code == 1
        grid = cyclewalk.SweepGrid.named(range(3, 9), (0.0, 2.0),
                                         ("psi_a", "psi_c"))
        records = cyclewalk.sweep(grid, keep_probs=False)
        fields = ("d", "phi", "state", "tv_from_uniform",
                  "classified_uniform", "boundary", "warned", "d_mod_4",
                  "divisible_by_12", "error")
        cells = [[oracles._clean_cell(getattr(r, f)) for f in fields]
                 for r in records]
        assert cells == json.loads(out)["rows"]
        assert [r.d for r in records if r.error is not None] == [3] * 4
        assert all(r.probs is None for r in records)

    def test_d_and_d_range_conflict(self):
        code, _, err = run_cli("sweep", "--d", "4", "--d-range", "4..6",
                               "--phi", "0")
        assert code == 2
        assert "not both" in err


class TestMixingCommand:
    def test_curve_shape(self):
        code, out, _ = run_cli("mixing", "--d", "11", "--phi", "0.5",
                               "--state", "psi_b", "--t-max", "512")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["T", "sd"]
        horizons = [int(r[0]) for r in rows]
        sds = [float(r[1]) for r in rows]
        assert horizons == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        assert sds[-1] < sds[0]
        assert sds[-1] < 0.05

    def test_repeated_runs_leave_no_cyclic_garbage(self):
        # In-process callers run main many times; whatever one call
        # leaves in reference cycles stays until a full collection.
        args = ("mixing", "--d", "5", "--phi", "0", "--state", "psi_a",
                "--t-max", "64")
        assert run_cli(*args)[0] == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run_cli(*args)[0] == 0
            gc.collect()
            left = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == 0

    def test_t_max_validation(self):
        code, _, err = run_cli("mixing", "--d", "5", "--phi", "0",
                               "--t-max", "0")
        assert code == 2
        assert "--t-max" in err


class TestVerifyCommand:
    def test_small_grid_passes(self):
        code, out, _ = run_cli("verify", "--d-range", "3..5",
                               "--phi-grid", "0:1:2", "--t-max", "12",
                               "--state", "psi_b")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["check", "d", "phi", "state", "max_deviation",
                          "pass"]
        assert meta["failures"] == "0"
        checks = {r[0] for r in rows}
        assert checks == {"theorem1", "theorem2"}
        # 3 d x 3 phi for theorem1 plus 3 d for theorem2
        assert len(rows) == 12
        assert all(r[5] == "true" for r in rows)
        assert all(float(r[4]) < 1e-10 for r in rows)

    def test_threshold_failure_exits_one(self):
        code, out, err = run_cli("verify", "--d", "4", "--t-max", "8",
                                 "--phi-grid", "0.7:1:0.7",
                                 "--state", "psi_a", "--epsilon", "1e-22")
        assert code == 1
        meta, _, rows = parse_csv(out)
        assert int(meta["failures"]) > 0
        assert "exceeded" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_epsilon_is_usage_error(self, bad, tmp_path):
        # By flag and by config file; a NaN threshold used to fail every
        # cell, and --format json died on the NaN in the config line.
        cfg = tmp_path / "run.json"
        cfg.write_text('{"epsilon": %s}' % {"nan": "NaN",
                                             "inf": "Infinity"}[bad])
        for extra in (("--epsilon", bad), ("--config", str(cfg))):
            code, out, err = run_cli("verify", "--d", "4", "--t-max", "4",
                                     "--phi-grid", "0.7:1:0.7",
                                     "--state", "psi_a", "--format", "json",
                                     *extra)
            assert code == 2, extra
            assert out == ""
            assert "--epsilon must be positive and finite" in err

    def test_parallel_matches_serial(self, tmp_path):
        args = ("verify", "--d-range", "3..4", "--phi-grid", "0:1:1",
                "--t-max", "10", "--state", "psi_d")
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--jobs", "1", "--out", str(f1))[0] == 0
        assert run_cli(*args, "--jobs", "2", "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestResidueCommand:
    def test_mod_classes(self):
        code, out, _ = run_cli("residue", "--d-range", "8..11",
                               "--state", "psi_a")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["d", "d_mod_4", "tv"]
        by_d = {int(r[0]): (int(r[1]), float(r[2])) for r in rows}
        assert by_d[8] == (0, pytest.approx(0.0, abs=1e-8))
        assert by_d[10][0] == 2
        assert by_d[10][1] > max(by_d[9][1], by_d[11][1])


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 5, "phi": 0.5, "state": "psi_a",
                                   "t": 3}))
        code, out, _ = run_cli("evolve", "--config", str(cfg), "--t", "7")
        assert code == 0
        meta, _, _ = parse_csv(out)
        echoed = json.loads(meta["config"])
        assert echoed["d"] == 5 and echoed["phi"] == 0.5
        assert echoed["t"] == 7  # the flag wins

    def test_config_supplies_everything(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 4, "phi": 0.0, "t": 1}))
        code, out, _ = run_cli("evolve", "--config", str(cfg))
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [float(r[1]) for r in rows] == pytest.approx(
            [0.0, 0.5, 0.0, 0.5], abs=1e-15)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dee": 4}))
        code, _, err = run_cli("evolve", "--config", str(cfg), "--t", "1")
        assert code == 2
        assert "dee" in err

    def test_bad_json_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code, _, err = run_cli("evolve", "--config", str(cfg), "--t", "1")
        assert code == 2
        assert "JSON" in err

    def test_missing_file_rejected(self, tmp_path):
        code, _, err = run_cli("evolve", "--config",
                               str(tmp_path / "none.json"), "--t", "1")
        assert code == 2

    @pytest.mark.parametrize("command,config", [
        ("evolve", {"d": "5"}),
        ("evolve", {"d": True}),
        ("evolve", {"t": 2.5}),
        ("evolve", {"phi": "0.5"}),
        ("evolve", {"phi": False}),
        ("evolve", {"phi": 10 ** 400}),
        ("sweep", {"jobs": "2"}),
        ("sweep", {"epsilon": None}),
        ("evolve", {"state": 7}),
        ("evolve", {"state": ["psi_a"]}),
        ("sweep", {"state": ["psi_a", 7]}),
        ("verify", {"state": {"psi_a": 1}}),
        ("limiting", {"model": "Memory"}),
        ("limiting", {"format": "xml"}),
        ("sweep", {"d-range": 5}),
        ("verify", {"phi_grid": [0, 1]}),
        ("limiting", {"out": 3}),
    ])
    def test_value_must_pass_its_flag(self, tmp_path, command, config):
        # Each value is held to its flag's type and choices: a usage
        # error that names the key, not a traceback or a silent run.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert "config key %r" % next(iter(config)) in err

    # Configurations that, together, give every flag of every command
    # (except --config itself) a value.  An integer for a float flag is
    # that float, and a single state of a repeatable --state is a list
    # of one.
    _PARITY = (
        ("evolve", {"d": 5, "phi": 1, "t": 3, "state": "psi_b",
                    "model": "recycled", "format": "json"}),
        ("evolve", {"d": 4, "t": 2, "model": "memory", "out": "table"}),
        ("limiting", {"d": 6, "phi": 0.5, "state": "psi_c",
                      "model": "recycled", "format": "csv"}),
        ("limiting", {"d": 5, "model": "memory", "out": "table"}),
        ("sweep", {"d": 6, "phi": 2, "state": "psi_c", "epsilon": 1,
                   "jobs": 1}),
        ("sweep", {"d-range": "3..5", "phi-grid": "0:2:4",
                   "state": ["psi_a", "psi_b"], "format": "json",
                   "out": "table"}),
        ("mixing", {"d": 5, "phi": 0.5, "state": "psi_d", "t-max": 16,
                    "format": "json"}),
        ("mixing", {"d": 4, "model": "memory", "t-max": 8, "out": "table"}),
        ("verify", {"d": 4, "phi-grid": "0:2:2", "state": "psi_a",
                    "t-max": 5, "epsilon": 1e-8, "jobs": 1}),
        ("verify", {"d-range": "3..4", "phi-grid": "1:1:1",
                    "state": ["psi_b", "psi_d"], "t-max": 3,
                    "format": "json", "out": "table"}),
        ("residue", {"d-range": "4..6", "state": "psi_b", "format": "json"}),
        ("residue", {"d": 5, "out": "table"}),
    )

    def test_parity_cases_cover_every_flag(self):
        subcommands = next(a for a in cli._parser()._actions
                           if a.dest == "command").choices
        for command, p in subcommands.items():
            flags = {a.option_strings[0][2:] for a in p._actions
                     if a.dest not in ("help", "config")}
            given = set().union(*(config for name, config in self._PARITY
                                  if name == command))
            assert given == flags, command

    def test_values_read_as_their_flags(self, tmp_path):
        # A value from the config file gives the same exit code, stdout,
        # stderr and --out file as the same value given as a flag.
        for index, (command, config) in enumerate(self._PARITY):
            flags = []
            for key, value in config.items():
                for v in value if isinstance(value, list) else [value]:
                    flags += ["--" + key, str(v)]
            results = []
            for where, args in (("file", ("--config", "run.json")),
                                ("flags", flags)):
                run_dir = tmp_path / ("%d-%s" % (index, where))
                run_dir.mkdir()
                (run_dir / "run.json").write_text(json.dumps(config))
                with contextlib.chdir(run_dir):
                    code, out, err = run_cli(command, *args)
                table = run_dir / "table"
                results.append((code, out, err, table.exists()
                                and table.read_text()))
            assert results[0][0] == 0, (command, config)
            assert results[0] == results[1], (command, config)
            assert bool(results[0][3]) == ("out" in config)

    # A value that each flag accepts, from a config file as on the
    # command line.
    _VALID = {"d": 5, "d-range": "3..5", "phi": 0.5, "phi-grid": "0:1:2",
              "state": "psi_b", "t": 3, "t-max": 4, "epsilon": 1e-6,
              "jobs": 1, "model": "memory", "format": "json", "out": "table"}

    @staticmethod
    def _apply(tmp_path, command, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        ns = cli._parser().parse_args([command, "--config", str(path)])
        cli._apply_config_file(ns)
        return ns

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_keys_apply_where_the_command_has_the_flag(self, tmp_path,
                                                       command):
        # Every flag name, spelled with "-" or "_", is taken exactly
        # when the command's parser has that flag, and read as it.
        assert set(self._VALID) == set(cli._FLAGS) - {"config"}
        subcommands = next(a for a in cli._parser()._actions
                           if a.dest == "command").choices
        has = {a.option_strings[0][2:] for a in subcommands[command]._actions
               if a.option_strings}
        for name, value in self._VALID.items():
            dest = name.replace("-", "_")
            for key in {name, dest}:
                if name in has:
                    ns = self._apply(tmp_path, command, {key: value})
                    flag = cli._parser().parse_args(
                        [command, "--" + name, str(value)])
                    assert getattr(ns, dest) == getattr(flag, dest)
                else:
                    with pytest.raises(UsageError) as info:
                        self._apply(tmp_path, command, {key: value})
                    assert str(info.value) == (
                        "config key %r does not apply to %r" % (key, command))

    @pytest.mark.parametrize("key", ["help", "command", "config"])
    def test_parser_only_names_are_unknown_keys(self, tmp_path, key):
        for command in cli._COMMANDS:
            with pytest.raises(UsageError) as info:
                self._apply(tmp_path, command, {key: "evolve"})
            assert str(info.value) == "unknown config key %r" % key


#: Usage errors on one bad input: (argv, config file body or None, the
#: message after "cyclewalk: error: ").
_USAGE_ERRORS = {
    "negative-t": (("evolve", "--d", "9", "--phi", "0.5", "--t", "-1"),
                   None, "--t must be >= 0"),
    "evolve-without-d": (("evolve", "--phi", "0.5", "--t", "3"), None,
                         "missing required flag --d"),
    "negative-t-max": (("verify", "--d", "4", "--t-max", "-1"), None,
                       "--t-max must be >= 0"),
    "phi-and-grid": (("sweep", "--d", "5", "--phi", "0.5",
                      "--phi-grid", "0:1:2"), None,
                     "give either --phi or --phi-grid, not both"),
    "sweep-without-phi": (("sweep", "--d", "5"), None,
                          "missing required flag --phi or --phi-grid"),
    "sweep-without-d": (("sweep", "--phi", "0.5"), None,
                        "missing required flag --d or --d-range"),
    "zero-jobs": (("sweep", "--d", "5", "--phi", "0.5", "--jobs", "0"),
                  None, "--jobs must be >= 1"),
    # argparse reads a bare "-1e308:..." as an option, hence the "=".
    "grid-count-overflows": (("sweep", "--d", "5",
                              "--phi-grid=-1e308:1e-10:5"), None,
                             "bad --phi-grid '-1e308:1e-10:5' "
                             "(step too small)"),
    "config-key-of-other-command": (("sweep", "--d", "5", "--phi", "0.5"),
                                    '{"t": 5}',
                                    "config key 't' does not apply to "
                                    "'sweep'"),
    "config-not-an-object": (("evolve", "--d", "5"), "[1, 2]",
                             "config file must hold a JSON object"),
    "memory-with-phi": (("mixing", "--d", "5", "--model", "memory",
                         "--t-max", "8", "--phi", "0.5"), None,
                        "--phi does not apply to --model memory"),
    "memory-with-phi-key": (("evolve", "--d", "5", "--model", "memory",
                             "--t", "3"), '{"phi": 0.5}',
                            "--phi does not apply to --model memory"),
}


class TestUsageErrors:
    @pytest.mark.parametrize("name", sorted(_USAGE_ERRORS))
    def test_single_bad_input(self, name, tmp_path):
        args, config, message = _USAGE_ERRORS[name]
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(config)
            args += ("--config", str(path))
        code, out, err = run_cli(*args)
        assert code == 2
        assert out == ""
        assert err == "cyclewalk: error: %s\n" % message

    def test_failed_sweep_cell_keeps_the_other_rows(self, monkeypatch):
        args = ("sweep", "--d-range", "3..4", "--phi", "0.5",
                "--state", "psi_a")
        _, clean, _ = run_cli(*args)
        real = _kernels._rep_blocks

        def scaled(ds, spec):
            mats = real(ds, spec)
            mats[0] *= 1.1
            return mats

        monkeypatch.setattr(_kernels, "_rep_blocks", scaled)
        code, out, err = run_cli(*args)
        assert code == 1
        assert err == ("cyclewalk: cell d=3 phi=0.5 state=psi_a failed: "
                       "momentum block lost unitarity (0.21)\n"
                       "cyclewalk: 1 of 2 sweep cells failed\n")
        _, _, rows = parse_csv(out)
        _, _, clean_rows = parse_csv(clean)
        assert [r[:3] for r in rows] == [["3", "0.5", "psi_a"],
                                          ["4", "0.5", "psi_a"]]
        assert rows[0][9] != "" and rows[1] == clean_rows[1]
        assert _sha256(out) == _FAILED_SWEEP_CSV

    @pytest.mark.parametrize("args", [
        ("evolve", "--d", "1000000000000000", "--phi", "0.5", "--t", "1"),
        ("limiting", "--d", "1000000000000000", "--phi", "0.5"),
    ], ids=["evolve", "limiting"])
    def test_out_of_memory_is_one_diagnostic(self, args):
        # The first array of d = 10^15 asks for petabytes, past any
        # address space, so numpy fails it at once and nothing is held.
        code, out, err = run_cli(*args)
        assert code == 1
        assert out == ""
        assert err.startswith("cyclewalk: error: Unable to allocate ")
        assert err.count("\n") == 1 and err.endswith("\n")


#: SHA-256 of each command's --help at 80 columns.
_HELP_DIGESTS = {
    "evolve": "938e98260e3313ffc0f97fb9ebdd25c479b0f82ad40ca53176c2118629ce33d5",
    "limiting": "d2f4423c90b37a98bcd5482731addd473eaae45206263b99e9cadd7469673470",
    "sweep": "21a28b225349da93cde46a3d37bdfaa15a4c3480def8fb032929002d2dca6128",
    "mixing": "919502332af0667df09cde07b5fdc717c38c6d25fffcffe7a22aeedf70415451",
    "verify": "60667f98fe6150dab44f139c723af97319fffb2c40d8e29253b993057a0bd83a",
    "residue": "3bca08274c4ec920b7ee08e2415d7c7c0506f2995d3f24ea9736c45fbd04285b",
}


class TestPinnedHelp:
    @pytest.mark.parametrize("command", sorted(_HELP_DIGESTS))
    def test_help_bytes(self, command, monkeypatch):
        # argparse wraps help to the terminal width, which it reads from
        # COLUMNS.
        monkeypatch.setenv("COLUMNS", "80")
        commands = next(a for a in cli._parser()._actions
                        if a.dest == "command")
        assert _sha256(commands.choices[command].format_help()) \
            == _HELP_DIGESTS[command]


class TestDeterminismAndFormats:
    def test_repeated_runs_byte_identical(self, tmp_path):
        args = ("limiting", "--d", "24", "--phi", "1", "--state", "psi_c")
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(f1))[0] == 0
        assert run_cli(*args, "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_out_file_matches_stdout(self, tmp_path):
        args = ("evolve", "--d", "7", "--phi", "2", "--state", "psi_d",
                "--t", "9")
        _, stdout_text, _ = run_cli(*args)
        f = tmp_path / "a.csv"
        run_cli(*args, "--out", str(f))
        assert f.read_text() == stdout_text

    def test_json_format(self):
        code, out, _ = run_cli("evolve", "--d", "4", "--phi", "0",
                               "--t", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "cyclewalk"
        assert doc["schema"] == "evolve.v1"
        assert doc["columns"] == ["n", "probability"]
        assert [r[1] for r in doc["rows"]] == pytest.approx(
            [0.0, 0.5, 0.0, 0.5], abs=1e-15)

    def test_csv_json_agree_on_values(self):
        args = ("limiting", "--d", "9", "--phi", "2", "--state", "psi_b")
        _, csv_text, _ = run_cli(*args, "--format", "csv")
        _, json_text, _ = run_cli(*args, "--format", "json")
        _, _, rows = parse_csv(csv_text)
        doc = json.loads(json_text)
        csv_probs = [float(r[1]) for r in rows]
        json_probs = [r[1] for r in doc["rows"]]
        assert csv_probs == json_probs

    @pytest.mark.parametrize("args", [("evolve", "--d", "9", "--t", "7"),
                                      ("limiting", "--d", "12")],
                             ids=["evolve", "limiting"])
    def test_tiny_negative_phi_is_phi_zero(self, args):
        # -1e-20 % 8 rounds to 8.0: the config once echoed "phi":8.0, and
        # the cells moved in the last bit, as 9 pi/4 is not pi/4.
        got = run_cli(*args, "--phi=-1e-20")
        assert got[0] == 0
        assert got == run_cli(*args, "--phi", "0")


@pytest.mark.subprocess
class TestEntryPoint:
    """End-to-end runs through `python -m cyclewalk`."""

    def _run(self, *args, env=None):
        return self._python("-m", "cyclewalk", *args, env=env)

    def _python(self, *args, env=None):
        import os
        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        # The child must import the same cyclewalk as this test run, also
        # from a checkout that is not installed.
        src = str(Path(cyclewalk.__file__).resolve().parent.parent)
        full_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, full_env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, env=full_env,
                              timeout=120)

    def test_cli_import_loads_no_process_pool(self):
        # A run at jobs = 1 needs no pool: analysis imports it on the
        # pool branch only.
        proc = self._python("-c", "import sys, cyclewalk.cli; print(sorted("
                            "m for m in sys.modules if m.split('.')[0] in "
                            "('concurrent', 'multiprocessing')))")
        assert proc.returncode == 0
        assert proc.stdout == "[]\n"

    def test_evolve_roundtrip(self):
        proc = self._run("evolve", "--d", "4", "--phi", "0",
                         "--state", "psi_a", "--t", "1")
        assert proc.returncode == 0
        _, _, rows = parse_csv(proc.stdout)
        assert [float(r[1]) for r in rows] == pytest.approx(
            [0.0, 0.5, 0.0, 0.5], abs=1e-15)

    def test_usage_error_exit_code(self):
        proc = self._run("evolve", "--d", "1", "--phi", "0", "--t", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_jobs_env_is_ignored(self):
        # --jobs comes from the flag or the config file only; a
        # CYCLEWALK_JOBS of 0 once made this run a usage error.
        args = ("sweep", "--d-range", "4..5", "--phi-grid", "0:1:2",
                "--state", "psi_a")
        plain = self._run(*args)
        with_env = self._run(*args, env={"CYCLEWALK_JOBS": "0"})
        assert plain.returncode == with_env.returncode == 0
        assert plain.stdout == with_env.stdout
        assert with_env.stderr == ""
