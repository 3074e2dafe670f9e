"""Command line interface and table serialization."""

import contextlib
import gc
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclewalk
from cyclewalk import cli, output
from cyclewalk.cli import (UsageError, main, parse_d_range, parse_phi_grid,
                           parse_state)
from cyclewalk.output import Table, render_csv, render_json


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
                                     "7:0.5:8", "0:-1:5"])
    def test_phi_grid_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_phi_grid(bad)

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
                      columns=("x", "y"), rows=[(1, 0.5)], meta={"k": 3})
        lines = render_csv(table).splitlines()
        assert lines[0] == "# cyclewalk 0.1.0 schema=demo.v1"
        assert lines[1] == '# config={"a":1,"b":2}'
        assert lines[2] == "# k=3"
        assert lines[3] == "x,y"
        assert lines[4] == "1,0.5"

    def test_json_valid_and_nan_safe(self):
        table = Table(schema="demo.v1", config={"a": 1}, columns=("x",),
                      rows=[(float("nan"),)])
        doc = json.loads(render_json(table))
        assert doc["schema"] == "demo.v1"
        assert doc["rows"] == [[None]]

    def test_unknown_format(self):
        table = Table(schema="s", config={}, columns=("x",), rows=[])
        with pytest.raises(ValueError, match="format"):
            output.render(table, "yaml")

    def test_version_single_source(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["version"] == cyclewalk.__version__
        assert output.TOOL_VERSION == cyclewalk.__version__


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


@pytest.mark.subprocess
class TestEntryPoint:
    """End-to-end runs through `python -m cyclewalk`."""

    def _run(self, *args, env=None):
        import os
        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        # The child must import the same cyclewalk as this test run, also
        # from a checkout that is not installed.
        src = str(Path(cyclewalk.__file__).resolve().parent.parent)
        full_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, full_env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "cyclewalk", *args],
                              capture_output=True, text=True, env=full_env,
                              timeout=120)

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

    def test_jobs_env_fallback(self):
        args = ("sweep", "--d-range", "4..5", "--phi-grid", "0:1:2",
                "--state", "psi_a")
        serial = self._run(*args, "--jobs", "1")
        from_env = self._run(*args, env={"CYCLEWALK_JOBS": "2"})
        assert serial.returncode == from_env.returncode == 0
        assert serial.stdout == from_env.stdout
