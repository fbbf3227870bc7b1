"""Command-line interface: configs, ingestion, determinism, outputs."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tfqkd

from tfqkd.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlobAndRate:
    def test_plob(self, capsys):
        code, out, _ = run_cli(["plob", "--loss-a-db", "15", "--loss-b-db", "15"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["plob"] == pytest.approx(-math.log2(1 - 1e-3), rel=1e-12)

    def test_rate_fixed_point(self, capsys):
        code, out, _ = run_cli(["rate", "--loss-a-db", "20", "--loss-b-db", "20",
                                "--decoys", "3", "--alpha-a", "0.15",
                                "--strongest-mu", "0.1", "--dump-bounds"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["rate"] > 0
        assert "0,0" in rec["yield_bounds"]
        assert 0 <= rec["e_z_upp"] <= 1

    def test_plob_at_infinite_loss_prints_zero(self, capsys):
        code, out, _ = run_cli(["plob", "--loss-a-db", "inf"], capsys)
        assert code == 0
        assert '"plob": 0.0' in out

    def test_flag_of_another_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plob", "--format", "json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("strongest", ["800", "150"])
    def test_out_of_range_intensity_is_saturation_record(self, strongest, capsys):
        # 800: exp(mu + nu) overflows; 150: the series tails cannot converge
        code, out, err = run_cli(["rate", "--decoys", "3", "--alpha-a", "0.1",
                                  "--strongest-mu", strongest], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "SaturationError"

    @pytest.mark.parametrize("alpha", ["400", "1e200"])
    def test_overflowing_amplitude_is_saturation_record(self, alpha, capsys):
        # 400: expm1 of the X-basis exponent overflows; 1e200: the arriving
        # intensity itself is infinite
        code, out, err = run_cli(["rate", "--decoys", "3", "--alpha-a", alpha,
                                  "--strongest-mu", "0.1"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "SaturationError"

    def test_dead_point_reports_zero(self, capsys):
        code, out, _ = run_cli(["rate", "--loss-a-db", "200", "--loss-b-db", "200",
                                "--decoys", "3", "--alpha-a", "0.1",
                                "--strongest-mu", "0.1"], capsys)
        assert code == 0
        assert json.loads(out)["rate"] == 0.0


class TestGainsFiles:
    def _emit(self, tmp_path, capsys):
        out_path = tmp_path / "bounds.json"
        code, _, _ = run_cli(["bounds", "--loss-a-db", "25", "--loss-b-db", "25",
                              "--decoys", "3", "--strongest-mu", "0.1",
                              "--out", str(out_path)], capsys)
        assert code == 0
        return json.loads(out_path.read_text())

    def test_round_trip_identical_bounds(self, tmp_path, capsys):
        rec = self._emit(tmp_path, capsys)
        gains_path = tmp_path / "gains.json"
        gains_path.write_text(json.dumps(rec["gains"]))
        code, out, _ = run_cli(["bounds", "--gains", str(gains_path)], capsys)
        assert code == 0
        rec2 = json.loads(out)
        for key, value in rec["bounds"].items():
            assert abs(rec2["bounds"][key] - value) < 1e-15

    def test_range_error(self, tmp_path, capsys):
        bad = {"schema_version": 1, "mu": [0.1, 0.01, 0.001],
               "nu": [0.1, 0.01, 0.001], "omega": "c",
               "Q": [[1.2, 0, 0], [0, 0, 0], [0, 0, 0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(["bounds", "--gains", str(path)], capsys)
        assert code == 2
        assert "ConfigError" in err

    def test_ordering_error(self, tmp_path, capsys):
        bad = {"schema_version": 1, "mu": [0.01, 0.01, 0.001],
               "nu": [0.1, 0.01, 0.001], "omega": "c",
               "Q": [[0.0] * 3] * 3}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(["bounds", "--gains", str(path)], capsys)
        assert code == 2
        assert "ConfigError" in err

    def test_missing_schema_version(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mu": [], "nu": [], "Q": []}))
        code, _, err = run_cli(["bounds", "--gains", str(path)], capsys)
        assert code == 2


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, tmp_path, capsys):
        cfg = {"schema_version": 1, "loss_a_db": 30, "loss_b_db": 30,
               "decoys": 3, "multistart": 4, "seed": 9}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["optimize", "--config", str(path)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["loss_a_db"] == 30
        assert rec["rate"] > 0

    def test_invalid_decoys(self, capsys):
        with pytest.raises(SystemExit):
            main(["rate", "--decoys", "5"])

    def test_equal_weak_decoys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "decoys": 3,
                                   "weak_decoys": [1e-4, 1e-4]}))
        code, _, err = run_cli(["optimize", "--config", str(cfg),
                                "--loss-a-db", "20", "--loss-b-db", "20"], capsys)
        assert code == 2
        assert "strictly decreasing" in err

    def test_weak_decoy_below_double_range_is_degenerate_record(self, tmp_path, capsys):
        # 5e-324 * 1e-4 underflows to 0 in a coefficient denominator
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "decoys": 3,
                                   "weak_decoys": [1e-4, 5e-324]}))
        code, out, err = run_cli(["rate", "--config", str(cfg), "--alpha-a", "0.2",
                                  "--alpha-b", "0.2", "--strongest-mu", "0.1"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DegenerateIntensityError"


@pytest.mark.parametrize("document", ["[1, 2]", '"text"', "null"])
@pytest.mark.parametrize("subcommand,flag", [("rate", "--config"), ("bounds", "--gains"),
                                             ("rate", "--gains"), ("optimize", "--config")])
def test_non_object_json_input_is_config_error(document, subcommand, flag, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(document)
    code, out, err = run_cli([subcommand, flag, str(path)], capsys)
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "JSON object" in record["message"]


class TestSweepDeterminism:
    def _sweep(self, tmp_path, capsys, workers, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "decoys": 3,
                                   "multistart": 4, "seed": 3}))
        out = tmp_path / name
        code, _, _ = run_cli(["sweep", "--config", str(cfg),
                              "--grid-a", "20", "26", "--grid-b", "24",
                              "--workers", str(workers), "--out", str(out)], capsys)
        assert code == 0
        return out.read_bytes()

    def test_byte_identical_across_workers(self, tmp_path, capsys):
        one = self._sweep(tmp_path, capsys, 1, "w1.csv")
        four = self._sweep(tmp_path, capsys, 4, "w4.csv")
        assert one == four

    def test_pool_sized_to_the_grid(self, tmp_path, capsys, monkeypatch):
        # an in-process stand-in for the pool: records its size, forks nothing
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "decoys": 3,
                                   "multistart": 1, "seed": 3}))
        for grid_a in (["20", "26"], ["20"]):
            code, out, _ = run_cli(["sweep", "--config", str(cfg), "--grid-a", *grid_a,
                                    "--grid-b", "24", "--workers", "8"], capsys)
            assert code == 0
            assert len(out.strip().split("\n")) == 1 + len(grid_a)
        assert sizes == [2]

    def test_rows_sorted_and_finite(self, tmp_path, capsys):
        data = self._sweep(tmp_path, capsys, 1, "w.csv").decode()
        lines = data.strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["loss_a_db", "loss_b_db", "rate"]
        keys = [tuple(map(float, row.split(",")[:2])) for row in lines[1:]]
        assert keys == sorted(keys)
        for row in lines[1:]:
            rate = float(row.split(",")[2])
            assert math.isfinite(rate)


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("subcommand, flag", [("sweep", "--workers"), ("verify", "--configs")])
def test_count_below_one_is_config_error(subcommand, flag, value, capsys):
    # a verify that checks nothing must not report success
    code, out, err = run_cli([subcommand, flag, value], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ConfigError"


def _no_constants(token):
    raise AssertionError(f"output is not strict JSON: {token}")


class TestStrictOutput:
    def test_infinite_plob_is_strict_json(self, capsys):
        code, out, _ = run_cli(["plob", "--loss-a-db", "0", "--loss-b-db", "0"], capsys)
        assert code == 0
        assert json.loads(out, parse_constant=_no_constants)["plob"] == "inf"

    def test_nan_amplitude_is_an_error_record(self, capsys):
        code, out, err = run_cli(["rate", "--loss-a-db", "20", "--loss-b-db", "20",
                                  "--decoys", "3", "--alpha-a", "nan",
                                  "--strongest-mu", "0.1"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err, parse_constant=_no_constants)["error"] == "ValueError"

    def test_bad_sweep_row_beside_good_row(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "decoys": 3,
                                   "multistart": 1, "seed": 3}))
        code, out, _ = run_cli(["sweep", "--config", str(cfg), "--format", "json",
                                "--grid-a", "20", "nan", "--grid-b", "25"], capsys)
        assert code == 0
        rows = {row["loss_a_db"]: row for row in json.loads(out, parse_constant=_no_constants)}
        assert set(rows) == {20.0, "nan"}
        assert rows[20.0]["error"] == "" and rows[20.0]["rate"] > 0
        assert "NaN" in rows["nan"]["error"]


def test_python_dash_m_runs_the_cli():
    src = str(Path(tfqkd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "tfqkd", "plob", "--loss-a-db", "20",
                           "--loss-b-db", "30"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout, parse_constant=_no_constants)
    assert rec["plob"] == pytest.approx(-math.log2(1 - 1e-5), rel=1e-12)
