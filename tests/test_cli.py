"""Command-line interface: configs, ingestion, determinism, outputs."""

import argparse
import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tfqkd

from tfqkd.channel import IntensitySettings, simulate_gains, standard_noise
from tfqkd.cli import _FIELDS, build_parser, main
from tfqkd.optimize import OptimizationSpec
from tfqkd.rate import key_rate


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

    def test_overflowing_gain_is_saturation_record(self, capsys):
        code, out, err = run_cli(["rate", "--strongest-mu", "1e6", "--strongest-nu", "0.1",
                                  "--alpha-a", "0.1", "--alpha-b", "0.1"], capsys)
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

    @pytest.mark.parametrize("field,value", [("mu", 5), ("nu", [[0.1]]), ("Q", 3)])
    def test_wrong_structure_is_config_error(self, field, value, tmp_path, capsys):
        doc = {"schema_version": 1, "mu": [0.1, 0.01, 0.001], "nu": [0.1, 0.01, 0.001],
               "Q": [[0.0] * 3] * 3, field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["bounds", "--gains", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ConfigError"

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

    def test_n_cut_above_range_is_value_error_record(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "decoys": 3, "n_cut": 641}))
        code, out, err = run_cli(["rate", "--config", str(cfg), "--alpha-a", "0.2",
                                  "--alpha-b", "0.2", "--strongest-mu", "0.1",
                                  "--strongest-nu", "0.1"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("value", [{"n_cut": 641}, {"alpha_box": [0.5, 0.1]},
                                       {"p_d": 2.0}], ids=["n_cut", "alpha_box", "p_d"])
    def test_bad_scenario_value_fails_the_sweep_once(self, tmp_path, capsys, value):
        # a value that fails every grid point is the JSON record, not one row each
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, **value}))
        code, out, err = run_cli(["sweep", "--config", str(cfg), "--decoys", "3",
                                  "--grid-a", "20", "30", "--grid-b", "20"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

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


class TestFixedPoint:
    def test_symmetric_rate_at_the_given_strongest_decoy(self, capsys):
        code, out, _ = run_cli(["rate", "--loss-a-db", "20", "--loss-b-db", "26", "--decoys", "4",
                                "--alpha-a", "0.15", "--strongest-mu", "0.1",
                                "--symmetric-intensities"], capsys)
        assert code == 0
        spec = OptimizationSpec(decoys=4, symmetric=True)
        expected = key_rate(standard_noise(20, 26), spec.settings((0.15, 0.1)))
        assert json.loads(out)["rate"] == expected.rate

    def test_zero_amplitudes_with_gains(self, tmp_path, capsys):
        mu, nu = (0.1, 1e-3, 1e-4), (0.12, 1.1e-3, 0.9e-4)
        gains = simulate_gains(standard_noise(20, 20), IntensitySettings(
            alpha_a=0.1, alpha_b=0.1, mu=mu, nu=nu))
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"schema_version": 1, "mu": mu, "nu": nu, "Q": gains.q}))
        code, out, _ = run_cli(["rate", "--gains", str(path), "--alpha-a", "0",
                                "--alpha-b", "0"], capsys)
        assert code == 0
        rec = json.loads(out)
        expected = key_rate(standard_noise(20, 20), IntensitySettings(
            alpha_a=0.0, alpha_b=0.0, mu=mu, nu=nu), gains=gains)
        assert (rec["rate"], rec["p_x"], rec["e_x"]) == (expected.rate, expected.p_x,
                                                         expected.e_x)

    def test_gains_give_bob_alices_amplitude(self, tmp_path, capsys):
        mu, nu = (0.1, 1e-3, 1e-4), (0.12, 1.1e-3, 0.9e-4)
        gains = simulate_gains(standard_noise(20, 20), IntensitySettings(
            alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu))
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"schema_version": 1, "mu": mu, "nu": nu, "Q": gains.q}))
        code, out, _ = run_cli(["rate", "--gains", str(path), "--alpha-a", "0.2"], capsys)
        assert code == 0
        rec = json.loads(out)
        expected, at_default = (key_rate(standard_noise(20, 20), IntensitySettings(
            alpha_a=0.2, alpha_b=alpha_b, mu=mu, nu=nu), gains=gains) for alpha_b in (0.2, 0.1))
        assert expected.rate != at_default.rate
        assert (rec["rate"], rec["p_x"], rec["e_x"]) == (expected.rate, expected.p_x,
                                                         expected.e_x)

    def test_bounds_re_emit_the_ingested_omega(self, tmp_path, capsys):
        mu = (0.1, 0.01, 0.001)
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"schema_version": 1, "mu": mu, "nu": mu, "omega": "d",
                                    "Q": [[0.0] * 3] * 3}))
        code, out, _ = run_cli(["bounds", "--gains", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["gains"]["omega"] == "d"


# one value of the wrong JSON type per scenario field
WRONG_TYPES = {"loss_a_db": "20", "loss_b_db": [20], "p_d": "1e-7", "misalignment": None,
               "phase_mismatch": True, "decoys": 4.0, "weak_decoys": 5, "f": None,
               "n_cut": "40", "seed": 1.5, "multistart": "abc", "symmetric_intensities": "false",
               "alpha_box": [1], "strongest_box": [0.2, "1"], "gains": ["g.json"],
               "fluctuation": "0.2"}


def test_every_scenario_field_has_a_wrong_type_case():
    assert set(WRONG_TYPES) == set(_FIELDS) == set(_PLAUSIBLE)


@pytest.mark.parametrize("field,value", sorted(WRONG_TYPES.items()))
def test_wrong_config_type_is_config_error(field, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "decoys": 3, field: value}))
    code, out, err = run_cli(["bounds", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "ConfigError" and field in record["message"]


def test_nan_loss_is_config_error(capsys):
    code, out, err = run_cli(["plob", "--loss-a-db", "nan"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ConfigError"


SCENARIO = {"--config", "--out", "--loss-a-db", "--loss-b-db", "--decoys", "--f", "--seed",
            "--symmetric-intensities"}
FLAGS = {
    "rate": SCENARIO | {"--gains", "--alpha-a", "--alpha-b", "--strongest-mu",
                        "--strongest-nu", "--dump-bounds"},
    "sweep": SCENARIO | {"--format", "--grid-a", "--grid-b", "--workers"},
    "optimize": SCENARIO,
    "fluctuation": SCENARIO | {"--fluctuation", "--budget"},
    "bounds": {"--config", "--out", "--loss-a-db", "--loss-b-db", "--decoys",
               "--symmetric-intensities", "--gains", "--strongest-mu", "--strongest-nu",
               "--exact"},
    "verify": {"--config", "--out", "--seed", "--configs"},
    "plob": {"--config", "--out", "--loss-a-db", "--loss-b-db"},
}


def test_each_subcommand_registers_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == FLAGS
    assert sum(map(len, got.values())) == 62


@pytest.mark.parametrize("argv", [
    ["bounds", "--f", "0.9"], ["bounds", "--seed", "1"],
    ["verify", "--loss-a-db", "20"], ["verify", "--loss-b-db", "20"],
    ["verify", "--decoys", "3"], ["verify", "--f", "0.9"],
    ["verify", "--symmetric-intensities"],
    ["plob", "--decoys", "3"], ["plob", "--f", "0.9"], ["plob", "--seed", "1"],
    ["plob", "--symmetric-intensities"]])
def test_flag_not_read_by_the_subcommand_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_verify_writes_its_out_file(tmp_path, capsys):
    path = tmp_path / "verify.txt"
    code, out, _ = run_cli(["verify", "--configs", "1", "--seed", "1", "--out", str(path)],
                           capsys)
    assert code == 0
    assert out == ""
    assert path.read_text().endswith("verify: 0 failures\n")


def test_verify_reads_the_noise_profile(tmp_path, capsys):
    # the 4-decoy configuration of the two shows the profile in its printed digits
    path = tmp_path / "noise.json"
    path.write_text(json.dumps({"misalignment": 0.2, "phase_mismatch": 0.3}))
    argv = ["verify", "--configs", "2", "--seed", "1"]
    code, default, _ = run_cli(argv, capsys)
    assert code == 0
    code, noisy, _ = run_cli(argv + ["--config", str(path)], capsys)
    assert code == 0
    assert noisy != default
    assert noisy.endswith("verify: 0 failures\n")


def test_unwritable_out_is_an_error_record(tmp_path, capsys):
    code, out, err = run_cli(["plob", "--out", str(tmp_path / "missing" / "plob.json")], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_FRACTIONS = st.floats(0, 1)
# a value of the right type for every field, so that the draws reach the computation
_PLAUSIBLE = {
    "loss_a_db": st.floats(0), "loss_b_db": st.floats(0), "p_d": _FRACTIONS,
    "misalignment": _FRACTIONS, "phase_mismatch": st.floats(-1, 1),
    "decoys": st.sampled_from([3, 4]), "weak_decoys": st.lists(_FRACTIONS, max_size=4),
    "f": st.floats(0, 2), "n_cut": st.integers(0, 100), "seed": st.integers(0, 2 ** 32),
    "multistart": st.integers(1, 32), "symmetric_intensities": st.booleans(),
    "alpha_box": st.lists(st.floats(0, 2), min_size=2, max_size=2),
    "strongest_box": st.lists(st.floats(0, 2), min_size=2, max_size=2),
    "gains": st.none(), "fluctuation": _FRACTIONS,
}
# right-typed values for some fields, any JSON values for up to two
_CONFIGS = st.builds(lambda typed, any_json: {**typed, **any_json},
                     st.fixed_dictionaries({}, optional=_PLAUSIBLE),
                     st.dictionaries(st.sampled_from(sorted(_FIELDS)), _JSON, max_size=2))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_CONFIGS, subcommand=st.sampled_from(["bounds", "plob"]))
def test_random_config_values_give_output_or_error_record(cfg, subcommand, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli([subcommand, "--config", str(path)], capsys)
    if code == 0:
        json.loads(out, parse_constant=_no_constants)
    else:
        assert code == 2 and out == ""
        assert set(json.loads(err)) == {"error", "message"}


def _readme_cli_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text[text.index("## CLI\n"):]
    section = section[:section.index("\n## ")]
    return [line.split()[1:] for line in section.splitlines() if line.startswith("tfqkd ")]


def test_readme_cli_lines_parse(capsys):
    commands = _readme_cli_commands()
    assert {argv[0] for argv in commands} == set(FLAGS)
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: tfqkd {' '.join(argv)}\n"
                        f"{capsys.readouterr().err}")
