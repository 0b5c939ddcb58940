import json

import pytest
from click.testing import CliRunner

from dfsbell.cli import main


def _run(args, env=None):
    return CliRunner().invoke(main, args, env=env, catch_exceptions=False)


def test_help_lists_commands():
    result = _run(["--help"])
    assert result.exit_code == 0
    for cmd in ("verify-correlations", "simulate", "verify-decoherence",
                "verify-distinguish", "optimize-hardy", "lhv-check",
                "report-all"):
        assert cmd in result.output


def test_unknown_option_is_usage_error():
    result = _run(["verify-correlations", "--bogus"])
    assert result.exit_code == 2


def test_verify_correlations_passes():
    result = _run(["verify-correlations", "--rotations", "3", "--seed", "5"])
    assert result.exit_code == 0
    assert "overall: PASS" in result.output


def test_seed_env_fallback_matches_explicit_seed():
    explicit = _run(["verify-correlations", "--rotations", "3", "--seed", "9"])
    via_env = _run(["verify-correlations", "--rotations", "3"],
                   env={"DFSBELL_SEED": "9"})
    assert explicit.output == via_env.output


def test_invalid_seed_env_is_usage_error():
    result = _run(["verify-correlations", "--rotations", "1"],
                  env={"DFSBELL_SEED": "ten"})
    assert result.exit_code == 2
    assert "DFSBELL_SEED" in result.output


def test_simulate_stdout_json():
    result = _run(["simulate", "--rounds", "200", "--seed", "3"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["n_rounds"] == 200
    assert payload["rotations_policy"] == "identity"


def test_simulate_rotate_flag_and_outfile(tmp_path):
    out = tmp_path / "rec.json"
    result = _run(["simulate", "--rounds", "50", "--seed", "3",
                   "--rotate-each-round", "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["rotations_policy"] == "fresh"


def test_simulate_unwritable_outfile_is_io_error():
    result = _run(["simulate", "--rounds", "10",
                   "--out", "/nonexistent-dir/rec.json"])
    assert result.exit_code == 3
    assert "cannot write" in result.output


def test_verify_decoherence_passes():
    result = _run(["verify-decoherence", "--samples", "25", "--seed", "1"])
    assert result.exit_code == 0
    assert "overall: PASS" in result.output
    assert "reduced density" in result.output


def test_lhv_check_prints_certificate():
    result = _run(["lhv-check"])
    assert result.exit_code == 0
    assert "forces zero weight" in result.output
    assert "overall: PASS" in result.output


def test_optimize_hardy_fixed_angle():
    result = _run(["optimize-hardy", "--starts", "4", "--seed", "11"])
    assert result.exit_code == 0
    assert "probability" in result.output
    assert "overall: PASS" in result.output


def test_verify_distinguish_small_grid():
    result = _run(["verify-distinguish", "--grid", "100"])
    assert result.exit_code == 0
    assert "overall: PASS" in result.output
    result = _run(["verify-distinguish", "--grid", "10"])
    assert result.exit_code == 2  # below the resolution floor


def test_negative_seed_option_is_usage_error():
    for cmd in (["verify-correlations", "--rotations", "2"],
                ["simulate", "--rounds", "10"],
                ["verify-decoherence", "--samples", "2"],
                ["optimize-hardy", "--starts", "1"],
                ["report-all"]):
        result = _run(cmd + ["--seed", "-3"])
        assert result.exit_code == 2, cmd
        assert "--seed" in result.output


def test_negative_seed_env_is_usage_error():
    result = _run(["verify-correlations", "--rotations", "2"],
                  env={"DFSBELL_SEED": "-3"})
    assert result.exit_code == 2
    assert "DFSBELL_SEED" in result.output


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tolerance_is_usage_error(tol):
    result = _run(["verify-correlations", "--rotations", "2", "--tol", tol])
    assert result.exit_code == 2
    assert "--tol" in result.output


def test_zero_tolerance_is_accepted():
    result = _run(["verify-correlations", "--rotations", "2", "--seed", "5",
                   "--tol", "0"])
    assert result.exit_code in (0, 1)


@pytest.mark.parametrize("refine", ["-1", "0", "nan", "inf"])
def test_bad_refine_width_is_usage_error(refine):
    result = _run(["verify-distinguish", "--grid", "100", "--refine", refine])
    assert result.exit_code == 2
    assert "--refine" in result.output
