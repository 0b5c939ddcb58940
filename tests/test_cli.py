import json
import re
from importlib import resources
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from dfsbell import cli, distinguish, hardy, localmeas
from dfsbell.cli import main
from dfsbell.dfs_states import ETA_INT, V1


def _run(args, env=None):
    return CliRunner().invoke(main, args, env=env, catch_exceptions=False)


def test_help_lists_commands():
    result = _run(["--help"])
    assert result.exit_code == 0
    for cmd in ("verify-correlations", "simulate", "verify-decoherence",
                "verify-distinguish", "optimize-hardy", "lhv-check",
                "report-all"):
        assert cmd in result.output


def _readme_synopsis() -> dict:
    """Each command of README's command-line synopsis, with the options its
    line names."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return {line.split()[1]: sorted(re.findall(r"--[\w-]+", line))
            for line in block.splitlines()}


def test_readme_synopsis_lists_each_commands_options():
    synopsis = _readme_synopsis()
    assert sorted(synopsis) == sorted(main.commands)
    for name, command in main.commands.items():
        options = sorted(flag for param in command.params
                         if isinstance(param, click.Option) for flag in param.opts)
        assert synopsis[name] == options, name


def test_every_config_key_is_set_by_exactly_one_option():
    # a report-all config key that no option sets is a constant, not config;
    # _config_option raises KeyError for a key outside _CONFIG
    options = [param for command in main.commands.values()
               for param in command.params if isinstance(param, click.Option)]
    set_by = sorted(p.name for p in options if p.name in cli._CONFIG)
    assert set_by == sorted(cli._CONFIG)
    assert all(p.default == cli._CONFIG[p.name]
               for p in options if p.name in cli._CONFIG)


def test_unknown_option_is_usage_error():
    result = _run(["verify-correlations", "--bogus"])
    assert result.exit_code == 2


def test_verify_correlations_passes():
    result = _run(["verify-correlations", "--rotations", "3", "--seed", "5"])
    assert result.exit_code == 0
    assert "overall: PASS" in result.output


def test_seed_is_zero_without_the_option_whatever_the_environment():
    explicit = _run(["verify-correlations", "--rotations", "3", "--seed", "0"])
    default = _run(["verify-correlations", "--rotations", "3"],
                   env={"DFSBELL_SEED": "9"})
    assert default.output.splitlines()[1] == "seed 0"
    assert default.output == explicit.output


def test_simulate_stdout_json():
    result = _run(["simulate", "--rounds", "200", "--seed", "3"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert list(payload) == ["n_rounds", "rotations_policy", "seed", "counts"]
    assert payload["n_rounds"] == 200
    assert payload["rotations_policy"] == "identity"


def test_simulate_rotate_flag():
    result = _run(["simulate", "--rounds", "50", "--seed", "3",
                   "--rotate-each-round"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["rotations_policy"] == "fresh"


def test_simulate_tallies_the_simulation_section():
    result = _run(["simulate", "--rounds", "2000", "--rotate-each-round",
                   "--seed", "7"])
    assert result.exit_code == 0
    counts = json.loads(result.output)["counts"]["G,G"]
    section = cli._build("simulation", 7, sim_rounds=2000)
    check = next(c for c in section.checks
                 if c.name == "(G,G) outcome (+1,+1) frequency")
    assert counts["+1,+1"] / sum(counts.values()) == check.value


def test_verify_decoherence_passes():
    result = _run(["verify-decoherence", "--samples", "25", "--seed", "1"])
    assert result.exit_code == 0
    assert "overall: PASS" in result.output
    assert "reduced density" in result.output


def test_unexpected_exception_is_internal_error(monkeypatch):
    def broken(scenario):
        raise RuntimeError("boom")
    monkeypatch.setattr(hardy, "lhv_feasibility", broken)
    result = CliRunner().invoke(main, ["lhv-check"])
    assert result.exit_code == 4
    assert "Traceback" not in result.output
    assert result.stderr == "internal error: RuntimeError: boom\n"


def test_lhv_check_prints_certificate():
    result = _run(["lhv-check"])
    assert result.exit_code == 0
    assert "weight -1 on P(G_A=+1 and G_B=+1) = 9/112\n" in result.output
    assert "the required probabilities score -9/112\n" in result.output
    assert "overall: PASS" in result.output


def test_optimize_hardy_fixed_angle():
    result = _run(["optimize-hardy"])
    assert result.exit_code == 0
    assert "[PASS] fixed-angle optimum  value=0.0803571428571" in result.output
    assert "[PASS] free-angle optimum  value=0.0901699437" in result.output
    assert "overall: PASS" in result.output


@pytest.mark.parametrize("option", [["--starts", "4"], ["--seed", "1"]])
def test_optimize_hardy_takes_no_options(option):
    assert _run(["optimize-hardy"] + option).exit_code == 2


def test_hardy_grid_check_fails_below_the_grid_best(monkeypatch):
    pi_over_3 = hardy.optimize_constrained()
    monkeypatch.setattr(hardy, "optimize_unconstrained_measurements",
                        lambda: pi_over_3)
    result = _run(["optimize-hardy"])
    assert result.exit_code == 1
    assert "[FAIL] no grid angle pair beats the free-angle optimum" in result.output
    assert "best at alpha_a = 37*pi/128, alpha_b = 37*pi/128" in result.output


@pytest.mark.parametrize("args", [["optimize-hardy"], ["lhv-check"],
                                  ["verify-distinguish", "--grid", "100"]])
def test_section_that_draws_nothing_prints_no_seed(args):
    lines = _run(args).output.splitlines()
    assert not any(line.startswith("seed") for line in lines)


def test_section_that_draws_prints_its_seed():
    result = _run(["verify-correlations", "--rotations", "3", "--seed", "7"])
    assert result.output.splitlines()[1] == "seed 7"


def test_verify_distinguish_small_grid():
    result = _run(["verify-distinguish", "--grid", "100"])
    assert result.exit_code == 0
    assert "overall: PASS" in result.output
    result = _run(["verify-distinguish", "--grid", "10"])
    assert result.exit_code == 2  # below the resolution floor


def test_scan_count_other_than_six_names_the_angles(monkeypatch):
    angles = [0.0, 0.5235987755982988, 1.0471975511965979, 1.5707963267948966,
              2.0943951023931953]
    monkeypatch.setattr(distinguish, "scan_distinguishable_omegas",
                        lambda resolution: angles)
    result = _run(["verify-distinguish", "--grid", "100"])
    assert result.exit_code == 1
    assert "[FAIL] distinguishable pair angles found  value=5.0" in result.output
    assert f"angles found: {angles}" in result.output


@pytest.mark.parametrize("grid", ["96", "101", "102", "1604",
                                  "9223372036854775808"])
def test_grid_outside_the_rule_is_usage_error(monkeypatch, grid):
    # refused by distinguish.check_resolution before any grid is built
    def no_work(*args, **kwargs):
        raise AssertionError("verify-distinguish started its work")
    monkeypatch.setattr(cli, "_build", no_work)
    result = _run(["verify-distinguish", "--grid", grid])
    assert result.exit_code == 2
    assert "--grid" in result.output


def test_grid_of_1600_passes_the_rule(monkeypatch):
    from dfsbell.report import Check, Section
    built = {}

    def stub(name, seed, **config):
        built.update(config)
        return Section(name, (Check(name="c", passed=True, source="closed form"),))
    monkeypatch.setattr(cli, "_build", stub)
    assert _run(["verify-distinguish", "--grid", "1600"]).exit_code == 0
    assert built == {"scan_resolution": 1600}


@pytest.mark.parametrize("command, option", [("verify-correlations", "--rotations"),
                                             ("simulate", "--rounds"),
                                             ("verify-decoherence", "--samples")])
def test_count_of_two_to_the_63_is_usage_error(monkeypatch, command, option):
    # numpy sizes its arrays by int64: the count is refused before any work
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started its work")
    monkeypatch.setattr(cli, "_build", no_work)
    monkeypatch.setattr(localmeas, "run_experiment", no_work)
    result = _run([command, option, str(2 ** 63)])
    assert result.exit_code == 2
    assert option in result.output


def test_simulate_runs_the_largest_round_count():
    # 2**63 - 1 is the largest count --rounds accepts; fixed frames draw five
    # multinomials whatever the count, so it runs at once
    rounds = 2 ** 63 - 1
    result = _run(["simulate", "--rounds", str(rounds), "--seed", "1"])
    assert result.exit_code == 0
    counts = json.loads(result.output)["counts"]
    assert sum(sum(cells.values()) for cells in counts.values()) == rounds
    assert counts["F,F"]["+1,+1"] == counts["F,G"]["-1,+1"] == counts["G,F"]["+1,-1"] == 0


def test_negative_seed_option_is_usage_error():
    for cmd in (["verify-correlations", "--rotations", "2"],
                ["simulate", "--rounds", "10"],
                ["verify-decoherence", "--samples", "2"],
                ["report-all"]):
        result = _run(cmd + ["--seed", "-3"])
        assert result.exit_code == 2, cmd
        assert "--seed" in result.output


def test_report_all_timing_names_every_section(monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")
    from dfsbell.report import Check, Section
    monkeypatch.setattr(cli, "_build", lambda name, seed: Section(
        name, (Check(name="c", passed=True, source="closed form"),)))
    report = json.loads(_run(["report-all", "--timing"]).output)
    schema = json.loads(
        resources.files("dfsbell").joinpath("report_schema.json").read_text())
    jsonschema.validate(report, schema)
    timings = report["metadata"]["timings"]
    assert list(timings) == list(cli.SECTIONS)
    assert all(t >= 0 for t in timings.values())
    # without --timing the metadata stays empty, so the report is byte-stable
    assert json.loads(_run(["report-all"]).output)["metadata"] == {}


def test_product_word_check_fails_on_a_phi1_phi1_term(monkeypatch):
    # non-vacuity of the exact check: with a phi1 (x) phi1 term in the state
    # the product-word tables give (F,F) (+1,+1) a nonzero cell
    name = "Hardy pattern on the product words"

    def check():
        section = cli._build("simulation", 7, sim_rounds=200)
        return next(c for c in section.checks if c.name == name)

    assert check().passed
    m = (ETA_INT + np.outer(V1, V1).ravel()).reshape(16, 16)
    bras = localmeas._INT_BRAS
    monkeypatch.setattr(localmeas, "_TABLES", {
        (a, b): ((bras[a] @ m @ bras[b].T) ** 2).ravel() for a, b in localmeas._TABLES})
    assert localmeas.exact_class_cells()[("F", "F")][(1, 1)] > 0
    failed = check()
    assert not failed.passed
    assert "(F,F) outcome (+1,+1) = 0\n" not in failed.detail


# report-all's checks as (section, check name, source), in report order.
# Adding, dropping, renaming or relabelling a check shows here.
MANIFEST = [
    ("correlation identities", "joint_ff_plus_plus", "closed form"),
    ("correlation identities", "joint_ff_plus_plus rotation drift", "sampled estimate"),
    ("correlation identities", "cond_fa_given_gb", "closed form"),
    ("correlation identities", "cond_fa_given_gb rotation drift", "sampled estimate"),
    ("correlation identities", "cond_fb_given_ga", "closed form"),
    ("correlation identities", "cond_fb_given_ga rotation drift", "sampled estimate"),
    ("correlation identities", "joint_gg_plus_plus", "closed form"),
    ("correlation identities", "joint_gg_plus_plus rotation drift", "sampled estimate"),
    ("correlation identities", "null outcome probability", "sampled estimate"),
    ("finite-sample simulation", "(F,F) outcome (+1,+1) count", "sampled estimate"),
    ("finite-sample simulation", "(F,G) outcome (-1,+1) count", "sampled estimate"),
    ("finite-sample simulation", "(G,F) outcome (+1,-1) count", "sampled estimate"),
    ("finite-sample simulation", "(G,G) outcome (+1,+1) frequency", "sampled estimate"),
    ("finite-sample simulation", "alignment-free word-pair distribution",
     "sampled estimate"),
    ("finite-sample simulation", "Hardy pattern on the product words",
     "exact rational arithmetic"),
    *(("collective decoherence immunity", f"sector {state} immune under {scope} rotations",
       "sampled estimate")
      for state, scope in (("phi0", "global"), ("phi1", "global"), ("psi0", "global"),
                           ("psi1", "global"), ("reduced density", "global"),
                           ("two-wing eta", "per-wing"))),
    ("collective decoherence immunity",
     "reference basis word 0101 degraded under global rotations", "sampled estimate"),
    ("collective decoherence immunity", "reference GHZ degraded under global rotations",
     "sampled estimate"),
    ("distinguishable-pair scan", "distinguishable pair angles found",
     "frozen numerical solve"),
    ("distinguishable-pair scan", "largest offset from the pi/6 grid",
     "frozen numerical solve"),
    ("distinguishable-pair scan", "no distinguishing basis at pi/5",
     "frozen numerical solve"),
    ("distinguishable-pair scan", "no distinguishing basis at pi/4",
     "frozen numerical solve"),
    ("Hardy optimization", "zero-constraint rank", "closed form"),
    ("Hardy optimization", "fixed-angle optimum", "closed form"),
    ("Hardy optimization", "fixed-angle constraint residual", "closed form"),
    ("Hardy optimization", "shared state attains the fixed-angle optimum", "closed form"),
    ("Hardy optimization", "free-angle optimum", "closed form"),
    ("Hardy optimization", "free-angle constraint residual", "closed form"),
    ("Hardy optimization", "no grid angle pair beats the free-angle optimum",
     "frozen numerical solve"),
    ("local model feasibility", "local deterministic models refuted",
     "exact rational arithmetic"),
    ("local model feasibility", "zero-probability control admits a local model",
     "exact rational arithmetic"),
]

# Small sizes at which every section still gives its full list of checks.
SMALL = {"rotations": 2, "sim_rounds": 200, "decoherence_samples": 4,
         "scan_resolution": 100}


def test_report_all_check_manifest():
    checks = []
    for name, row in cli.SECTIONS.items():
        section = cli._build(name, 0, **{k: SMALL[k] for k in row.config if k in SMALL})
        checks += [(section.name, c.name, c.source) for c in section.checks]
    assert checks == MANIFEST
