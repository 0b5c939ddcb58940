"""Command line front end for the verification suites.

Exit codes: 0 all requested checks passed, 1 a verification check failed,
2 usage error (including a negative --seed or DFSBELL_SEED, a negative or
non-finite --tol, and a --refine that is not a positive finite number),
3 an output file could not be written.

The root seed comes from --seed, falling back to the DFSBELL_SEED environment
variable, then 0.  Each suite inside report-all consumes a named substream of
the root seed, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import __version__, correlations, decohere, distinguish, hardy, localmeas
from .report import (Check, Report, Section, approx_check, bound_check,
                     render_text, to_json)

IDENTITY_TOL = 1e-9
EXCLUDED_OMEGAS = ((math.pi / 5, "pi/5"), (math.pi / 4, "pi/4"))


def _resolve_seed(seed):
    if seed is not None:
        return seed
    raw = os.environ.get("DFSBELL_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        raise click.UsageError(f"DFSBELL_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise click.UsageError(f"DFSBELL_SEED must be non-negative, got {raw!r}")
    return seed


def _finite(ctx, param, value):
    # FloatRange compares with < and >, which every NaN passes
    if not math.isfinite(value):
        raise click.BadParameter(f"{value!r} is not a finite number")
    return value


def _subseed(root: int, index: int) -> int:
    return int(np.random.SeedSequence((root, index)).generate_state(1, dtype=np.uint64)[0])


def _emit(section: Section, seed: int) -> None:
    mini = Report(title=f"dfsbell: {section.name}", seed=seed, config={},
                  sections=(section,))
    click.echo(render_text(mini), nl=False)
    sys.exit(0 if section.passed else 1)


# ---------------------------------------------------------------------------
# Section builders, shared between the single commands and report-all
# ---------------------------------------------------------------------------

def _correlations_section(n_rotations: int, seed, tol: float) -> Section:
    suite = correlations.verify_correlation_suite(
        n_rotation_samples=n_rotations, seed=seed)
    checks = []
    for key, expected in correlations.EXPECTED_CORRELATIONS.items():
        checks.append(approx_check(
            key, suite.identity_values[key], expected, tol,
            description="joint or conditional probability on the shared state",
            source="closed form"))
        checks.append(bound_check(
            f"{key} rotation drift", suite.max_deviation[key], tol,
            description=f"worst deviation over {suite.n_samples} "
                        "random collective rotation tuples",
            source="sampled estimate"))
    checks.append(bound_check(
        "null outcome probability", suite.max_null_probability, tol,
        description="spin-zero states never leave the labelled eigenspaces",
        source="closed form"))
    return Section("correlation identities", tuple(checks))


def _simulation_section(rounds: int, seed) -> Section:
    rec = localmeas.run_experiment(rounds, settings_policy="random",
                                   rotations_policy="fresh", seed=seed)
    p_gg = 9.0 / 112.0
    zero_events = (
        ("F", "F", +1, +1),
        ("F", "G", -1, +1),
        ("G", "F", +1, -1),
    )
    checks = []
    for sa, sb, oa, ob in zero_events:
        count = rec.counts[(sa, sb)][(oa, ob)]
        checks.append(Check(
            name=f"({sa},{sb}) outcome ({oa:+d},{ob:+d}) count",
            passed=count == 0,
            description="forbidden outcome pair must never occur, even with "
                        "fresh random frames each round",
            source="sampled estimate", value=count, expected=0, tolerance=0.0))
    n_gg = rec.setting_total(("G", "G"))
    sigma = math.sqrt(p_gg * (1.0 - p_gg) / max(n_gg, 1))
    checks.append(approx_check(
        "(G,G) outcome (+1,+1) frequency",
        rec.frequency(("G", "G"), (+1, +1)), p_gg, 5.0 * sigma,
        description=f"empirical frequency over {n_gg} rounds against the "
                    "closed-form probability, five-sigma window",
        source="sampled estimate"))
    return Section("finite-sample simulation", tuple(checks))


def _decoherence_section(samples: int, seed) -> Section:
    rep = decohere.immunity_report(n_samples=samples, seed=seed)
    checks = []
    for e in rep.entries:
        if e.name.startswith("sector"):
            checks.append(Check(
                name=f"{e.name} immune under {e.scope} rotations",
                passed=e.immune,
                description=f"smallest fidelity over {e.n_samples} random draws",
                source="sampled estimate", value=e.min_fidelity,
                expected=1.0, tolerance=decohere.IMMUNITY_ATOL))
        else:
            checks.append(Check(
                name=f"{e.name} degraded under {e.scope} rotations",
                passed=e.min_fidelity < 0.99,
                description="states outside the protected sector must lose "
                            "fidelity, calibrating the immunity claim",
                source="sampled estimate", value=e.min_fidelity))
    return Section("collective decoherence immunity", tuple(checks))


def _distinguish_section(resolution: int, refine_tol: float,
                         exclusion_resolution: int = 100) -> Section:
    found = distinguish.scan_distinguishable_omegas(
        resolution=resolution, refine_tol=refine_tol)
    checks = [approx_check(
        "distinguishable pair angles found", len(found), 6, 0,
        description="scan over product bases with one angle fixed by symmetry",
        source="frozen numerical solve")]
    if len(found) == 6:
        worst = max(abs(w - k * math.pi / 6)
                    for k, w in enumerate(sorted(found)))
        checks.append(bound_check(
            "largest offset from the pi/6 grid", worst, 1e-6,
            description="every found angle is a multiple of pi/6",
            source="frozen numerical solve"))
    for omega, label in EXCLUDED_OMEGAS:
        resid = distinguish.grid_min_support_overlap(
            omega, resolution=exclusion_resolution)
        checks.append(Check(
            name=f"no distinguishing basis at {label}",
            passed=resid > 1e-3,
            description="smallest support overlap over the angle grid stays "
                        "far above the disjointness tolerance",
            source="frozen numerical solve", value=resid))
    return Section("distinguishable-pair scan", tuple(checks))


def _hardy_constrained_checks(res: hardy.OptimizationResult) -> tuple:
    return (
        approx_check(
            "fixed-angle optimum", res.probability, 9.0 / 112.0, 1e-6,
            description=f"best of {res.n_feasible} feasible solves out of "
                        f"{res.n_starts} starts, both angles at pi/3",
            source="frozen numerical solve"),
        bound_check(
            "fixed-angle constraint residual", res.max_residual, 1e-9,
            description="the three zero constraints hold at the optimum",
            source="frozen numerical solve"),
        approx_check(
            "shared state attains the fixed-angle optimum",
            hardy.hardy_probability(hardy.eta_instance())[0], 9.0 / 112.0, 1e-12,
            description="the two-wing state is the maximizer at pi/3",
            source="closed form"),
    )


def _hardy_free_checks(res: hardy.OptimizationResult) -> tuple:
    return (
        approx_check(
            "free-angle optimum", res.probability, hardy.FREE_MAXIMUM, 1e-6,
            description=f"best of {res.n_feasible} feasible solves out of "
                        f"{res.n_starts} starts, angles free on both wings",
            source="closed form"),
        bound_check(
            "free-angle constraint residual", res.max_residual, 1e-9,
            description="the three zero constraints hold at the optimum",
            source="frozen numerical solve"),
        approx_check(
            "free-angle sin^2(alpha_a)",
            math.sin(res.instance.alpha_a) ** 2, hardy.FREE_OPTIMAL_SIN_SQ, 1e-3,
            description="the optimal angle sits at the golden-ratio point",
            source="closed form"),
        approx_check(
            "free-angle sin^2(alpha_b)",
            math.sin(res.instance.alpha_b) ** 2, hardy.FREE_OPTIMAL_SIN_SQ, 1e-3,
            description="the optimal angle sits at the golden-ratio point",
            source="closed form"),
    )


def _hardy_section(n_starts: int, seed: int) -> Section:
    try:
        res_c = hardy.optimize_constrained(n_starts=n_starts,
                                           seed=_subseed(seed, 3))
        res_f = hardy.optimize_unconstrained_measurements(
            n_starts=n_starts, seed=_subseed(seed, 4))
    except hardy.OptimizationError as exc:
        return Section("Hardy optimization", (Check(
            name="optimization feasibility", passed=False,
            description="no start satisfied the zero constraints",
            source="frozen numerical solve", detail=str(exc)),))
    checks = _hardy_constrained_checks(res_c) + _hardy_free_checks(res_f)
    return Section("Hardy optimization", checks)


def _lhv_section() -> Section:
    verdict = hardy.lhv_feasibility(hardy.standard_scenario())
    refuted = isinstance(verdict, hardy.Infeasible)
    checks = [Check(
        name="local deterministic models refuted",
        passed=refuted,
        description="exact linear program over the 16 deterministic "
                    "strategies, three zeros plus the positive joint event",
        source="exact rational arithmetic",
        detail=verdict.certificate if refuted else None)]
    control = hardy.lhv_feasibility(
        hardy.standard_scenario(p_joint=Fraction(0)))
    checks.append(Check(
        name="zero-probability control admits a local model",
        passed=isinstance(control, hardy.Feasible),
        description="dropping the positive event restores feasibility, so "
                    "the refutation is not vacuous",
        source="exact rational arithmetic"))
    return Section("local model feasibility", tuple(checks))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_seed_option = click.option("--seed", default=None, type=click.IntRange(min=0),
                            help="Root RNG seed.")


@click.group()
@click.version_option(__version__, prog_name="dfsbell")
def main():
    """Verification toolkit for the alignment-free four-qubit Bell test."""


@main.command("verify-correlations")
@click.option("--rotations", "n_rotations", default=100, show_default=True,
              type=click.IntRange(min=1), help="Random rotation tuples to sample.")
@_seed_option
@click.option("--tol", default=IDENTITY_TOL, show_default=True,
              type=click.FloatRange(min=0.0), callback=_finite,
              help="Allowed deviation from the closed-form values.")
def verify_correlations_cmd(n_rotations, seed, tol):
    """Check the four correlation identities, with and without rotations."""
    seed = _resolve_seed(seed)
    _emit(_correlations_section(n_rotations, seed, tol), seed)


@main.command("simulate")
@click.option("--rounds", default=100000, show_default=True,
              type=click.IntRange(min=1), help="Number of experiment rounds.")
@_seed_option
@click.option("--rotate-each-round", is_flag=True,
              help="Give each wing a fresh random reference frame every round.")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="Write the tally record as JSON to this file.")
def simulate_cmd(rounds, seed, rotate_each_round, out):
    """Simulate two-wing measurement rounds and emit the tally record."""
    seed = _resolve_seed(seed)
    policy = "fresh" if rotate_each_round else "identity"
    rec = localmeas.run_experiment(rounds, settings_policy="random",
                                   rotations_policy=policy, seed=seed)
    payload = json.dumps(rec.to_dict(), indent=2) + "\n"
    if out is None:
        click.echo(payload, nl=False)
        return
    try:
        Path(out).write_text(payload)
    except OSError as exc:
        click.echo(f"cannot write {out}: {exc}", err=True)
        sys.exit(3)
    click.echo(f"wrote {out}")


@main.command("verify-decoherence")
@click.option("--samples", default=1000, show_default=True,
              type=click.IntRange(min=1), help="Random rotations per state.")
@_seed_option
def verify_decoherence_cmd(samples, seed):
    """Check immunity of the protected states against collective rotations."""
    seed = _resolve_seed(seed)
    _emit(_decoherence_section(samples, seed), seed)


@main.command("verify-distinguish")
@click.option("--grid", "resolution", default=200, show_default=True,
              type=click.IntRange(min=100), help="Grid points per angle.")
@click.option("--refine", "refine_tol", default=1e-3, show_default=True,
              type=click.FloatRange(min=0.0, min_open=True), callback=_finite,
              help="Cluster width for merging found angles.")
def verify_distinguish_cmd(resolution, refine_tol):
    """Scan for pair angles admitting a distinguishing product basis."""
    section = _distinguish_section(resolution, refine_tol)
    _emit(section, 0)


@main.command("optimize-hardy")
@click.option("--free-angles", is_flag=True,
              help="Optimize the measurement angles along with the state.")
@click.option("--starts", "n_starts", default=64, show_default=True,
              type=click.IntRange(min=1), help="Multistart count.")
@_seed_option
def optimize_hardy_cmd(free_angles, n_starts, seed):
    """Maximize the positive-event probability under the Hardy constraints."""
    seed = _resolve_seed(seed)
    try:
        if free_angles:
            res = hardy.optimize_unconstrained_measurements(
                n_starts=n_starts, seed=seed)
            checks = _hardy_free_checks(res)
        else:
            res = hardy.optimize_constrained(n_starts=n_starts, seed=seed)
            checks = _hardy_constrained_checks(res)
    except hardy.OptimizationError as exc:
        click.echo(f"optimization failed: {exc}", err=True)
        if exc.best is not None:
            click.echo(f"best infeasible attempt: p={exc.best.probability!r} "
                       f"residual={exc.best.max_residual!r}", err=True)
        sys.exit(1)
    click.echo(f"probability {res.probability!r}")
    click.echo(f"angles alpha_a={res.instance.alpha_a!r} "
               f"alpha_b={res.instance.alpha_b!r}")
    _emit(Section("Hardy optimization", checks), seed)


@main.command("lhv-check")
def lhv_check_cmd():
    """Decide local-model feasibility of the Hardy scenario exactly."""
    _emit(_lhv_section(), 0)


@main.command("report-all")
@click.option("--format", "fmt", default="json", show_default=True,
              type=click.Choice(["json", "text"]), help="Output format.")
@_seed_option
@click.option("--timing", is_flag=True,
              help="Include wall time in the metadata (breaks byte-for-byte "
                   "reproducibility between runs).")
def report_all_cmd(fmt, seed, timing):
    """Run every verification suite and emit one structured report."""
    seed = _resolve_seed(seed)
    t0 = time.perf_counter()
    config = {
        "rotations": 100,
        "identity_tol": IDENTITY_TOL,
        "sim_rounds": 50000,
        "decoherence_samples": 1000,
        "scan_resolution": 200,
        "scan_refine_tol": 1e-3,
        "exclusion_resolution": 100,
        "hardy_starts": 64,
    }
    sections = (
        _correlations_section(config["rotations"], _subseed(seed, 0),
                              config["identity_tol"]),
        _simulation_section(config["sim_rounds"], _subseed(seed, 1)),
        _decoherence_section(config["decoherence_samples"], _subseed(seed, 2)),
        _distinguish_section(config["scan_resolution"],
                             config["scan_refine_tol"],
                             config["exclusion_resolution"]),
        _hardy_section(config["hardy_starts"], seed),
        _lhv_section(),
    )
    metadata = {}
    if timing:
        metadata["wall_time_s"] = round(time.perf_counter() - t0, 3)
    report = Report(title="dfsbell verification report", seed=seed,
                    config=config, sections=sections, metadata=metadata)
    click.echo(to_json(report) if fmt == "json" else render_text(report),
               nl=False)
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
