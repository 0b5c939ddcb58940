"""Command line front end for the verification suites.

Exit codes: 0 all requested checks passed, 1 a verification check failed,
2 usage error (including a negative --seed, a --grid that
``distinguish.check_resolution`` refuses, and a --rounds, --rotations or
--samples outside 1..2**63 - 1), 4 internal error (an unexpected exception,
reported in one line on stderr).

The root seed is --seed, 0 by default.  ``SECTIONS`` is the one table of
report sections: each row gives a section's builder, its report-all config
keys with their defaults, and the substreams of the root seed it draws from.
report-all builds every row; each section command builds its own row the
same way, with its option defaults taken from the row, so ``verify-X --seed
S`` reproduces report-all's section at seed S byte for byte, worst-sample
details included.  ``simulate`` tallies the simulation row's rounds from its
first substream, so ``simulate --seed S --rotate-each-round`` counts the
rounds report-all's simulation section counted.
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import click
import numpy as np

from . import __version__, correlations, decohere, distinguish, hardy, localmeas
from .report import (Check, Report, Section, approx_check, bound_check,
                     render_text, to_json)

# Haar frame pairs of the simulation section's exact alignment-free check.
_FRAME_PAIRS = 100
# Points per angle of the Hardy section's grid over [0, pi/2)^2.
_HARDY_GRID = 64
# Tolerance of the correlation section's identities and drifts.
_IDENTITY_TOL = 1e-9
# Points per angle of the distinguish section's two exclusion grids.
_EXCLUSION_GRID = 100
EXCLUDED_OMEGAS = ((math.pi / 5, "pi/5"), (math.pi / 4, "pi/4"))


def _grid(ctx, param, value):
    try:
        return distinguish.check_resolution(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _subseed(root: int, index: int) -> int:
    return int(np.random.SeedSequence((root, index)).generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# Section builders: the substream seeds of their row, then its config keys
# ---------------------------------------------------------------------------

def _correlations_section(seed, *, rotations: int) -> Section:
    suite = correlations.verify_correlation_suite(
        n_rotation_samples=rotations, seed=seed)
    checks = []
    for key, expected in correlations.EXPECTED_CORRELATIONS.items():
        checks.append(approx_check(
            key, suite.identity_values[key], expected, _IDENTITY_TOL,
            description="joint or conditional probability on the shared state",
            source="closed form"))
        checks.append(bound_check(
            f"{key} rotation drift", suite.max_deviation[key], _IDENTITY_TOL,
            description=f"worst deviation over {rotations} "
                        "random collective rotation tuples",
            source="sampled estimate",
            detail=f"largest at rotation tuple {suite.worst_sample[key]}"))
    setting, sample = suite.worst_null
    where = "unrotated" if sample is None else f"rotation tuple {sample}"
    checks.append(bound_check(
        "null outcome probability", suite.max_null_probability, _IDENTITY_TOL,
        description="spin-zero states never leave the labelled eigenspaces",
        source="sampled estimate", detail=f"largest at {setting}, {where}"))
    return Section("correlation identities", tuple(checks))


def _simulation_section(seed, frame_seed, *, sim_rounds: int) -> Section:
    rec = localmeas.run_experiment(sim_rounds, rotations_policy="fresh", seed=seed)
    drift, worst = localmeas.max_frame_drift(_FRAME_PAIRS, frame_seed)
    checks = []
    for sa, sb, oa, ob in hardy.ZERO_EVENTS:
        count = rec.counts[(sa, sb)][(oa, ob)]
        checks.append(Check(
            name=f"({sa},{sb}) outcome ({oa:+d},{ob:+d}) count",
            passed=count == 0,
            description="forbidden outcome pair must never occur, even with "
                        "fresh random frames each round",
            source="sampled estimate", value=count, expected=0, tolerance=0.0))
    sa, sb, oa, ob = hardy.POSITIVE_EVENT
    p_gg = float(hardy.P_POSITIVE)
    n_gg = rec.setting_total((sa, sb))
    sigma = math.sqrt(p_gg * (1.0 - p_gg) / max(n_gg, 1))
    checks.append(approx_check(
        f"({sa},{sb}) outcome ({oa:+d},{ob:+d}) frequency",
        rec.frequency((sa, sb), (oa, ob)), p_gg, 5.0 * sigma,
        description=f"empirical frequency over {n_gg} rounds against the "
                    "closed-form probability, five-sigma window",
        source="sampled estimate"))
    checks.append(bound_check(
        "alignment-free word-pair distribution", drift, 1e-12,
        description=f"largest change of a word-pair probability over "
                    f"{_FRAME_PAIRS} random frame pairs and all four setting "
                    "pairs, against fixed frames",
        source="sampled estimate", detail=f"largest at frame pair {worst}"))
    # the same pattern, exactly, from the integer word tables fixed frames draw from
    cells = localmeas.exact_class_cells()
    events = hardy.ZERO_EVENTS + (hardy.POSITIVE_EVENT,)
    got = [cells[(sa, sb)][(oa, ob)] for sa, sb, oa, ob in events]
    checks.append(Check(
        name="Hardy pattern on the product words",
        passed=got == [0, 0, 0, hardy.P_POSITIVE],
        description="the forbidden cells are exactly 0 and the positive "
                    "cell exactly 9/112, as Fractions from the integer "
                    "word-pair tables of the individual-qubit measurements",
        source="exact rational arithmetic", value=float(got[-1]),
        expected=float(hardy.P_POSITIVE), tolerance=0.0,
        detail="\n".join(f"({sa},{sb}) outcome ({oa:+d},{ob:+d}) = {p}"
                         for (sa, sb, oa, ob), p in zip(events, got))))
    return Section("finite-sample simulation", tuple(checks))


def _decoherence_section(seed, *, decoherence_samples: int) -> Section:
    rep = decohere.immunity_report(n_samples=decoherence_samples, seed=seed)
    checks = []
    for e in rep.entries:
        if e.name.startswith("sector"):
            checks.append(Check(
                name=f"{e.name} immune under {e.scope} rotations",
                passed=e.min_fidelity > 1.0 - decohere.IMMUNITY_ATOL,
                description=f"smallest fidelity over {decoherence_samples} "
                            "random draws",
                source="sampled estimate", value=e.min_fidelity,
                expected=1.0, tolerance=decohere.IMMUNITY_ATOL,
                detail=f"smallest at draw {e.worst_draw}"))
        else:
            checks.append(Check(
                name=f"{e.name} degraded under {e.scope} rotations",
                passed=e.min_fidelity < 0.99,
                description="states outside the protected sector must lose "
                            "fidelity, calibrating the immunity claim",
                source="sampled estimate", value=e.min_fidelity,
                detail=f"smallest at draw {e.worst_draw}"))
    return Section("collective decoherence immunity", tuple(checks))


def _distinguish_section(*, scan_resolution: int) -> Section:
    found = distinguish.scan_distinguishable_omegas(resolution=scan_resolution)
    checks = [approx_check(
        "distinguishable pair angles found", len(found), 6, 0,
        description="scan over product bases with one angle fixed by symmetry",
        source="frozen numerical solve",
        detail=None if len(found) == 6 else f"angles found: {found}")]
    if len(found) == 6:
        worst = max(abs(w - k * math.pi / 6)
                    for k, w in enumerate(sorted(found)))
        checks.append(bound_check(
            "largest offset from the pi/6 grid", worst, 1e-6,
            description="every found angle is a multiple of pi/6",
            source="frozen numerical solve"))
    for omega, label in EXCLUDED_OMEGAS:
        resid = distinguish.grid_min_support_overlap(
            omega, resolution=_EXCLUSION_GRID)
        checks.append(Check(
            name=f"no distinguishing basis at {label}",
            passed=resid > 1e-3,
            description="smallest support overlap over the angle grid of "
                        f"{_EXCLUSION_GRID} points per angle stays far above "
                        "the disjointness tolerance",
            source="frozen numerical solve", value=resid))
    return Section("distinguishable-pair scan", tuple(checks))


def _hardy_section() -> Section:
    res_c = hardy.optimize_constrained()
    res_f = hardy.optimize_unconstrained_measurements()
    rank = min(hardy.zero_constraint_rank(r.instance.alpha_a, r.instance.alpha_b)
               for r in (res_c, res_f))
    # maximality by a numerical route, next to the exact certificate in the tests
    probs = hardy.grid_probabilities(_HARDY_GRID)
    # the largest (ka, kb) among equal values, as a max over (p, ka, kb) would
    ka, kb = divmod(int(np.flatnonzero(probs == probs.max())[-1]), _HARDY_GRID)
    best = float(probs[ka, kb])
    checks = (
        approx_check(
            "zero-constraint rank", rank, 3, 0,
            description="the three zero rows have rank 3 at both optima, so "
                        "each optimum is the unique feasible state up to phase",
            source="closed form"),
        approx_check(
            "fixed-angle optimum", res_c.probability, float(hardy.P_POSITIVE), 1e-6,
            description="the feasible state, unique up to phase, with both "
                        "angles at pi/3",
            source="closed form"),
        bound_check(
            "fixed-angle constraint residual", res_c.max_residual, 1e-9,
            description="the three zero constraints hold at the optimum",
            source="closed form"),
        approx_check(
            "shared state attains the fixed-angle optimum",
            hardy.hardy_probability(hardy.eta_instance())[0],
            float(hardy.P_POSITIVE), 1e-12,
            description="the two-wing state is the maximizer at pi/3",
            source="closed form"),
        approx_check(
            "free-angle optimum", res_f.probability, hardy.FREE_MAXIMUM, 1e-6,
            description="the feasible state with sin^2(alpha) = (sqrt 5 - 1)/2 "
                        "on both wings, the only interior stationary point",
            source="closed form"),
        bound_check(
            "free-angle constraint residual", res_f.max_residual, 1e-9,
            description="the three zero constraints hold at the optimum",
            source="closed form"),
        bound_check(
            "no grid angle pair beats the free-angle optimum",
            best - res_f.probability, 0.0,
            description=f"best feasible probability over a {_HARDY_GRID}x"
                        f"{_HARDY_GRID} grid of angle pairs on [0, pi/2)^2, "
                        "minus the free-angle optimum",
            source="frozen numerical solve",
            detail=f"best at alpha_a = {ka}*pi/{2 * _HARDY_GRID}, "
                   f"alpha_b = {kb}*pi/{2 * _HARDY_GRID}"),
    )
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


class _Row(NamedTuple):
    build: Callable[..., Section]
    config: dict
    streams: tuple = ()


# report-all's sections in report order.  Substreams 3 and 4 are free: both
# Hardy optima are closed form and draw nothing.
SECTIONS = {
    "correlations": _Row(_correlations_section, {"rotations": 100}, (0,)),
    "simulation": _Row(_simulation_section, {"sim_rounds": 50000}, (1, 5)),
    "decoherence": _Row(_decoherence_section, {"decoherence_samples": 1000}, (2,)),
    "distinguish": _Row(_distinguish_section, {"scan_resolution": 200}),
    "hardy": _Row(_hardy_section, {}),
    "lhv": _Row(_lhv_section, {}),
}
_CONFIG = {key: value for row in SECTIONS.values() for key, value in row.config.items()}


def _build(name: str, seed: int, **config) -> Section:
    row = SECTIONS[name]
    seeds = (_subseed(seed, index) for index in row.streams)
    return row.build(*seeds, **{**row.config, **config})


def _emit(name: str, seed: int = 0, **config) -> None:
    section = _build(name, seed, **config)
    # a section that draws nothing reports no seed
    mini = Report(title=f"dfsbell: {section.name}",
                  seed=seed if SECTIONS[name].streams else None, config={},
                  sections=(section,))
    click.echo(render_text(mini), nl=False)
    sys.exit(0 if section.passed else 1)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

# Round, rotation and sample counts; numpy sizes its arrays by int64.
_COUNT = click.IntRange(min=1, max=2 ** 63 - 1)

_seed_option = click.option("--seed", default=0, show_default=True,
                            type=click.IntRange(min=0), help="Root RNG seed.")


def _config_option(flag: str, key: str, **kwargs):
    """An option setting report-all config ``key``, with report-all's default."""
    return click.option(flag, key, default=_CONFIG[key], show_default=True, **kwargs)


class _Group(click.Group):
    """Maps an unexpected exception to exit code 4 with a one-line message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            ctx.exit(4)


@click.group(cls=_Group)
@click.version_option(__version__, prog_name="dfsbell")
def main():
    """Verification toolkit for the alignment-free four-qubit Bell test."""


@main.command("verify-correlations")
@_config_option("--rotations", "rotations", type=_COUNT,
                help="Random rotation tuples to sample.")
@_seed_option
def verify_correlations_cmd(**options):
    """Check the four correlation identities, with and without rotations."""
    _emit("correlations", **options)


@main.command("simulate")
@_config_option("--rounds", "sim_rounds", type=_COUNT,
                help="Number of experiment rounds.")
@_seed_option
@click.option("--rotate-each-round", is_flag=True,
              help="Give each wing a fresh random reference frame every round.")
def simulate_cmd(sim_rounds, seed, rotate_each_round):
    """Simulate two-wing measurement rounds and emit the tally record."""
    policy = "fresh" if rotate_each_round else "identity"
    stream = SECTIONS["simulation"].streams[0]
    rec = localmeas.run_experiment(sim_rounds, rotations_policy=policy,
                                   seed=_subseed(seed, stream))
    click.echo(json.dumps(rec.to_dict(), indent=2))


@main.command("verify-decoherence")
@_config_option("--samples", "decoherence_samples", type=_COUNT,
                help="Random rotations per state.")
@_seed_option
def verify_decoherence_cmd(**options):
    """Check immunity of the protected states against collective rotations."""
    _emit("decoherence", **options)


@main.command("verify-distinguish")
@_config_option("--grid", "scan_resolution", type=int, callback=_grid,
                help="Grid points per angle, a multiple of 4 from 100 to 1600.")
def verify_distinguish_cmd(**options):
    """Scan for pair angles admitting a distinguishing product basis."""
    _emit("distinguish", **options)


@main.command("optimize-hardy")
def optimize_hardy_cmd():
    """Maximize the Hardy probability, angles fixed at pi/3 and free."""
    _emit("hardy")


@main.command("lhv-check")
def lhv_check_cmd():
    """Decide local-model feasibility of the Hardy scenario exactly."""
    _emit("lhv")


@main.command("report-all")
@click.option("--format", "fmt", default="json", show_default=True,
              type=click.Choice(["json", "text"]), help="Output format.")
@_seed_option
@click.option("--timing", is_flag=True,
              help="Include wall time, in total and per section, in the "
                   "metadata (breaks byte-for-byte reproducibility between "
                   "runs).")
def report_all_cmd(fmt, seed, timing):
    """Run every verification suite and emit one structured report."""
    t0 = time.perf_counter()
    sections, timings = [], {}
    for name in SECTIONS:
        start = time.perf_counter()
        sections.append(_build(name, seed))
        timings[name] = round(time.perf_counter() - start, 3)
    metadata = {}
    if timing:
        metadata["wall_time_s"] = round(time.perf_counter() - t0, 3)
        metadata["timings"] = timings
    report = Report(title="dfsbell verification report", seed=seed,
                    config=_CONFIG, sections=tuple(sections), metadata=metadata)
    click.echo(to_json(report) if fmt == "json" else render_text(report),
               nl=False)
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
