"""Workload names, sizes and check lists shared by the runner and the child.

Sizes that `dfsbell report-all` fixes are used as it fixes them; the round
counts of the two simulation workloads are the benchmark's own, chosen so
that one iteration takes a few seconds on a 2-core box.
"""

import math

# simulate / simulate-fixed
FRESH_ROUNDS = 8000
FIXED_ROUNDS = 4_000_000

# scan, and the distinguish section of report-all
SCAN_RESOLUTION = 200
SCAN_REFINE_TOL = 1e-3
EXCLUSION_RESOLUTION = 100
EXCLUDED_OMEGAS = (("pi/5", math.pi / 5), ("pi/4", math.pi / 4))
FIND_RESOLUTION = 100

# analytic, and the matching report-all sections
CORRELATION_TUPLES = 100
DECOHERENCE_SAMPLES = 1000
HARDY_STARTS = 64

# Closed forms the outputs are checked against, independent of dfsbell's own
# constants: the four correlation identities on the shared state, and the
# free-angle Hardy optimum ((sqrt 5 - 1)/2)^5 = (5 sqrt 5 - 11)/2.
CLOSED_FORMS = {
    "joint_ff_plus_plus": 0.0,
    "cond_fa_given_gb": 1.0,
    "cond_fb_given_ga": 1.0,
    "joint_gg_plus_plus": 9.0 / 112.0,
}
FREE_MAXIMUM = (5.0 * math.sqrt(5.0) - 11.0) / 2.0

# The reference loop (workloads.reference_block): chunks per block, and the
# median chunk time on the machine the benchmark was defined on (2-vCPU
# Xeon VM at 2.1 GHz).  setup_s is set-up wall time scaled by NOMINAL_REF_S
# over the block timed in the same interpreter right after set-up: seconds
# at that machine's speed, so that minutes-long drift in a shared machine's
# speed does not read as a change of set-up cost.
REFERENCE_CHUNKS = 16
NOMINAL_REF_S = 0.02

# Workloads whose wall_ref is scaled the same way, piece by piece.  On the
# defining machine, whose speed moved by up to 40 % in phases lasting a
# minute or two, scaling cut the spread of ten-seed medians from 0.23 to
# 0.07 on simulate, from 0.20 to 0.15 on analytic and, in a paired run of
# eight seeds, from 0.25 to 0.05 on scan.  simulate-fixed runs about ten
# sub-second iterations per run; scaled, its spread rose from 0.06 to 0.09
# in a paired run of six seeds, so its wall_ref is raw wall time.
SCALED_WALL = ("simulate", "scan", "analytic")

# report-all's simulation section, run only by the traced layer pass
REPORT_SIM_ROUNDS = 50000

# report-all's substream indices of the root seed
SUB_CORRELATIONS, SUB_SIMULATION, SUB_DECOHERENCE = 0, 1, 2
SUB_HARDY_CONSTRAINED, SUB_HARDY_FREE = 3, 4

SIM_CHECKS = (
    "(F,F) outcome (+1,+1) count is 0",
    "(F,G) outcome (-1,+1) count is 0",
    "(G,F) outcome (+1,-1) count is 0",
    "(G,G) outcome (+1,+1) frequency within 5 sigma of 9/112",
)
CORRELATION_CHECKS = tuple(
    f"{k} {what}" for k in CLOSED_FORMS
    for what in ("within 1e-9 of closed form", "rotation drift within 1e-9"))
DECOHERENCE_CHECKS = (
    "protected states min fidelity > 1 - 1e-9",
    "reference states min fidelity < 0.99",
)
DISTINGUISH_CHECKS = (
    "scan finds exactly 6 angles",
    "every angle within 1e-6 of k*pi/6",
) + tuple(f"overlap at {label} > 1e-3" for label, _ in EXCLUDED_OMEGAS)
FIND_CHECKS = ("find_distinguishing_thetas(k*pi/6) tuple is_distinguishing",)
HARDY_CHECKS = (
    "fixed-angle optimum within 1e-6 of 9/112",
    "fixed-angle residual <= 1e-9",
    "free-angle optimum within 1e-6 of FREE_MAXIMUM",
    "free-angle residual <= 1e-9",
)
LHV_CHECKS = (
    "local models infeasible",
    "zero-probability control feasible",
)

SETUP_CHECKS = ("set-up completes",)

# report-all's sections, in its order
SECTIONS = ("correlations", "simulation", "decoherence", "distinguish", "hardy",
            "lhv")

PIECE_CHECKS = {
    "fresh": tuple(f"fresh frames: {c}" for c in SIM_CHECKS),
    "fixed": tuple(f"fixed frames: {c}" for c in SIM_CHECKS),
    "simulation": tuple(f"report-all simulation: {c}" for c in SIM_CHECKS),
    "correlations": CORRELATION_CHECKS,
    "decoherence": DECOHERENCE_CHECKS,
    "distinguish": DISTINGUISH_CHECKS,
    "find": FIND_CHECKS,
    "hardy": HARDY_CHECKS,
    "lhv": LHV_CHECKS,
    "probes": ("dfsbell lhv-check exits 0",),
}

# A workload iteration runs these pieces.  report-all's sections are pieces
# of their own, so a workload made of sections times exactly their calls.
WORKLOAD_PIECES = {
    "simulate": ("fresh",),
    "simulate-fixed": ("fixed",),
    "scan": ("distinguish", "find"),
    "analytic": ("correlations", "decoherence", "hardy", "lhv"),
}
WORKLOADS = tuple(WORKLOAD_PIECES)

# The traced layer pass: report-all's sections in its order, then the probes
# report-all does not make.  A traced iteration runs the workload's pieces
# and then every layer-pass piece the workload did not already run.
LAYER_PASS = SECTIONS + ("fixed", "find", "probes")


def checks_of(pieces):
    return tuple(c for p in pieces for c in PIECE_CHECKS[p])


def layer_pass_rest(workload):
    return tuple(p for p in LAYER_PASS if p not in WORKLOAD_PIECES[workload])


CHECKS = {w: checks_of(p) for w, p in WORKLOAD_PIECES.items()}
