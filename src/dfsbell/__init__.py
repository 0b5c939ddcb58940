"""Simulation and verification toolkit for an alignment-free four-qubit Bell test.

Two wings each hold a four-qubit spin-zero block.  States inside that sector
are invariant under collective single-qubit rotations, so the nonlocal
correlations studied here need no shared reference frame and shrug off
collective decoherence.  The modules cover the state constructions, the
exact correlation identities, product-basis measurement simulation, the
distinguishable-pair scan, Hardy-type logic with an exact local-model
refutation, and the decoherence-immunity evidence.
"""

__version__ = "0.1.0"

from .qcore import (ATOL, MAX_QUBITS, DensityOperator, QuantumState, SizeError,
                    apply_collective, basis_state, check_unitary, haar_su2,
                    haar_su2_batch, partial_trace, permute_qubits)
from .dfs_states import (Observable, dfs_observable, make_eta, make_f, make_g,
                         make_phi0, make_phi1, make_psi0, make_psi1)
from .correlations import (EXPECTED_CORRELATIONS, CorrelationSuiteResult,
                           LocalRotation, Setting, UndefinedConditionalError,
                           conditional_probability, joint_distribution,
                           joint_probability, verify_correlation_suite,
                           wing_marginal)
from .localmeas import (PROTOCOLS, ExperimentRecord, classify_outcome,
                        run_experiment, wing_outcome_distribution)
from .distinguish import (DistinguishInstance, component_table,
                          find_distinguishing_thetas, grid_min_support_overlap,
                          is_distinguishing, omega_from_thetas,
                          scan_distinguishable_omegas, support_overlap)
from .hardy import (FREE_MAXIMUM, FREE_OPTIMAL_SIN_SQ, Feasible, HardyInstance,
                    Infeasible, LhvConstraint, LhvScenario, OptimizationResult,
                    eta_instance, feasible_state, fixed_angle_maximum,
                    hardy_probability, lhv_feasibility, optimize_constrained,
                    optimize_unconstrained_measurements, standard_scenario,
                    to_full_state, zero_constraint_rank)
from .decohere import (CollectiveChannel, ImmunityReport, StateImmunity,
                       fidelity_samples, immunity_report, state_fidelity)
