"""Operator cross-ratio of subspaces, the operator Schwarzian derivative and
its Hamiltonian/Riccati correspondences, and Moebius flow invariants."""

__version__ = "0.1.0"

from .crossratio import (CrossRatioResult, cocycle_product, comparable,
                         comparability_witness, dv_composition, dv_matrix,
                         dv_mixed, dv_permuted, dv_unequal, operator_angle,
                         pair_equivalent)
from .grassmann import (BlockMobius, Polarization, Subspace, graph_coordinate,
                        mobius_apply_coordinate, mobius_apply_subspace,
                        principal_angles, project_parallel, random_subspace,
                        same_subspace, standard_polarization,
                        subspace_from_basis, subspace_from_graph)
from .schwarzian import (CurveJet, HamiltonianSystem, MatrixPolynomial,
                      PhasePoint, curve_from_riccati, euler_residual,
                      integrate_hamiltonian, integrate_riccati,
                      mobius_curve_jet, riccati_rhs, schwarz,
                      schwarz_equation_residual, schwarz_from_samples,
                      w_from_jet)
from .flows import (AlmostNilpotent, FlowScenario, commuting_flow_residual,
                    flow_subspace, shift_generator, spectrum_along_flow,
                    trace_invariants)

__all__ = [name for name in dir() if not name.startswith("_")]
