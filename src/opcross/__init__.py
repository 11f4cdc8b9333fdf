"""Operator cross-ratio of subspaces, the operator Schwarzian derivative and
its Hamiltonian/Riccati correspondences, and Moebius flow invariants.

``import opcross`` loads no submodule and no numpy: a name of ``__all__`` imports
the submodule that defines it on first use (PEP 562) and binds all that
submodule's names here, so later lookups are plain attribute reads."""

__version__ = "0.3.0"

_NAMES = {
    "crossratio": ("CrossRatioResult", "cocycle_product", "comparable", "comparability_witness",
                   "dv_composition", "dv_matrix", "dv_mixed", "dv_permuted", "dv_unequal",
                   "operator_angle", "pair_equivalent"),
    "grassmann": ("BlockMobius", "Polarization", "Subspace", "graph_coordinate",
                  "mobius_apply_coordinate", "mobius_apply_subspace", "principal_angles",
                  "project_parallel", "random_subspace", "standard_polarization",
                  "subspace_from_basis", "subspace_from_graph"),
    "schwarzian": ("CurveJet", "HamiltonianSystem", "MatrixPolynomial", "PhasePoint",
                   "curve_from_riccati", "euler_residual", "integrate_hamiltonian",
                   "integrate_riccati", "mobius_curve_jet", "riccati_rhs", "schwarz",
                   "schwarz_equation_residual", "schwarz_from_samples", "w_from_jet"),
    "flows": ("AlmostNilpotent", "FlowScenario", "commuting_flow_residual", "flow_subspace",
              "shift_generator", "spectrum_along_flow", "trace_invariants"),
    "numerics": (), "errors": (),
}
# Each public name, submodules included, with the submodule that defines it.
_HOME = {name: home for home, names in _NAMES.items() for name in (home, *names)}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_HOME[name]}")
    globals().update({key: getattr(module, key) for key in _NAMES[_HOME[name]]})
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
