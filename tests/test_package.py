import json
import sys
from types import ModuleType

import pytest

import opcross as oc
from conftest import fresh_python

# The package's names as of version 0.3.0: the names of four modules' public
# classes and functions, and the submodules themselves.
NAMES = [
    "AlmostNilpotent", "BlockMobius", "CrossRatioResult", "CurveJet", "FlowScenario",
    "HamiltonianSystem", "MatrixPolynomial", "PhasePoint", "Polarization", "Subspace",
    "cocycle_product", "commuting_flow_residual", "comparability_witness", "comparable",
    "crossratio", "curve_from_riccati", "dv_composition", "dv_matrix", "dv_mixed", "dv_permuted",
    "dv_unequal", "errors", "euler_residual", "flow_subspace", "flows", "graph_coordinate",
    "grassmann", "integrate_hamiltonian", "integrate_riccati", "mobius_apply_coordinate",
    "mobius_apply_subspace", "mobius_curve_jet", "numerics", "operator_angle", "pair_equivalent",
    "principal_angles", "project_parallel", "random_subspace", "riccati_rhs", "schwarz",
    "schwarz_equation_residual", "schwarz_from_samples", "schwarzian", "shift_generator",
    "spectrum_along_flow", "standard_polarization", "subspace_from_basis", "subspace_from_graph",
    "trace_invariants", "w_from_jet",
]


def test_the_package_serves_its_names():
    assert oc.__all__ == NAMES
    for name in NAMES:
        obj = getattr(oc, name)
        # The very object of the module that defines it, or that module itself.
        if isinstance(obj, ModuleType):
            assert obj is sys.modules[f"opcross.{name}"]
        else:
            home = obj.__module__
            assert home.startswith("opcross.") and getattr(sys.modules[home], name) is obj, name
        # Bound on first use: later lookups read the namespace, not __getattr__.
        assert vars(oc)[name] is obj, name
    star = {}
    exec("from opcross import *", star)
    assert sorted(set(star) - {"__builtins__"}) == NAMES
    assert set(NAMES) <= set(dir(oc))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        oc.no_such_name


def test_import_opcross_loads_a_module_on_first_use():
    # `import opcross` loads no submodule and no numpy; a name loads the module
    # that defines it, with what that module imports, and binds all of its names.
    loaded = 'sorted(m for m in sys.modules if m == "numpy" or m.startswith("opcross"))'
    seen = json.loads(fresh_python(f"""
import json, sys
import opcross
seen = [{loaded}, sorted(set(opcross.__all__) - set(dir(opcross)))]
opcross.Subspace
seen += [{loaded}, "principal_angles" in vars(opcross), "dv_composition" in vars(opcross)]
print(json.dumps(seen))
"""))
    assert seen == [["opcross"], [],
                    ["numpy", "opcross", "opcross.errors", "opcross.grassmann", "opcross.numerics"],
                    True, False]
