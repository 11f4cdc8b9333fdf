import warnings

import numpy as np
import pytest

from opcross import flows
from opcross import grassmann as gr
from opcross import crossratio as cr
from opcross.errors import NotPolarization, Overflow, RankDeficient
from conftest import (LOADED_SCIPY, fresh_python, overflowing_flow_scenario, same_subspace,
                      spectra_close)


def generic_initials(n, rng, count=4):
    return [gr.random_subspace(n, n // 2, int(rng.integers(2**31)))
            for _ in range(count)]


def test_shift_generator_shape():
    m = flows.shift_generator(5, 2)
    assert m.shape == (5, 5)
    assert m[2, 0] == 1.0 and m[4, 2] == 1.0 and np.count_nonzero(m) == 3
    with pytest.raises(ValueError):
        flows.shift_generator(4, 4)


def test_flow_subspace_group_property(rng):
    m = rng.standard_normal((6, 6))
    w0 = gr.random_subspace(6, 3, 9)
    one_step = flows.flow_subspace(m, 0.7, w0)
    two_half = flows.flow_subspace(m, 0.35, flows.flow_subspace(m, 0.35, w0))
    assert same_subspace(one_step, two_half)
    assert same_subspace(flows.flow_subspace(m, 0.0, w0), w0)


def test_spectrum_conserved_along_flow(rng):
    for power in (1, 2):
        gen = flows.shift_generator(8, power)
        scenario = flows.FlowScenario(gen, generic_initials(8, rng),
                                      np.linspace(0.0, 1.0, 11))
        rows = flows.spectrum_along_flow(scenario)
        assert len(rows) == 11
        base_spec, base_traces, base_det = rows[0][1], rows[0][2], rows[0][3]
        for _, spec, traces, det in rows:
            assert np.max(np.abs(spec - base_spec)) < 1e-6
            assert np.max(np.abs(traces - base_traces)) < 1e-6
            assert abs(det - base_det) < 1e-6


def test_spectrum_conserved_along_a_64_dim_flow(rng, svd_calls):
    # The perfbench flow oracle: spectra within 1e-6, traces and determinants
    # within 1e-6 relative above magnitude 1; the flowed bases are orthonormalized
    # by QR and every pair is screened, so no SVD runs.
    for power in (1, 2, 3):
        scenario = flows.FlowScenario(flows.shift_generator(64, power), generic_initials(64, rng),
                                      np.linspace(0.0, 1.0, 11))
        svd_calls.clear()
        rows = flows.spectrum_along_flow(scenario)
        assert svd_calls == []
        _, base_spec, base_traces, base_det = rows[0]
        for _, spec, traces, det in rows:
            assert spectra_close(spec, base_spec, 1e-6)
            assert np.max(np.abs(traces - base_traces) / np.maximum(1.0, np.abs(base_traces))) \
                <= 1e-6
            assert abs(det - base_det) <= 1e-6 * max(1.0, abs(base_det))


def test_partial_flow_mask_moves_only_some_arguments(rng):
    gen = flows.shift_generator(6, 1)
    initials = generic_initials(6, rng)
    scenario = flows.FlowScenario(gen, initials, np.array([0.0, 0.5]))
    rows = flows.spectrum_along_flow(scenario, flowed=(True, True, True, False))
    # Holding one generic argument fixed generally breaks conservation.
    assert np.max(np.abs(rows[1][1] - rows[0][1])) > 1e-6


def test_flow_reports_polarization_failure_time():
    e = np.eye(4)
    # P1 flows into P2's complement failure: pick P2 = P1 so t = 0 fails.
    w = gr.Subspace(e[:, :2])
    scenario = flows.FlowScenario(np.zeros((4, 4)), [w, w, w, w], np.array([0.0]))
    with pytest.raises(NotPolarization) as exc_info:
        flows.spectrum_along_flow(scenario)
    assert "t = 0" in str(exc_info.value)


def test_flow_reports_overflow_time():
    # exp(tM) is finite at t = 0.5 (e^400) and overflows at t = 1 (e^800).
    with pytest.raises(Overflow) as exc_info:
        flows.spectrum_along_flow(overflowing_flow_scenario())
    assert str(exc_info.value) == "the matrix exponential is not finite at t = 1"


def test_a_flow_raises_its_first_failing_time_and_plane():
    # P1 = P2 under 800 I + E_01: t = 0 is no polarization, and exp(tM) overflows at
    # t = 1, so a flow that formed every time's exponential first would raise Overflow.
    scenario = overflowing_flow_scenario()
    initials = list(scenario.initials)
    initials[1] = initials[0]
    with pytest.raises(NotPolarization) as want:  # exp(0 M) = I: the planes' own QR
        cr.dv_composition(*(gr.subspace_from_basis(w.basis) for w in initials))
    with pytest.raises(NotPolarization) as got:
        flows.spectrum_along_flow(flows.FlowScenario(scenario.generator, initials, scenario.times))
    assert str(got.value) == f"polarization fails at t = 0: {want.value}"
    # Within one time the planes are judged in order.  exp(M) = I + (e^c - 1)/2 J on the
    # first two coordinates (e^c = 3e308): it maps the first plane to columns 3e208 and
    # 0.7 long (numerical rank 1), and the second plane's (1, 1, 0, 0)/sqrt 2 to 2.1e308.
    c = np.log(3.0) + 308 * np.log(10.0)
    m = np.zeros((4, 4))
    m[:2, :2], m[2:, 2:] = c / 2, -c / 2
    e = np.eye(4)
    lossy = gr.subspace_from_basis(np.column_stack([e[0] - e[1] + 1e-100 * (e[0] + e[1]), e[2]]))
    wide = gr.Subspace(np.column_stack([(e[0] + e[1]) / np.sqrt(2), e[2]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RankDeficient, match="^columns have numerical rank < 2$"):
            flows.spectrum_along_flow(flows.FlowScenario(m, [lossy, wide, lossy, wide], [1.0]))
        with pytest.raises(Overflow, match="^the flowed basis is not finite at t = 1$"):
            flows.spectrum_along_flow(flows.FlowScenario(m, [wide, lossy, wide, lossy], [1.0]))


def test_a_flowed_subspace_out_of_range_is_a_silent_overflow():
    # exp(M) of 706.8 I + J is finite, but exp(M) (1, 1, 1, 1)/2 is not; and 1e308 * 10
    # leaves the range before exp(tM) is formed.
    plane = gr.Subspace(np.array([[1, 1, 1, 1], [1, -1, 1, -1]]).T / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, t, what in ((706.8 * np.eye(4) + np.ones((4, 4)), 1.0, "the flowed basis"),
                           (10.0 * np.eye(4, k=-1), 1e308, "the exponent tM")):
            with pytest.raises(Overflow, match=f"^{what} is not finite$"):
                flows.flow_subspace(m, t, plane)


def test_flows_load_no_scipy():
    # With scipy blocked, every flow function runs; so does selftest.
    out = fresh_python(f"""
import sys
sys.modules["scipy"] = None
import numpy as np
from opcross import flows, grassmann, selftest
w = [grassmann.random_subspace(6, 3, seed) for seed in range(4)]
m1, m2 = flows.shift_generator(6, 1), flows.shift_generator(6, 2)
flows.flow_subspace(m1, 0.5, w[0])
flows.spectrum_along_flow(flows.FlowScenario(m1, w, np.linspace(0.0, 1.0, 3)))
flows.commuting_flow_residual(m1, m2, w[0], 0.3, 0.7)
selftest.run_all(seed=1)
del sys.modules["scipy"]
print({LOADED_SCIPY})
""")
    assert out.splitlines() == ["[]"]


def test_commuting_flows_commute(rng):
    w0 = gr.random_subspace(8, 4, 3)
    res = flows.commuting_flow_residual(flows.shift_generator(8, 1),
                                        flows.shift_generator(8, 3), w0, 0.7, 0.4)
    assert res < 1e-8
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    assert flows.commuting_flow_residual(a, b, w0, 0.7, 0.4) > 1e-4


def test_almost_nilpotent_block_traces(rng):
    n, k = 6, 2
    m = np.zeros((n, n))
    upper = np.triu_indices(n, 1)
    m[upper] = rng.standard_normal(len(upper[0]))
    block = rng.standard_normal((k, k))
    m[:k, :k] = block
    an = flows.AlmostNilpotent(m, k)
    traces, det = flows.trace_invariants(an)
    block_traces = [np.trace(np.linalg.matrix_power(block, j)) for j in range(1, n + 1)]
    assert np.allclose(traces, block_traces, atol=1e-10)
    assert abs(det - 0.0) < 1e-12  # strictly-triangular tail kills the det


def test_almost_nilpotent_rejects_lower_entries():
    m = np.zeros((4, 4))
    m[3, 2] = 1.0
    with pytest.raises(ValueError, match=r"^entry \(3,2\) must be zero outside the leading block$"):
        flows.AlmostNilpotent(m, 2)
    # A diagonal entry outside the block, named before the later (3, 2) in row-major order.
    m[2, 2] = 0.5
    with pytest.raises(ValueError, match=r"^entry \(2,2\) must be zero"):
        flows.AlmostNilpotent(m, 2)
    # Entries above the diagonal and inside the block are allowed.
    m = np.triu(np.ones((4, 4)), 1)
    m[:2, :2] = 1.0
    assert flows.AlmostNilpotent(m, 2).block.tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_trace_invariants_fixture():
    d = np.diag([1.0, 2.0, 3.0])
    traces, det = flows.trace_invariants(d)
    assert np.allclose(traces, [6.0, 14.0, 36.0])
    assert abs(det - 6.0) < 1e-12


def test_trace_invariants_types_and_overflow():
    traces, det = flows.trace_invariants(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert traces.dtype == np.float64 and isinstance(det, float)
    assert np.allclose(traces, [0.0, -2.0]) and abs(det - 1.0) < 1e-12
    traces, det = flows.trace_invariants(np.diag([1j, 2.0]))
    assert traces.dtype == np.complex128 and isinstance(det, complex)
    assert np.allclose(traces, [2 + 1j, 3]) and abs(det - 2j) < 1e-12
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Overflow, match=r"tr M\^2"):
        flows.trace_invariants(1e200 * np.eye(2))


def test_scenario_json_rejects_boolean_times(rng):
    obj = flows.FlowScenario(flows.shift_generator(4, 1), generic_initials(4, rng),
                             [0.0, 1.0]).to_json()
    obj["times"] = [False, True]
    with pytest.raises(ValueError, match="times"):
        flows.FlowScenario.from_json(obj)


def test_scenario_json_round_trip(rng):
    gen = flows.shift_generator(4, 1)
    scenario = flows.FlowScenario(gen, generic_initials(4, rng),
                                  np.linspace(0.0, 1.0, 3))
    back = flows.FlowScenario.from_json(scenario.to_json())
    assert np.array_equal(back.generator, gen)
    assert np.array_equal(back.times, scenario.times)
    assert all(same_subspace(a, b)
               for a, b in zip(back.initials, scenario.initials))


def test_scenario_validates():
    gen = np.zeros((4, 4))
    w = gr.random_subspace(4, 2, 1)
    with pytest.raises(ValueError):
        flows.FlowScenario(gen, [w], np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        flows.FlowScenario(gen, [gr.random_subspace(5, 2, 1)], np.array([0.0]))
