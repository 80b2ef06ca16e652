"""Tests for the benchmark plants, reference signals, and simulation harness."""

import csv
import dataclasses
import io
import math
import struct
import warnings

import numpy as np
import pytest

from mfaclab.analysis import ramp_static_error
from mfaclab import plant as plant_module
from mfaclab.cli import LAMBDA_GRID, TEST_LOOPS
from mfaclab.controller import (
    QUARTIC_MAX_PASSES,
    QUARTIC_TOL,
    SWEEP_MAX,
    BoxConstraints,
    Weighting,
    mfac_constrained_step,
    mfac_quartic_step,
    mfac_step,
)
from mfaclab.edlm import (
    FD_STEP,
    DifferentiableModel,
    Dimensions,
    PseudoJacobian,
    RegressorWindow,
    pjm_first_order,
    pjm_second_order,
)
from mfaclab.errors import DivergenceError, NonFiniteModelError, RankDeficiencyError, ShapeError
from mfaclab.plant import (
    DIVERGENCE_LIMIT,
    SIMLOG_SCHEMA,
    VARIANTS,
    Example1Plant,
    Example1Reference,
    LTIPlant,
    RampReference,
    ReferenceSignal,
    SimLog,
    StepReference,
    ZeroReference,
    example1_reference,
    metrics,
    simulate,
    simulate_batch,
    write_csv,
)


def zero_window(dims, k=1):
    return RegressorWindow(
        dims=dims,
        k=k,
        y_history=[np.zeros(dims.My)] * max(k, 1),
        u_history=[np.zeros(dims.Mu)] * max(k, 1),
    )


def scalar_plant(a=0.5, b=1.0):
    return LTIPlant([np.array([[a]])], [np.array([[b]])])


# ------------------------------------------------------- reference signal


def test_reference_sinusoid_values():
    # independently evaluated samples of the published waveform
    np.testing.assert_allclose(
        example1_reference(40),
        [0.3356706627517974, 0.14022087134740813],
        rtol=1e-14,
    )
    np.testing.assert_allclose(
        example1_reference(400),
        [-0.2448227456294893, 0.3572080924689866],
        rtol=1e-14,
    )


def test_reference_square_wave_levels():
    np.testing.assert_array_equal(example1_reference(401), [0.2, -0.2])
    np.testing.assert_array_equal(example1_reference(424), [0.2, -0.2])
    # rounding half away from zero puts the flip at 425, not 426
    np.testing.assert_array_equal(example1_reference(425), [-0.2, 0.2])
    np.testing.assert_array_equal(example1_reference(475), [0.2, -0.2])
    np.testing.assert_array_equal(example1_reference(500), [0.2, -0.2])
    np.testing.assert_array_equal(example1_reference(800), [0.2, -0.2])


def test_reference_switches_waveform_after_400():
    before = example1_reference(400)
    after = example1_reference(401)
    assert abs(after[0] - before[0]) > 0.4


def test_reference_domain():
    with pytest.raises(ValueError):
        example1_reference(0)
    with pytest.raises(ValueError):
        example1_reference(801)


def test_reference_classes():
    np.testing.assert_array_equal(Example1Reference().sample(40), example1_reference(40))
    np.testing.assert_array_equal(RampReference(2, Ts=0.5).sample(3), [1.5, 1.5])
    np.testing.assert_array_equal(StepReference(2, amplitude=0.7).sample(123), [0.7, 0.7])
    np.testing.assert_array_equal(ZeroReference(3).sample(7), np.zeros(3))


# ----------------------------------------------------------------- plants


def test_example1_plant_dims_and_hand_values():
    plant = Example1Plant()
    d = plant.dims
    assert (d.My, d.Mu, d.Ly, d.Lu) == (2, 2, 1, 2)

    zero = np.zeros(2)
    u = np.array([0.1, 0.2])
    np.testing.assert_allclose(plant.evaluate([zero, u, zero]), [0.14, 0.17], rtol=1e-15)
    # lagged input enters through the cubic and quartic terms
    v = np.array([0.1, 0.2])
    np.testing.assert_allclose(plant.evaluate([zero, u, v]), [0.1412, 0.179], rtol=1e-13)


def test_lti_plant_validation():
    with pytest.raises(ShapeError):
        LTIPlant([np.eye(2)], [])
    with pytest.raises(ShapeError):
        LTIPlant([np.eye(3)], [np.eye(2)])
    with pytest.raises(ShapeError):
        LTIPlant([np.eye(2)], [np.eye(2), np.ones((2, 3))])


def test_lti_plant_dims():
    d = LTIPlant([np.eye(2)], [np.eye(2), np.eye(2)]).dims
    assert (d.Ly, d.Lu) == (1, 2)
    static = LTIPlant([], [np.array([[2.0]])]).dims
    assert (static.Ly, static.Lu) == (0, 1)


def test_lti_plant_evaluate():
    a0 = np.array([[0.3, 0.1], [0.0, 0.2]])
    b0 = np.array([[1.0, 0.0], [0.5, 1.0]])
    b1 = np.array([[0.2, 0.0], [0.0, 0.1]])
    plant = LTIPlant([a0], [b0, b1])
    y = np.array([1.0, -1.0])
    u0 = np.array([0.5, 0.25])
    u1 = np.array([-0.2, 0.4])
    np.testing.assert_allclose(
        plant.evaluate([y, u0, u1]),
        a0 @ y + b0 @ u0 + b1 @ u1,
        rtol=1e-15,
    )


# --------------------------------------------------------------- simulate


def test_simulate_rejects_bad_setup():
    plant = scalar_plant()
    w = Weighting.uniform(0.1, 1)
    init = zero_window(plant.dims)
    with pytest.raises(ValueError):
        simulate(plant, "bogus", ZeroReference(1), 10, init, w)
    with pytest.raises(ValueError):
        simulate(plant, "constrained", ZeroReference(1), 10, init, w)
    with pytest.raises(ValueError):
        simulate(plant, "first_order", ZeroReference(1), 3, zero_window(plant.dims, k=5), w)
    mismatched = RegressorWindow(
        dims=Dimensions(My=2, Mu=2, Ly=1, Lu=1),
        k=1,
        y_history=[np.zeros(2)],
        u_history=[np.zeros(2)],
    )
    with pytest.raises(ShapeError):
        simulate(plant, "first_order", ZeroReference(1), 10, mismatched, w)


def test_simulate_zero_reference_stays_zero():
    plant = scalar_plant()
    w = Weighting.uniform(0.1, 1)
    box = BoxConstraints(lower=np.array([-1.0]), upper=np.array([1.0]))
    for variant in VARIANTS:
        log = simulate(
            plant,
            variant,
            ZeroReference(1),
            steps=40,
            init=zero_window(plant.dims),
            w=w,
            box=box if variant == "constrained" else None,
        )
        assert len(log) == 40
        assert np.all(log.y == 0.0) and np.all(log.u == 0.0)


def test_simulate_prehistory_rows_come_from_window():
    plant = scalar_plant()
    dims = plant.dims
    init = RegressorWindow(
        dims=dims,
        k=3,
        y_history=[np.array([3.0]), np.array([2.0]), np.array([1.0])],
        u_history=[np.array([0.3]), np.array([0.2]), np.array([0.1])],
    )
    seed = PseudoJacobian.constant(0.5, dims)
    log = simulate(plant, "first_order", ZeroReference(1), 6, init, Weighting.uniform(0.1, 1), pjm_seed=seed)
    assert [row[0] for row in log.csv_rows()[:3]] == [1, 2, 3]
    np.testing.assert_array_equal(log.y[:3], [[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(log.u[:2], [[0.2], [0.3]])
    np.testing.assert_allclose(log.delta_u[:2], [[0.1], [0.1]], rtol=1e-15)
    for i in (0, 1):
        assert log.iterations[i] == 0 and log.cost[i] == 0.0 and log.converged[i]
        np.testing.assert_array_equal(log.input_blocks[i, 0], seed.input_blocks[0])


def test_simulate_final_row_holds_input():
    plant = scalar_plant()
    log = simulate(
        plant,
        "first_order",
        StepReference(1, 0.5),
        steps=30,
        init=zero_window(plant.dims),
        w=Weighting.uniform(0.1, 1),
    )
    assert len(log) == 30 and log.diverged_at == 0
    np.testing.assert_array_equal(log.u[-1], log.u[-2])
    np.testing.assert_array_equal(log.delta_u[-1], [0.0])
    assert log.iterations[-1] == 0 and log.cost[-1] == 0.0 and log.converged[-1]


def test_simulate_step_tracking_converges():
    plant = scalar_plant(a=0.5, b=1.0)
    log = simulate(
        plant,
        "first_order",
        StepReference(1, 0.5),
        steps=200,
        init=zero_window(plant.dims),
        w=Weighting.uniform(0.1, 1),
    )
    tail = np.abs(log.y_ref[150:, 0] - log.y[150:, 0])  # k > 150
    assert max(tail) < 1e-8


def test_simulate_divergence_aborts_with_partial_log():
    # open-loop unstable pole and a near-frozen input: 3^(k-1) crosses the
    # limit on step 14
    plant = scalar_plant(a=3.0, b=1.0)
    init = RegressorWindow(
        dims=plant.dims, k=1, y_history=[np.array([1.0])], u_history=[np.zeros(1)]
    )
    with pytest.raises(DivergenceError) as err:
        simulate(plant, "first_order", ZeroReference(1), 60, init, Weighting.uniform(1e9, 1))
    assert err.value.step == 14
    assert len(err.value.log) == 13
    assert err.value.log.diverged_at == 14
    assert abs(err.value.log.y[-1, 0]) > DIVERGENCE_LIMIT / 3.5


def test_simulate_ramp_settles_to_analytic_offset():
    # static unit-gain plant: lag-free loop, so the tracking offset under a
    # unit ramp has a closed form that the long run must approach
    plant = LTIPlant([], [np.array([[1.0]])])
    lam = 0.2
    log = simulate(
        plant,
        "first_order",
        RampReference(1, Ts=1.0),
        steps=5000,
        init=zero_window(plant.dims),
        w=Weighting.uniform(lam, 1),
    )
    measured = log.y_ref[-1, 0] - log.y[-1, 0]
    pjm = PseudoJacobian((), (np.array([[1.0]]),))
    analytic = ramp_static_error(pjm, Weighting.uniform(lam, 1), Ts=1.0)[0]
    assert analytic == pytest.approx(0.2, rel=1e-12)
    assert measured == pytest.approx(analytic, rel=0.01)


# -------------------------------------------------------------- benchmark


def example1_run(variant, steps=800, lam=0.2):
    plant = Example1Plant()
    dims = plant.dims
    init = RegressorWindow(
        dims=dims,
        k=3,
        y_history=[np.zeros(dims.My)] * 3,
        u_history=[np.zeros(dims.Mu)] * 2,
    )
    box = BoxConstraints(lower=np.array([-0.3, -0.5]), upper=np.array([0.1, 0.5]))
    return simulate(
        plant,
        variant,
        Example1Reference(),
        steps=steps,
        init=init,
        w=Weighting.uniform(lam, dims.My),
        box=box if variant == "constrained" else None,
        pjm_seed=PseudoJacobian.constant(0.01, dims),
    )


def smooth_segment_max(log):
    # the waveform switches to a square wave after step 400; per-step jumps
    # there are reference discontinuities, not controller error
    err = np.abs(log.y_ref - log.y)[100:400]  # 100 < k <= 400
    return err.max(axis=0)


def test_benchmark_first_order_tracks():
    log = example1_run("first_order")
    assert np.max(np.abs(log.y)) < 5.0
    assert np.all(smooth_segment_max(log) < 0.05)


def test_benchmark_constrained_respects_box():
    log = example1_run("constrained")
    report = metrics(log, transient_cutoff=100)
    assert report.constraint_violations == 0
    lo, hi = log.box.lower, log.box.upper
    assert np.all(log.u >= lo) and np.all(log.u <= hi)
    assert np.all(smooth_segment_max(log) < 0.5)


# ---------------------------------------------------------------- metrics


def manual_log(errors, us=None, box=None):
    dims = Dimensions(My=1, Mu=1, Ly=1, Lu=1)
    n = len(errors)
    u = np.array(us if us is not None else [0.0] * n).reshape(n, 1)
    return SimLog(dims=dims, variant="first_order", weighting=Weighting.uniform(0.1, 1), box=box,
                  y_ref=np.array(errors).reshape(n, 1), y=np.zeros((n, 1)), u=u, delta_u=np.zeros((n, 1)),
                  cost=np.zeros(n), iterations=np.zeros(n, dtype=int), converged=np.ones(n, dtype=bool),
                  output_blocks=np.zeros((n, 1, 1, 1)), input_blocks=np.zeros((n, 1, 1, 1)))


def test_metrics_perfect_tracking_is_zero():
    report = metrics(manual_log([0.0] * 10), transient_cutoff=2)
    np.testing.assert_array_equal(report.rmse, [0.0])
    np.testing.assert_array_equal(report.max_abs_error, [0.0])
    assert report.constraint_violations == 0


def test_metrics_constant_error():
    report = metrics(manual_log([0.1] * 10), transient_cutoff=0)
    np.testing.assert_allclose(report.rmse, [0.1], rtol=1e-15)
    np.testing.assert_allclose(report.max_abs_error, [0.1], rtol=1e-15)


def test_metrics_cutoff_drops_transient():
    report = metrics(manual_log([9.0, 9.0, 0.2, 0.1]), transient_cutoff=2)
    np.testing.assert_allclose(report.max_abs_error, [0.2], rtol=1e-15)
    np.testing.assert_allclose(report.rmse, [np.sqrt((0.04 + 0.01) / 2)], rtol=1e-15)


def test_metrics_empty_window_rejected():
    with pytest.raises(ValueError):
        metrics(manual_log([0.0] * 5), transient_cutoff=5)


def test_metrics_counts_violations_over_all_rows():
    box = BoxConstraints(lower=np.array([-1.0]), upper=np.array([1.0]))
    # violations land in the transient, yet they must still be counted
    log = manual_log([0.0] * 6, us=[2.0, -3.0, 0.5, 0.5, 0.5, 0.5], box=box)
    report = metrics(log, transient_cutoff=3)
    assert report.constraint_violations == log.violations() == 2


# -------------------------------------------------------------------- csv


def csv_bytes(log):
    """The log's CSV file as the command line writes it."""
    buf = io.StringIO()
    write_csv(buf, SIMLOG_SCHEMA, log.csv_header(), log.csv_rows())
    return buf.getvalue()


def test_csv_layout_and_round_trip():
    log = example1_run("first_order", steps=12)
    text = csv_bytes(log)
    lines = text.splitlines()
    assert lines[0] == f"# schema: {SIMLOG_SCHEMA}"

    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    header, data = rows[0], rows[1:]
    assert header == log.csv_header()
    assert len(data) == len(log) == 12
    assert all(len(row) == len(header) for row in data)

    # repr round trip: parsed floats equal the logged arrays exactly
    idx = {name: i for i, name in enumerate(header)}
    for n, row in enumerate(data):
        assert int(row[idx["k"]]) == n + 1
        assert float(row[idx["y1"]]) == log.y[n, 0]
        assert float(row[idx["y2"]]) == log.y[n, 1]
        assert float(row[idx["u1"]]) == log.u[n, 0]
        assert float(row[idx["du2"]]) == log.delta_u[n, 1]
        assert float(row[idx["cost"]]) == log.cost[n]
        assert int(row[idx["iters"]]) == log.iterations[n]
        assert float(row[idx["Phi1[0,0]"]]) == log.output_blocks[n, 0, 0, 0]
        assert float(row[idx["Phi3[1,0]"]]) == log.input_blocks[n, 1, 1, 0]


def test_csv_rerun_is_byte_identical():
    first = csv_bytes(example1_run("first_order", steps=25))
    second = csv_bytes(example1_run("first_order", steps=25))
    assert first == second


def assert_cells_round_trip(log):
    rows = list(csv.reader(io.StringIO(csv_bytes(log).split("\n", 1)[1])))
    header, data = rows[0], rows[1:]
    assert header == log.csv_header()
    expected = log.csv_rows()
    assert len(data) == len(expected) == len(log)
    for cells, values in zip(data, expected):
        assert len(cells) == len(values) == len(header)
        for cell, value in zip(cells, values):
            parsed, value = float(cell), float(value)
            if math.isnan(value):
                assert math.isnan(parsed)
            else:
                assert struct.pack("<d", parsed) == struct.pack("<d", value)


@pytest.mark.parametrize("variant", VARIANTS)
def test_csv_cells_round_trip_to_row_values_bitwise(variant):
    assert_cells_round_trip(example1_run(variant, steps=120))


def test_csv_cells_round_trip_on_divergent_partial_log():
    with pytest.raises(DivergenceError) as err:
        example1_run("first_order", steps=200, lam=0.0)
    assert err.value.step == 172
    assert_cells_round_trip(err.value.log)


def test_metrics_match_csv_recomputation():
    log = example1_run("first_order", steps=60)
    lines = csv_bytes(log).splitlines()
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    idx = {name: i for i, name in enumerate(rows[0])}
    cutoff = 20
    err = np.array(
        [
            [
                float(row[idx["yref1"]]) - float(row[idx["y1"]]),
                float(row[idx["yref2"]]) - float(row[idx["y2"]]),
            ]
            for row in rows[1:]
            if int(row[idx["k"]]) > cutoff
        ]
    )
    report = metrics(log, transient_cutoff=cutoff)
    np.testing.assert_allclose(report.rmse, np.sqrt(np.mean(err**2, axis=0)), rtol=1e-12)
    np.testing.assert_allclose(report.max_abs_error, np.max(np.abs(err), axis=0), rtol=1e-12)


# ------------------------------------------------ lean kernel equivalence


def unhoisted_quartic(model, window, y_now, y_ref, w):
    """The quartic fixed point with pjm_second_order rebuilt on every pass."""
    dims = window.dims
    point = RegressorWindow(dims=dims, k=window.k - 1, y_history=window.y_history[1:], u_history=window.u_history)
    delta_ys = [window.y_history[i] - window.y_history[i + 1] for i in range(dims.Ly)]
    delta_u_hist = [window.u_history[j] - window.u_history[j + 1] for j in range(dims.Lu - 1)]
    delta_u = mfac_step(pjm_first_order(model, point), window, y_now, y_ref, w).delta_u
    best = None
    for passes in range(1, QUARTIC_MAX_PASSES + 1):
        corrected = pjm_second_order(model, point, delta_ys, [delta_u] + delta_u_hist)
        step = mfac_step(corrected, window, y_now, y_ref, w)
        if best is None or step.cost < best.cost:
            best = step
        if np.max(np.abs(step.delta_u - delta_u)) < QUARTIC_TOL:
            return step._replace(iterations=passes)
        delta_u = step.delta_u
    return best._replace(iterations=passes, converged=False)


def replay(plant, variant, reference, steps, init, w, box=None, pjm_seed=None):
    """simulate rebuilt from the public per-step functions, windows and all."""
    dims = plant.dims
    k0 = init.k
    depth_y = max(dims.Ly + 2, k0 + 1)
    depth_u = max(dims.Lu + 1, k0)
    y_hist = [np.array(v, dtype=float) for v in init.y_history]
    y_hist += [np.zeros(dims.My)] * (depth_y - len(y_hist))
    u_hist = [np.array(v, dtype=float) for v in init.u_history]
    u_hist += [np.zeros(dims.Mu)] * (depth_u - len(u_hist))
    records = []  # per step: y_ref, y, u, delta_u, cost, iterations, converged, pseudo-Jacobian

    def log(diverged_at=0):
        n = len(records)
        refs, ys, us, dus, costs, iters, flags, pjms = list(zip(*records)) or [()] * 8
        return SimLog(dims=dims, variant=variant, weighting=w, box=box, diverged_at=diverged_at,
                      y_ref=np.array(refs).reshape(n, dims.My), y=np.array(ys).reshape(n, dims.My),
                      u=np.array(us).reshape(n, dims.Mu), delta_u=np.array(dus).reshape(n, dims.Mu),
                      cost=np.array(costs, dtype=float), iterations=np.array(iters, dtype=int),
                      converged=np.array(flags, dtype=bool),
                      output_blocks=np.array([p.output_blocks for p in pjms]).reshape(n, dims.Ly, dims.My, dims.My),
                      input_blocks=np.array([p.input_blocks for p in pjms]).reshape(n, dims.Lu, dims.My, dims.Mu))

    seed = pjm_seed if pjm_seed is not None else PseudoJacobian.constant(0.0, dims)
    for k in range(1, k0):
        u_k = u_hist[k0 - 1 - k]
        records.append((reference.sample(k), y_hist[k0 - k], u_k, u_k - u_hist[k0 - k], 0.0, 0, True, seed))
    pjm = seed
    for k in range(k0, steps + 1):
        y_now = y_hist[0]
        if np.max(np.abs(y_now)) > DIVERGENCE_LIMIT:
            raise DivergenceError("diverged", step=k, log=log(diverged_at=k))
        if k == steps:
            records.append((reference.sample(k), y_now, u_hist[0], np.zeros(dims.Mu), 0.0, 0, True, pjm))
            break
        target = reference.sample(k + 1)
        window = RegressorWindow(dims=dims, k=k, y_history=y_hist, u_history=u_hist)
        if variant == "quartic":
            decision = unhoisted_quartic(plant, window, y_now, target, w)
        else:
            point = RegressorWindow(dims=dims, k=k - 1, y_history=y_hist[1:], u_history=u_hist)
            if variant == "constrained":
                decision = mfac_constrained_step(pjm_first_order(plant, point), window, y_now, target, w, box)
            else:
                decision = mfac_step(pjm_first_order(plant, point), window, y_now, target, w)
        pjm = PseudoJacobian(tuple(decision.output_blocks), tuple(decision.input_blocks))
        records.append((reference.sample(k), y_now, decision.u, decision.delta_u, decision.cost, decision.iterations,
                        decision.converged, pjm))
        args = y_hist[: dims.Ly] + [decision.u] + u_hist[: dims.Lu - 1]
        y_hist = [plant._checked_eval(args)] + y_hist[:-1]
        u_hist = [decision.u] + u_hist[:-1]
    return log()


def assert_same_arrays(got, want):
    """Every array field of two logs, and their divergence steps, are equal."""
    assert len(got) == len(want)
    for f in dataclasses.fields(SimLog):
        if isinstance(getattr(want, f.name), np.ndarray):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
    assert got.diverged_at == want.diverged_at


def assert_same_log(got, want):
    assert_same_arrays(got, want)
    assert csv_bytes(got) == csv_bytes(want)


def both_runs(*args, **kwargs):
    return simulate(*args, **kwargs), replay(*args, **kwargs)


@pytest.mark.parametrize("seed", range(12))
def test_simulate_matches_public_law_replay_on_random_lti(seed):
    rng = np.random.default_rng(seed)
    My = 1 + seed % 3
    Lu = 1 + (seed // 3) % 2
    Mu = int(rng.integers(1, 4))
    a_blocks = [0.3 * rng.normal(size=(My, My)) for _ in range(int(rng.integers(0, 3)))]
    b_blocks = [np.eye(My, Mu) + 0.3 * rng.normal(size=(My, Mu)) for _ in range(Lu)]
    plant = LTIPlant(a_blocks, b_blocks)
    k0 = int(rng.integers(1, 4))
    init = RegressorWindow(dims=plant.dims, k=k0, y_history=list(rng.normal(size=(k0, My))),
                           u_history=list(rng.normal(size=(k0, Mu))))
    w = Weighting(rng.uniform(0.05, 1.0, Mu))
    box = BoxConstraints(lower=-np.ones(Mu), upper=np.ones(Mu))
    for variant in VARIANTS:
        got, want = both_runs(plant, variant, StepReference(My, 0.5), 40, init, w,
                              box=box if variant == "constrained" else None)
        assert_same_log(got, want)


@pytest.mark.parametrize("variant", VARIANTS)
def test_simulate_matches_public_law_replay_on_bench_plant(variant):
    plant = Example1Plant()
    dims = plant.dims
    init = RegressorWindow(dims=dims, k=3, y_history=[np.zeros(2)] * 3, u_history=[np.zeros(2)] * 2)
    box = BoxConstraints(lower=np.array([-0.3, -0.5]), upper=np.array([0.1, 0.5]))
    got, want = both_runs(plant, variant, Example1Reference(), 60, init, Weighting.uniform(0.2, 2),
                          box=box if variant == "constrained" else None,
                          pjm_seed=PseudoJacobian.constant(0.01, dims))
    assert_same_log(got, want)


def test_simulate_matches_public_law_replay_through_divergence():
    a_blocks, b_blocks = TEST_LOOPS["mimo2"]
    plant = LTIPlant([np.array(a_blocks)], [np.array(b_blocks)])
    init = RegressorWindow(dims=plant.dims, k=1, y_history=[np.zeros(2)], u_history=[np.zeros(2)])
    errors = []
    for run in (simulate, replay):
        with pytest.raises(DivergenceError) as err:
            run(plant, "first_order", RampReference(2), 600, init, Weighting.uniform(0.9, 2))
        errors.append(err.value)
    assert errors[0].step == errors[1].step
    assert_same_log(errors[0].log, errors[1].log)


class IgnoresOlderOutput(DifferentiableModel):
    """An Ly = 1 plant behind a window one output slot longer: it declares y(k-1) and ignores it."""

    def __init__(self, inner):
        self.inner = inner
        d = inner.dims
        self._dims = Dimensions(My=d.My, Mu=d.Mu, Ly=2, Lu=d.Lu)

    @property
    def dims(self):
        return self._dims

    def evaluate(self, args):
        return self.inner.evaluate([args[0], *args[2:]])

    def evaluate_batch(self, args):
        return self.inner.evaluate_batch([args[0], *args[2:]])


def test_a_longer_window_is_a_longer_slot_list():
    rng = np.random.default_rng(19)
    plant = LTIPlant([0.3 * rng.normal(size=(2, 2))], [np.eye(2) + 0.3 * rng.normal(size=(2, 2)),
                                                       0.3 * rng.normal(size=(2, 2))])
    longer = IgnoresOlderOutput(plant)
    zero = np.zeros((2, 2)).tobytes()
    point = RegressorWindow(dims=longer.dims, k=2, y_history=list(rng.normal(size=(2, 2))),
                            u_history=list(rng.normal(size=(2, 2))))
    pjm, short = pjm_first_order(longer, point), pjm_first_order(plant, point)
    assert pjm.output_blocks[1].tobytes() == zero
    assert np.array_equal(pjm.output_blocks[0], short.output_blocks[0])
    assert np.array(pjm.input_blocks).tobytes() == np.array(short.input_blocks).tobytes()

    ys, us = list(rng.normal(size=(3, 2))), list(rng.normal(size=(2, 2)))
    box = BoxConstraints(lower=-np.ones(2), upper=np.ones(2))
    for variant in VARIANTS:
        got, want = (simulate(p, variant, StepReference(2, 0.5), 40,
                              RegressorWindow(dims=p.dims, k=3, y_history=ys, u_history=us),
                              Weighting.uniform(0.2, 2), box=box if variant == "constrained" else None)
                     for p in (longer, plant))
        assert all(block.tobytes() == zero for block in got.output_blocks[:, 1]), variant
        assert got.u.tobytes() == want.u.tobytes(), variant
        assert got.y.tobytes() == want.y.tobytes(), variant


class CountingSaturation(DifferentiableModel):
    """y(k+1) = 0.5 u(k)^2 + u(k), never below -0.5, counting the points it evaluates.

    Under a target of -1 the quartic law's iterate never settles, so every
    step takes QUARTIC_MAX_PASSES passes and caps out.
    """

    def __init__(self):
        self.points = 0

    @property
    def dims(self):
        return Dimensions(My=1, Mu=1, Ly=0, Lu=1)

    def evaluate(self, args):
        self.points += 1
        (u,) = args
        return 0.5 * u ** 2 + u


def assert_same_decision(got, want):
    for name in ("delta_u", "u", "output_blocks", "input_blocks"):
        assert np.array(getattr(got, name)).tobytes() == np.array(getattr(want, name)).tobytes(), name
    assert (got.cost, got.iterations, got.converged) == (want.cost, want.iterations, want.converged)


def test_quartic_cap_out_returns_the_lowest_cost_pass():
    plant = CountingSaturation()
    window = RegressorWindow(dims=plant.dims, k=1, y_history=[np.zeros(1)], u_history=[np.zeros(1)])
    y_now, target, w = np.zeros(1), np.array([-1.0]), Weighting.uniform(0.1, 1)
    got = mfac_quartic_step(plant, window, y_now, target, w)
    assert (got.iterations, got.converged) == (QUARTIC_MAX_PASSES, False)
    assert_same_decision(got, unhoisted_quartic(plant, window, y_now, target, w))
    # Every pass of the iteration, from the public laws.
    point = RegressorWindow(dims=plant.dims, k=0, y_history=[], u_history=window.u_history)
    delta_u = mfac_step(pjm_first_order(plant, point), window, y_now, target, w).delta_u
    passes = []
    for _ in range(QUARTIC_MAX_PASSES):
        passes.append(mfac_step(pjm_second_order(plant, point, [], [delta_u]), window, y_now, target, w))
        delta_u = passes[-1].delta_u
    costs = [p.cost for p in passes]
    best = costs.index(min(costs))
    assert best < QUARTIC_MAX_PASSES - 1  # the last pass is not the one returned
    assert got.cost == costs[best] and got.delta_u.tobytes() == passes[best].delta_u.tobytes()


def test_simulate_matches_replay_when_every_quartic_step_caps_out():
    plant = CountingSaturation()
    init = RegressorWindow(dims=plant.dims, k=1, y_history=[np.zeros(1)], u_history=[np.zeros(1)])
    got, want = both_runs(plant, "quartic", StepReference(1, -1.0), 30, init, Weighting.uniform(0.1, 1))
    assert_same_log(got, want)
    assert (got.iterations[:-1] == QUARTIC_MAX_PASSES).all() and not got.converged[:-1].any()


def test_quartic_evaluates_the_same_points_per_step_whatever_the_passes():
    per_step = []
    for target in (-1.0, 0.3):  # caps out at 50 passes; settles in a few
        plant = CountingSaturation()
        init = RegressorWindow(dims=plant.dims, k=1, y_history=[np.zeros(1)], u_history=[np.zeros(1)])
        log = simulate(plant, "quartic", StepReference(1, target), 30, init, Weighting.uniform(0.1, 1))
        per_step.append((plant.points, int(log.iterations.max())))
    # 29 controlled steps: 2 first-order stencil points, 3 Hessian stencil points and the plant step each.
    assert per_step[0] == (29 * 6, QUARTIC_MAX_PASSES)
    assert per_step[1][0] == 29 * 6 and per_step[1][1] < QUARTIC_MAX_PASSES


class UnsampledReference(ReferenceSignal):
    def sample(self, k):
        raise AssertionError(f"reference sampled at step {k} before the arguments were checked")


def test_simulate_checks_weighting_and_box_sizes_before_stepping():
    plant = LTIPlant([0.5 * np.eye(2)], [np.eye(2)])
    init = zero_window(plant.dims)
    with pytest.raises(ShapeError):
        simulate(plant, "first_order", UnsampledReference(), 10, init, Weighting.uniform(0.1, 3))
    box = BoxConstraints(lower=-np.ones(3), upper=np.ones(3))
    with pytest.raises(ShapeError):
        simulate(plant, "constrained", UnsampledReference(), 10, init, Weighting.uniform(0.1, 2), box=box)


def test_simulate_rejects_misshapen_reference_samples():
    plant = LTIPlant([0.5 * np.eye(2)], [np.eye(2)])
    with pytest.raises(ShapeError):
        simulate(plant, "first_order", StepReference(3), 10, zero_window(plant.dims), Weighting.uniform(0.1, 2))


class WideUntilStep3(ReferenceSignal):
    """Three components through step 3, one after it."""

    def sample(self, k):
        return np.ones(3 if k <= 3 else 1)


def test_both_kernels_check_the_pre_history_and_first_reference_samples():
    # with init.k = 3 the misshapen samples are those of the pre-history rows and of step k0
    plant = LTIPlant([0.5 * np.eye(1)], [np.eye(1)])
    init = zero_window(plant.dims, k=3)
    with pytest.raises(ShapeError):
        simulate(plant, "first_order", WideUntilStep3(), 10, init, Weighting.uniform(0.1, 1))
    with pytest.raises(ShapeError):
        simulate_batch(plant, WideUntilStep3(), 10, init, [Weighting.uniform(0.1, 1)])


# ------------------------------------------------------ batched evaluation


@pytest.mark.parametrize("seed", range(6))
def test_lti_evaluate_batch_matches_rowwise_evaluate_bitwise(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(40):
        My, Mu = (int(v) for v in rng.integers(1, 4, size=2))
        ny = int(rng.integers(-1, 2))  # -1: static map with no output slots
        plant = LTIPlant([rng.normal(size=(My, My)) for _ in range(ny + 1)],
                         [rng.normal(size=(My, Mu)) for _ in range(int(rng.integers(1, 3)))])
        sizes = [My] * (ny + 1) + [Mu] * plant.dims.Lu
        B = int(rng.integers(1, 13))
        stacked = rng.normal(size=(B, sum(sizes))) * 10.0 ** rng.uniform(-6, 3, size=(B, sum(sizes)))
        bounds = np.cumsum([0] + sizes)
        views = [stacked[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        for args in (views, [v.copy() for v in views]):
            rows = np.array([plant.evaluate([a[b] for a in args]) for b in range(B)])
            assert np.array_equal(plant.evaluate_batch(args), rows)


def numpy_scalar_bench(args):
    """Example1Plant's map evaluated on np.float64 scalars, the way numpy rounds it point by point."""
    y, u, v = args
    y1 = -0.1 * y[0] ** 3 + 0.2 * y[1] ** 2 + u[0] + u[1] ** 2 + v[0] ** 3 + 2.0 * v[0] ** 4
    y2 = -0.1 * y[0] ** 2 + 0.2 * y[1] ** 3 + u[0] ** 2 + 0.8 * u[1] + v[0] ** 3 + v[1] ** 3
    return np.array([y1, y2])


class ScalarBench(Example1Plant):
    """The bench plant on np.float64 scalars, batches through the default loop over evaluate."""

    evaluate_batch = DifferentiableModel.evaluate_batch

    def evaluate(self, args):
        return numpy_scalar_bench(args)


class RecordingBench(Example1Plant):
    """The bench plant keeping a copy of every batch it evaluates."""

    def __init__(self):
        self.batches = []

    def evaluate_batch(self, args):
        self.batches.append([a.copy() for a in args])
        return super().evaluate_batch(args)


def bench_batches(seed):
    """Random points with signed zeros, then with NaNs too, and the stencil batches of both orders at some of them.

    A batch with a NaN output goes through the np.float64 path as a whole, so the NaN-free batch covers the
    Python-float path on the same points.
    """
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(300, 6)) * rng.choice([1e-3, 1.0, 40.0], size=(300, 1))
    points[::7, 0] = -0.0
    points[::11, 3] = 0.0
    points[::13, 4] = -0.0
    points[::17, 2] = np.nan
    points[1] = -0.0
    points[2] = 0.0
    for batch in (points[~np.isnan(points).any(axis=1)], points):
        yield [batch[:, 0:2], batch[:, 2:4], batch[:, 4:6]]
    recorder = RecordingBench()
    dims = recorder.dims
    for p in points[:20]:
        if np.isnan(p).any():
            continue
        op = RegressorWindow(dims=dims, k=2, y_history=[p[0:2]], u_history=[p[2:4], p[4:6]])
        pjm_second_order(recorder, op, [0.1 * p[0:2]], [0.1 * p[2:4], 0.1 * p[4:6]])
    assert {len(b[0]) for b in recorder.batches} == {12, 25}
    yield from recorder.batches


def test_bench_plant_batch_carries_the_bits_of_numpy_scalars():
    plant = Example1Plant()
    for args in bench_batches(seed=4):
        count = args[0].shape[0]
        rows = [[a[b] for a in args] for b in range(count)]
        want = np.array([numpy_scalar_bench(r) for r in rows])
        assert plant.evaluate_batch(args).tobytes() == want.tobytes()
        assert np.array([plant.evaluate(r) for r in rows]).tobytes() == want.tobytes()


# (slot, index, value, component): y1 = 1e200 spoils both outputs and v2 = 1e200 only y2, both through a power
# that overflows (Python's float ** raises OverflowError); v1 = 1e77 spoils y1 through 2.0 * 1e308, where
# Python's float * overflows silently.  numpy gives inf each time, with a RuntimeWarning.
OVERFLOWS = [(0, 0, 1e200, 0), (2, 1, 1e200, 1), (2, 0, 1e77, 0)]


def nonfinite_error(call):
    """The component of the NonFiniteModelError a call raises, and the RuntimeWarnings it emits on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteModelError) as err:
            call()
    return err.value.component, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("slot, index, value, component", OVERFLOWS)
def test_bench_plant_overflow_gives_the_nonfinite_error_of_numpy_scalars(slot, index, value, component):
    point = [np.array([0.1, -0.2]), np.array([0.3, 0.05]), np.array([-0.1, 0.2])]
    point[slot][index] = value
    batch = [np.repeat(a[None], 12, axis=0) for a in point]
    batch[slot][:5, index] = 0.3  # rows 0-4 stay finite; row 5 is the first that overflows
    plant, scalar = Example1Plant(), ScalarBench()
    for run in (lambda model: model._checked_eval(point), lambda model: model._checked_batch(batch)):
        got = nonfinite_error(lambda: run(plant))
        assert got == nonfinite_error(lambda: run(scalar))
        assert got[0] == component and got[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert plant.evaluate_batch(batch).tobytes() == scalar.evaluate_batch(batch).tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("slot, index, value, component", OVERFLOWS)
def test_simulate_on_the_bench_plant_flags_an_overflowing_stencil_row(variant, slot, index, value, component):
    # The first controlled step, k = 3, linearizes at y(2), u(2), u(1): slot 0 is y_history[1], slot 2 u_history[1].
    y_history = [np.zeros(2), np.zeros(2), np.zeros(2)]
    u_history = [np.zeros(2), np.zeros(2)]
    {0: y_history, 2: u_history}[slot][1][index] = value
    init = RegressorWindow(dims=Example1Plant().dims, k=3, y_history=y_history, u_history=u_history)
    box = BoxConstraints(lower=-np.ones(2), upper=np.ones(2)) if variant == "constrained" else None
    runs = [nonfinite_error(lambda: simulate(model, variant, Example1Reference(), 10, init, Weighting.uniform(0.2, 2),
                                             box=box)) for model in (Example1Plant(), ScalarBench())]
    assert runs[0] == runs[1] and runs[0][0] == component


class NaNAtOnePoint(DifferentiableModel):
    """y(k+1) = 0.5 y(k) + u(k), except one output component is NaN where u1 = +FD_STEP."""

    def __init__(self, component):
        self.component = component

    @property
    def dims(self):
        return Dimensions(My=2, Mu=2, Ly=1, Lu=1)

    def evaluate(self, args):
        y, u = args
        out = 0.5 * y + u
        if u[1] == FD_STEP:
            out[self.component] = np.nan
        return out


@pytest.mark.parametrize("component", [0, 1])
def test_simulate_flags_nonfinite_perturbed_point(component):
    plant = NaNAtOnePoint(component)
    with pytest.raises(NonFiniteModelError) as err:
        simulate(plant, "first_order", ZeroReference(2), 10, zero_window(plant.dims), Weighting.uniform(0.1, 2))
    assert err.value.component == component


class SteepStaticMap(DifferentiableModel):
    """y(k+1) = 1e308 tanh(u(k) / 1e-12): the central difference at u = 0 overflows to inf."""

    @property
    def dims(self):
        return Dimensions(My=1, Mu=1, Ly=0, Lu=1)

    def evaluate(self, args):
        return np.array([1e308 * np.tanh(args[0][0] / 1e-12)])


class SampleRecorder(StepReference):
    def __init__(self):
        super().__init__(1, 0.5)
        self.sampled = []

    def sample(self, k):
        self.sampled.append(k)
        return super().sample(k)


@pytest.mark.parametrize("variant", VARIANTS)
def test_simulate_rejects_nonfinite_pseudo_jacobian_at_first_step(variant):
    plant = SteepStaticMap()
    reference = SampleRecorder()
    box = BoxConstraints(lower=-np.ones(1), upper=np.ones(1)) if variant == "constrained" else None
    with warnings.catch_warnings():  # only the central difference itself may overflow
        warnings.simplefilter("error")
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="input block 1"):
            simulate(plant, variant, reference, 50, zero_window(plant.dims), Weighting.uniform(0.1, 1), box=box)
    assert max(reference.sampled) == 2  # step 1 samples its own target and the next one only


def test_quartic_law_rejects_nonfinite_pseudo_jacobian():
    plant = SteepStaticMap()
    window = zero_window(plant.dims, k=2)
    with warnings.catch_warnings():  # only the central difference itself may overflow
        warnings.simplefilter("error")
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="input block 1"):
            mfac_quartic_step(plant, window, np.zeros(1), np.array([0.5]), Weighting.uniform(0.1, 1))


@pytest.mark.parametrize("variant", VARIANTS)
def test_simulate_builds_no_pseudo_jacobian_per_step(variant, monkeypatch):
    built = []
    post_init = PseudoJacobian.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PseudoJacobian, "__post_init__", counted)
    plant = Example1Plant()
    box = BoxConstraints(lower=np.array([-0.3, -0.5]), upper=np.array([0.1, 0.5]))
    log = simulate(plant, variant, Example1Reference(), 50, zero_window(plant.dims), Weighting.uniform(0.2, 2),
                   box=box if variant == "constrained" else None)
    assert len(log) == 50
    assert len(built) <= 1  # the zero seed


# ----------------------------------------------------- batched simulation


def simulate_or_divergence(plant, reference, steps, init, w):
    """simulate's log and the step it diverged at (0 if it ran to the end)."""
    try:
        return simulate(plant, "first_order", reference, steps, init, w), 0
    except DivergenceError as err:
        return err.log, err.step


def assert_rows_match_simulate(batch, plant, reference, steps, init):
    """Log i of the batch has simulate's divergence step, every array field and CSV bytes."""
    for i, row in enumerate(batch):
        log, step = simulate_or_divergence(plant, reference, steps, init, row.weighting)
        assert row.diverged_at == step, i
        assert_same_arrays(row, log)
        assert csv_bytes(row) == csv_bytes(log), i


def batch_matching_simulate(plant, reference, steps, init, weightings):
    batch = simulate_batch(plant, reference, steps, init, weightings)
    assert_rows_match_simulate(batch, plant, reference, steps, init)
    return batch


class CountedSolveStep:
    """Stands in for plant._solve_step and counts the rows that took the fallback."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.original = plant_module._solve_step
        monkeypatch.setattr(plant_module, "_solve_step", self)

    def __call__(self, *args):
        self.calls += 1
        return self.original(*args)


@pytest.mark.parametrize("loop", sorted(TEST_LOOPS))
def test_batch_rows_match_simulate_on_sweep_grid(loop, monkeypatch):
    a_blocks, b_blocks = TEST_LOOPS[loop]
    plant = LTIPlant([np.array(a_blocks)], [np.array(b_blocks)])
    size = plant.dims.My
    init = RegressorWindow(dims=plant.dims, k=1, y_history=[np.zeros(size)], u_history=[np.zeros(size)])
    weightings = [Weighting.uniform(lam, size) for lam in LAMBDA_GRID]
    fallback = CountedSolveStep(monkeypatch)
    batch = simulate_batch(plant, RampReference(size), 600, init, weightings)
    assert fallback.calls == 0  # every lead block of these loops passes the stacked Cholesky check
    monkeypatch.undo()
    assert sum(log.diverged_at > 0 for log in batch) == (9 if loop == "mimo2" else 0)  # mimo2 is unstable from 0.55
    assert_rows_match_simulate(batch, plant, RampReference(size), 600, init)


def test_single_row_batch_matches_simulate_on_bench_plant():
    # nonlinear plant through the row-by-row evaluate_batch, with pre-history rows
    plant = Example1Plant()
    init = RegressorWindow(dims=plant.dims, k=3, y_history=[np.full(2, 0.1)] * 3, u_history=[np.full(2, -0.1)] * 2)
    batch = batch_matching_simulate(plant, Example1Reference(), 60, init, [Weighting.uniform(0.2, 2)])
    assert len(batch) == 1 and batch[0].y.shape == (60, 2)
    assert batch[0].converged.all()  # the first-order law always converges, in both kernels


@pytest.mark.parametrize("seed", range(8))
def test_batch_rows_match_simulate_on_random_lti(seed):
    # window lengths, signal sizes, a later first step, and zero weights on
    # wide lead blocks (Mu > My), whose solve takes the fallback
    rng = np.random.default_rng(200 + seed)
    My = 1 + seed % 3
    Mu = int(rng.integers(1, 4))
    a_blocks = [0.3 * rng.normal(size=(My, My)) for _ in range(int(rng.integers(0, 3)))]
    b_blocks = [np.eye(My, Mu) + 0.3 * rng.normal(size=(My, Mu)) for _ in range(1 + seed % 2)]
    plant = LTIPlant(a_blocks, b_blocks)
    k0 = int(rng.integers(1, 4))
    init = RegressorWindow(dims=plant.dims, k=k0, y_history=list(rng.normal(size=(k0, My))),
                           u_history=list(rng.normal(size=(k0, Mu))))
    weightings = [Weighting(rng.uniform(0.0, 1.0, Mu) * (i % 3 != 0)) for i in range(5)]
    batch_matching_simulate(plant, StepReference(My, 0.5), 80, init, weightings)


def rank_one_plant():
    """Both outputs see u1 only, so the lead block [[1, 0], [1, 0]] has rank 1."""
    return LTIPlant([0.5 * np.eye(2)], [np.array([[1.0, 0.0], [1.0, 0.0]])])


def test_mixed_batch_takes_fallback_for_the_singular_row_only(monkeypatch):
    plant = rank_one_plant()
    weightings = [Weighting(np.array([0.5, 0.0])), Weighting(np.array([0.5, 0.5]))]
    fallback = CountedSolveStep(monkeypatch)
    batch = simulate_batch(plant, StepReference(2, 0.5), 40, zero_window(plant.dims), weightings)
    assert fallback.calls == 39  # row 0 at every control step; row 1 stays on the stacked solve
    monkeypatch.undo()
    assert_rows_match_simulate(batch, plant, StepReference(2, 0.5), 40, zero_window(plant.dims))


def test_batch_takes_minimum_norm_for_every_zero_weighted_wide_row(monkeypatch):
    # Mu > My under zero weighting: the minimum-norm increment of _solve_step
    # at every step, whether or not the stacked Cholesky check passes (on this
    # block it passes by rounding at most steps)
    plant = LTIPlant([np.array([[0.4]])], [np.array([[1.12, 0.25]])])
    weightings = [Weighting(np.zeros(2)), Weighting(np.array([0.2, 0.1])), Weighting(np.zeros(2))]
    fallback = CountedSolveStep(monkeypatch)
    batch = simulate_batch(plant, StepReference(1, 0.5), 30, zero_window(plant.dims), weightings)
    assert fallback.calls == 2 * 29  # rows 0 and 2 at every control step
    monkeypatch.undo()
    assert_rows_match_simulate(batch, plant, StepReference(1, 0.5), 30, zero_window(plant.dims))


def test_batch_zero_weighting_on_rank_deficient_lead_raises():
    plant = rank_one_plant()
    weightings = [Weighting(np.array([0.5, 0.5])), Weighting.uniform(0.0, 2)]
    with pytest.raises(RankDeficiencyError):
        simulate(plant, "first_order", StepReference(2, 0.5), 10, zero_window(plant.dims), weightings[1])
    with pytest.raises(RankDeficiencyError):
        simulate_batch(plant, StepReference(2, 0.5), 10, zero_window(plant.dims), weightings)


def test_batch_rejects_bad_setup_before_stepping():
    plant = LTIPlant([0.5 * np.eye(2)], [np.eye(2)])
    init = zero_window(plant.dims)
    with pytest.raises(ShapeError):
        simulate_batch(plant, UnsampledReference(), 10, init, [Weighting.uniform(0.1, 2), Weighting.uniform(0.1, 3)])
    with pytest.raises(ValueError):
        simulate_batch(plant, UnsampledReference(), 10, init, [])
    with pytest.raises(ValueError):
        simulate_batch(plant, UnsampledReference(), 3, zero_window(plant.dims, k=5), [Weighting.uniform(0.1, 2)])
    with pytest.raises(ShapeError):
        simulate_batch(plant, StepReference(3), 10, init, [Weighting.uniform(0.1, 2)])


@pytest.mark.parametrize("component", [0, 1])
def test_batch_flags_nonfinite_perturbed_point(component):
    plant = NaNAtOnePoint(component)
    with pytest.raises(NonFiniteModelError) as err:
        simulate_batch(plant, ZeroReference(2), 10, zero_window(plant.dims), [Weighting.uniform(0.1, 2)] * 2)
    assert err.value.component == component


def test_batch_rejects_nonfinite_pseudo_jacobian_before_solving(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved on a non-finite block")

    monkeypatch.setattr(plant_module, "_stacked_solve_step", no_solve)
    reference = SampleRecorder()
    with warnings.catch_warnings():  # only the central difference itself may overflow
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="input block 1"):
            simulate_batch(SteepStaticMap(), reference, 50, zero_window(Dimensions(1, 1, 0, 1)),
                           [Weighting.uniform(0.1, 1), Weighting.uniform(0.5, 1)])
    assert max(reference.sampled) == 2


def test_batch_row_leaves_at_divergence_with_partial_records():
    # the case of test_simulate_divergence_aborts_with_partial_log next to a row that stays bounded
    plant = scalar_plant(a=3.0, b=1.0)
    init = RegressorWindow(dims=plant.dims, k=1, y_history=[np.array([1.0])], u_history=[np.zeros(1)])
    batch = batch_matching_simulate(plant, ZeroReference(1), 60, init,
                                    [Weighting.uniform(1e9, 1), Weighting.uniform(0.1, 1)])
    assert [log.diverged_at for log in batch] == [14, 0]
    assert len(batch[0]) == 13
    assert len(batch[1]) == 60


# ------------------------------------------------------ log layout edges


def static_two_by_two():
    """y(k+1) = B u(k), no output feedback (Ly = 0), with a nearly singular B."""
    return LTIPlant(a_blocks=[], b_blocks=[[[1.0, 1.0], [0.0, 1e-4]]])


def test_simulate_flags_the_steps_where_the_box_law_caps_out():
    plant = static_two_by_two()
    box = BoxConstraints(lower=np.full(2, -10.0), upper=np.full(2, 10.0))
    log = simulate(plant, "constrained", StepReference(2, 0.5), 6, zero_window(plant.dims), Weighting.uniform(0.0, 2),
                   box=box)
    assert list(log.iterations) == [SWEEP_MAX] * 5 + [0]
    assert list(log.converged) == [False] * 5 + [True]  # the final row runs no law
    assert not any("conv" in name for name in log.csv_header())  # in memory only


def test_csv_rows_of_a_plant_without_output_blocks():
    plant = static_two_by_two()
    w = Weighting.uniform(0.1, 2)
    log = simulate(plant, "first_order", StepReference(2, 0.5), 6, zero_window(plant.dims), w)
    assert log.output_blocks.shape == (6, 0, 2, 2) and log.input_blocks.shape == (6, 1, 2, 2)
    header = log.csv_header()
    assert header[header.index("iters") + 1:] == ["Phi1[0,0]", "Phi1[0,1]", "Phi1[1,0]", "Phi1[1,1]"]
    for n, row in enumerate(log.csv_rows()):
        assert len(row) == len(header)
        assert row[-4:] == PseudoJacobian((), tuple(log.input_blocks[n])).flattened().ravel().tolist()
    assert_cells_round_trip(log)
    batch_matching_simulate(plant, StepReference(2, 0.5), 6, zero_window(plant.dims), [w])


def test_divergence_at_the_first_step_leaves_a_log_without_records():
    plant = static_two_by_two()
    init = RegressorWindow(dims=plant.dims, k=1, y_history=[np.full(2, 2 * DIVERGENCE_LIMIT)],
                           u_history=[np.zeros(2)])
    w = Weighting.uniform(0.1, 2)
    with pytest.raises(DivergenceError) as err:
        simulate(plant, "first_order", StepReference(2, 0.5), 6, init, w)
    batch = batch_matching_simulate(plant, StepReference(2, 0.5), 6, init, [w, Weighting.uniform(0.5, 2)])
    for log in (err.value.log, *batch):
        assert len(log) == 0 and log.diverged_at == 1
        assert log.y.shape == (0, 2) and log.input_blocks.shape == (0, 1, 2, 2)
        lines = csv_bytes(log).splitlines()  # the schema line and the header only
        assert len(lines) == 2 and lines[0] == f"# schema: {SIMLOG_SCHEMA}"
        assert next(csv.reader(lines[1:])) == log.csv_header()
        assert log.csv_rows() == [] and log.violations() == 0
        with pytest.raises(ValueError):
            metrics(log, transient_cutoff=0)


def test_first_step_equal_to_steps_logs_the_window_and_the_final_row():
    plant = scalar_plant()
    init = RegressorWindow(dims=plant.dims, k=4, y_history=[np.array([v]) for v in (4.0, 3.0, 2.0, 1.0)],
                           u_history=[np.array([v]) for v in (0.3, 0.2, 0.1)])
    w = Weighting.uniform(0.1, 1)
    seed = PseudoJacobian.constant(0.5, plant.dims)
    log = simulate(plant, "first_order", StepReference(1, 0.5), 4, init, w, pjm_seed=seed)
    assert len(log) == 4 and log.diverged_at == 0
    np.testing.assert_array_equal(log.y[:, 0], [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(log.u[:, 0], [0.1, 0.2, 0.3, 0.3])  # the final row holds the last input
    np.testing.assert_array_equal(log.delta_u[-1], [0.0])
    np.testing.assert_array_equal(log.input_blocks, np.full((4, 1, 1, 1), 0.5))  # no step ran: the seed
    assert not log.iterations.any() and log.converged.all()
    for variant in VARIANTS:
        box = BoxConstraints(lower=-np.ones(1), upper=np.ones(1)) if variant == "constrained" else None
        assert_same_log(*both_runs(plant, variant, StepReference(1, 0.5), 4, init, w, box=box, pjm_seed=seed))
    batch_matching_simulate(plant, StepReference(1, 0.5), 4, init, [w, Weighting.uniform(0.0, 1)])
