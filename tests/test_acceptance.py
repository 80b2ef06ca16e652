"""Acceptance gate: one test per release criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v` to get a PASS/FAIL line per
criterion.  Each test prints its measured numbers as well, visible with -rA.

Criterion 2 is expected to fail: it asserts the documented closed form
lambda/(lambda+1) for the scalar ramp offset, while both the recursion and
the long simulation settle at lambda itself (see the unit tests, which pin
the measured value).  The criterion is kept as stated rather than weakened.
"""

import math
import time

import numpy as np
import pytest

from mfaclab.analysis import (
    closed_loop_matrix,
    ramp_static_error,
    stability_check,
    step_static_error,
)
from mfaclab.controller import BoxConstraints, Weighting
from mfaclab.edlm import (
    Dimensions,
    PseudoJacobian,
    RegressorWindow,
    pjm_first_order,
    pjm_second_order,
    predict_delta_output,
)
from mfaclab.kinematics import (
    angle_axis_error,
    condition_number,
    default_arm,
    euler_from_rotation,
    forward_kinematics,
    ik_solve,
    pose_to_task,
    rotation_from_euler,
    task_to_pose,
)
from mfaclab.pathgen import (
    PathSpec,
    euler_to_quat,
    generate_path,
    quat_to_euler,
    quintic_solve,
)
from mfaclab.plant import (
    Example1Plant,
    Example1Reference,
    LTIPlant,
    RampReference,
    StepReference,
    ZeroReference,
    simulate,
    simulate_batch,
)

HOME = np.array([-math.pi / 2, 0.0, 0.0, 0.0, -math.pi / 2, 0.0])
GOAL = np.array([math.pi / 2, 0.0, 0.0, 0.0, math.pi / 2, 0.0])


def verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def zero_window(dims, k=1):
    return RegressorWindow(
        dims=dims, k=k,
        y_history=[np.zeros(dims.My)] * max(k, 1),
        u_history=[np.zeros(dims.Mu)] * max(k, 1),
    )


def rodrigues(axis, theta):
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def ramp_sim_offset(lam, steps=5000):
    plant = LTIPlant([], [np.array([[1.0]])])
    log = simulate(
        plant, "first_order", RampReference(1, Ts=1.0), steps=steps,
        init=zero_window(plant.dims), w=Weighting.uniform(lam, 1),
    )
    last = log.records[-1]
    return float(last.y_ref[0] - last.y[0])


def test_criterion_1_linear_plants_recovered_exactly():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        My = int(rng.integers(1, 4))
        Mu = int(rng.integers(1, 4))
        ny = int(rng.integers(0, 2))
        nu = int(rng.integers(0, 2))
        # scale the output blocks so their norms sum below 1: stable plant
        a_blocks = [rng.normal(size=(My, My)) for _ in range(ny + 1)]
        a_blocks = [0.8 * a / (np.linalg.norm(a, 2) * (ny + 1)) for a in a_blocks]
        b_blocks = [rng.normal(size=(My, Mu)) for _ in range(nu + 1)]
        plant = LTIPlant(a_blocks, b_blocks)
        dims = plant.dims
        point = RegressorWindow(
            dims=dims, k=10,
            y_history=[rng.normal(size=My) for _ in range(dims.Ly + 1)],
            u_history=[rng.normal(size=Mu) for _ in range(dims.Lu + 1)],
        )
        pjm = pjm_first_order(plant, point)
        for est, true in zip(pjm.output_blocks, a_blocks):
            worst = max(worst, float(np.max(np.abs(est - true))))
        for est, true in zip(pjm.input_blocks, b_blocks):
            worst = max(worst, float(np.max(np.abs(est - true))))
    ok = worst <= 1e-8
    assert verdict(1, ok, f"50 plants, max coefficient error {worst:.3e} (limit 1e-8)")


def test_criterion_2_ramp_offset_closed_form():
    lambdas = (0.0, 0.05, 0.2, 0.5, 1.0)
    claimed = [lam / (lam + 1.0) for lam in lambdas]
    pjm = PseudoJacobian((), (np.array([[1.0]]),))
    analytic = [
        float(ramp_static_error(pjm, Weighting.uniform(lam, 1), Ts=1.0)[0])
        for lam in lambdas
    ]
    measured = [ramp_sim_offset(lam) for lam in lambdas]
    zero_ok = abs(measured[0]) < 1e-6
    monotone_ok = all(b > a for a, b in zip(measured, measured[1:]))
    form_ok = all(abs(a - c) <= 1e-9 for a, c in zip(analytic, claimed))
    match_ok = all(
        abs(m - a) <= 0.01 * a for m, a in zip(measured[1:], analytic[1:])
    )
    rows = ", ".join(
        f"lam={lam}: analytic={a:.6f}, sim={m:.6f}, lam/(lam+1)={c:.6f}"
        for lam, a, m, c in zip(lambdas, analytic, measured, claimed)
    )
    ok = zero_ok and monotone_ok and form_ok and match_ok
    assert verdict(
        2, ok,
        f"zero-lam ok={zero_ok}, monotone ok={monotone_ok}, "
        f"closed form lam/(lam+1) ok={form_ok}, sim-vs-analytic 1% ok={match_ok} "
        f"[{rows}]",
    )


def test_criterion_3_step_error_vanishes():
    rng = np.random.default_rng(103)
    worst_analytic = 0.0
    worst_sim = 0.0
    cases = 0
    while cases < 20:
        a = rng.normal(size=(2, 2))
        a = 0.6 * a / np.linalg.norm(a, 2)
        b = np.eye(2) + 0.2 * rng.normal(size=(2, 2))
        lam = float(rng.uniform(0.0, 1.0)) or 1.0  # lambda in (0, 1]
        pjm = PseudoJacobian((a,), (b,))
        w = Weighting.uniform(lam, 2)
        report = stability_check(closed_loop_matrix(pjm, w))
        if not report.stable or max(abs(r) for r in report.characteristic_roots) > 0.995:
            continue
        cases += 1
        worst_analytic = max(worst_analytic, float(np.max(np.abs(step_static_error(pjm, w)))))
        plant = LTIPlant([a], [b])
        log = simulate(
            plant, "first_order", StepReference(2, 1.0), steps=10000,
            init=zero_window(plant.dims), w=w,
        )
        last = log.records[-1]
        worst_sim = max(worst_sim, float(np.max(np.abs(last.y_ref - last.y))))
    ok = worst_analytic <= 1e-10 and worst_sim <= 1e-6
    assert verdict(
        3, ok,
        f"20 loops, analytic step error {worst_analytic:.3e} (limit 1e-10), "
        f"simulated {worst_sim:.3e} (limit 1e-6)",
    )


# regression baselines for the smooth segment (100 < k <= 400), frozen from
# the first green run of each controller variant
BASELINES = {
    "first_order": (0.020, 0.026),
    "quartic": (0.019, 0.024),
    "constrained": (0.28, 0.27),
}


def test_criterion_4_bench_plant_reproduction():
    started = time.monotonic()
    plant = Example1Plant()
    dims = plant.dims
    init = RegressorWindow(
        dims=dims, k=3,
        y_history=[np.zeros(2)] * 3, u_history=[np.zeros(2)] * 2,
    )
    box = BoxConstraints(lower=np.array([-0.3, -0.5]), upper=np.array([0.1, 0.5]))
    details = []
    ok = True
    for variant, baseline in BASELINES.items():
        log = simulate(
            plant, variant, Example1Reference(), steps=800, init=init,
            w=Weighting.uniform(0.2, 2),
            box=box if variant == "constrained" else None,
            pjm_seed=PseudoJacobian.constant(0.01, dims),
        )
        bounded = max(float(np.max(np.abs(r.y))) for r in log.records) < 1e3
        err = np.array([np.abs(r.y_ref - r.y) for r in log.records if 100 < r.k <= 400])
        smooth_max = err.max(axis=0)
        under = bool(np.all(smooth_max < np.asarray(baseline)))
        in_box = all(box.contains(r.u) for r in log.records)
        if variant == "constrained":
            ok = ok and in_box
        ok = ok and bounded and under
        details.append(
            f"{variant}: max err {smooth_max[0]:.4f}/{smooth_max[1]:.4f} "
            f"(baseline {baseline[0]}/{baseline[1]}), bounded={bounded}"
            + (f", violations=0 ok={in_box}" if variant == "constrained" else "")
        )
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    assert verdict(4, ok, "; ".join(details) + f"; {elapsed:.1f}s (limit 60s)")


def test_criterion_5_traverse_through_singular_frames():
    started = time.monotonic()
    chain = default_arm()
    start = pose_to_task(forward_kinematics(chain, HOME))
    goal = pose_to_task(forward_kinematics(chain, GOAL))
    path = generate_path(PathSpec(start=start, goal=goal, tf=10.0, T0=0.005))

    q = HOME.copy()
    iterations = []
    lam_values = set()
    conds = []
    max_pos = max_ori = 0.0
    for target in path.samples:
        res = ik_solve(chain, q, task_to_pose(target))
        q = res.q
        iterations.append(res.iterations)
        lam_values.update(res.lambda_trace)
        conds.append(res.max_condition)
        max_pos = max(max_pos, res.position_error)
        max_ori = max(max_ori, res.orientation_error)
    elapsed = time.monotonic() - started

    cap_ok = max(iterations) <= 30
    lam_ok = lam_values <= {0.0, 0.05, 0.1}
    flags = [c > 20000 for c in conds]
    intervals = sum(1 for i, f in enumerate(flags) if f and (i == 0 or not flags[i - 1]))
    cond_ok = intervals >= 2
    err_ok = max_pos <= 2.0 and max_ori <= 1e-2
    time_ok = elapsed < 120.0
    ok = cap_ok and lam_ok and cond_ok and err_ok and time_ok
    assert verdict(
        5, ok,
        f"iters<=30 ok={cap_ok} (max {max(iterations)}), lambda set {sorted(lam_values)}, "
        f"{intervals} ill-conditioned intervals (need >=2), "
        f"max pos err {max_pos:.3f} mm (limit 2), max ori err {max_ori:.2e} rad "
        f"(limit 1e-2), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_6_rotation_invariants():
    chain = default_arm()
    rng = np.random.default_rng(106)
    worst_orth = 0.0
    for _ in range(10000):
        R = forward_kinematics(chain, rng.uniform(-math.pi, math.pi, size=6)).rotation
        worst_orth = max(worst_orth, float(np.max(np.abs(R.T @ R - np.eye(3)))))

    worst_euler = 0.0
    worst_quat = 0.0
    for _ in range(10000):
        angles = (
            rng.uniform(-math.pi + 1e-6, math.pi - 1e-6),
            rng.uniform(-1.45, 1.45),
            rng.uniform(-math.pi + 1e-6, math.pi - 1e-6),
        )
        back = euler_from_rotation(rotation_from_euler(*angles))
        worst_euler = max(worst_euler, float(np.max(np.abs(np.subtract(back, angles)))))
        back = quat_to_euler(euler_to_quat(*angles))
        worst_quat = max(worst_quat, float(np.max(np.abs(np.subtract(back, angles)))))

    worst_aa = 0.0
    for _ in range(10000):
        axis = rng.normal(size=3)
        axis = axis / np.linalg.norm(axis)
        # sin-branch extraction amplifies entry rounding by ~eps/sin^2(theta),
        # so the generic sweep stops 1e-2 short of pi (measured max 1.8e-11
        # there vs 1.7e-9 at a 1e-3 gap); the half-turn branch itself is
        # covered by the exact matrices below
        theta = rng.uniform(1e-3, math.pi - 1e-2)
        v = angle_axis_error(rodrigues(axis, theta), np.eye(3))
        worst_aa = max(worst_aa, float(np.max(np.abs(v - axis * theta))))
    # the theta -> pi branch, on exactly representable half-turn matrices
    half_turns = [
        (np.array([1.0, 0.0, 0.0]), np.diag([1.0, -1.0, -1.0])),
        (np.array([0.0, 1.0, 0.0]), np.diag([-1.0, 1.0, -1.0])),
        (np.array([0.0, 0.0, 1.0]), np.diag([-1.0, -1.0, 1.0])),
        (np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0),
         np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])),
        (np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0),
         np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])),
        (np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0),
         np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])),
    ]
    for axis, R in half_turns:
        v = angle_axis_error(R, np.eye(3))
        worst_aa = max(worst_aa, float(np.max(np.abs(v - axis * math.pi))))

    ok = worst_orth <= 1e-10 and worst_euler <= 1e-12 and worst_quat <= 1e-12 and worst_aa <= 1e-9
    assert verdict(
        6, ok,
        f"orthonormality {worst_orth:.2e} (limit 1e-10), euler {worst_euler:.2e} "
        f"and quaternion {worst_quat:.2e} round trips (limit 1e-12), "
        f"angle-axis {worst_aa:.2e} incl. half turns (limit 1e-9)",
    )


def test_criterion_7_quintic_boundaries():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(200):
        S, v0, acc0, vf, accf = rng.uniform(-5.0, 5.0, size=5)
        tf = rng.uniform(0.2, 5.0)
        c = quintic_solve(S, v0, acc0, vf, accf, tf)
        a = np.asarray(c.a)

        def eval_all(t):
            s = float(sum(a[i] * t**i for i in range(6)))
            v = float(sum(i * a[i] * t ** (i - 1) for i in range(1, 6)))
            acc = float(sum(i * (i - 1) * a[i] * t ** (i - 2) for i in range(2, 6)))
            return s, v, acc

        got0 = eval_all(0.0)
        gotf = eval_all(tf)
        for got, want in ((got0, (0.0, v0, acc0)), (gotf, (S, vf, accf))):
            worst = max(worst, float(np.max(np.abs(np.subtract(got, want)))))
    random_ok = worst <= 1e-9

    exact_ok = True
    for S, T in ((1.0, 1.0), (2.0, 2.0), (-3.7, 1.3), (0.25, 8.0), (413.0, 10.0)):
        c = quintic_solve(S, tf=T)
        exact_ok = exact_ok and c.a[:3] == (0.0, 0.0, 0.0)
        exact_ok = exact_ok and c.a[3] == 10.0 * S / T**3
        exact_ok = exact_ok and c.a[4] == -15.0 * S / T**4
        exact_ok = exact_ok and c.a[5] == 6.0 * S / T**5
    ok = random_ok and exact_ok
    assert verdict(
        7, ok,
        f"200 random boundary sets, worst residual {worst:.3e} (limit 1e-9); "
        f"zero-boundary closed form exact: {exact_ok}",
    )


LOOPS = {
    "scalar": ([[0.5]], [[1.0]]),
    "unstable-scalar": ([[2.0]], [[1.0]]),
    "mimo2": ([[3.0, 0.2], [0.0, 0.5]], [[1.0, 0.0], [0.0, 1.0]]),
}


# Criterion 8's grid, chosen off the exact flip points so verdicts never sit
# on a root-rounding knife edge.
CRITERION_8_GRID = [round(0.05 + 0.1 * i, 2) for i in range(30)]


def flip_points(a_blocks, b_blocks):
    """Exact stability boundaries lambda* = b^2 / (a - 1) of the diagonal scalar loops with a > 1.

    Each loop has Ly = Lu = 1 and triangular A with diagonal B, so its poles
    are those of the scalar loops on the diagonal; the scalar loop's
    characteristic polynomial is (lam + b^2) z^2 - lam (1 + a) z + lam a.
    """
    A, B = np.asarray(a_blocks, dtype=float), np.asarray(b_blocks, dtype=float)
    assert np.array_equal(A, np.triu(A)) and np.array_equal(B, np.diag(np.diag(B)))
    return [b * b / (a - 1.0) for a, b in zip(np.diag(A), np.diag(B)) if a > 1.0]


def test_criterion_8_grid_lies_off_the_exact_flip_points():
    stars = {name: flip_points(*blocks) for name, blocks in LOOPS.items()}
    assert stars == {"scalar": [], "unstable-scalar": [1.0], "mimo2": [0.5]}
    for name, (a_blocks, b_blocks) in LOOPS.items():
        pjm = PseudoJacobian((np.asarray(a_blocks, dtype=float),), (np.asarray(b_blocks, dtype=float),))
        for star in stars[name]:
            # 0.05 up to the rounding of the decimal grid values
            assert min(abs(lam - star) for lam in CRITERION_8_GRID) >= 0.05 - 1e-12, name
            below = Weighting.uniform(star * (1.0 - 1e-6), pjm.My)
            above = Weighting.uniform(star * (1.0 + 1e-6), pjm.My)
            assert stability_check(closed_loop_matrix(pjm, below)).stable, name
            assert not stability_check(closed_loop_matrix(pjm, above)).stable, name


def test_criterion_8_stability_oracle_agrees_with_simulation():
    grid = CRITERION_8_GRID
    disagreements = []
    for name, (a_blocks, b_blocks) in LOOPS.items():
        plant = LTIPlant([a_blocks], [b_blocks])
        size = plant.dims.My
        pjm = PseudoJacobian(
            (np.asarray(a_blocks, dtype=float),), (np.asarray(b_blocks, dtype=float),)
        )
        init = RegressorWindow(
            dims=plant.dims, k=1,
            y_history=[np.ones(size)], u_history=[np.zeros(size)],
        )
        weightings = [Weighting.uniform(lam, size) for lam in grid]
        # one batched run per loop; row i is simulate's first-order run at grid[i]
        batch = simulate_batch(plant, ZeroReference(size), 5000, init, weightings)
        for i, (lam, w) in enumerate(zip(grid, weightings)):
            predicted = stability_check(closed_loop_matrix(pjm, w)).stable
            if batch.diverged_at[i]:
                bounded = False
            else:
                peak = float(np.max(np.abs(batch.y[i])))
                bounded = peak <= 1e3
            if predicted != bounded:
                disagreements.append(f"{name}@lam={lam}")
    ok = not disagreements
    assert verdict(
        8, ok,
        f"90 grid points across 3 loops, disagreements: {disagreements or 'none'}",
    )


def test_criterion_9_curvature_correction_is_third_order():
    plant = Example1Plant()
    dims = plant.dims  # Ly=1, Lu=2
    point = RegressorWindow(
        dims=dims, k=5,
        y_history=[np.array([0.3, -0.2]), np.array([0.25, -0.1])],
        u_history=[np.array([0.1, 0.05]), np.array([0.0, 0.1]), np.array([0.05, 0.0])],
    )
    base_args = [point.y_history[0], point.u_history[0], point.u_history[1]]
    d_y = np.array([0.4, -0.3])
    d_u0 = np.array([0.5, 0.2])
    d_u1 = np.array([-0.3, 0.4])

    hs = [0.2 / 2**i for i in range(6)]  # five halvings
    errs = []
    for h in hs:
        dy, du0, du1 = d_y * h, d_u0 * h, d_u1 * h
        pjm2 = pjm_second_order(plant, point, [dy], [du0, du1])
        predicted = predict_delta_output(pjm2, np.concatenate([dy, du0, du1]))
        truth = plant.evaluate(
            [base_args[0] + dy, base_args[1] + du0, base_args[2] + du1]
        ) - plant.evaluate(base_args)
        errs.append(float(np.max(np.abs(truth - predicted))))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    ok = slope >= 2.7
    assert verdict(
        9, ok,
        f"prediction error {errs[0]:.2e} -> {errs[-1]:.2e} over 5 halvings, "
        f"log-log slope {slope:.2f} (limit 2.7)",
    )
