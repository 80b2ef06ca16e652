"""Tests for quintic timing laws, quaternion arcs, and Cartesian path sampling."""

import math

import numpy as np
import pytest

from mfaclab.cli import EXAMPLE2_GOAL, EXAMPLE2_HOME, _blend_task
from mfaclab.errors import DegenerateDirectionError, ShapeError
from mfaclab.kinematics import (
    TaskVector,
    angle_axis_error,
    default_arm,
    forward_kinematics,
    pose_to_task,
    rotation_from_euler,
)
from mfaclab.pathgen import (
    GEODESIC_TOL,
    CartesianPath,
    PathSpec,
    QuinticCoeffs,
    UnitQuaternion,
    euler_to_quat,
    generate_path,
    line_position,
    orientation_arc_length,
    quat_geodesic,
    quat_to_euler,
    quintic_eval,
    quintic_solve,
)


def poly_oracle(c, t):
    # straight power-basis evaluation, independent of the module's Horner form
    a = np.asarray(c.a)
    powers = np.array([t**i for i in range(6)])
    s = float(a @ powers)
    v = float(sum(i * a[i] * t ** (i - 1) for i in range(1, 6)))
    acc = float(sum(i * (i - 1) * a[i] * t ** (i - 2) for i in range(2, 6)))
    return s, v, acc


# ---------------------------------------------------------------- quintics


def test_quintic_zero_boundary_closed_form():
    c = quintic_solve(2.0, tf=2.0)
    assert c.a == (0.0, 0.0, 0.0, 2.5, -1.875, 0.375)  # (10S/T^3, -15S/T^4, 6S/T^5)
    c = quintic_solve(7.0, tf=3.0)
    T = 3.0
    np.testing.assert_allclose(
        c.a[3:], [10.0 * 7.0 / T**3, -15.0 * 7.0 / T**4, 6.0 * 7.0 / T**5], rtol=1e-15
    )


def test_quintic_zero_goal_is_identically_zero():
    c = quintic_solve(0.0, tf=1.5)
    assert c.a == (0.0,) * 6
    assert quintic_eval(c, 0.7) == (0.0, 0.0, 0.0)


def test_quintic_random_boundaries_meet_constraints():
    rng = np.random.default_rng(19)
    for _ in range(50):
        S, v0, acc0, vf, accf = rng.uniform(-5.0, 5.0, size=5)
        tf = rng.uniform(0.3, 4.0)
        c = quintic_solve(S, v0, acc0, vf, accf, tf)
        np.testing.assert_allclose(poly_oracle(c, 0.0), [0.0, v0, acc0], atol=1e-9)
        np.testing.assert_allclose(poly_oracle(c, tf), [S, vf, accf], atol=1e-9)
        # the module evaluator agrees with the power-basis oracle mid-arc
        t = rng.uniform(0.0, tf)
        np.testing.assert_allclose(quintic_eval(c, t), poly_oracle(c, t), atol=1e-10)


def test_quintic_midpoint_of_rest_to_rest_arc():
    c = quintic_solve(3.0, tf=2.0)
    s, v, acc = quintic_eval(c, 1.0)
    assert s == pytest.approx(1.5, rel=1e-12)
    assert acc == pytest.approx(0.0, abs=1e-12)  # inflection at the midpoint
    assert v > 0.0


def test_quintic_eval_clamps_time():
    c = quintic_solve(1.0, v0=0.3, tf=2.0)
    assert quintic_eval(c, -1.0) == quintic_eval(c, 0.0)
    assert quintic_eval(c, 99.0) == quintic_eval(c, 2.0)


def test_quintic_validation():
    with pytest.raises(ValueError):
        quintic_solve(1.0, tf=0.0)
    with pytest.raises(ValueError):
        quintic_solve(1.0, tf=-2.0)
    with pytest.raises(ShapeError):
        QuinticCoeffs(a=(0.0, 1.0, 2.0), tf=1.0)


# ------------------------------------------------------------ line segment


def test_line_position_along_segment():
    p0, pf = [1.0, 2.0, 3.0], [4.0, 6.0, 3.0]  # chord length 5
    np.testing.assert_array_equal(line_position(p0, pf, 0.0), p0)
    np.testing.assert_allclose(line_position(p0, pf, 5.0), pf, rtol=1e-15)
    np.testing.assert_allclose(line_position(p0, pf, 2.5), [2.5, 4.0, 3.0], rtol=1e-15)


def test_line_position_degenerate():
    p = [1.0, 1.0, 1.0]
    np.testing.assert_array_equal(line_position(p, p, 0.0), p)
    with pytest.raises(DegenerateDirectionError):
        line_position(p, p, 0.5)
    with pytest.raises(ShapeError):
        line_position([1.0, 2.0], [3.0, 4.0], 0.0)


# -------------------------------------------------------------- quaternion


def test_quaternion_normalizes_and_fixes_sign():
    q = UnitQuaternion(0.0, 0.0, 0.0, 2.0)
    np.testing.assert_array_equal(q.as_array(), [0.0, 0.0, 0.0, 1.0])
    flipped = UnitQuaternion(0.0, 0.0, 0.6, -0.8)
    assert flipped.scalar == pytest.approx(0.8)
    assert flipped.e3 == pytest.approx(-0.6)
    with pytest.raises(ValueError):
        UnitQuaternion(0.0, 0.0, 0.0, 0.0)


def test_quaternion_algebra():
    q = euler_to_quat(0.4, -0.2, 0.9)
    ident = q.multiply(q.conjugate())
    np.testing.assert_allclose(ident.as_array(), [0.0, 0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(UnitQuaternion.identity().rotation_matrix(), np.eye(3), atol=1e-15)


def test_euler_to_quat_values():
    np.testing.assert_array_equal(euler_to_quat(0.0, 0.0, 0.0).as_array(), [0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(
        euler_to_quat(math.pi, 0.0, 0.0).as_array(), [1.0, 0.0, 0.0, 0.0], atol=1e-12
    )


def test_quat_rotation_matrix_matches_euler_matrix():
    # cross-representation oracle against the entrywise Euler matrix
    rng = np.random.default_rng(37)
    for _ in range(50):
        a, b, g = rng.uniform(-math.pi, math.pi, size=3)
        np.testing.assert_allclose(
            euler_to_quat(a, b, g).rotation_matrix(), rotation_from_euler(a, b, g), atol=1e-12
        )


def test_quat_to_euler_round_trip():
    angles = (0.3, -0.5, 1.1)
    back = quat_to_euler(euler_to_quat(*angles))
    np.testing.assert_allclose(back, angles, atol=1e-12)
    np.testing.assert_allclose(quat_to_euler(UnitQuaternion.identity()), (0.0, 0.0, 0.0), atol=1e-15)


def test_quat_to_euler_gimbal_clamp():
    # just inside the lock the generic formulas still hold
    near = (0.2, math.pi / 2 - 1e-6, -0.4)
    np.testing.assert_allclose(quat_to_euler(euler_to_quat(*near)), near, atol=1e-9)
    # at the exact lock the asin argument is clamped and the angles stay
    # finite; unique recovery there is the rotation-matrix converter's job
    alpha, beta, gamma = quat_to_euler(euler_to_quat(0.2, math.pi / 2, 0.0))
    assert beta == pytest.approx(math.pi / 2, abs=1e-7)
    assert math.isfinite(alpha) and math.isfinite(gamma)


def test_quat_geodesic_endpoints_and_range():
    q0 = euler_to_quat(0.1, 0.4, -0.2)
    qf = euler_to_quat(-0.7, 0.0, 0.9)
    np.testing.assert_allclose(quat_geodesic(q0, qf, 0.0).as_array(), q0.as_array(), atol=1e-15)
    np.testing.assert_allclose(quat_geodesic(q0, qf, 1.0).as_array(), qf.as_array(), atol=1e-12)
    with pytest.raises(ValueError):
        quat_geodesic(q0, qf, 1.2)
    with pytest.raises(ValueError):
        quat_geodesic(q0, qf, -0.1)


def test_quat_geodesic_midpoint_is_half_rotation():
    q0 = UnitQuaternion.identity()
    qf = euler_to_quat(0.0, 0.0, math.pi / 2)
    mid = quat_geodesic(q0, qf, 0.5)
    np.testing.assert_allclose(
        mid.rotation_matrix(), rotation_from_euler(0.0, 0.0, math.pi / 4), atol=1e-12
    )
    # coincident endpoints short-circuit instead of dividing by sin(0)
    same = quat_geodesic(q0, q0, 0.5)
    np.testing.assert_array_equal(same.as_array(), q0.as_array())


def test_quat_arc_takes_short_way_round():
    # a 3pi/2 turn is stored as its pi/2 complement by sign canonicalization
    q0 = UnitQuaternion.identity()
    qf = euler_to_quat(0.0, 0.0, 3.0 * math.pi / 2.0)
    assert orientation_arc_length(q0, qf) == pytest.approx(math.pi / 2, rel=1e-12)


def test_orientation_arc_length_values():
    q = euler_to_quat(0.5, -0.1, 0.8)
    assert orientation_arc_length(q, q) == 0.0
    assert orientation_arc_length(
        UnitQuaternion.identity(), euler_to_quat(math.pi, 0.0, 0.0)
    ) == pytest.approx(math.pi, rel=1e-12)


def test_orientation_arc_length_matches_angle_axis_oracle():
    rng = np.random.default_rng(43)
    for _ in range(50):
        a1 = rng.uniform(-1.2, 1.2, size=3)
        a2 = rng.uniform(-1.2, 1.2, size=3)
        arc = orientation_arc_length(euler_to_quat(*a1), euler_to_quat(*a2))
        theta = np.linalg.norm(
            angle_axis_error(rotation_from_euler(*a1), rotation_from_euler(*a2))
        )
        assert arc == pytest.approx(theta, abs=1e-10)


# ------------------------------------------------------------ path sampling


def task(x, y, z, alpha=0.0, beta=0.0, gamma=0.0):
    return TaskVector(x=x, y=y, z=z, alpha=alpha, beta=beta, gamma=gamma)


def test_path_spec_validation():
    start, goal = task(0, 0, 0), task(1, 0, 0)
    with pytest.raises(ValueError):
        PathSpec(start=start, goal=goal, tf=0.0, T0=0.1)
    with pytest.raises(ValueError):
        PathSpec(start=start, goal=goal, tf=1.0, T0=0.0)
    with pytest.raises(ValueError):
        PathSpec(start=start, goal=goal, tf=1.0, T0=2.0)


def test_generate_path_sample_grid():
    path = generate_path(PathSpec(start=task(0, 0, 0), goal=task(1, 0, 0), tf=1.0, T0=0.3))
    np.testing.assert_allclose(path.times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=1e-15)
    assert len(path) == 5
    # an exact divisor still lands the final sample on tf exactly once
    path = generate_path(PathSpec(start=task(0, 0, 0), goal=task(1, 0, 0), tf=1.0, T0=0.25))
    np.testing.assert_allclose(path.times, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=1e-15)


def test_generate_path_pins_endpoints_verbatim():
    start = task(0.0, -413.0, 62.0, math.pi / 2, -math.pi / 2, 0.0)
    goal = task(0.0, 267.0, 62.0, math.pi / 2, math.pi / 2, 0.0)
    path = generate_path(PathSpec(start=start, goal=goal, tf=10.0, T0=0.5))
    assert path.samples[0] is start
    assert path.samples[-1] is goal


def test_generate_path_positions_on_chord_and_monotone():
    start = task(1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
    goal = task(5.0, -2.0, 7.0, -0.4, 0.5, 1.2)
    path = generate_path(PathSpec(start=start, goal=goal, tf=2.0, T0=0.1))
    p0, pf = start.position, goal.position
    direction = pf - p0
    arcs = []
    for sample in path.samples:
        offset = sample.position - p0
        np.testing.assert_allclose(np.cross(offset, direction), np.zeros(3), atol=1e-9)
        arcs.append(float(np.linalg.norm(offset)))
    assert arcs[0] == 0.0
    assert arcs[-1] == pytest.approx(np.linalg.norm(direction), rel=1e-12)
    assert all(b >= a - 1e-12 for a, b in zip(arcs, arcs[1:]))


def test_generate_path_orientation_arc_monotone():
    start = task(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    goal = task(1.0, 0.0, 0.0, 0.9, -0.4, 1.3)
    path = generate_path(PathSpec(start=start, goal=goal, tf=1.0, T0=0.05))
    q0 = euler_to_quat(*start.angles)
    arcs = [orientation_arc_length(q0, euler_to_quat(*s.angles)) for s in path.samples]
    total = orientation_arc_length(q0, euler_to_quat(*goal.angles))
    assert arcs[0] == 0.0
    assert arcs[-1] == pytest.approx(total, abs=1e-9)
    assert all(b >= a - 1e-9 for a, b in zip(arcs, arcs[1:]))
    # implied rotations stay orthonormal along the whole arc
    for s in path.samples:
        R = rotation_from_euler(*s.angles)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-10)


def test_generate_path_pure_translation_keeps_orientation():
    angles = (0.2, -0.3, 0.9)
    start = task(0.0, 0.0, 0.0, *angles)
    goal = task(3.0, 0.0, 4.0, *angles)
    path = generate_path(PathSpec(start=start, goal=goal, tf=1.0, T0=0.2))
    for sample in path.samples:
        np.testing.assert_allclose(sample.angles, angles, atol=1e-12)


def test_generate_path_pure_rotation():
    start = task(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    goal = task(1.0, 1.0, 1.0, 0.0, 0.0, 1.0)
    path = generate_path(PathSpec(start=start, goal=goal, tf=1.0, T0=0.25))
    for sample in path.samples:
        np.testing.assert_array_equal(sample.position, start.position)
    with pytest.raises(ValueError):
        generate_path(PathSpec(start=start, goal=start, tf=1.0, T0=0.25))


def per_sample_angles(spec):
    """generate_path's orientation samples with quat_geodesic(q0, qf, tau)
    formed anew for every sample, endpoints included."""
    q0 = euler_to_quat(*spec.start.angles)
    qf = euler_to_quat(*spec.goal.angles)
    arc = orientation_arc_length(q0, qf)
    timing = quintic_solve(arc, tf=spec.tf)
    times = np.minimum(np.arange(math.ceil(spec.tf / spec.T0) + 1) * spec.T0, spec.tf)
    angles = []
    for t in times:
        tau = min(max(quintic_eval(timing, t)[0] / arc, 0.0), 1.0) if arc >= GEODESIC_TOL else 0.0
        angles.append(quat_to_euler(quat_geodesic(q0, qf, tau)))
    return angles


def example2_frames():
    chain = default_arm()
    return tuple(pose_to_task(forward_kinematics(chain, np.array(q))) for q in (EXAMPLE2_HOME, EXAMPLE2_GOAL))


@pytest.mark.parametrize("case", ["default traverse", "sub-path 0.4 to 0.6", "shared orientation"])
def test_generate_path_matches_per_sample_geodesic(case):
    home, goal = example2_frames()
    if case == "sub-path 0.4 to 0.6":
        home, goal = _blend_task(home, goal, 0.4), _blend_task(home, goal, 0.6)
    elif case == "shared orientation":
        goal = task(*goal.position, *home.angles)
        half = orientation_arc_length(euler_to_quat(*home.angles), euler_to_quat(*goal.angles)) / 2.0
        assert half < GEODESIC_TOL
    spec = PathSpec(start=home, goal=goal, tf=10.0, T0=0.005)  # criterion 5's sampling
    path = generate_path(spec)
    expected = per_sample_angles(spec)
    assert len(path) == len(expected) == 2001
    # the endpoints are pinned to the spec's task vectors; every sample between
    # them has the per-sample geodesic's bits
    got = np.array([s.angles for s in path.samples[1:-1]])
    assert got.tobytes() == np.array(expected[1:-1]).tobytes()
    assert path.samples[0] is spec.start and path.samples[-1] is spec.goal
