"""Tests for the DH chain, rotation conversions, Jacobian, and the IK solver."""

import math

import numpy as np
import pytest

from mfaclab import kinematics
from mfaclab.errors import InvalidRotationError, ShapeError
from mfaclab.kinematics import (
    DHRow,
    KinematicChain,
    Pose,
    TaskVector,
    angle_axis_error,
    condition_number,
    default_arm,
    euler_from_rotation,
    forward_kinematics,
    ik_solve,
    parse_chain,
    pose_and_jacobian,
    pose_to_task,
    rotation_from_euler,
    task_to_pose,
)

HOME = np.array([-math.pi / 2, 0.0, 0.0, 0.0, -math.pi / 2, 0.0])
GOAL = np.array([math.pi / 2, 0.0, 0.0, 0.0, math.pi / 2, 0.0])


def rodrigues(axis, theta):
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


# --------------------------------------------------------------- DH tables


def test_dh_row_zero_is_identity():
    T = DHRow(name="z", alpha_prev=0.0, a_prev=0.0, d=0.0, revolute=True).transform()
    np.testing.assert_allclose(T, np.eye(4), atol=1e-15)


def test_dh_row_fixed_translation():
    base = DHRow(name="base", alpha_prev=0.0, a_prev=0.0, d=342.0, revolute=False)
    T = base.transform()
    np.testing.assert_allclose(T[:3, :3], np.eye(3), atol=1e-15)
    np.testing.assert_allclose(T[:3, 3], [0.0, 0.0, 342.0], atol=1e-15)
    # q is ignored on structural rows
    np.testing.assert_allclose(base.transform(q=1.3)[:3, 3], [0.0, 0.0, 342.0])


def test_dh_row_hand_product():
    row = DHRow(name="j2", alpha_prev=-math.pi / 2, a_prev=40.0, d=0.0, revolute=True)
    T = row.transform(q=math.pi / 2)
    np.testing.assert_allclose(
        T[:3, :3], [[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]], atol=1e-15
    )
    np.testing.assert_allclose(T[:3, 3], [40.0, 0.0, 0.0], atol=1e-15)


def test_fixed_row_theta_offset():
    row = DHRow(name="elbow", alpha_prev=0.0, a_prev=0.0, d=0.0, revolute=False,
                theta_offset=math.pi / 2)
    np.testing.assert_allclose(
        row.transform()[:3, :3], [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        atol=1e-15,
    )


def test_chain_requires_a_joint():
    fixed = DHRow(name="f", alpha_prev=0.0, a_prev=0.0, d=1.0, revolute=False)
    with pytest.raises(ValueError):
        KinematicChain(rows=(fixed,))


# --------------------------------------------------------------------- FK


def test_fk_matches_elementary_transform_oracle():
    # same chain composed from axis translations/rotations instead of the
    # closed-form row matrix
    def rot_x(t):
        T = np.eye(4)
        T[:3, :3] = rodrigues([1, 0, 0], t)
        return T

    def rot_z(t):
        T = np.eye(4)
        T[:3, :3] = rodrigues([0, 0, 1], t)
        return T

    def trans(x, z):
        T = np.eye(4)
        T[0, 3] = x
        T[2, 3] = z
        return T

    chain = default_arm()
    rng = np.random.default_rng(23)
    for _ in range(10):
        q = rng.uniform(-math.pi, math.pi, size=6)
        T = np.eye(4)
        idx = 0
        for row in chain.rows:
            theta = (q[idx] if row.revolute else 0.0) + row.theta_offset
            if row.revolute:
                idx += 1
            T = T @ rot_x(row.alpha_prev) @ trans(row.a_prev, 0.0) @ rot_z(theta) @ trans(0.0, row.d)
        pose = forward_kinematics(chain, q)
        np.testing.assert_allclose(pose.rotation, T[:3, :3], atol=1e-9)
        np.testing.assert_allclose(pose.position, T[:3, 3], atol=1e-9)


def test_fk_rotations_are_orthonormal():
    chain = default_arm()
    rng = np.random.default_rng(31)
    for _ in range(50):
        R = forward_kinematics(chain, rng.uniform(-math.pi, math.pi, size=6)).rotation
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_fk_named_postures():
    chain = default_arm()
    home = pose_to_task(forward_kinematics(chain, HOME)).as_array()
    np.testing.assert_allclose(
        home, [0.0, -413.0, 62.0, math.pi / 2, -math.pi / 2, 0.0], atol=1e-9
    )
    goal = pose_to_task(forward_kinematics(chain, GOAL)).as_array()
    np.testing.assert_allclose(
        goal, [0.0, 267.0, 62.0, math.pi / 2, math.pi / 2, 0.0], atol=1e-9
    )


def test_fk_rejects_wrong_joint_count():
    with pytest.raises(ShapeError):
        forward_kinematics(default_arm(), np.zeros(5))


# ------------------------------------------------------ rotation <-> euler


def test_rotation_from_euler_entries():
    np.testing.assert_allclose(
        rotation_from_euler(0.0, 0.0, math.pi / 2),
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        rotation_from_euler(math.pi / 2, 0.0, 0.0),
        [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        atol=1e-15,
    )
    # composition order: z-rotation applied last
    np.testing.assert_allclose(
        rotation_from_euler(0.3, -0.4, 1.1),
        rodrigues([0, 0, 1], 1.1) @ rodrigues([0, 1, 0], -0.4) @ rodrigues([1, 0, 0], 0.3),
        atol=1e-14,
    )


def test_euler_round_trip_away_from_lock():
    rng = np.random.default_rng(5)
    for _ in range(200):
        angles = (
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-1.4, 1.4),
            rng.uniform(-math.pi, math.pi),
        )
        back = euler_from_rotation(rotation_from_euler(*angles))
        np.testing.assert_allclose(back, angles, atol=1e-12)


def test_euler_gimbal_branch():
    for beta in (math.pi / 2, -math.pi / 2):
        R = rotation_from_euler(0.3, beta, 0.7)
        alpha, b, gamma = euler_from_rotation(R)
        assert gamma == 0.0
        assert b == pytest.approx(beta, abs=1e-12)
        # only a combination of alpha and gamma is observable; the convention
        # puts all of it in alpha, and recomposition must restore the matrix
        np.testing.assert_allclose(rotation_from_euler(alpha, b, gamma), R, atol=1e-9)


def test_euler_rejects_non_rotation():
    with pytest.raises(InvalidRotationError):
        euler_from_rotation(2.0 * np.eye(3))
    with pytest.raises(InvalidRotationError):
        euler_from_rotation(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ShapeError):
        euler_from_rotation(np.eye(4))


def test_task_vector_round_trip():
    task = TaskVector(x=10.0, y=-5.0, z=3.0, alpha=0.2, beta=-0.7, gamma=1.0)
    back = pose_to_task(task_to_pose(task))
    np.testing.assert_allclose(back.as_array(), task.as_array(), atol=1e-12)


def test_pose_task_round_trip_at_lock():
    # the home pose sits exactly at beta = -pi/2; the round trip must still
    # reproduce the rotation even though the angles are not unique there
    pose = forward_kinematics(default_arm(), HOME)
    rebuilt = task_to_pose(pose_to_task(pose))
    np.testing.assert_allclose(rebuilt.rotation, pose.rotation, atol=1e-9)
    np.testing.assert_allclose(rebuilt.position, pose.position, atol=1e-12)


# ------------------------------------------------------------- angle-axis


def test_angle_axis_zero():
    R = rotation_from_euler(0.4, 0.1, -0.9)
    np.testing.assert_array_equal(angle_axis_error(R, R), np.zeros(3))


def test_angle_axis_small_rotation():
    np.testing.assert_allclose(
        angle_axis_error(rodrigues([0, 0, 1], 0.2), np.eye(3)), [0.0, 0.0, 0.2], atol=1e-10
    )
    # relative rotation between two frames about the same axis
    np.testing.assert_allclose(
        angle_axis_error(rodrigues([0, 0, 1], 0.3), rodrigues([0, 0, 1], 0.1)),
        [0.0, 0.0, 0.2],
        atol=1e-10,
    )


def test_angle_axis_rodrigues_oracle():
    rng = np.random.default_rng(13)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis = axis / np.linalg.norm(axis)
        theta = rng.uniform(0.05, 3.0)
        v = angle_axis_error(rodrigues(axis, theta), np.eye(3))
        np.testing.assert_allclose(v, axis * theta, atol=1e-9)
        assert np.linalg.norm(v) == pytest.approx(theta, abs=1e-9)


def test_angle_axis_half_turn_exact_matrices():
    # half-turn matrices with exactly representable entries recover the
    # angle exactly; the axis sign ambiguity is fixed by the dominant
    # diagonal, which is positive for these axes
    cases = [
        (np.array([1.0, 0.0, 0.0]), np.diag([1.0, -1.0, -1.0])),
        (np.array([0.0, 1.0, 0.0]), np.diag([-1.0, 1.0, -1.0])),
        (np.array([0.0, 0.0, 1.0]), np.diag([-1.0, -1.0, 1.0])),
        (
            np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0),
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),
        ),
        (
            np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0),
            np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        ),
    ]
    for axis, R in cases:
        v = angle_axis_error(R, np.eye(3))
        np.testing.assert_allclose(v, axis * math.pi, atol=1e-12)


def test_angle_axis_half_turn_random_axes():
    # a floating-point trace of -1 +- eps puts ~sqrt(eps) noise into acos,
    # so random-axis half turns are only recoverable to ~1e-8
    rng = np.random.default_rng(3)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis = axis / np.linalg.norm(axis)
        R = rodrigues(axis, math.pi)
        v = angle_axis_error(R, np.eye(3))
        theta = np.linalg.norm(v)
        assert theta == pytest.approx(math.pi, abs=5e-8)
        np.testing.assert_allclose(rodrigues(v / theta, theta), R, atol=5e-8)


# ---------------------------------------------------------------- Jacobian


def test_task_jacobian_matches_finite_differences():
    # independent oracle: full FK at perturbed joints with a coarser step
    chain = default_arm()
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(5):
        q = rng.uniform(-1.2, 1.2, size=6)
        J = pose_and_jacobian(chain, q)[1]
        base = forward_kinematics(chain, q)
        fd = np.empty((6, 6))
        for j in range(6):
            dq = np.zeros(6)
            dq[j] = h
            hi = forward_kinematics(chain, q + dq)
            lo = forward_kinematics(chain, q - dq)
            fd[:3, j] = (hi.position - lo.position) / (2.0 * h)
            fd[3:, j] = angle_axis_error(hi.rotation, base.rotation) / h
        np.testing.assert_allclose(J, fd, rtol=1e-3, atol=1e-3)


def central_difference_jacobian(chain, q, h):
    # position by central differences of FK; orientation from the rotation
    # between the two perturbed poses, which spans 2h about the joint axis
    fd = np.empty((6, q.size))
    for j in range(q.size):
        dq = np.zeros(q.size)
        dq[j] = h
        hi = forward_kinematics(chain, q + dq)
        lo = forward_kinematics(chain, q - dq)
        fd[:3, j] = (hi.position - lo.position) / (2.0 * h)
        fd[3:, j] = angle_axis_error(hi.rotation, lo.rotation) / (2.0 * h)
    return fd


def test_task_jacobian_tight_against_central_differences():
    chain = default_arm()
    rng = np.random.default_rng(41)
    postures = [rng.uniform(-math.pi, math.pi, size=6) for _ in range(6)]
    # within 1e-3 of the wrist singularity, on both of its branches
    for wrist in (0.0, -math.pi):
        for _ in range(3):
            q = rng.uniform(-math.pi, math.pi, size=6)
            q[4] = wrist + rng.uniform(-1e-3, 1e-3)
            postures.append(q)
    for q in postures:
        pose, J = pose_and_jacobian(chain, q)
        fd = central_difference_jacobian(chain, q, 1e-5)
        for rows in (slice(0, 3), slice(3, 6)):
            scale = np.max(np.abs(J[rows]))
            assert np.max(np.abs(J[rows] - fd[rows])) <= 1e-6 * scale
        # the pass that gives the Jacobian gives the pose of forward_kinematics, bit for bit
        fk = forward_kinematics(chain, q)
        np.testing.assert_array_equal(pose.rotation, fk.rotation)
        np.testing.assert_array_equal(pose.position, fk.position)


def test_task_jacobian_first_joint_spins_base_axis():
    # joint 1 rotates about the base z axis regardless of posture
    chain = default_arm()
    for q in (HOME, GOAL, np.array([0.3, -0.5, 0.8, 0.2, 1.0, -0.7])):
        J = pose_and_jacobian(chain, q)[1]
        np.testing.assert_allclose(J[3:, 0], [0.0, 0.0, 1.0], atol=1e-6)


def test_condition_number_basics():
    assert condition_number(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert condition_number(np.diag([10.0, 1.0])) == pytest.approx(10.0, rel=1e-12)
    assert condition_number(np.array([[1.0, 0.0], [1.0, 0.0]])) == math.inf
    assert condition_number(np.zeros((2, 2))) == math.inf


def test_condition_number_at_named_postures():
    chain = default_arm()
    cond_home = condition_number(pose_and_jacobian(chain, HOME)[1])
    cond_goal = condition_number(pose_and_jacobian(chain, GOAL)[1])
    assert cond_home == pytest.approx(661.2052474180529, rel=1e-6)
    assert cond_goal == pytest.approx(450.5907538551583, rel=1e-6)
    assert cond_home < 5000 and cond_goal < 5000


# configurations harvested from the straight-line traverse where the wrist
# folds onto a flipped branch; both sit far beyond the damping threshold
NEAR_FOLD = np.array(
    [-1.5661006178187442, 0.6567460692016466, 0.5929211931801754,
     0.01487588470283666, -2.820430376267014, -1.5566809334436689]
)
FOLDED_AT_GOAL = np.array(
    [-1.5707902543644465, 1.9425517694861807, -0.3674167471233268,
     0.005119543053827659, -3.145931271301216, -3.1364730805867596]
)


def test_condition_number_on_folded_branch():
    chain = default_arm()
    assert condition_number(pose_and_jacobian(chain, NEAR_FOLD)[1]) > 1e10
    cond = condition_number(pose_and_jacobian(chain, FOLDED_AT_GOAL)[1])
    assert cond == pytest.approx(116459.98564181731, rel=1e-3)
    assert cond > 20000


# --------------------------------------------------------------------- IK


def damped_step(chain, q, target):
    """The damped least-squares increment ik_solve takes from q toward the
    target, and the condition number its damping was scheduled from."""
    pose, J = pose_and_jacobian(chain, q)
    e = np.concatenate([target.position - pose.position, angle_axis_error(target.rotation, pose.rotation)])
    delta_q, cond, _ = kinematics._damped_step(J, e)
    return delta_q, cond


def test_ik_step_zero_at_target():
    chain = default_arm()
    delta_q, cond = damped_step(chain, HOME, forward_kinematics(chain, HOME))
    np.testing.assert_allclose(delta_q, np.zeros(6), atol=1e-15)
    assert cond == pytest.approx(661.2052474180529, rel=1e-6)


def test_ik_step_contracts_small_errors():
    chain = default_arm()
    q = HOME + np.array([0.1, -0.2, 0.15, 0.05, 0.1, -0.1])
    target = forward_kinematics(chain, q + 0.02)

    def error_norm(joints):
        pose = forward_kinematics(chain, joints)
        e = np.concatenate(
            [target.position - pose.position, angle_axis_error(target.rotation, pose.rotation)]
        )
        return np.linalg.norm(e)

    before = error_norm(q)
    delta_q, cond = damped_step(chain, q, target)
    assert cond < 5000  # undamped regime
    assert error_norm(q + delta_q) < 0.1 * before


def test_ik_step_bounded_near_singularity():
    chain = default_arm()
    target = forward_kinematics(chain, NEAR_FOLD + 0.01)
    delta_q, cond = damped_step(chain, NEAR_FOLD, target)
    assert cond > 20000
    assert np.all(np.isfinite(delta_q))
    assert np.linalg.norm(delta_q) < 10.0


def test_ik_solve_zero_iterations_at_target():
    chain = default_arm()
    res = ik_solve(chain, HOME, forward_kinematics(chain, HOME))
    assert res.iterations == 0
    assert res.converged
    assert res.lambda_trace == ()
    np.testing.assert_array_equal(res.q, HOME)


def test_ik_solve_easy_target():
    chain = default_arm()
    target = forward_kinematics(chain, HOME + 0.05)
    res = ik_solve(chain, HOME, target)
    assert res.converged
    assert 0 < res.iterations < 10
    assert res.max_condition < 5000
    assert set(res.lambda_trace) == {0.0}
    assert res.position_error < 1e-3
    assert res.orientation_error < 1e-6
    pose = forward_kinematics(chain, res.q)
    np.testing.assert_allclose(pose.position, target.position, atol=1e-3)


FOLDED_SEED = np.array(
    [-1.5707902265003184, 1.942551766019015, -0.3674167420261763,
     0.005143034832864366, -3.145931271944243, -3.1364495885139685]
)


def test_ik_solve_caps_on_folded_branch():
    # seed taken from the traverse one sample before the goal: the iterate is
    # pinned on the flipped-wrist branch where the orientation error stalls
    # just above tolerance, so the solve must stop at the cap, report
    # converged=False, and still keep the pose error tiny
    chain = default_arm()
    target = task_to_pose(pose_to_task(forward_kinematics(chain, GOAL)))
    res = ik_solve(chain, FOLDED_SEED, target)
    assert res.iterations == 30
    assert not res.converged
    assert set(res.lambda_trace) == {0.1}
    assert res.max_condition > 20000
    assert res.position_error < 1.4
    assert res.orientation_error < 6e-3


def test_ik_solve_invariants():
    chain = default_arm()
    rng = np.random.default_rng(29)
    for _ in range(5):
        q_true = rng.uniform(-1.0, 1.0, size=6)
        seed = q_true + rng.uniform(-0.3, 0.3, size=6)
        res = ik_solve(chain, seed, forward_kinematics(chain, q_true))
        assert res.iterations <= 30
        assert len(res.lambda_trace) == res.iterations
        assert set(res.lambda_trace) <= {0.0, 0.05, 0.1}
        if res.converged:
            assert res.position_error < 1e-3
            assert res.orientation_error < 1e-6


def test_ik_solve_makes_one_chain_pass_per_iteration(monkeypatch):
    chain = default_arm()
    passes = []
    original = kinematics._chain_frames

    def counted(*args):
        passes.append(1)
        return original(*args)

    monkeypatch.setattr(kinematics, "_chain_frames", counted)
    seeds_and_targets = [
        (HOME, forward_kinematics(chain, HOME)),  # zero iterations
        (HOME, forward_kinematics(chain, HOME + 0.05)),  # converges
        (FOLDED_SEED, task_to_pose(pose_to_task(forward_kinematics(chain, GOAL)))),  # caps
    ]
    for seed, target in seeds_and_targets:
        passes.clear()
        res = ik_solve(chain, seed, target)
        assert len(passes) == res.iterations + 1
    assert res.iterations == 30 and not res.converged


def test_ik_solve_rejects_improper_target():
    flipped = Pose(rotation=np.diag([1.0, 1.0, -1.0]), position=np.zeros(3))
    with pytest.raises(InvalidRotationError):
        ik_solve(default_arm(), HOME, flipped)


NON_FINITE_ROTATIONS = {
    "nan": np.full((3, 3), np.nan),
    "inf entry": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.inf]]),
    "nan entry": np.array([[1.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_ROTATIONS))
def test_non_finite_rotations_are_rejected(name):
    # a NaN never compares above the orthogonality tolerance, so the entries
    # are checked first; RuntimeWarnings are errors under pytest, so none may
    # come before the rejection
    R = NON_FINITE_ROTATIONS[name]
    with pytest.raises(InvalidRotationError):
        euler_from_rotation(R)
    with pytest.raises(InvalidRotationError):
        angle_axis_error(R, np.eye(3))
    with pytest.raises(InvalidRotationError):
        angle_axis_error(np.eye(3), R)
    with pytest.raises(InvalidRotationError):
        ik_solve(default_arm(), HOME, Pose(rotation=R, position=np.zeros(3)))


def test_ik_result_pose_and_jacobian_are_a_fresh_pass():
    chain = default_arm()
    seeds_and_targets = [
        (HOME, forward_kinematics(chain, HOME)),  # zero iterations
        (HOME, forward_kinematics(chain, HOME + 0.05)),  # converges
        (FOLDED_SEED, task_to_pose(pose_to_task(forward_kinematics(chain, GOAL)))),  # caps
    ]
    outcomes = []
    for seed, target in seeds_and_targets:
        res = ik_solve(chain, seed, target)
        outcomes.append((res.iterations, res.converged))
        pose, J = pose_and_jacobian(chain, res.q)
        assert res.pose.rotation.tobytes() == pose.rotation.tobytes()
        assert res.pose.position.tobytes() == pose.position.tobytes()
        assert res.jacobian.tobytes() == J.tobytes()
        assert res.jacobian.shape == J.shape == (6, 6)
        # J.T @ J must see the layout it always had
        assert res.jacobian.flags.c_contiguous
        assert kinematics._jacobian(chain, kinematics._chain_frames(chain, res.q)).flags.c_contiguous
    assert outcomes[0] == (0, True)
    assert outcomes[1][0] > 0 and outcomes[1][1]
    assert outcomes[2] == (30, False)


def test_chain_pass_links_are_dh_row_transforms():
    # the per-pass link entries are filled from constants formed once per
    # chain; each link must still be its row's transform, entry for entry
    chain = parse_chain(
        """
        base   0     0  100  -
        j1    30    10    5  q1
        j2   -90    40    0  q2
        tip   15     0   30  45
        """
    )
    rows = [
        DHRow(name="j3", alpha_prev=0.7, a_prev=3.0, d=-2.0, revolute=True, theta_offset=0.25),
        *chain.rows,
    ]
    chain = KinematicChain(rows=tuple(rows))
    q = np.array([0.4, -1.3, 2.9])
    frames = kinematics._chain_frames(chain, q)
    expected = [np.eye(4)]
    angles = iter(q)
    for row in chain.rows:
        expected.append(expected[-1] @ (row.transform(next(angles)) if row.revolute else row.transform()))
    assert frames.tobytes() == np.array(expected).tobytes()


# ----------------------------------------------------------- table parsing


def test_parse_chain_small_table():
    chain = parse_chain(
        """
        # two links and a fixed base
        base  0    0  100  -
        j1    0    0    0  q1
        j2  -90   40    0  q2
        tip   0    0   30  45
        """
    )
    assert chain.joint_count == 2
    assert len(chain.rows) == 4
    assert not chain.rows[0].revolute and chain.rows[0].d == 100.0
    assert chain.rows[2].alpha_prev == pytest.approx(-math.pi / 2)
    assert chain.rows[2].a_prev == 40.0
    assert chain.rows[3].theta_offset == pytest.approx(math.pi / 4)


def test_parse_chain_rejects_bad_tables():
    with pytest.raises(ValueError):
        parse_chain("j1 0 0 q1")  # missing a column
    with pytest.raises(ValueError):
        parse_chain("j1 zero 0 0 q1")
    with pytest.raises(ValueError):
        parse_chain("# only comments\n")


def test_default_arm_table():
    chain = default_arm()
    assert chain.joint_count == 6
    assert len(chain.rows) == 8
    assert chain.rows[0].d == 342.0 and not chain.rows[0].revolute
    assert chain.rows[-1].d == 73.0 and not chain.rows[-1].revolute
    assert [r.revolute for r in chain.rows] == [False] + [True] * 6 + [False]


def test_pose_validation():
    with pytest.raises(ShapeError):
        Pose(rotation=np.eye(2), position=np.zeros(3))
    with pytest.raises(ShapeError):
        Pose(rotation=np.eye(3), position=np.zeros(4))
    T = kinematics._chain_frames(default_arm(), HOME)[-1]
    pose = Pose.from_homogeneous(T)
    np.testing.assert_array_equal(pose.rotation, T[:3, :3])
    np.testing.assert_array_equal(pose.position, T[:3, 3])
