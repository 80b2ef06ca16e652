"""Serial-arm kinematics: modified-DH chains, task-space maps, damped IK.

Link frames follow the modified (proximal) DH convention: the transform from
frame i-1 to frame i is RotX(alpha_{i-1}) TransX(a_{i-1}) RotZ(theta_i)
TransZ(d_i).  Positions are millimetres, angles radians.  The task vector is
[x, y, z, alpha, beta, gamma] with fixed-axis X-Y-Z Euler angles, i.e. the
rotation Rz(gamma) Ry(beta) Rx(alpha).

ik_solve takes at most DEFAULT_ITERATION_CAP damped least-squares steps toward
POSITION_TOL and ORIENTATION_TOL, damped from the Jacobian's condition (_damping).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Sequence

import numpy as np

from .errors import InvalidRotationError, ShapeError

POSITION_TOL = 1.0e-3  # mm
ORIENTATION_TOL = 1.0e-6  # rad
DEFAULT_ITERATION_CAP = 30
GIMBAL_TOL = 1.0e-9
AXIS_FLIP_TOL = 1.0e-6
ZERO_ANGLE_TOL = 1.0e-8
_EYE3 = np.eye(3)
_EYE4 = np.eye(4)


@dataclass(frozen=True)
class DHRow:
    """One modified-DH table row; fixed rows contribute a constant transform."""

    name: str
    alpha_prev: float  # rad
    a_prev: float  # mm
    d: float  # mm
    revolute: bool
    theta_offset: float = 0.0  # rad

    def transform(self, q: float = 0.0) -> np.ndarray:
        theta = (q if self.revolute else 0.0) + self.theta_offset
        ct, st = math.cos(theta), math.sin(theta)
        ca, sa = math.cos(self.alpha_prev), math.sin(self.alpha_prev)
        return np.array(
            [
                [ct, -st, 0.0, self.a_prev],
                [st * ca, ct * ca, -sa, -self.d * sa],
                [st * sa, ct * sa, ca, self.d * ca],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class KinematicChain:
    """Ordered DH rows; revolute rows consume one joint angle each.

    What a chain pass needs is formed once, here: `links` stacks every row's
    transform, final for a fixed row and with the constant entries of a
    revolute row filled in; `joint_frames` holds, per joint, the index of the
    frame its row ends in; `joint_links` holds (theta_offset, cos alpha,
    sin alpha) per joint; and `link_slots` holds the flat indices of `links`
    that the joint angles fill, six per joint.
    """

    rows: tuple[DHRow, ...]
    joint_count: int = field(init=False, repr=False, compare=False)
    links: np.ndarray = field(init=False, repr=False, compare=False)
    joint_frames: np.ndarray = field(init=False, repr=False, compare=False)
    joint_links: tuple[tuple[float, float, float], ...] = field(init=False, repr=False, compare=False)
    link_slots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(self.rows)
        joints = [ri for ri, row in enumerate(rows) if row.revolute]
        if not joints:
            raise ValueError("chain has no revolute rows")
        links = np.array([row.transform() for row in rows])
        # entries (0,0) (0,1) (1,0) (1,1) (2,0) (2,1) of each revolute link
        slots = np.array([16 * ri + k for ri in joints for k in (0, 1, 4, 5, 8, 9)])
        frames = np.array(joints) + 1
        for a in (links, slots, frames):
            a.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "joint_count", len(joints))
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "joint_frames", frames)
        object.__setattr__(self, "joint_links", tuple(
            (rows[ri].theta_offset, math.cos(rows[ri].alpha_prev), math.sin(rows[ri].alpha_prev))
            for ri in joints))
        object.__setattr__(self, "link_slots", slots)


@dataclass(frozen=True)
class Pose:
    """Rigid transform split into rotation and position (mm)."""

    rotation: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        p = np.asarray(self.position, dtype=float)
        if R.shape != (3, 3) or p.shape != (3,):
            raise ShapeError(f"pose needs a 3x3 rotation and 3-vector, got {R.shape}, {p.shape}")
        R = R.copy()
        p = p.copy()
        R.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "position", p)

    @classmethod
    def from_homogeneous(cls, T: np.ndarray) -> "Pose":
        T = np.asarray(T, dtype=float)
        return cls(rotation=T[:3, :3], position=T[:3, 3])


@dataclass(frozen=True)
class TaskVector:
    """Position (mm) and fixed-axis X-Y-Z Euler angles (rad)."""

    x: float
    y: float
    z: float
    alpha: float
    beta: float
    gamma: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.alpha, self.beta, self.gamma])

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def angles(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma])


@dataclass(frozen=True)
class IKResult:
    """Outcome of an iterative inverse-kinematics solve."""

    q: np.ndarray
    iterations: int
    converged: bool
    max_condition: float
    lambda_trace: tuple[float, ...]
    position_error: float
    orientation_error: float
    pose: Pose  # tool pose at q
    jacobian: np.ndarray  # geometric Jacobian at q


def _chain_frames(chain: KinematicChain, q: np.ndarray) -> np.ndarray:
    """One chain pass: frames[0] = I and frames[i + 1] = frames[i] @ (link i).

    Each revolute link is the row's DHRow.transform, entry for entry.
    """
    if q.shape != (chain.joint_count,):
        raise ShapeError(f"expected {chain.joint_count} joint angles, got shape {q.shape}")
    entries = []
    for qi, (offset, ca, sa) in zip(q.tolist(), chain.joint_links):
        theta = qi + offset
        ct, st = math.cos(theta), math.sin(theta)
        entries += (ct, -st, st * ca, ct * ca, st * sa, ct * sa)
    links = chain.links.copy()
    links.put(chain.link_slots, entries)
    frames = np.empty((len(links) + 1, 4, 4))
    frames[0] = _EYE4
    for prev, link, out in zip(frames, links, frames[1:]):
        np.matmul(prev, link, out=out)
    return frames


def forward_kinematics(chain: KinematicChain, q: Sequence[float]) -> Pose:
    """Tool pose in the base frame for the given joint angles."""
    return Pose.from_homogeneous(_chain_frames(chain, np.asarray(q, dtype=float))[-1])


def rotation_from_euler(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rotation Rz(gamma) Ry(beta) Rx(alpha) written out entrywise."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    return np.array(
        [
            [cb * cg, cg * sa * sb - ca * sg, sa * sg + ca * cg * sb],
            [cb * sg, ca * cg + sa * sg * sb, ca * sb * sg - cg * sa],
            [-sb, cb * sa, ca * cb],
        ]
    )


def _require_rotation(R: np.ndarray, tol: float = 1.0e-8) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ShapeError(f"rotation must be 3x3, got {R.shape}")
    (a, b, c), (d, e, f), (g, h, i) = R.tolist()
    if not all(map(math.isfinite, (a, b, c, d, e, f, g, h, i))):
        raise InvalidRotationError("matrix has non-finite entries")
    # Once R^T R is within tol of I, the determinant is near +-1, so the sign
    # of this triple product is that of np.linalg.det(R).
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if np.abs(R.T @ R - _EYE3).max() > tol or det < 0.0:
        raise InvalidRotationError("matrix is not a proper rotation")
    return R


def _principal(angle: float) -> float:
    """Wrap into (-pi, pi]."""
    a = math.atan2(math.sin(angle), math.cos(angle))
    return math.pi if a <= -math.pi + 1.0e-15 else a


def euler_from_rotation(R: np.ndarray) -> tuple[float, float, float]:
    """Fixed-axis X-Y-Z angles of a rotation; gamma = 0 at gimbal lock."""
    R = _require_rotation(R)
    s = -R[2, 0]
    s = min(1.0, max(-1.0, s))
    beta = math.asin(s)
    if abs(s) >= 1.0 - GIMBAL_TOL:
        # beta = +-pi/2: only alpha -+ gamma is observable; put it all in alpha.
        gamma = 0.0
        if s > 0.0:
            alpha = math.atan2(R[0, 1], R[0, 2])
        else:
            alpha = math.atan2(-R[0, 1], -R[0, 2])
    else:
        alpha = math.atan2(R[2, 1], R[2, 2])
        gamma = math.atan2(R[1, 0], R[0, 0])
    return _principal(alpha), beta, _principal(gamma)


def pose_to_task(pose: Pose) -> TaskVector:
    alpha, beta, gamma = euler_from_rotation(pose.rotation)
    return TaskVector(
        x=float(pose.position[0]),
        y=float(pose.position[1]),
        z=float(pose.position[2]),
        alpha=alpha,
        beta=beta,
        gamma=gamma,
    )


def task_to_pose(task: TaskVector) -> Pose:
    return Pose(rotation=rotation_from_euler(*task.angles), position=task.position)


def _angle_axis(D: np.ndarray) -> list[float]:
    """Axis-times-angle 3-vector of the rotation D (already validated).

    Reads the angle from the trace of D and the axis from the skew part.
    Near a half-turn the skew part degenerates, so the axis is recovered from
    the dominant column of D + I instead.
    """
    (d00, d01, d02), (d10, d11, d12), (d20, d21, d22) = D.tolist()
    c = ((d00 + d11) + d22 - 1.0) / 2.0  # the trace summed in np.trace's order
    c = min(1.0, max(-1.0, c))
    theta = math.acos(c)
    if theta < ZERO_ANGLE_TOL:
        return [0.0, 0.0, 0.0]
    if abs(theta - math.pi) < AXIS_FLIP_TOL:
        # D ~ 2 k k^T - I: any nonzero column of D + I is parallel to the axis.
        M = D + _EYE3
        col = int(np.argmax(np.diag(M)))
        axis = M[:, col]
        axis = axis / np.linalg.norm(axis)
        return (axis * theta).tolist()
    s = theta / (2.0 * math.sin(theta))
    return [(d21 - d12) * s, (d02 - d20) * s, (d10 - d01) * s]


def angle_axis_error(desired: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Rotation from current to desired as an axis-times-angle 3-vector.

    Both arguments must be proper rotations; the vector is that of
    D = desired @ current^T.
    """
    return np.array(_angle_axis(_require_rotation(desired) @ _require_rotation(current).T))


def _task_error(tool: np.ndarray, rotation: np.ndarray, position: list[float]) -> np.ndarray:
    """[position error; orientation error] from the tool transform to a validated target."""
    current = _require_rotation(tool[:3, :3])
    x, y, z = position
    tx, ty, tz = tool[:3, 3].tolist()
    return np.array([x - tx, y - ty, z - tz, *_angle_axis(rotation @ current.T)])


def _jacobian(chain: KinematicChain, frames: np.ndarray) -> np.ndarray:
    """Geometric Jacobian from one chain pass: column j is [z_j x (p_e - p_j); z_j].

    z_j and p_j are the z axis and origin of the frame that joint j's row ends
    in (chain.joint_frames), since that row turns about its own z axis.
    """
    ex, ey, ez = frames[-1, :3, 3].tolist()
    columns = []
    for (zx, px), (zy, py), (zz, pz) in frames[chain.joint_frames, :3, 2:].tolist():
        rx, ry, rz = ex - px, ey - py, ez - pz
        columns.append((zy * rz - zz * ry, zz * rx - zx * rz, zx * ry - zy * rx, zx, zy, zz))
    # Built row by row, so J is C-contiguous: J.T @ J on the transpose of a
    # column-built array takes another BLAS path, and its bits differ.
    return np.array(list(zip(*columns)))


def pose_and_jacobian(chain: KinematicChain, q: Sequence[float]) -> tuple[Pose, np.ndarray]:
    """Tool pose and geometric Jacobian (tool linear over angular velocity, base frame) at q from one chain pass."""
    frames = _chain_frames(chain, np.asarray(q, dtype=float))
    return Pose.from_homogeneous(frames[-1]), _jacobian(chain, frames)


def condition_number(m: np.ndarray) -> float:
    """Ratio of extreme singular values; infinite for rank-deficient input."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[-1] < 1.0e-300:
        return float("inf")
    return float(s[0] / s[-1])


def _damping(cond: float) -> float:
    """Damping stepped up with the conditioning of the Jacobian.

    cond < 5000 -> 0; 5000 <= cond < 20000 -> 0.05; cond >= 20000 or
    non-finite -> 0.1.  Boundary values take the larger damping.
    """
    if not math.isfinite(cond) or cond >= 20000.0:
        return 0.1
    if cond >= 5000.0:
        return 0.05
    return 0.0


def _damped_step(J: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Damped least-squares increment, the condition number and the damping used."""
    cond = condition_number(J)
    lam = _damping(cond)
    delta_q = np.linalg.solve(J.T @ J + lam * np.eye(J.shape[1]), J.T @ e)
    if not all(map(math.isfinite, delta_q.tolist())):
        raise ArithmeticError("inverse-kinematics solve produced non-finite increments")
    return delta_q, cond, lam


def ik_solve(chain: KinematicChain, q_seed: Sequence[float], target: Pose) -> IKResult:
    """Iterate damped least-squares steps until the pose error is inside tolerance.

    Each iteration makes one chain pass; the convergence check, the task error
    and the closed-form Jacobian of the step all come from it, so a solve makes
    iterations + 1 passes.  The result's pose and Jacobian come from the last
    pass, which is at the returned q.  The target rotation is validated once.
    Convergence is checked before each step, so a seed already at the target
    reports zero iterations.  Hitting DEFAULT_ITERATION_CAP returns the last
    iterate flagged non-converged rather than raising.
    """
    q = np.asarray(q_seed, dtype=float).copy()
    rotation = _require_rotation(target.rotation)
    position = target.position.tolist()
    lam_trace: list[float] = []
    worst = 0.0
    iterations = 0
    converged = False
    pos_err = math.inf
    ori_err = math.inf
    for _ in range(DEFAULT_ITERATION_CAP + 1):
        frames = _chain_frames(chain, q)
        e = _task_error(frames[-1], rotation, position)
        # what np.linalg.norm computes for a 1-D float vector
        ep, eo = e[:3], e[3:]
        pos_err = math.sqrt(ep.dot(ep))
        ori_err = math.sqrt(eo.dot(eo))
        if pos_err < POSITION_TOL and ori_err < ORIENTATION_TOL:
            converged = True
            break
        if iterations == DEFAULT_ITERATION_CAP:
            break
        delta_q, cond, lam = _damped_step(_jacobian(chain, frames), e)
        q = q + delta_q
        lam_trace.append(lam)
        worst = max(worst, cond) if math.isfinite(cond) else math.inf
        iterations += 1
    return IKResult(
        q=q,
        iterations=iterations,
        converged=converged,
        max_condition=worst,
        lambda_trace=tuple(lam_trace),
        position_error=pos_err,
        orientation_error=ori_err,
        pose=Pose.from_homogeneous(frames[-1]),
        jacobian=_jacobian(chain, frames),
    )


def parse_chain(text: str) -> KinematicChain:
    """Parse a plain-text DH table: name, alpha(deg), a(mm), d(mm), joint.

    The joint column is q1..qN for revolute rows or a fixed theta offset in
    degrees (use 0 or '-' for purely structural rows).  '#' starts a comment.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 5 columns, got {len(parts)}")
        name, alpha_s, a_s, d_s, joint = parts
        try:
            alpha = math.radians(float(alpha_s))
            a = float(a_s)
            d = float(d_s)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad numeric field ({exc})") from None
        if joint.lower().startswith("q"):
            rows.append(DHRow(name=name, alpha_prev=alpha, a_prev=a, d=d, revolute=True))
        else:
            offset = 0.0 if joint == "-" else math.radians(float(joint))
            rows.append(
                DHRow(name=name, alpha_prev=alpha, a_prev=a, d=d, revolute=False, theta_offset=offset)
            )
    if not rows:
        raise ValueError("empty chain table")
    return KinematicChain(rows=tuple(rows))


def default_arm() -> KinematicChain:
    """The packaged 6-axis arm used by the tracking experiment."""
    text = resources.files("mfaclab").joinpath("data/arm_dh.txt").read_text()
    chain = parse_chain(text)
    if chain.joint_count != 6:
        raise ValueError(f"packaged arm must have 6 joints, found {chain.joint_count}")
    if not math.isclose(chain.rows[0].d, 342.0) or not math.isclose(chain.rows[-1].d, 73.0):
        raise ValueError("packaged arm base/tool offsets do not match the table")
    return chain
