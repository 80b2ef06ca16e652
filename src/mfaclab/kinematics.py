"""Serial-arm kinematics: modified-DH chains, task-space maps, damped IK.

Link frames follow the modified (proximal) DH convention: the transform from
frame i-1 to frame i is RotX(alpha_{i-1}) TransX(a_{i-1}) RotZ(theta_i)
TransZ(d_i).  Positions are millimetres, angles radians.  The task vector is
[x, y, z, alpha, beta, gamma] with fixed-axis X-Y-Z Euler angles, i.e. the
rotation Rz(gamma) Ry(beta) Rx(alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .controller import condition_number, lambda_schedule
from .errors import InvalidRotationError, ShapeError

JACOBIAN_STEP = 1.0e-6
POSITION_TOL = 1.0e-3  # mm
ORIENTATION_TOL = 1.0e-6  # rad
DEFAULT_ITERATION_CAP = 30
GIMBAL_TOL = 1.0e-9
AXIS_FLIP_TOL = 1.0e-6
ZERO_ANGLE_TOL = 1.0e-8


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


def dh_transform(row: DHRow, q: float = 0.0) -> Pose:
    """Link transform of one table row at joint angle q."""
    return Pose.from_homogeneous(row.transform(q))


@dataclass(frozen=True)
class KinematicChain:
    """Ordered DH rows; revolute rows consume one joint angle each."""

    rows: tuple[DHRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.joint_count == 0:
            raise ValueError("chain has no revolute rows")

    @property
    def joint_count(self) -> int:
        return sum(1 for r in self.rows if r.revolute)


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

    def homogeneous(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.position
        return T


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

    @classmethod
    def from_array(cls, v: Sequence[float]) -> "TaskVector":
        v = np.asarray(v, dtype=float)
        if v.shape != (6,):
            raise ShapeError(f"task vector needs 6 entries, got shape {v.shape}")
        return cls(*[float(x) for x in v])

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


def _chain_transforms(chain: KinematicChain, q: Sequence[float]) -> list[np.ndarray]:
    q = np.asarray(q, dtype=float)
    if q.shape != (chain.joint_count,):
        raise ShapeError(f"expected {chain.joint_count} joint angles, got shape {q.shape}")
    mats = []
    idx = 0
    for row in chain.rows:
        if row.revolute:
            mats.append(row.transform(q[idx]))
            idx += 1
        else:
            mats.append(row.transform())
    return mats


def forward_kinematics(chain: KinematicChain, q: Sequence[float]) -> Pose:
    """Tool pose in the base frame for the given joint angles."""
    T = np.eye(4)
    for m in _chain_transforms(chain, q):
        T = T @ m
    return Pose.from_homogeneous(T)


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
    if np.max(np.abs(R.T @ R - np.eye(3))) > tol or np.linalg.det(R) < 0.0:
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


def angle_axis_error(desired: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Rotation from current to desired as an axis-times-angle 3-vector.

    Reads the angle from the trace of D = desired @ current^T and the axis
    from the skew part.  Near a half-turn the skew part degenerates, so the
    axis is recovered from the dominant column of D + I instead.
    """
    D = _require_rotation(desired) @ _require_rotation(current).T
    c = (np.trace(D) - 1.0) / 2.0
    c = min(1.0, max(-1.0, c))
    theta = math.acos(c)
    if theta < ZERO_ANGLE_TOL:
        return np.zeros(3)
    if abs(theta - math.pi) < AXIS_FLIP_TOL:
        # D ~ 2 k k^T - I: any nonzero column of D + I is parallel to the axis.
        M = D + np.eye(3)
        col = int(np.argmax(np.diag(M)))
        axis = M[:, col]
        axis = axis / np.linalg.norm(axis)
        return axis * theta
    axis = np.array([D[2, 1] - D[1, 2], D[0, 2] - D[2, 0], D[1, 0] - D[0, 1]])
    return axis * (theta / (2.0 * math.sin(theta)))


def task_jacobian(chain: KinematicChain, q: Sequence[float]) -> np.ndarray:
    """Numeric 6xN task Jacobian: position rows by central differences,
    orientation rows from the one-sided rotation increment over the step."""
    q = np.asarray(q, dtype=float)
    mats = _chain_transforms(chain, q)
    n_rows = len(mats)
    prefix = [np.eye(4)]
    for m in mats:
        prefix.append(prefix[-1] @ m)
    suffix = [np.eye(4)]
    for m in mats[::-1]:
        suffix.append(m @ suffix[-1])
    suffix = suffix[::-1]
    base_rot = prefix[-1][:3, :3]

    joint_rows = [i for i, r in enumerate(chain.rows) if r.revolute]
    J = np.empty((6, len(joint_rows)))
    h = JACOBIAN_STEP
    for j, ri in enumerate(joint_rows):
        row = chain.rows[ri]
        hi = prefix[ri] @ row.transform(q[j] + h) @ suffix[ri + 1]
        lo = prefix[ri] @ row.transform(q[j] - h) @ suffix[ri + 1]
        J[:3, j] = (hi[:3, 3] - lo[:3, 3]) / (2.0 * h)
        J[3:, j] = angle_axis_error(hi[:3, :3], base_rot) / h
    return J


def ik_step(chain: KinematicChain, q: Sequence[float], target: Pose) -> tuple[np.ndarray, float]:
    """One damped least-squares update toward the target pose.

    Returns the joint increment and the Jacobian condition number the damping
    was scheduled from.  Raises on a non-finite solve.
    """
    q = np.asarray(q, dtype=float)
    pose = forward_kinematics(chain, q)
    e = np.concatenate(
        [target.position - pose.position, angle_axis_error(target.rotation, pose.rotation)]
    )
    J = task_jacobian(chain, q)
    cond = condition_number(J)
    lam = lambda_schedule(cond, size=J.shape[1])
    delta_q = np.linalg.solve(J.T @ J + lam.matrix, J.T @ e)
    if not np.all(np.isfinite(delta_q)):
        raise ArithmeticError("inverse-kinematics solve produced non-finite increments")
    return delta_q, cond


def ik_solve(
    chain: KinematicChain,
    q_seed: Sequence[float],
    target: Pose,
    cap: int = DEFAULT_ITERATION_CAP,
    position_tol: float = POSITION_TOL,
    orientation_tol: float = ORIENTATION_TOL,
) -> IKResult:
    """Iterate damped least-squares steps until the pose error is inside tolerance.

    Convergence is checked before each step, so a seed already at the target
    reports zero iterations.  Hitting the iteration cap returns the last
    iterate flagged non-converged rather than raising.
    """
    q = np.asarray(q_seed, dtype=float).copy()
    lam_trace: list[float] = []
    worst = 0.0
    iterations = 0
    converged = False
    pos_err = math.inf
    ori_err = math.inf
    for _ in range(cap + 1):
        pose = forward_kinematics(chain, q)
        pos_err = float(np.linalg.norm(target.position - pose.position))
        ori_err = float(np.linalg.norm(angle_axis_error(target.rotation, pose.rotation)))
        if pos_err < position_tol and ori_err < orientation_tol:
            converged = True
            break
        if iterations == cap:
            break
        delta_q, cond = ik_step(chain, q, target)
        q = q + delta_q
        lam_trace.append(float(lambda_schedule(cond).entries[0]))
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


def load_chain(path: str | Path) -> KinematicChain:
    return parse_chain(Path(path).read_text())


def default_arm() -> KinematicChain:
    """The packaged 6-axis arm used by the tracking experiment."""
    text = resources.files("mfaclab").joinpath("data/arm_dh.txt").read_text()
    chain = parse_chain(text)
    if chain.joint_count != 6:
        raise ValueError(f"packaged arm must have 6 joints, found {chain.joint_count}")
    if not math.isclose(chain.rows[0].d, 342.0) or not math.isclose(chain.rows[-1].d, 73.0):
        raise ValueError("packaged arm base/tool offsets do not match the table")
    return chain
