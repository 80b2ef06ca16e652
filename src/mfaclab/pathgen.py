"""Cartesian path generation: quintic timing laws over straight-line position
segments and geodesic (great-circle) quaternion orientation segments.

Paths run rest to rest, with zero speed and acceleration at both ends of both
arcs; quintic_solve itself takes any boundary values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDirectionError, ShapeError
from .kinematics import TaskVector

GEODESIC_TOL = 1.0e-8


@dataclass(frozen=True)
class QuinticCoeffs:
    """Fifth-degree timing polynomial s(t) = sum a_i t^i on [0, tf]."""

    a: tuple[float, ...]
    tf: float

    def __post_init__(self):
        if len(self.a) != 6:
            raise ShapeError(f"quintic needs 6 coefficients, got {len(self.a)}")
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))


def quintic_solve(
    s_goal: float,
    v0: float = 0.0,
    acc0: float = 0.0,
    vf: float = 0.0,
    accf: float = 0.0,
    tf: float = 1.0,
) -> QuinticCoeffs:
    """Coefficients meeting position/velocity/acceleration at both ends.

    The arc starts at zero, so a0 = 0, a1 = v0, a2 = acc0/2; the remaining
    three coefficients come from the boundary system at tf.  With all-zero
    boundary values they reduce to (10S/tf^3, -15S/tf^4, 6S/tf^5).
    """
    if tf <= 0.0:
        raise ValueError(f"duration must be positive, got tf={tf}")
    S = float(s_goal)
    t2 = tf * tf
    a3 = (20.0 * S - (8.0 * vf + 12.0 * v0) * tf - (3.0 * acc0 - accf) * t2) / (2.0 * tf**3)
    a4 = (-30.0 * S + (14.0 * vf + 16.0 * v0) * tf + (3.0 * acc0 - 2.0 * accf) * t2) / (2.0 * tf**4)
    a5 = (12.0 * S - 6.0 * (vf + v0) * tf - (acc0 - accf) * t2) / (2.0 * tf**5)
    return QuinticCoeffs(a=(0.0, float(v0), float(acc0) / 2.0, a3, a4, a5), tf=float(tf))


def quintic_eval(c: QuinticCoeffs, t: float) -> tuple[float, float, float]:
    """Arc length, speed, and acceleration at time t (clamped to [0, tf])."""
    t = min(max(float(t), 0.0), c.tf)
    a = c.a
    s = ((((a[5] * t + a[4]) * t + a[3]) * t + a[2]) * t + a[1]) * t + a[0]
    v = (((5.0 * a[5] * t + 4.0 * a[4]) * t + 3.0 * a[3]) * t + 2.0 * a[2]) * t + a[1]
    acc = ((20.0 * a[5] * t + 12.0 * a[4]) * t + 6.0 * a[3]) * t + 2.0 * a[2]
    return float(s), float(v), float(acc)


def line_position(p0: Sequence[float], pf: Sequence[float], s: float) -> np.ndarray:
    """Point at arc length s along the straight segment from p0 toward pf."""
    p0 = np.asarray(p0, dtype=float)
    pf = np.asarray(pf, dtype=float)
    if p0.shape != (3,) or pf.shape != (3,):
        raise ShapeError("line endpoints must be 3-vectors")
    chord = pf - p0
    length = float(np.linalg.norm(chord))
    if length == 0.0:
        if s != 0.0:
            raise DegenerateDirectionError("start equals goal but a nonzero arc length was requested")
        return p0.copy()
    return p0 + chord * (float(s) / length)


@dataclass(frozen=True)
class UnitQuaternion:
    """Unit quaternion (e1, e2, e3, e4) with the scalar part last.

    Construction normalizes and canonicalizes the sign so e4 >= 0; q and -q
    describe the same rotation.
    """

    e1: float
    e2: float
    e3: float
    e4: float

    def __post_init__(self):
        v = np.array([self.e1, self.e2, self.e3, self.e4], dtype=float)
        n = float(np.linalg.norm(v))
        if not np.isfinite(n) or n < 1.0e-12:
            raise ValueError("quaternion norm is zero or non-finite")
        v = v / n
        if v[3] < 0.0:
            v = -v
        object.__setattr__(self, "e1", float(v[0]))
        object.__setattr__(self, "e2", float(v[1]))
        object.__setattr__(self, "e3", float(v[2]))
        object.__setattr__(self, "e4", float(v[3]))

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(0.0, 0.0, 0.0, 1.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.e1, self.e2, self.e3, self.e4])

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.e1, self.e2, self.e3])

    @property
    def scalar(self) -> float:
        return self.e4

    def conjugate(self) -> "UnitQuaternion":
        return UnitQuaternion(-self.e1, -self.e2, -self.e3, self.e4)

    def multiply(self, other: "UnitQuaternion") -> "UnitQuaternion":
        v1, w1 = self.vector, self.scalar
        v2, w2 = other.vector, other.scalar
        v = w1 * v2 + w2 * v1 + np.cross(v1, v2)
        w = w1 * w2 - float(v1 @ v2)
        return UnitQuaternion(v[0], v[1], v[2], w)

    def rotation_matrix(self) -> np.ndarray:
        x, y, z, w = self.e1, self.e2, self.e3, self.e4
        return np.array(
            [
                [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
                [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
                [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
            ]
        )


def euler_to_quat(alpha: float, beta: float, gamma: float) -> UnitQuaternion:
    """Quaternion of the rotation Rz(gamma) Ry(beta) Rx(alpha) via half angles."""
    ca, sa = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    cb, sb = math.cos(beta / 2.0), math.sin(beta / 2.0)
    cg, sg = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    return UnitQuaternion(
        sa * cb * cg - ca * sb * sg,
        ca * sb * cg + sa * cb * sg,
        ca * cb * sg - sa * sb * cg,
        ca * cb * cg + sa * sb * sg,
    )


def quat_to_euler(q: UnitQuaternion) -> tuple[float, float, float]:
    """Fixed-axis X-Y-Z angles of a quaternion; beta is clamped into asin range."""
    x, y, z, w = q.e1, q.e2, q.e3, q.e4
    alpha = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    s = 2.0 * (w * y - z * x)
    s = min(1.0, max(-1.0, s))
    beta = math.asin(s)
    gamma = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return alpha, beta, gamma


def _relative_arc(q0: UnitQuaternion, qf: UnitQuaternion) -> tuple[np.ndarray, float]:
    """Vector part of q0^-1 qf and its half-angle (rad, in [0, pi/2])."""
    rel = q0.conjugate().multiply(qf)
    return rel.vector, math.acos(min(1.0, max(-1.0, rel.scalar)))


def _arc_point(q0: UnitQuaternion, rel_vector: np.ndarray, half: float, tau: float) -> UnitQuaternion:
    """q0 * (q0^-1 qf)^tau from _relative_arc(q0, qf)."""
    if half < GEODESIC_TOL:
        return q0
    axis = rel_vector * (math.sin(tau * half) / math.sin(half))
    powered = UnitQuaternion(axis[0], axis[1], axis[2], math.cos(tau * half))
    return q0.multiply(powered)


def orientation_arc_length(q0: UnitQuaternion, qf: UnitQuaternion) -> float:
    """Rotation angle (rad, in [0, pi]) separating the two orientations."""
    return 2.0 * _relative_arc(q0, qf)[1]


def quat_geodesic(q0: UnitQuaternion, qf: UnitQuaternion, tau: float) -> UnitQuaternion:
    """Constant-axis interpolation q0 * (q0^-1 qf)^tau along the short arc.

    tau = 0 returns q0 and tau = 1 returns qf (up to quaternion sign); nearly
    identical endpoints short-circuit to q0 to avoid dividing by sin(0).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {tau}")
    return _arc_point(q0, *_relative_arc(q0, qf), tau)


@dataclass(frozen=True)
class PathSpec:
    """Start/goal task vectors, duration tf, and sample period T0."""

    start: TaskVector
    goal: TaskVector
    tf: float
    T0: float

    def __post_init__(self):
        if self.tf <= 0.0:
            raise ValueError(f"duration must be positive, got tf={self.tf}")
        if self.T0 <= 0.0 or self.T0 > self.tf:
            raise ValueError(f"sample period must lie in (0, tf], got T0={self.T0}")


@dataclass(frozen=True)
class CartesianPath:
    """Time-stamped task-vector samples."""

    times: np.ndarray
    samples: tuple[TaskVector, ...]

    def __len__(self) -> int:
        return len(self.samples)


def generate_path(spec: PathSpec) -> CartesianPath:
    """Sample the straight-line/geodesic path with quintic timing on both arcs.

    Position runs along the chord from start to goal; orientation follows the
    constant-axis quaternion arc between the endpoint orientations.  Both arcs
    use their own rest-to-rest quintic timing law, so the endpoint speed is
    zero in position and orientation alike.
    """
    p0 = spec.start.position
    pf = spec.goal.position
    chord = float(np.linalg.norm(pf - p0))
    q0 = euler_to_quat(*spec.start.angles)
    qf = euler_to_quat(*spec.goal.angles)
    # q0^-1 qf and its half-angle are the same for every sample
    rel_vector, half = _relative_arc(q0, qf)
    arc = 2.0 * half
    if chord == 0.0 and arc < GEODESIC_TOL:
        raise ValueError("start and goal coincide in both position and orientation")
    timing_p = quintic_solve(chord, tf=spec.tf)
    timing_o = quintic_solve(arc, tf=spec.tf)

    count = math.ceil(spec.tf / spec.T0) + 1
    times = np.minimum(np.arange(count) * spec.T0, spec.tf)
    samples = []
    for t in times:
        s_pos, _, _ = quintic_eval(timing_p, t)
        pos = line_position(p0, pf, s_pos) if chord > 0.0 else p0.copy()
        if arc >= GEODESIC_TOL:
            s_ori, _, _ = quintic_eval(timing_o, t)
            tau = min(max(s_ori / arc, 0.0), 1.0)
            qk = _arc_point(q0, rel_vector, half, tau)
        else:
            qk = q0
        alpha, beta, gamma = quat_to_euler(qk)
        samples.append(
            TaskVector(x=float(pos[0]), y=float(pos[1]), z=float(pos[2]),
                       alpha=alpha, beta=beta, gamma=gamma)
        )
    # Endpoints are pinned verbatim: the quaternion round trip is exact as a
    # rotation but reparametrizes the angles near gimbal lock.
    samples[0] = spec.start
    samples[-1] = spec.goal
    return CartesianPath(times=times, samples=tuple(samples))
