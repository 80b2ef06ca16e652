"""Tests for the one-step control laws and the IK damping schedule."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfaclab.controller import (
    SWEEP_MAX,
    BoxConstraints,
    Weighting,
    _require_spanning,
    mfac_constrained_step,
    mfac_quartic_step,
    mfac_step,
)
from mfaclab.edlm import Dimensions, PseudoJacobian, RegressorWindow, pjm_first_order
from mfaclab.errors import InfeasibleBoxError, RankDeficiencyError, ShapeError
from mfaclab.kinematics import _damping
from mfaclab.plant import Example1Plant, LTIPlant


def window(dims, k, ys, us):
    return RegressorWindow(dims, k=k, y_history=tuple(ys), u_history=tuple(us))


def scalar_setup(phi, lam, u_prev=0.0):
    dims = Dimensions(My=1, Mu=1, Ly=0, Lu=1)
    win = window(dims, 2, [np.zeros(1)], [np.array([u_prev])])
    pjm = PseudoJacobian((), (np.array([[phi]]),))
    return pjm, win, Weighting(np.array([lam]))


def quad_cost(phi_u, lam_vec, residual, du):
    miss = residual - phi_u @ du
    return float(miss @ miss + du @ (lam_vec * du))


# ---------------------------------------------------------------- weighting


def test_weighting_validation():
    with pytest.raises(ValueError):
        Weighting(np.array([-0.1]))
    with pytest.raises(ValueError):
        Weighting(np.array([np.inf]))
    w = Weighting.uniform(0.2, 3)
    assert w.size == 3
    assert_allclose(w.matrix, 0.2 * np.eye(3))


def test_box_validation():
    with pytest.raises(InfeasibleBoxError):
        BoxConstraints(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ShapeError):
        BoxConstraints(np.array([0.0, 0.0]), np.array([1.0]))
    box = BoxConstraints(np.array([-0.3, -0.5]), np.array([0.1, 0.5]))
    assert box.contains(np.array([0.0, 0.0]))
    assert not box.contains(np.array([0.2, 0.0]))
    assert_allclose(box.clip(np.array([0.2, -0.9])), [0.1, -0.5])


# ----------------------------------------------------------- one-step law


def test_step_zero_error_gives_zero_increment():
    pjm, win, w = scalar_setup(phi=1.3, lam=0.5)
    dec = mfac_step(pjm, win, np.zeros(1), np.zeros(1), w)
    assert_allclose(dec.delta_u, [0.0])
    assert_allclose(dec.u, win.u_history[0])


def test_step_deadbeat_scalar():
    pjm, win, w = scalar_setup(phi=1.0, lam=0.0)
    dec = mfac_step(pjm, win, np.zeros(1), np.array([0.37]), w)
    assert_allclose(dec.delta_u, [0.37], atol=1e-14)


def test_step_damped_scalar_hand_value():
    # phi = 2, lam = 0.2, unit error: du = 2 / (4 + 0.2) = 10/21
    pjm, win, w = scalar_setup(phi=2.0, lam=0.2)
    dec = mfac_step(pjm, win, np.zeros(1), np.ones(1), w)
    assert_allclose(dec.delta_u, [10.0 / 21.0], rtol=1e-12)
    assert abs(dec.delta_u[0] - 0.47619047619) < 1e-9


def test_step_matches_ridge_lstsq_oracle():
    # Oracle: the same minimization posed as an augmented least-squares
    # problem  min ||[Phi; sqrt(L)] du - [residual; 0]||.
    rng = np.random.RandomState(17)
    dims = Dimensions(My=2, Mu=2, Ly=1, Lu=2)
    blocks = [rng.randn(2, 2) for _ in range(3)]
    pjm = PseudoJacobian((blocks[0],), (blocks[1], blocks[2]))
    ys = [rng.randn(2), rng.randn(2)]
    us = [rng.randn(2), rng.randn(2), rng.randn(2)]
    win = window(dims, 7, ys, us)
    y_ref = rng.randn(2)
    lam = np.array([0.3, 0.05])
    dec = mfac_step(pjm, win, ys[0], y_ref, Weighting(lam))

    residual = y_ref - ys[0] - blocks[0] @ (ys[0] - ys[1]) - blocks[2] @ (us[0] - us[1])
    stacked = np.vstack([blocks[1], np.diag(np.sqrt(lam))])
    target = np.concatenate([residual, np.zeros(2)])
    expected = np.linalg.lstsq(stacked, target, rcond=None)[0]
    assert_allclose(dec.delta_u, expected, atol=1e-10)
    assert_allclose(dec.u, us[0] + dec.delta_u)


def test_step_is_the_cost_minimizer():
    rng = np.random.RandomState(5)
    dims = Dimensions(My=2, Mu=2, Ly=0, Lu=1)
    phi = rng.randn(2, 2)
    pjm = PseudoJacobian((), (phi,))
    win = window(dims, 2, [rng.randn(2)], [rng.randn(2)])
    y_ref = rng.randn(2)
    lam = np.array([0.4, 0.1])
    dec = mfac_step(pjm, win, win.y_history[0], y_ref, Weighting(lam))
    residual = y_ref - win.y_history[0]
    base = quad_cost(phi, lam, residual, dec.delta_u)
    assert_allclose(dec.cost, base, rtol=1e-12)
    for _ in range(20):
        perturbed = dec.delta_u + rng.randn(2) * 0.1
        assert quad_cost(phi, lam, residual, perturbed) > base


def test_step_rank_deficiency_raises_with_rank():
    dims = Dimensions(My=2, Mu=2, Ly=0, Lu=1)
    pjm = PseudoJacobian((), (np.array([[1.0, 0.0], [1.0, 0.0]]),))
    win = window(dims, 2, [np.zeros(2)], [np.zeros(2)])
    with pytest.raises(RankDeficiencyError) as err:
        mfac_step(pjm, win, np.zeros(2), np.ones(2), Weighting(np.zeros(2)))
    assert err.value.rank == 1


def test_rank_test_counts_as_matrix_rank():
    # Full-rank, rank-one (rounded outer products) and exactly singular blocks, alone and stacked.
    rng = np.random.default_rng(3)
    for shape in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (2, 1)]:
        blocks = [rng.normal(size=shape) for _ in range(200)]
        blocks += [np.outer(rng.normal(size=shape[0]), rng.normal(size=shape[1])) for _ in range(200)]
        blocks += [np.zeros(shape), np.ones(shape)]
        for phi in blocks:
            rank = int(np.linalg.matrix_rank(phi))
            if rank == shape[0]:
                _require_spanning(phi)
                continue
            # a stack raises for its first short row; eye spans unless the block is tall
            for operand in (phi, np.stack([np.eye(*shape), phi])) if shape[0] <= shape[1] else (phi,):
                with pytest.raises(RankDeficiencyError) as err:
                    _require_spanning(operand)
                assert err.value.rank == rank


def test_step_minimum_norm_fallback_for_wide_block():
    # One output, two inputs, zero weighting: the shortest increment that
    # closes a unit error through phi = [1, 1] is (0.5, 0.5).
    dims = Dimensions(My=1, Mu=2, Ly=0, Lu=1)
    pjm = PseudoJacobian((), (np.array([[1.0, 1.0]]),))
    win = window(dims, 2, [np.zeros(1)], [np.zeros(2)])
    dec = mfac_step(pjm, win, np.zeros(1), np.ones(1), Weighting(np.zeros(2)))
    assert_allclose(dec.delta_u, [0.5, 0.5], atol=1e-12)


def test_step_minimum_norm_on_random_wide_blocks():
    # Zero weighting on a 1x2 lead block: Phi^T Phi is singular by shape, so
    # the increment is the minimum-norm one whether or not rounding lets the
    # normal equations factor.
    rng = np.random.default_rng(11)
    dims = Dimensions(My=1, Mu=2, Ly=0, Lu=1)
    win = window(dims, 2, [np.zeros(1)], [np.zeros(2)])
    longer = []
    for i in range(2000):
        phi = np.eye(1, 2) + 0.3 * rng.normal(size=(1, 2))
        dec = mfac_step(PseudoJacobian((), (phi,)), win, np.zeros(1), np.ones(1), Weighting(np.zeros(2)))
        if not np.array_equal(dec.delta_u, np.linalg.lstsq(phi, np.ones(1), rcond=None)[0]):
            longer.append(i)
    assert longer == []


def test_step_damping_shrinks_increment():
    pjm, win, _ = scalar_setup(phi=1.5, lam=0.0)
    norms = []
    for lam in (0.0, 0.1, 0.5, 2.0):
        dec = mfac_step(pjm, win, np.zeros(1), np.ones(1), Weighting(np.array([lam])))
        norms.append(np.linalg.norm(dec.delta_u))
    assert all(a > b for a, b in zip(norms, norms[1:]))


# ------------------------------------------------------- constrained law


def test_constrained_interior_equals_unconstrained():
    rng = np.random.RandomState(23)
    dims = Dimensions(My=2, Mu=2, Ly=0, Lu=1)
    phi = np.array([[1.0, 0.2], [0.1, 0.9]])
    pjm = PseudoJacobian((), (phi,))
    win = window(dims, 2, [rng.randn(2) * 0.01], [np.zeros(2)])
    y_ref = np.array([0.02, -0.01])
    w = Weighting(np.array([0.2, 0.2]))
    box = BoxConstraints(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    free = mfac_step(pjm, win, win.y_history[0], y_ref, w)
    boxed = mfac_constrained_step(pjm, win, win.y_history[0], y_ref, w, box)
    assert_allclose(boxed.delta_u, free.delta_u, atol=1e-9)


def test_constrained_scalar_clip():
    # Unit error through unit gain wants u = 1; the box stops it at 0.1.
    pjm, win, w = scalar_setup(phi=1.0, lam=0.0)
    box = BoxConstraints(np.array([-0.3]), np.array([0.1]))
    dec = mfac_constrained_step(pjm, win, np.zeros(1), np.ones(1), w, box)
    assert_allclose(dec.u, [0.1], atol=1e-12)
    assert_allclose(dec.delta_u, [0.1], atol=1e-12)
    assert dec.converged


def test_constrained_cap_out_is_flagged():
    # A lead block this ill-conditioned makes coordinate descent crawl: the
    # sweeps stop at SWEEP_MAX with the update still above SWEEP_TOL.
    dims = Dimensions(My=2, Mu=2, Ly=0, Lu=1)
    pjm = PseudoJacobian((), (np.array([[1.0, 1.0], [0.0, 1e-4]]),))
    win = window(dims, 2, [np.zeros(2)], [np.zeros(2)])
    box = BoxConstraints(np.full(2, -10.0), np.full(2, 10.0))
    dec = mfac_constrained_step(pjm, win, np.zeros(2), np.array([1.0, 0.5]), Weighting(np.zeros(2)), box)
    assert dec.iterations == SWEEP_MAX
    assert not dec.converged


def test_constrained_matches_grid_search():
    # Oracle: dense vectorized grid over the feasible box.
    dims = Dimensions(My=2, Mu=2, Ly=0, Lu=1)
    phi = np.array([[1.0, 0.3], [0.2, 0.9]])
    pjm = PseudoJacobian((), (phi,))
    win = window(dims, 2, [np.zeros(2)], [np.zeros(2)])
    y_ref = np.array([0.8, -0.2])
    lam = np.array([0.1, 0.1])
    box = BoxConstraints(np.array([-0.25, -0.6]), np.array([0.25, 0.6]))
    dec = mfac_constrained_step(pjm, win, np.zeros(2), y_ref, Weighting(lam), box)

    g1 = np.linspace(-0.25, 0.25, 1001)
    g2 = np.linspace(-0.6, 0.6, 1001)
    U1, U2 = np.meshgrid(g1, g2, indexing="ij")
    miss1 = y_ref[0] - (phi[0, 0] * U1 + phi[0, 1] * U2)
    miss2 = y_ref[1] - (phi[1, 0] * U1 + phi[1, 1] * U2)
    cost = miss1**2 + miss2**2 + lam[0] * U1**2 + lam[1] * U2**2
    best = np.unravel_index(np.argmin(cost), cost.shape)
    grid_du = np.array([g1[best[0]], g2[best[1]]])
    assert np.max(np.abs(dec.delta_u - grid_du)) <= 1e-3
    # one bound is genuinely active in this instance
    assert abs(dec.u[0] - 0.25) < 1e-9


def test_constrained_never_violates_box():
    rng = np.random.RandomState(29)
    dims = Dimensions(My=2, Mu=2, Ly=0, Lu=1)
    box = BoxConstraints(np.array([-0.3, -0.5]), np.array([0.1, 0.5]))
    for _ in range(25):
        pjm = PseudoJacobian((), (rng.randn(2, 2),))
        u_prev = rng.uniform(-0.3, 0.1), rng.uniform(-0.5, 0.5)
        win = window(dims, 2, [rng.randn(2)], [np.array(u_prev)])
        dec = mfac_constrained_step(
            pjm, win, win.y_history[0], rng.randn(2), Weighting(np.array([0.05, 0.05])), box
        )
        assert box.contains(dec.u)
        assert_allclose(dec.u - np.array(u_prev), dec.delta_u, atol=1e-15)


# ------------------------------------------------------ curvature-corrected


def test_quartic_lti_converges_first_pass():
    plant = LTIPlant([np.array([[0.5]])], [np.array([[1.0]])])
    win = window(plant.dims, 3, [np.zeros(1), np.zeros(1)], [np.zeros(1), np.zeros(1)])
    w = Weighting(np.array([0.2]))
    dec = mfac_quartic_step(plant, win, np.zeros(1), np.array([0.3]), w)
    point = window(plant.dims, 2, [np.zeros(1)], [np.zeros(1), np.zeros(1)])
    plain = mfac_step(pjm_first_order(plant, point), win, np.zeros(1), np.array([0.3]), w)
    assert dec.converged
    assert dec.iterations == 1
    assert_allclose(dec.delta_u, plain.delta_u, atol=1e-10)


def test_quartic_zero_error_zero_increment():
    plant = Example1Plant()
    z = np.zeros(2)
    win = window(plant.dims, 3, [z, z], [z, z, z])
    dec = mfac_quartic_step(plant, win, z, z, Weighting(np.array([0.2, 0.2])))
    assert_allclose(dec.delta_u, np.zeros(2), atol=1e-12)


def test_quartic_on_the_shortest_window_decides_as_on_a_deeper_one():
    # Ly + 1 outputs and Lu inputs are all the law reads; older samples change no bit.
    plant = Example1Plant()
    dims = plant.dims
    rng = np.random.default_rng(19)
    w = Weighting(np.array([0.1, 0.3]))
    for _ in range(5):
        ys = rng.uniform(-0.3, 0.3, size=(dims.Ly + 3, 2))
        us = rng.uniform(-0.3, 0.3, size=(dims.Lu + 2, 2))
        y_ref = rng.uniform(-0.3, 0.3, size=2)
        short = mfac_quartic_step(plant, window(dims, 5, ys[:dims.Ly + 1], us[:dims.Lu]), ys[0], y_ref, w)
        deep = mfac_quartic_step(plant, window(dims, 5, ys, us), ys[0], y_ref, w)
        for name, got, want in zip(short._fields, short, deep):
            assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes(), name
    with pytest.raises(ShapeError):
        mfac_quartic_step(plant, window(dims, 5, ys[:dims.Ly], us[:dims.Lu]), ys[0], y_ref, w)
    with pytest.raises(ShapeError):
        mfac_quartic_step(plant, window(dims, 5, ys[:dims.Ly + 1], us[:dims.Lu - 1]), ys[0], y_ref, w)


def test_quartic_no_worse_than_first_order_on_true_plant():
    # The true-plant cost of the curvature-aware increment must not exceed
    # the first-order one.  Frozen values come from evaluating this very
    # configuration once and pinning the outputs.
    plant = Example1Plant()
    z = np.zeros(2)
    win = window(plant.dims, 3, [z, z], [z, z, z])
    w = Weighting(np.array([0.2, 0.2]))
    y_ref = np.array([0.1, 0.1])

    point = window(plant.dims, 2, [z], [z, z, z])
    first = mfac_step(pjm_first_order(plant, point), win, z, y_ref, w)
    quart = mfac_quartic_step(plant, win, z, y_ref, w)

    def true_cost(du):
        y_next = plant.evaluate([z, du, z])
        e = y_ref - y_next
        return float(e @ e + du @ (w.entries * du))

    c_first = true_cost(first.delta_u)
    c_quart = true_cost(quart.delta_u)
    assert c_quart <= c_first + 1e-12
    assert quart.converged
    assert_allclose(c_first, 0.0035450836135663645, rtol=1e-6)
    assert_allclose(c_quart, 0.0035077350189829737, rtol=1e-6)


# ------------------------------------------- IK damping schedule (kinematics)


def test_lambda_schedule_breakpoints():
    assert _damping(100.0) == 0.0
    assert _damping(4999.999) == 0.0
    assert _damping(5000.0) == 0.05
    assert _damping(19999.0) == 0.05
    assert _damping(20000.0) == 0.1
    assert _damping(float("inf")) == 0.1
    assert _damping(float("nan")) == 0.1


def test_lambda_schedule_monotone_in_cond():
    grid = [1.0, 10.0, 4999.0, 5000.0, 7500.0, 19999.0, 20000.0, 1e9, float("inf")]
    values = [_damping(c) for c in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_decision_carries_the_given_pseudo_jacobian_bitwise():
    rng = np.random.RandomState(31)
    dims = Dimensions(My=2, Mu=2, Ly=1, Lu=2)
    pjm = PseudoJacobian((rng.randn(2, 2),), (rng.randn(2, 2), rng.randn(2, 2)))
    win = window(dims, 3, [rng.randn(2), rng.randn(2)], [rng.randn(2), rng.randn(2)])
    w = Weighting(np.array([0.1, 0.3]))
    box = BoxConstraints(np.full(2, -0.5), np.full(2, 0.5))
    for dec in (mfac_step(pjm, win, win.y_history[0], rng.randn(2), w),
                mfac_constrained_step(pjm, win, win.y_history[0], rng.randn(2), w, box)):
        carried = PseudoJacobian(tuple(dec.output_blocks), tuple(dec.input_blocks))
        assert carried.flattened().tobytes() == pjm.flattened().tobytes()
