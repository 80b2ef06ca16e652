"""Tests for the incremental linearization layer.

Frozen numeric expectations were computed by hand or by the inline oracles
(independent finite differencing, direct plant stepping) before the assertions
were written.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfaclab.edlm import (
    FD_STEP,
    HESSIAN_STEP,
    DifferentiableModel,
    Dimensions,
    PseudoJacobian,
    RegressorWindow,
    pjm_csv_header,
    pjm_first_order,
    pjm_second_order,
    predict_delta_output,
)
from mfaclab.errors import NonFiniteModelError, ShapeError
from mfaclab.plant import Example1Plant, LTIPlant


def window(dims, k, ys, us):
    return RegressorWindow(dims, k=k, y_history=tuple(ys), u_history=tuple(us))


def fd_oracle(model, args, slot, col, h=1e-5):
    """Independent one-column derivative estimate with its own step size."""
    hi = [a.copy() for a in args]
    lo = [a.copy() for a in args]
    hi[slot][col] += h
    lo[slot][col] -= h
    return (model.evaluate(hi) - model.evaluate(lo)) / (2.0 * h)


# ---------------------------------------------------------------- dimensions


def test_dimensions_validation():
    with pytest.raises(ValueError):
        Dimensions(My=0, Mu=1, Ly=0, Lu=1)
    with pytest.raises(ValueError):
        Dimensions(My=1, Mu=1, Ly=-1, Lu=1)
    with pytest.raises(ValueError):
        Dimensions(My=1, Mu=1, Ly=0, Lu=0)
    d = Dimensions(My=2, Mu=3, Ly=2, Lu=3)
    assert d.width == 2 * 2 + 3 * 3


def test_window_validates_vector_sizes():
    dims = Dimensions(My=2, Mu=1, Ly=1, Lu=1)
    with pytest.raises(ShapeError):
        window(dims, 1, [np.zeros(3)], [np.zeros(1), np.zeros(1)])
    with pytest.raises(ShapeError):
        window(dims, 1, [np.zeros(2)], [])


def test_window_freezes_a_copy_of_the_callers_arrays():
    dims = Dimensions(My=1, Mu=1, Ly=1, Lu=1)
    a, u = np.zeros(1), np.zeros(1)
    w = window(dims, 1, [a], [u])
    a[0] = 1.0
    u[0] = 2.0
    assert w.y_history[0][0] == 0.0
    assert w.u_history[0][0] == 0.0
    assert not w.y_history[0].flags.writeable


# ------------------------------------------------------------ prediction


def test_predict_zero_regressor():
    pjm = PseudoJacobian((np.eye(2),), (np.ones((2, 2)),))
    assert_allclose(predict_delta_output(pjm, np.zeros(4)), np.zeros(2))


def test_predict_scalar_hand_case():
    pjm = PseudoJacobian((np.array([[0.5]]),), (np.array([[1.0]]),))
    out = predict_delta_output(pjm, np.array([2.0, 3.0]))
    assert_allclose(out, [4.0])  # 0.5*2 + 1*3


def test_predict_rejects_wrong_width():
    pjm = PseudoJacobian((np.array([[0.5]]),), (np.array([[1.0]]),))
    with pytest.raises(ShapeError):
        predict_delta_output(pjm, np.zeros(3))


def test_predict_matches_direct_plant_stepping():
    # Oracle: run y(k+1) = 0.5 y(k) + u(k) forward and difference the outputs.
    plant = LTIPlant([np.array([[0.5]])], [np.array([[1.0]])])
    dims = plant.dims
    us = [0.0, 1.0, 1.5, 0.25, -0.5]
    ys = [0.0]
    for u in us:
        ys.append(float(plant.evaluate([np.array([ys[-1]]), np.array([u])])[0]))
    k = 3
    prev = window(dims, k - 1, [np.array([ys[k - 1]])], [np.array([us[k - 1]])])
    pjm = pjm_first_order(plant, prev)
    delta_h = np.array([ys[k] - ys[k - 1], us[k] - us[k - 1]])  # [dy(k), du(k)]
    predicted = predict_delta_output(pjm, delta_h)
    actual = ys[k + 1] - ys[k]
    assert_allclose(predicted, [actual], atol=1e-10)


# ---------------------------------------------------------- first-order PJM


def test_first_order_recovers_lti_blocks():
    plant = LTIPlant([np.array([[0.5]])], [np.array([[1.0]])])
    for point in ([0.0, 0.0], [3.0, -2.0], [100.0, 5.0]):
        op = window(plant.dims, 9, [np.array([point[0]])], [np.array([point[1]])])
        pjm = pjm_first_order(plant, op)
        assert_allclose(pjm.output_blocks[0], [[0.5]], atol=1e-8)
        assert_allclose(pjm.input_blocks[0], [[1.0]], atol=1e-8)


def test_first_order_recovers_mimo_lti_blocks():
    A = np.array([[0.2, -0.1], [0.0, 0.3]])
    B0 = np.array([[1.0, 0.5], [0.0, 2.0]])
    B1 = np.array([[0.1, 0.0], [-0.3, 0.4]])
    plant = LTIPlant([A], [B0, B1])
    rng = np.random.RandomState(3)
    op = window(plant.dims, 4, [rng.randn(2)], [rng.randn(2), rng.randn(2)])
    pjm = pjm_first_order(plant, op)
    assert_allclose(pjm.output_blocks[0], A, atol=1e-8)
    assert_allclose(pjm.input_blocks[0], B0, atol=1e-8)
    assert_allclose(pjm.input_blocks[1], B1, atol=1e-8)


def test_first_order_static_plant_has_no_output_blocks():
    plant = LTIPlant([], [np.array([[2.0]])])
    op = window(plant.dims, 1, [], [np.array([0.7])])
    pjm = pjm_first_order(plant, op)
    assert pjm.output_blocks == ()
    assert_allclose(pjm.input_blocks[0], [[2.0]], atol=1e-8)


def test_first_order_benchmark_plant_at_zero():
    # At the origin the only surviving first derivatives are the linear
    # terms: du1 enters y1 with gain 1 and du2 enters y2 with gain 0.8.
    plant = Example1Plant()
    z = np.zeros(2)
    op = window(plant.dims, 3, [z, z], [z, z, z])
    pjm = pjm_first_order(plant, op)
    assert_allclose(pjm.input_blocks[0], [[1.0, 0.0], [0.0, 0.8]], atol=1e-9)
    assert_allclose(pjm.output_blocks[0], np.zeros((2, 2)), atol=1e-9)
    assert_allclose(pjm.input_blocks[1], np.zeros((2, 2)), atol=1e-9)


def test_first_order_matches_independent_differencing():
    plant = Example1Plant()
    rng = np.random.RandomState(11)
    ys = [rng.uniform(-0.5, 0.5, 2)]
    us = [rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 2)]
    op = window(plant.dims, 6, ys + [np.zeros(2)], us + [np.zeros(2)])
    pjm = pjm_first_order(plant, op)
    args = [ys[0], us[0], us[1]]
    blocks = [pjm.output_blocks[0], pjm.input_blocks[0], pjm.input_blocks[1]]
    for slot, block in enumerate(blocks):
        for col in range(2):
            expected = fd_oracle(plant, args, slot, col)
            assert_allclose(block[:, col], expected, rtol=1e-4, atol=1e-8)


def test_first_order_nonfinite_model_flags_component():
    class BadPlant(DifferentiableModel):
        @property
        def dims(self):
            return Dimensions(My=2, Mu=1, Ly=0, Lu=1)

        def evaluate(self, args):
            return np.array([float(args[0][0]), np.inf])

    plant = BadPlant()
    op = window(plant.dims, 1, [], [np.zeros(1)])
    with pytest.raises(NonFiniteModelError) as err:
        pjm_first_order(plant, op)
    assert err.value.component == 1


def test_first_order_rejects_short_operating_point():
    plant = Example1Plant()
    op = window(plant.dims, 2, [np.zeros(2)], [np.zeros(2)])
    with pytest.raises(ShapeError):
        pjm_first_order(plant, op)


# ------------------------------------------- batched against point-by-point


def sequential_block(model, args, slot):
    """Central differences with one evaluate call per perturbed point."""
    block = np.empty((model.dims.My, args[slot].shape[0]))
    for j in range(args[slot].shape[0]):
        x = args[slot][j]
        h = max(FD_STEP, FD_STEP * abs(x))
        hi = [a.copy() for a in args]
        lo = [a.copy() for a in args]
        hi[slot][j] = x + h
        lo[slot][j] = x - h
        block[:, j] = (model.evaluate(hi) - model.evaluate(lo)) / (2.0 * h)
    return block


def sequential_hessian(model, args, slot):
    """Nested central differences with one evaluate call per shifted point."""
    w = args[slot].shape[0]
    h = HESSIAN_STEP
    H = np.empty((model.dims.My, w, w))
    f0 = model.evaluate(args)

    def shifted(di, hi, dj, hj):
        pt = [a.copy() for a in args]
        pt[slot][di] += hi
        pt[slot][dj] += hj
        return model.evaluate(pt)

    for i in range(w):
        H[:, i, i] = (shifted(i, h, i, 0.0) - 2.0 * f0 + shifted(i, -h, i, 0.0)) / (h * h)
        for j in range(i + 1, w):
            mixed = (shifted(i, h, j, h) - shifted(i, h, j, -h)
                     - shifted(i, -h, j, h) + shifted(i, -h, j, -h)) / (4.0 * h * h)
            H[:, i, j] = mixed
            H[:, j, i] = mixed
    return H


def random_operating_points(count, seed):
    rng = np.random.default_rng(seed)
    for n in range(count):
        if n % 2:
            yield Example1Plant(), rng.uniform(-0.5, 0.5, size=(1, 2)), rng.uniform(-0.5, 0.5, size=(2, 2))
            continue
        My, Mu, ny = (int(v) for v in rng.integers(1, 4, size=3))
        ny -= 2  # -1, 0 or 1
        plant = LTIPlant([rng.normal(size=(My, My)) for _ in range(ny + 1)], [rng.normal(size=(My, Mu))] * 2)
        yield plant, rng.normal(size=(ny + 1, My)), rng.normal(size=(2, Mu)) * 100.0


def test_batched_first_order_equals_point_by_point_bitwise():
    for plant, ys, us in random_operating_points(30, seed=7):
        pjm = pjm_first_order(plant, window(plant.dims, 4, list(ys), list(us)))
        args = list(ys) + list(us)
        for slot, block in enumerate(pjm.output_blocks + pjm.input_blocks):
            assert np.array_equal(block, sequential_block(plant, args, slot))


class CurvedPlant(DifferentiableModel):
    """y(k+1) = sum over slots of tanh(M_s x_s) + 0.1 (M_s x_s)^3: curvature, cross terms included, in every slot."""

    def __init__(self, My, Mu, ny, nu, rng):
        self._dims = Dimensions(My=My, Mu=Mu, Ly=ny + 1, Lu=nu + 1)
        self._mats = [rng.normal(size=(My, w)) for w in [My] * (ny + 1) + [Mu] * (nu + 1)]

    @property
    def dims(self):
        return self._dims

    def evaluate(self, args):
        out = np.zeros(self._dims.My)
        for m, x in zip(self._mats, args):
            z = m @ x
            out += np.tanh(z) + 0.1 * z ** 3
        return out


def curved_operating_points(seed):
    """Every slot width from 1 to 3 for outputs and inputs, with and without output slots (ny = -1, 0, 1)."""
    rng = np.random.default_rng(seed)
    for My in (1, 2, 3):
        for Mu in (1, 2, 3):
            for ny in (-1, 0, 1):
                nu = (My + Mu + ny) % 2
                plant = CurvedPlant(My, Mu, ny, nu, rng)
                yield plant, rng.uniform(-0.5, 0.5, size=(ny + 1, My)), rng.uniform(-0.5, 0.5, size=(nu + 1, Mu))


def test_batched_second_order_equals_point_by_point_bitwise():
    rng = np.random.default_rng(8)
    points = list(random_operating_points(20, seed=9)) + list(curved_operating_points(seed=10))
    for plant, ys, us in points:
        args = list(ys) + list(us)
        deltas = [0.1 * rng.normal(size=a.shape) for a in args]
        op = window(plant.dims, 4, list(ys), list(us))
        pjm = pjm_second_order(plant, op, deltas[: len(ys)], deltas[len(ys):])
        for slot, block in enumerate(pjm.output_blocks + pjm.input_blocks):
            H = sequential_hessian(plant, args, slot)
            want = sequential_block(plant, args, slot)
            want += 0.5 * np.einsum("j,rjc->rc", deltas[slot], H)
            assert np.array_equal(block, want)


def test_default_evaluate_batch_loops_over_evaluate():
    rng = np.random.default_rng(3)
    plant = CurvedPlant(2, 3, 0, 1, rng)
    assert "evaluate_batch" not in vars(CurvedPlant)
    args = [rng.normal(size=(5, 2)), rng.normal(size=(5, 3)), rng.normal(size=(5, 3))]
    rows = [plant.evaluate([a[b] for a in args]) for b in range(5)]
    assert plant.evaluate_batch(args).tobytes() == np.array(rows).tobytes()


def test_batch_reports_the_first_nonfinite_point():
    class LateNaN(DifferentiableModel):
        @property
        def dims(self):
            return Dimensions(My=3, Mu=2, Ly=0, Lu=1)

        def evaluate(self, args):
            (u,) = args
            out = np.array([u[0], u[1], 0.0])
            if u[0] < 0.0:  # the downward step of coordinate 0, evaluated second
                out[2] = np.nan
            if u[1] < 0.0:  # the downward step of coordinate 1, evaluated fourth
                out[0] = np.inf
            return out

    plant = LateNaN()
    with pytest.raises(NonFiniteModelError) as err:
        pjm_first_order(plant, window(plant.dims, 1, [], [np.zeros(2)]))
    assert err.value.component == 2


def test_batch_shape_is_checked():
    class Wide(DifferentiableModel):
        @property
        def dims(self):
            return Dimensions(My=1, Mu=1, Ly=0, Lu=1)

        def evaluate(self, args):
            return np.zeros(2)

    plant = Wide()
    with pytest.raises(ShapeError):
        pjm_first_order(plant, window(plant.dims, 1, [], [np.zeros(1)]))


# --------------------------------------------------------- second-order PJM


def test_second_order_zero_deltas_equals_first_order():
    plant = Example1Plant()
    rng = np.random.RandomState(2)
    op = window(
        plant.dims, 5,
        [rng.uniform(-0.3, 0.3, 2), np.zeros(2)],
        [rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.3, 0.3, 2), np.zeros(2)],
    )
    z = np.zeros(2)
    first = pjm_first_order(plant, op)
    second = pjm_second_order(plant, op, delta_ys=[z], delta_us=[z, z])
    for a, b in zip(first.output_blocks + first.input_blocks,
                    second.output_blocks + second.input_blocks):
        assert np.array_equal(a, b)


def test_second_order_lti_corrections_vanish():
    A = np.array([[0.4, 0.1], [0.0, -0.2]])
    B = np.array([[1.0, 0.0], [0.5, 1.0]])
    plant = LTIPlant([A], [B])
    op = window(plant.dims, 3, [np.array([0.3, -0.4])], [np.array([1.0, 2.0])])
    first = pjm_first_order(plant, op)
    second = pjm_second_order(
        plant, op, delta_ys=[np.array([0.2, 0.1])], delta_us=[np.array([-0.3, 0.5])]
    )
    assert_allclose(second.output_blocks[0], first.output_blocks[0], atol=1e-6)
    assert_allclose(second.input_blocks[0], first.input_blocks[0], atol=1e-6)


def test_second_order_hand_curvature_correction():
    # y2 carries a u1(k)^2 term, so its Hessian in the newest-input slot is
    # diag(2, 0) and du = (0.1, 0) adds 0.5 * 0.1 * 2 = 0.1 to that entry.
    plant = Example1Plant()
    z = np.zeros(2)
    op = window(plant.dims, 3, [z, z], [z, z, z])
    second = pjm_second_order(plant, op, delta_ys=[z], delta_us=[np.array([0.1, 0.0]), z])
    first = pjm_first_order(plant, op)
    eps = second.input_blocks[0] - first.input_blocks[0]
    assert_allclose(eps, [[0.0, 0.0], [0.1, 0.0]], atol=1e-6)


def test_second_order_prediction_improves_cubically():
    # Halving every increment must shrink the prediction residual by at
    # least 6x if the Hessian correction captures the quadratic term.
    plant = Example1Plant()
    z = np.zeros(2)
    base_y = np.array([0.1, -0.2])
    base_u = [np.array([0.05, 0.1]), np.array([-0.1, 0.05])]
    op = window(plant.dims, 4, [base_y, z], base_u + [z])

    def prediction_error(scale):
        dy = scale * np.array([0.08, -0.04])
        du0 = scale * np.array([0.06, -0.09])
        du1 = scale * np.array([0.02, 0.07])
        pjm = pjm_second_order(plant, op, delta_ys=[dy], delta_us=[du0, du1])
        dh = np.concatenate([dy, du0, du1])
        predicted = predict_delta_output(pjm, dh)
        y_now = plant.evaluate([base_y, base_u[0], base_u[1]])
        y_shifted = plant.evaluate([base_y + dy, base_u[0] + du0, base_u[1] + du1])
        return np.linalg.norm(y_shifted - y_now - predicted)

    assert prediction_error(1.0) / prediction_error(0.5) >= 6.0


# ----------------------------------------------------------- block plumbing


def test_pseudo_jacobian_validation():
    with pytest.raises(ShapeError):
        PseudoJacobian((), ())
    with pytest.raises(ShapeError):
        PseudoJacobian((np.zeros((2, 3)),), (np.zeros((2, 2)),))
    with pytest.raises(ValueError):
        PseudoJacobian((), (np.array([[np.nan]]),))


def test_flattened_width_matches_dimensions():
    dims = Dimensions(My=2, Mu=3, Ly=2, Lu=2)
    pjm = PseudoJacobian.constant(0.01, dims)
    assert pjm.flattened().shape == (2, dims.width)
    assert (pjm.Ly, pjm.Lu, pjm.My, pjm.Mu) == (2, 2, 2, 3)
    assert_allclose(pjm.flattened(), np.full((2, 10), 0.01))


def test_csv_header_and_values_align():
    dims = Dimensions(My=2, Mu=2, Ly=1, Lu=2)
    header = pjm_csv_header(dims)
    assert header == [
        "Phi1[0,0]", "Phi1[0,1]", "Phi2[0,0]", "Phi2[0,1]", "Phi3[0,0]", "Phi3[0,1]",
        "Phi1[1,0]", "Phi1[1,1]", "Phi2[1,0]", "Phi2[1,1]", "Phi3[1,0]", "Phi3[1,1]",
    ]
    pjm = PseudoJacobian(
        (np.array([[1.0, 2.0], [3.0, 4.0]]),),
        (np.array([[5.0, 6.0], [7.0, 8.0]]), np.array([[9.0, 10.0], [11.0, 12.0]])),
    )
    values = pjm.flattened().ravel().tolist()  # row-major, as SimLog.csv_rows writes the blocks
    assert values == [1.0, 2.0, 5.0, 6.0, 9.0, 10.0, 3.0, 4.0, 7.0, 8.0, 11.0, 12.0]
    assert len(values) == len(header)
