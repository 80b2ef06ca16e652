"""The LAPACK helper: numpy.linalg's results and errors, and the hot paths that call it."""

import numpy as np
import pytest

from mfaclab import _lapack, analysis
from mfaclab.analysis import closed_loop_matrix, ramp_static_error, stability_check, step_static_error
from mfaclab.controller import BoxConstraints, Weighting
from mfaclab.edlm import PseudoJacobian, RegressorWindow
from mfaclab.kinematics import default_arm, forward_kinematics, ik_solve
from mfaclab.plant import VARIANTS, LTIPlant, StepReference, simulate, simulate_batch

# (helper, numpy.linalg function it stands in for)
PAIRS = {
    "solve": (_lapack.solve, np.linalg.solve),
    "cholesky": (_lapack.cholesky, np.linalg.cholesky),
    "svd_values": (_lapack.svd_values, lambda a: np.linalg.svd(a, compute_uv=False)),
    "eigvals": (_lapack.eigvals, np.linalg.eigvals),
}


def outcome(f, *args):
    """dtype, shape and bytes of the result, or the type and message of the error."""
    try:
        r = f(*args)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)
    return r.dtype, r.shape, r.tobytes()


def assert_same(name, *args):
    ours, numpys = PAIRS[name]
    assert outcome(ours, *args) == outcome(numpys, *args)


def seeded_operands():
    """(name, args) over every matrix size the lab solves, 1x1 to 12x12, and (rows, 2, 2) stacks."""
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        a = rng.normal(size=(n, n))
        spd = a.T @ a + 0.1 * np.eye(n)
        yield "solve", (a, rng.normal(size=n))
        yield "solve", (spd, rng.normal(size=(n, 3)))
        yield "cholesky", (spd,)
        yield "svd_values", (a,)
        yield "svd_values", (rng.normal(size=(n, n + 1)),)
        yield "eigvals", (a,)
        yield "eigvals", (a + a.T,)  # real spectrum
    for rows in (1, 7, 60):
        a = rng.normal(size=(rows, 2, 2))
        spd = a.transpose(0, 2, 1) @ a + 0.1 * np.eye(2)
        yield "solve", (spd, rng.normal(size=(rows, 2, 1)))
        yield "cholesky", (spd,)
        yield "svd_values", (a,)
        yield "eigvals", (a,)


def test_results_are_numpys_bit_for_bit():
    count = 0
    for name, args in seeded_operands():
        assert_same(name, *args)
        count += 1
    assert count == 12 * 7 + 3 * 4


@pytest.mark.parametrize("n", [1, 2, 6])
def test_errors_are_numpys(n):
    singular = np.ones((n, n))
    singular[:, 0] = 0.0
    assert_same("solve", singular, np.ones(n))
    assert_same("solve", np.zeros((4, n, n)), np.ones((4, n, 1)))
    assert_same("cholesky", -np.eye(n))
    assert_same("cholesky", np.zeros((3, n, n)))
    for bad in (np.nan, np.inf, -np.inf):
        a = np.eye(n)
        a[-1, 0] = bad
        assert_same("solve", a, np.ones(n))
        for name in ("cholesky", "svd_values", "eigvals"):
            assert_same(name, a)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _lapack.solve(np.zeros((n, n)), np.ones(n))
    with pytest.raises(np.linalg.LinAlgError, match="Array must not contain infs or NaNs"):
        _lapack.eigvals(np.full((n, n), np.nan))


def test_eigvals_is_real_only_when_every_imaginary_part_is_zero():
    assert _lapack.eigvals(np.diag([2.0, -1.0])).dtype == np.float64
    assert _lapack.eigvals(np.array([[0.0, -1.0], [1.0, 0.0]])).dtype == np.complex128


@pytest.fixture
def wrappers_refused(monkeypatch):
    """numpy.linalg.solve, cholesky, svd and eigvals raise; the analysis caches start empty."""
    def refused(*args, **kwargs):
        raise AssertionError("a hot path called a numpy.linalg wrapper")
    for name in ("solve", "cholesky", "svd", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refused)
    analysis._built.cache_clear()
    analysis._analysed.cache_clear()


def test_ik_solve_calls_no_wrapper(wrappers_refused):
    chain = default_arm()
    target = forward_kinematics(chain, [0.3, -0.4, 0.5, 0.2, 0.6, -0.1])
    result = ik_solve(chain, np.zeros(6), target)
    assert result.iterations > 0 and result.converged


def test_analysis_calls_no_wrapper(wrappers_refused):
    pjm = PseudoJacobian((np.array([[0.3, 0.1], [0.0, 0.2]]),), (np.eye(2), 0.5 * np.eye(2)))
    w = Weighting(np.array([0.1, 0.4]))
    assert stability_check(closed_loop_matrix(pjm, w)).stable
    assert np.isfinite(ramp_static_error(pjm, w, Ts=1.0)).all()
    assert not step_static_error(pjm, w).any()
    # a singular T_0 takes the shifted pencil
    lead = np.array([[1.0, 0.0], [0.0, 0.0]])
    singular = PseudoJacobian((np.array([[0.3, 0.1], [0.0, 0.2]]),), (lead, np.array([[0.2, 0.1], [0.3, 0.5]])))
    report = stability_check(closed_loop_matrix(singular, Weighting(np.array([0.4, 0.0]))))
    assert len(report.characteristic_roots) == 2


def test_simulation_calls_no_wrapper(wrappers_refused):
    plant = LTIPlant([0.5 * np.eye(2)], [np.array([[1.0, 0.2], [0.1, 0.9]])])
    init = RegressorWindow(plant.dims, k=1, y_history=[np.zeros(2)], u_history=[np.zeros(2)])
    box = BoxConstraints(np.full(2, -5.0), np.full(2, 5.0))
    for variant in VARIANTS:
        log = simulate(plant, variant, StepReference(2, 0.5), 30, init, Weighting.uniform(0.1, 2),
                       box=box if variant == "constrained" else None)
        assert len(log) == 30
    # zero weighting on a square lead block takes the rank test
    weightings = [Weighting.uniform(0.0, 2), Weighting.uniform(0.1, 2)]
    logs = simulate_batch(plant, StepReference(2, 0.5), 30, init, weightings)
    assert [len(log) for log in logs] == [30, 30]


def test_a_missing_gufunc_fails_at_import_with_its_name():
    with pytest.raises(ImportError, match="'svd_n'"):
        _lapack._gufunc("svd_n")
