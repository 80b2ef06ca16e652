"""Tests for the frozen-loop characteristic matrix, roots, and static errors."""

import dataclasses
import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfaclab import analysis
from mfaclab.analysis import (
    closed_loop_matrix,
    ramp_static_error,
    stability_check,
    step_static_error,
)
from mfaclab.controller import Weighting
from mfaclab.edlm import PseudoJacobian, RegressorWindow
from mfaclab.errors import (
    DegenerateLoopError,
    NonFiniteLoopError,
    ShapeError,
    SingularMatrixError,
    UnstableLoopError,
)
from mfaclab.plant import LTIPlant, StepReference, simulate


def scalar_pjm(b, a=None):
    out = (np.array([[a]]),) if a is not None else ()
    return PseudoJacobian(out, (np.array([[b]]),))


# --------------------------------------------------- characteristic matrix


def test_closed_loop_scalar_deadbeat_is_constant():
    T = closed_loop_matrix(scalar_pjm(b=1.7), Weighting(np.zeros(1)))
    assert T.shape == (1, 1, 1)
    assert_allclose(T[:, 0, 0], [1.7 * 1.7])


def test_closed_loop_scalar_damped():
    # lam (1 - q) + b^2, coefficients ordered by powers of the shift
    T = closed_loop_matrix(scalar_pjm(b=2.0), Weighting(np.array([0.3])))
    assert_allclose(T[:, 0, 0], [0.3 + 4.0, -0.3])


def test_closed_loop_scalar_with_output_window():
    # lam (1 - q)(1 - a q) + b^2 = (lam + b^2) - lam(1 + a) q + lam a q^2
    lam, a, b = 0.5, 0.4, 1.2
    T = closed_loop_matrix(scalar_pjm(b=b, a=a), Weighting(np.array([lam])))
    assert_allclose(
        T[:, 0, 0],
        [lam + b * b, -lam * (1.0 + a), lam * a],
        atol=1e-15,
    )


def test_closed_loop_rejects_nonsquare_and_bad_weighting():
    wide = PseudoJacobian((), (np.ones((1, 2)),))
    with pytest.raises(ShapeError):
        closed_loop_matrix(wide, Weighting(np.zeros(2)))
    with pytest.raises(ShapeError):
        closed_loop_matrix(scalar_pjm(b=1.0), Weighting(np.zeros(2)))


# ---------------------------------------------------------------- stability


def test_overflowing_characteristic_matrix_raises():
    # T_1 = -lambda (1 + a) overflows at 1.7e308, and no RuntimeWarning comes first
    pjm = scalar_pjm(b=1.0, a=0.5)
    with pytest.raises(NonFiniteLoopError, match="overflows"):
        closed_loop_matrix(pjm, Weighting(np.array([1.7e308])))
    assert np.isfinite(closed_loop_matrix(pjm, Weighting(np.array([1.0e308])))).all()


def per_block_matrix(pjm, w):
    """T assembled one block at a time: the two loops the stacked build replaced."""
    n = pjm.My
    T = np.zeros((max(pjm.Ly + 2, pjm.Lu), n, n))
    for k, Yk in enumerate([np.eye(n)] + [-b for b in pjm.output_blocks]):
        LY = w.entries[:, None] * Yk
        T[k] += LY
        T[k + 1] -= LY
    lead_t = pjm.lead_input_block.T
    for j, b in enumerate(pjm.input_blocks):
        T[j] += b @ lead_t
    nonzero = np.flatnonzero(T.any(axis=(1, 2)))
    return T[: nonzero[-1] + 1 if nonzero.size else 1]


def test_stacked_build_matches_per_block_assembly_bit_for_bit():
    rng = np.random.default_rng(23)
    for My in (1, 2, 3):
        for Ly in (0, 1, 2):
            for Lu in (1, 2, 3):
                for i in range(200):
                    in_blocks = rng.normal(0.0, 1.0, (Lu, My, My))
                    if i % 5 == 0:
                        in_blocks[-1] = 0.0  # a zero trailing block, trimmed when it ends T
                    pjm = PseudoJacobian(tuple(rng.normal(0.0, 0.5, (Ly, My, My))), tuple(in_blocks))
                    w = Weighting(rng.uniform(0.0, 1.0, My) if i % 2 else np.zeros(My))
                    T, expected = closed_loop_matrix(pjm, w), per_block_matrix(pjm, w)
                    assert T.shape == expected.shape, (My, Ly, Lu, i)
                    assert T.tobytes() == expected.tobytes(), (My, Ly, Lu, i)


def test_stability_deadbeat_no_roots():
    report = stability_check(closed_loop_matrix(scalar_pjm(b=1.0), Weighting(np.zeros(1))))
    assert report.characteristic_roots == ()
    assert report.stable
    assert report.margin == 1.0


def test_stability_scalar_damped_root_one_sixth():
    # lam(1-q) + 1 rewritten in z has its single root at lam/(lam + 1).
    report = stability_check(closed_loop_matrix(scalar_pjm(b=1.0), Weighting(np.array([0.2]))))
    assert report.stable
    assert len(report.characteristic_roots) == 1
    assert_allclose(report.characteristic_roots[0], 1.0 / 6.0, rtol=1e-12)


def test_stability_root_outside_circle():
    report = stability_check(np.array([[[1.0]], [[-2.0]]]))
    assert not report.stable
    assert_allclose(report.characteristic_roots[0], 2.0, rtol=1e-12)
    assert_allclose(report.margin, -1.0, atol=1e-12)


def test_stability_degenerate_determinant_raises():
    with pytest.raises(DegenerateLoopError):
        stability_check(np.zeros((1, 2, 2)))


def test_marginal_loop_classified_unstable():
    # Root exactly on the circle.
    report = stability_check(np.array([[[1.0]], [[-1.0]]]))
    assert not report.stable


# ------------------------------------------------------------- pole solve

SHAPES = [(My, Ly, Lu) for My in (1, 2, 3) for Ly in (0, 1, 2) for Lu in (1, 2)]


def random_loops(seed, per_shape=4):
    rng = np.random.default_rng(seed)
    for My, Ly, Lu in SHAPES:
        for _ in range(per_shape):
            pjm = PseudoJacobian(
                tuple(rng.normal(0.0, 0.5, (Ly, My, My))),
                tuple(rng.normal(0.0, 1.0, (Lu, My, My))),
            )
            yield pjm, Weighting(rng.uniform(0.0, 1.0, My))


def assert_singular_at(T, roots):
    # sum_i T_i z^(d-i) must lose rank at every pole, relative to the size of
    # its terms (a 1x1 matrix has only one singular value).
    d = T.shape[0] - 1
    for z in roots:
        terms = [Ti * z ** (d - i) for i, Ti in enumerate(T)]
        s = np.linalg.svd(sum(terms), compute_uv=False)
        scale = sum(np.linalg.norm(t, 2) for t in terms)
        assert s[-1] <= 1e-8 * scale, (z, s, scale)


def test_roots_make_characteristic_matrix_singular():
    # Oracle independent of the companion form: at every reported pole the
    # characteristic matrix loses rank.
    for pjm, w in random_loops(seed=7):
        T = closed_loop_matrix(pjm, w)
        assert_singular_at(T, stability_check(T).characteristic_roots)


def test_nonsingular_lead_coefficient_gives_n_times_d_roots():
    for pjm, w in random_loops(seed=8):
        T = closed_loop_matrix(pjm, w)
        assert np.linalg.cond(T[0]) < 1e8
        d = T.shape[0] - 1
        assert len(stability_check(T).characteristic_roots) == pjm.My * d


def test_diagonal_loop_roots_are_union_of_scalar_loops():
    a, b, lam = (0.4, -0.7), (1.3, 0.6), (0.5, 0.2)
    pjm = PseudoJacobian((np.diag(a),), (np.diag(b),))
    roots = stability_check(closed_loop_matrix(pjm, Weighting(np.array(lam)))).characteristic_roots
    scalar = []
    for ai, bi, li in zip(a, b, lam):
        T = closed_loop_matrix(scalar_pjm(b=bi, a=ai), Weighting(np.array([li])))
        scalar += stability_check(T).characteristic_roots
    assert_allclose(np.sort_complex(roots), np.sort_complex(scalar), atol=1e-12)


def singular_lead_pjm():
    lead = np.array([[1.0, 0.0], [0.0, 0.0]])
    second = np.array([[0.2, 0.1], [0.3, 0.5]])
    output = np.array([[0.3, 0.1], [0.0, 0.2]])
    return PseudoJacobian((output,), (lead, second))


def test_rank_deficient_lead_block():
    # T_0 = L + lead lead^T is nonsingular here; det T in q is
    # 0.4 (1 - q)(1 - 0.04 q^2), so the poles are 1, +-0.2 and a zero pole.
    T = closed_loop_matrix(singular_lead_pjm(), Weighting(np.array([0.0, 0.4])))
    report = stability_check(T)
    assert not report.stable
    assert_allclose(np.sort_complex(report.characteristic_roots), [-0.2, 0.0, 0.2, 1.0], atol=1e-12)
    assert_singular_at(T, report.characteristic_roots)


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (0, 2, 2), (2, 0, 0), (1, 1, 1, 1)])
def test_stability_check_rejects_blocks_of_the_wrong_shape(shape):
    with pytest.raises(ShapeError):
        stability_check(np.ones(shape))


def test_singular_lead_coefficient_lists_finite_poles():
    # T_0 = diag(1.4, 0) is singular; det T = 0.012 q^2 (1 - q), whose
    # finite poles are 0 and 1.  The two poles at infinity are not listed.
    T = closed_loop_matrix(singular_lead_pjm(), Weighting(np.array([0.4, 0.0])))
    assert np.linalg.cond(T[0]) > 1e12
    report = stability_check(T)
    assert not report.stable
    assert_allclose(np.sort_complex(report.characteristic_roots), [0.0, 1.0], atol=1e-12)


def test_rounded_singular_lead_coefficient_drops_pole_at_infinity():
    # det T(z) = (z - 0.2)(z - 0.3)(z + 0.3) with one pole at infinity.  The
    # orthogonal change of basis keeps the poles but leaves T_0 singular only
    # up to rounding, so the pole at infinity comes out as a tiny nonzero
    # pencil eigenvalue that must not be listed as a huge finite pole.
    T = np.array([[[1.0, 0.0], [0.0, 0.0]], [[-0.5, 0.0], [0.0, 1.0]], [[0.06, 0.0], [0.0, 0.3]]])
    rng = np.random.default_rng(1)
    P, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    report = stability_check(P @ T @ Q)
    assert report.stable
    assert_allclose(np.sort_complex(report.characteristic_roots), [-0.3, 0.2, 0.3], atol=1e-12)


@pytest.mark.parametrize("lead", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]])
@pytest.mark.parametrize("Lu", [1, 2])
def test_zero_weighting_with_rank_deficient_lead_is_degenerate(lead, Lu):
    # With L = 0 every block of T is a multiple of lead^T on the right, so
    # T(q) shares the right null vector of lead^T and det T vanishes for all q.
    # A zero lead zeroes every block, and so does Lu = 1 up to T_0 (d = 0); the
    # rank-1 lead with Lu = 2 leaves d = 1 and every shifted pencil singular.
    blocks = (np.array(lead), np.array([[0.2, 0.1], [0.3, 0.5]]))[:Lu]
    with pytest.raises(DegenerateLoopError):
        stability_check(closed_loop_matrix(PseudoJacobian((), blocks), Weighting(np.zeros(2))))


# ------------------------------------------------------------ static errors


def test_ramp_error_zero_weighting_is_zero():
    err = ramp_static_error(scalar_pjm(b=1.0), Weighting(np.zeros(1)), Ts=1.0)
    assert_allclose(err, [0.0], atol=1e-15)


def test_ramp_error_scalar_hand_value():
    # Oracle: step the scalar incremental loop directly.  y advances by
    # b du with du = b (r(k+1) - y)/(lam + b^2); the error settles at
    # lam Ts / b^2 = 0.2.
    lam, b, Ts = 0.2, 1.0, 1.0
    y = 0.0
    for k in range(1, 4001):
        r_next = (k + 1) * Ts
        du = b * (r_next - y) / (lam + b * b)
        y += b * du
    settled = (4001 * Ts) - y
    analytic = ramp_static_error(scalar_pjm(b=b), Weighting(np.array([lam])), Ts=Ts)
    assert_allclose(analytic, [settled], atol=1e-9)
    assert_allclose(analytic, [0.2], rtol=1e-12)


def test_ramp_error_monotone_in_weighting():
    low = ramp_static_error(scalar_pjm(b=1.0), Weighting(np.array([0.2])), Ts=1.0)
    high = ramp_static_error(scalar_pjm(b=1.0), Weighting(np.array([0.4])), Ts=1.0)
    assert high[0] > low[0]


def test_ramp_error_scales_with_sample_time():
    one = ramp_static_error(scalar_pjm(b=1.5), Weighting(np.array([0.3])), Ts=1.0)
    three = ramp_static_error(scalar_pjm(b=1.5), Weighting(np.array([0.3])), Ts=3.0)
    assert_allclose(three, 3.0 * one, rtol=1e-12)


def test_ramp_error_rejects_bad_sample_time():
    for Ts in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="sample time must be positive"):
            ramp_static_error(scalar_pjm(b=1.0), Weighting(np.array([0.2])), Ts=Ts)


def test_static_errors_refuse_unstable_loop():
    pjm = scalar_pjm(b=1.0, a=3.0)
    w = Weighting(np.array([1.0]))
    report = stability_check(closed_loop_matrix(pjm, w))
    assert not report.stable
    with pytest.raises(UnstableLoopError):
        ramp_static_error(pjm, w, Ts=1.0)
    with pytest.raises(UnstableLoopError):
        step_static_error(pjm, w)


def test_step_error_zero_scalar_cases():
    for lam in (0.0, 0.2):
        err = step_static_error(scalar_pjm(b=1.0), Weighting(np.array([lam])))
        assert_allclose(err, [0.0], atol=1e-12)


def test_step_error_zero_2x2_with_simulation_oracle():
    A = np.array([[0.3, 0.1], [0.0, 0.2]])
    B = np.eye(2)
    pjm = PseudoJacobian((A,), (B,))
    w = Weighting(np.array([0.1, 0.1]))
    assert stability_check(closed_loop_matrix(pjm, w)).stable
    analytic = step_static_error(pjm, w)
    assert np.linalg.norm(analytic) <= 1e-10

    plant = LTIPlant([A], [B])
    z = np.zeros(2)
    init = RegressorWindow(plant.dims, k=1, y_history=(z, z), u_history=(z, z))
    log = simulate(plant, "first_order", StepReference(2), 10000, init, w)
    assert np.linalg.norm(log.y_ref[-1] - log.y[-1]) <= 1e-6


# --------------------------------------------------- one analysis per loop


@pytest.fixture
def pole_solves(monkeypatch):
    """Empty matrix and analysis caches; the list collects the T of every _poles call."""
    analysis._built.cache_clear()
    analysis._analysed.cache_clear()
    seen = []
    poles = analysis._poles

    def counted(T):
        seen.append(T)
        return poles(T)

    monkeypatch.setattr(analysis, "_poles", counted)
    yield seen
    analysis._built.cache_clear()
    analysis._analysed.cache_clear()


def test_verdict_and_both_static_errors_solve_the_poles_once(pole_solves):
    pjm = PseudoJacobian((np.array([[0.3, 0.1], [0.0, 0.2]]),), (np.eye(2), 0.5 * np.eye(2)))
    w = Weighting(np.array([0.1, 0.4]))
    report = stability_check(closed_loop_matrix(pjm, w))
    assert report.stable
    ramp_static_error(pjm, w, Ts=1.0)
    step_static_error(pjm, w)
    assert len(pole_solves) == 1


def test_cache_is_keyed_on_content_not_identity(pole_solves):
    T = closed_loop_matrix(scalar_pjm(b=1.0, a=0.5), Weighting(np.array([0.2])))
    report = stability_check(T)
    assert stability_check(T.copy()) is report
    assert stability_check(np.asfortranarray(T.tolist())) is report
    assert len(pole_solves) == 1
    nudged = T.copy()
    nudged[0, 0, 0] = np.nextafter(nudged[0, 0, 0], np.inf)
    assert stability_check(nudged) is not report
    assert len(pole_solves) == 2


def test_report_is_frozen_with_tuple_roots():
    report = stability_check(closed_loop_matrix(scalar_pjm(b=1.0, a=0.5), Weighting(np.array([0.2]))))
    assert isinstance(report.characteristic_roots, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.stable = False


def test_unstable_loop_raises_on_every_repeat_call(pole_solves):
    pjm = scalar_pjm(b=1.0, a=3.0)
    w = Weighting(np.array([1.0]))
    for _ in range(3):
        with pytest.raises(UnstableLoopError, match="unstable loop"):
            ramp_static_error(pjm, w, Ts=1.0)
        with pytest.raises(UnstableLoopError, match="unstable loop"):
            step_static_error(pjm, w)
    assert len(pole_solves) == 1


def test_singular_gate_at_one_raises_on_every_repeat_call(pole_solves):
    # Stable (largest pole 1 - 1e-8) while cond T(1) = cond(B B^T) = 1e14.
    pjm = PseudoJacobian((), (np.diag([1.0, 1.0e-7]),))
    w = Weighting(np.full(2, 1.0e-6))
    assert stability_check(closed_loop_matrix(pjm, w)).stable
    for _ in range(3):
        with pytest.raises(SingularMatrixError, match="singular at z = 1"):
            ramp_static_error(pjm, w, Ts=1.0)
        with pytest.raises(SingularMatrixError, match="singular at z = 1"):
            step_static_error(pjm, w)
    assert len(pole_solves) == 1


def test_degenerate_loop_raises_on_every_repeat_call(pole_solves):
    T = np.zeros((1, 2, 2))
    for _ in range(3):
        with pytest.raises(DegenerateLoopError):
            stability_check(T)
    assert len(pole_solves) == 3


def test_cached_matrix_at_one_is_read_only():
    pjm = scalar_pjm(b=1.0, a=0.5)
    T1, _ = analysis._static_matrices(pjm, Weighting(np.array([0.2])))
    assert not T1.flags.writeable
    with pytest.raises(ValueError):
        T1[0, 0] = 0.0


def test_analysis_cache_bound_is_the_module_constant(pole_solves):
    assert analysis._analysed.cache_info().maxsize == analysis.ANALYSIS_CACHE_SIZE
    loops = [np.array([[[1.0]], [[-0.5 * (i + 1) / (analysis.ANALYSIS_CACHE_SIZE + 1)]]])
             for i in range(analysis.ANALYSIS_CACHE_SIZE + 1)]
    for T in loops:
        stability_check(T)
    assert analysis._analysed.cache_info().currsize == analysis.ANALYSIS_CACHE_SIZE
    stability_check(loops[-1])  # still held
    assert len(pole_solves) == analysis.ANALYSIS_CACHE_SIZE + 1
    stability_check(loops[0])  # the least recently used one was dropped
    assert len(pole_solves) == analysis.ANALYSIS_CACHE_SIZE + 2


def test_returned_matrix_is_a_writable_copy(pole_solves):
    pjm = scalar_pjm(b=1.0, a=0.5)
    w = Weighting(np.array([0.2]))
    T = closed_loop_matrix(pjm, w)
    expected, ramp = T.copy(), ramp_static_error(pjm, w, Ts=1.0)
    assert T.flags.writeable
    T[:] = 7.0
    assert closed_loop_matrix(pjm, w).tobytes() == expected.tobytes()
    assert ramp_static_error(pjm, w, Ts=1.0).tobytes() == ramp.tobytes()
    assert stability_check(expected).stable


def test_static_errors_after_the_verdict_build_no_matrix_and_solve_no_poles(pole_solves, monkeypatch):
    builds = []
    build = analysis._built.__wrapped__

    def counted(*key):
        builds.append(key)
        return build(*key)

    monkeypatch.setattr(analysis, "_built", functools.lru_cache(analysis.ANALYSIS_CACHE_SIZE)(counted))
    pjm = PseudoJacobian((np.array([[0.3, 0.1], [0.0, 0.2]]),), (np.eye(2), 0.5 * np.eye(2)))
    w = Weighting(np.array([0.1, 0.4]))
    assert stability_check(closed_loop_matrix(pjm, w)).stable
    assert (len(builds), len(pole_solves)) == (1, 1)
    ramp_static_error(pjm, w, Ts=1.0)
    step_static_error(pjm, w)
    assert (len(builds), len(pole_solves)) == (1, 1)


def test_matrix_cache_is_keyed_on_loop_content(pole_solves):
    out_blocks, in_blocks = (np.array([[0.3, 0.1], [0.0, 0.2]]),), (np.eye(2), 0.5 * np.eye(2))
    w = Weighting(np.array([0.1, 0.4]))
    closed_loop_matrix(PseudoJacobian(out_blocks, in_blocks), w)
    copies = PseudoJacobian(tuple(np.asfortranarray(b) for b in out_blocks), tuple(b.copy() for b in in_blocks))
    closed_loop_matrix(copies, Weighting(w.entries.copy()))
    assert analysis._built.cache_info()[:2] == (1, 1)  # hits, misses
    nudged = Weighting(np.array([0.1, np.nextafter(0.4, 1.0)]))
    closed_loop_matrix(copies, nudged)
    assert analysis._built.cache_info()[:2] == (1, 2)


def test_matrix_cache_bound_is_the_module_constant(pole_solves):
    assert analysis._built.cache_info().currsize == 0
    assert analysis._built.cache_info().maxsize == analysis.ANALYSIS_CACHE_SIZE
    w = Weighting(np.array([0.2]))
    for i in range(analysis.ANALYSIS_CACHE_SIZE + 5):
        closed_loop_matrix(scalar_pjm(b=1.0 + i), w)
    assert analysis._built.cache_info().currsize == analysis.ANALYSIS_CACHE_SIZE
