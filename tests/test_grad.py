"""Tests for analytic gradients against the central-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from lorentzseg import entailment as ent
from lorentzseg import grad
from lorentzseg import lorentz as lz
from lorentzseg.errors import DomainError, OracleError, UsageError


def lift(s):
    return lz.lift_point(np.asarray(s, dtype=float))


def dist_of_spatial(s, y):
    x0 = math.sqrt(1.0 + float(s @ s))
    return math.acosh(max(1.0, x0 * y.time - float(s @ y.spatial)))


def ext_of_spatial(s, y):
    return ent.exterior_angle(y, lift(s))


def ext_of_anchor_spatial(a, x):
    return ent.exterior_angle(lift(a), x)


def sample_clear_pair(rng, dim=3):
    while True:
        xs = rng.normal(size=dim)
        ys = rng.normal(size=dim)
        if min(np.linalg.norm(xs), np.linalg.norm(ys)) < 0.2:
            continue
        x, y = lift(xs), lift(ys)
        L = lz.lorentz_inner(x.ambient, y.ambient)
        if L * L - 1.0 < 1e-3:
            continue
        A = (x.time + y.time * L) / (y.spatial_norm * math.sqrt(L * L - 1.0))
        if abs(A) > 1.0 - 1e-3:
            continue
        return x, y


class TestGradLorentzDistance:
    def test_shared_axis_gradient_parallel(self):
        x = lift([0.8, 0.0, 0.0])
        y = lift([2.0, 0.0, 0.0])
        g = grad.grad_lorentz_distance(x, y)
        assert abs(g[0]) > 0.0
        np.testing.assert_allclose(g[1:], 0.0, atol=1e-15)

    def test_matches_fd_100_points(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            x, y = sample_clear_pair(rng)
            g = grad.grad_lorentz_distance(x, y)
            fd = grad.finite_difference_gradient(lambda s: dist_of_spatial(s, y), x.spatial)
            assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) < 1e-6

    def test_swap_symmetry(self):
        rng = np.random.default_rng(61)
        x, y = sample_clear_pair(rng)
        g_yx = grad.grad_lorentz_distance(y, x)
        fd = grad.finite_difference_gradient(lambda s: dist_of_spatial(s, x), y.spatial)
        np.testing.assert_allclose(g_yx, fd, atol=1e-7)

    def test_coincident_rejected(self):
        x = lift([0.5, 0.5])
        with pytest.raises(DomainError):
            grad.grad_lorentz_distance(x, lift(x.spatial))


class TestGradExteriorAngle:
    def test_matches_fd_100_points(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            x, y = sample_clear_pair(rng)
            g = grad.grad_exterior_angle(x, y)
            fd = grad.finite_difference_gradient(lambda s: ext_of_spatial(s, y), x.spatial)
            assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) < 1e-6

    def test_collinear_limit_has_no_ray_component(self):
        # approaching the collinear origin-anchor-point configuration, the
        # angle is extremal along the ray, so the gradient component in
        # the ray direction vanishes linearly with the offset
        y = lift([0.9, 0.0])
        fractions = []
        for eps in (3e-3, 1e-3):
            x = lift([2.0, eps])
            g = grad.grad_exterior_angle(x, y)
            fractions.append(abs(g[0]) / np.linalg.norm(g))
        assert fractions[0] < 3e-3
        assert fractions[1] < 1e-3
        assert fractions[1] < fractions[0]

    def test_anchor_gradient_matches_fd(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            x, y = sample_clear_pair(rng)
            g = grad.grad_exterior_angle_anchor(x, y)
            fd = grad.finite_difference_gradient(
                lambda a: ext_of_anchor_spatial(a, x), y.spatial
            )
            assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) < 1e-6

    def test_orthogonality_at_sign_boundary(self):
        # root-find a pair where the predictor crosses zero; there the
        # distance and angle gradients are Euclidean-orthogonal
        y = lift([2.0, 0.3, 0.0])
        dirn = np.array([0.05, 0.12, 0.02])
        dirn /= np.linalg.norm(dirn)

        def predictor_at(t):
            x = lift(t * dirn)
            L = lz.lorentz_inner(x.ambient, y.ambient)
            return (-x.time * L) - y.time

        lo, hi = 0.05, 5.0
        assert predictor_at(lo) * predictor_at(hi) < 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if predictor_at(lo) * predictor_at(mid) <= 0:
                hi = mid
            else:
                lo = mid
        x = lift(0.5 * (lo + hi) * dirn)
        gd = grad.grad_lorentz_distance(x, y)
        ga = grad.grad_exterior_angle(x, y)
        cos = float(np.dot(gd, ga) / (np.linalg.norm(gd) * np.linalg.norm(ga)))
        assert abs(cos) < 1e-12


class TestSignPredictor:
    def test_larger_time_implies_positive(self):
        rng = np.random.default_rng(64)
        for _ in range(500):
            x, y = sample_clear_pair(rng)
            if x.time > y.time:
                assert grad.grad_sign_predictor(x, y) == 1

    def test_negative_witness(self):
        # near-origin moving point against a distant nearly-aligned anchor
        rng = np.random.default_rng(65)
        witness = None
        for _ in range(10000):
            xs = rng.normal(size=3) * 0.15
            ys = rng.normal(size=3) * 2.0
            if min(np.linalg.norm(xs), np.linalg.norm(ys)) < 0.05:
                continue
            x, y = lift(xs), lift(ys)
            if grad.grad_sign_predictor(x, y) == -1:
                witness = (xs, ys)
                break
        assert witness is not None
        x, y = lift(witness[0]), lift(witness[1])
        assert x.time < y.time

    def test_agreement_with_gradient_cosine_10000(self):
        rng = np.random.default_rng(66)
        agree = total = 0
        for _ in range(10000):
            x, y = sample_clear_pair(rng)
            gd = grad.grad_lorentz_distance(x, y)
            ga = grad.grad_exterior_angle(x, y)
            cos = float(np.dot(gd, ga) / (np.linalg.norm(gd) * np.linalg.norm(ga)))
            if abs(cos) <= 1e-8:
                continue
            total += 1
            agree += int((1 if cos > 0 else -1) == grad.grad_sign_predictor(x, y))
        assert total > 9000
        assert agree == total


class TestExpMapJacobian:
    def test_zero_vector_limit(self):
        jac = grad.exp_map_jacobian(np.zeros(3))
        np.testing.assert_array_equal(jac[0], 0.0)
        np.testing.assert_array_equal(jac[1:], np.eye(3))

    def test_series_branch_agrees_with_fd_at_threshold(self):
        for scale in (0.9e-4, 1.1e-4):  # straddles the series switch
            v = np.array([0.6, -0.5, 0.3])
            v = v / np.linalg.norm(v) * scale
            jac = grad.exp_map_jacobian(v)
            for row in range(4):
                def coord(w, row=row):
                    p = lz.exp_lift_origin(w)
                    return p.time if row == 0 else float(p.spatial[row - 1])
                fd = grad.finite_difference_gradient(coord, v)
                np.testing.assert_allclose(jac[row], fd, atol=1e-9)

    def test_diagonal_positive_and_claim(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            v = rng.normal(size=4) * rng.uniform(0.001, 3.0)
            jac = grad.exp_map_jacobian(v)
            assert np.all(np.diag(jac[1:]) > 0.0)
        # r*cosh(r) - sinh(r) > 0 across (1e-8, 12); the margin near the
        # lower end (~r^3/3) sits far below float64 resolution of the
        # direct difference, so verify in extended precision
        import mpmath as mp

        with mp.workdps(40):
            for r in np.geomspace(1e-8, 12.0, 200):
                rm = mp.mpf(float(r))
                assert rm * mp.cosh(rm) - mp.sinh(rm) > 0

    def test_matches_fd(self):
        rng = np.random.default_rng(68)
        for _ in range(30):
            v = rng.normal(size=3) * rng.uniform(0.01, 2.0)
            jac = grad.exp_map_jacobian(v)
            for row in range(4):
                def coord(w, row=row):
                    p = lz.exp_lift_origin(w)
                    return p.time if row == 0 else float(p.spatial[row - 1])
                fd = grad.finite_difference_gradient(coord, v)
                np.testing.assert_allclose(jac[row], fd, atol=1e-6)


class TestEuclideanGradients:
    def test_dot(self):
        rng = np.random.default_rng(69)
        x, y = rng.normal(size=5), rng.normal(size=5)
        np.testing.assert_array_equal(grad.grad_dot(x, y), y)

    def test_unit_offset_distance(self):
        x = np.array([1.0, 2.0, 3.0])
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(grad.grad_euclidean_distance(x, x - e1), e1, atol=1e-15)

    def test_cosine_normalized_reduces(self):
        rng = np.random.default_rng(70)
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        expected = y - float(np.dot(x, y)) * x
        np.testing.assert_allclose(grad.grad_cosine_similarity(x, y), expected, atol=1e-12)

    def test_all_three_match_fd(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            if np.linalg.norm(x - y) < 0.1 or min(np.linalg.norm(x), np.linalg.norm(y)) < 0.1:
                continue
            np.testing.assert_allclose(
                grad.grad_dot(x, y),
                grad.finite_difference_gradient(lambda s: float(s @ y), x),
                atol=1e-7,
            )
            np.testing.assert_allclose(
                grad.grad_euclidean_distance(x, y),
                grad.finite_difference_gradient(lambda s: float(np.linalg.norm(s - y)), x),
                atol=1e-7,
            )
            np.testing.assert_allclose(
                grad.grad_cosine_similarity(x, y),
                grad.finite_difference_gradient(
                    lambda s: float(s @ y) / (np.linalg.norm(s) * np.linalg.norm(y)), x
                ),
                atol=1e-7,
            )

    def test_zero_norm_rejected(self):
        with pytest.raises(DomainError):
            grad.grad_cosine_similarity(np.zeros(3), np.ones(3))
        with pytest.raises(DomainError):
            grad.grad_euclidean_distance(np.ones(3), np.ones(3))

    def test_euclid_distance_angle_orthogonal(self):
        rng = np.random.default_rng(72)
        for _ in range(300):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            if np.linalg.norm(x - y) < 0.05 or np.linalg.norm(y) < 0.05:
                continue
            try:
                ga = grad.grad_euclidean_exterior_angle(x, y)
            except DomainError:
                continue
            gd = grad.grad_euclidean_distance(x, y)
            cos = np.dot(gd, ga) / (np.linalg.norm(gd) * np.linalg.norm(ga))
            assert abs(cos) < 1e-8


class TestFiniteDifferenceOracle:
    def test_constant(self):
        fd = grad.finite_difference_gradient(lambda s: 3.5, np.ones(4))
        np.testing.assert_array_equal(fd, 0.0)

    def test_linear(self):
        a = np.array([1.0, -2.0, 0.5])
        fd = grad.finite_difference_gradient(lambda s: float(a @ s), np.zeros(3))
        np.testing.assert_allclose(fd, a, atol=1e-10)

    def test_distance_cross_check(self):
        rng = np.random.default_rng(73)
        x, y = sample_clear_pair(rng)
        fd = grad.finite_difference_gradient(lambda s: dist_of_spatial(s, y), x.spatial)
        np.testing.assert_allclose(fd, grad.grad_lorentz_distance(x, y), atol=1e-6)

    def test_non_finite_raises(self):
        with pytest.raises(OracleError):
            grad.finite_difference_gradient(lambda s: float("nan"), np.zeros(2))


class TestGradientInteractionReport:
    @settings(max_examples=300, deadline=None)
    @given(v=hs.lists(hs.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_sqrt_of_self_dot_is_norm(self, v):
        # the scalar closed forms and the sampling loop take norms this way;
        # a squared norm past the float range is inf on both sides
        v = np.array(v, dtype=np.float64)
        with np.errstate(over="ignore"):
            assert math.sqrt(v.dot(v)) == np.linalg.norm(v)

    def test_deterministic(self):
        a = grad.gradient_interaction_report(25, seed=5)
        b = grad.gradient_interaction_report(25, seed=5)
        assert a.to_dict() == b.to_dict()

    def test_thresholds_hold(self):
        rep = grad.gradient_interaction_report(200, seed=6)
        assert rep.max_rel_error <= 1e-5
        assert rep.sign_agreement_rate == 1.0
        assert rep.euclid_orthogonality_violations == 0

    def test_single_sample_report(self):
        rep = grad.gradient_interaction_report(1, seed=7)
        assert rep.sample_count == 1
        assert len(rep.samples) == 1

    def test_json_schema(self):
        rep = grad.gradient_interaction_report(3, seed=8)
        doc = rep.to_dict()
        assert doc["format"].startswith("lorentzseg/gradient-report/")
        assert set(doc["samples"][0]) >= {
            "x_spatial", "y_spatial", "grad_distance", "grad_ext_angle",
            "fd_distance", "fd_ext_angle", "cosine", "predicted_sign",
        }

    def test_injected_error_detected(self, monkeypatch):
        distance_gradient = grad.grad_lorentz_distance
        monkeypatch.setattr(grad, "grad_lorentz_distance", lambda x, y: -distance_gradient(x, y))
        rep = grad.gradient_interaction_report(5, seed=9)
        assert rep.max_rel_error > 1e-5

    def test_rejects_nonpositive_count(self):
        with pytest.raises(UsageError):
            grad.gradient_interaction_report(0, seed=1)

    def test_matches_scalar_oracle(self):
        # the report's FD columns come from the row-wise oracle; each must
        # agree with the scalar oracle, and every other column must be the
        # scalar closed forms' values exactly
        for rec in grad.gradient_interaction_report(50, seed=10).samples:
            xs, ys = np.array(rec["x_spatial"]), np.array(rec["y_spatial"])
            nx, ny = np.linalg.norm(xs), np.linalg.norm(ys)
            x = lz.LorentzPoint(math.sqrt(1.0 + nx * nx), xs)
            y = lz.LorentzPoint(math.sqrt(1.0 + ny * ny), ys)
            gd, ga = grad.grad_lorentz_distance(x, y), grad.grad_exterior_angle(x, y)
            ge_d = grad.grad_euclidean_distance(xs, ys)
            ge_a = grad.grad_euclidean_exterior_angle(xs, ys)
            assert rec["grad_distance"] == gd.tolist()
            assert rec["grad_ext_angle"] == ga.tolist()
            assert rec["cosine"] == float(gd @ ga / (np.linalg.norm(gd) * np.linalg.norm(ga)))
            assert rec["euclid_cosine"] == float(
                ge_d @ ge_a / (np.linalg.norm(ge_d) * np.linalg.norm(ge_a)))
            assert rec["predicted_sign"] == grad.grad_sign_predictor(x, y)
            fd_d, fd_a, fd_ed, fd_ea = (grad.finite_difference_gradient(f, xs) for f in (
                lambda s: dist_of_spatial(s, y),
                lambda s: ext_of_spatial(s, y),
                lambda s: float(np.linalg.norm(s - ys)),
                lambda s: grad.euclidean_exterior_angle(s, ys),
            ))
            np.testing.assert_allclose(rec["fd_distance"], fd_d, atol=1e-7)
            np.testing.assert_allclose(rec["fd_ext_angle"], fd_a, atol=1e-7)
            scalar_errors = [
                np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
                for g, fd in ((gd, fd_d), (ga, fd_a), (ge_d, fd_ed), (ge_a, fd_ea))
            ]
            assert rec["rel_error"] == pytest.approx(max(scalar_errors), abs=1e-7)

    def test_row_oracle_non_finite_raises(self):
        with pytest.raises(OracleError):
            grad._row_central_difference(lambda s: np.where(s[:, 0] > 0, np.nan, 0.0), np.zeros((3, 2)))


def _clear_pairs(seed, n=30):
    """Spatial/time arrays of n clear (point, anchor) pairs plus the pairs."""
    rng = np.random.default_rng(seed)
    pairs = [sample_clear_pair(rng) for _ in range(n)]
    ps = np.stack([x.spatial for x, _ in pairs])
    pt = np.array([x.time for x, _ in pairs])
    asp = np.stack([y.spatial for _, y in pairs])
    at = np.array([y.time for _, y in pairs])
    return pairs, ps, pt, asp, at


class TestBatchedKernels:
    def test_batched_distance_grad_matches_scalar(self):
        pairs, ps, pt, asp, at = _clear_pairs(74)
        inner = ps @ asp.T - pt[:, None] * at[None, :]
        g = grad.grad_distance_cross(ps, pt, asp, at, inner)
        g_an = grad.grad_distance_cross_anchor(ps, pt, asp, at, inner)
        for i, (x, y) in enumerate(pairs):
            np.testing.assert_allclose(g[i, i], grad.grad_lorentz_distance(x, y), atol=1e-12)
            # the distance is symmetric: its anchor gradient swaps the roles
            np.testing.assert_allclose(g_an[i, i], grad.grad_lorentz_distance(y, x), atol=1e-12)

    def test_batched_ext_grads_match_scalar(self):
        pairs, ps, pt, asp, at = _clear_pairs(75)
        an = np.linalg.norm(asp, axis=1)
        inner = np.einsum("ij,ij->i", ps, asp) - pt * at
        g_pt = grad.batched_grad_ext_wrt_point(ps, pt, asp, at, inner, an)
        inner_all = ps @ asp.T - pt[:, None] * at[None, :]
        g_an = grad.grad_ext_cross_anchor(ps, pt, asp, at, inner_all, an)
        for i, (x, y) in enumerate(pairs):
            np.testing.assert_allclose(g_pt[i], grad.grad_exterior_angle(x, y), atol=1e-10)
            np.testing.assert_allclose(
                g_an[i, i], grad.grad_exterior_angle_anchor(x, y), atol=1e-10
            )

    def test_per_row_equals_gathered_all_pairs(self):
        # one broadcasting body per formula: one anchor per row must give
        # exactly the all-pairs result gathered at that anchor
        rng = np.random.default_rng(78)
        pt, ps, _ = lz.batched_exp_lift(rng.normal(size=(40, 3)) * 1.5)
        at, asp, _ = lz.batched_exp_lift(rng.normal(size=(5, 3)) * 1.5)
        an = np.linalg.norm(asp, axis=1)
        inner = lz.inner_to_anchors(ps, pt, asp, at)
        pick = rng.integers(0, 5, size=40)
        rows = np.arange(40)
        g_asp, g_at, g_inner, g_an = asp[pick], at[pick], inner[rows, pick], an[pick]
        np.testing.assert_array_equal(
            grad.batched_grad_ext_wrt_point(ps, pt, g_asp, g_at, g_inner, g_an),
            grad.grad_ext_cross_point(ps, pt, asp, at, inner, an)[rows, pick],
        )
        dL = grad._distance_partial(g_inner)
        np.testing.assert_array_equal(
            grad._dense(dL, grad._chain(dL * g_at, 0.0, pt), g_asp, ps),
            grad.grad_distance_cross(ps, pt, asp, at, inner)[rows, pick],
        )
        eL, _, ea0, en = grad._ext_partials(g_inner, pt, g_at, g_an)
        np.testing.assert_array_equal(
            grad._dense(eL, grad._chain(eL * pt, ea0, g_at) + en / g_an, ps, g_asp),
            grad.grad_ext_cross_anchor(ps, pt, asp, at, inner, an)[rows, pick],
        )
        # dd/danchor is dd/dpoint with the roles swapped
        np.testing.assert_array_equal(
            grad.grad_distance_cross_anchor(ps, pt, asp, at, inner),
            grad.grad_distance_cross(asp, at, ps, pt, inner.T).transpose(1, 0, 2),
        )

    def test_pair_backward_matches_summed_scalar_closed_forms(self):
        # the dense kernels share their partials and chain rule with
        # pair_backward; the scalar closed forms are derived on their own
        rng = np.random.default_rng(79)
        pt, ps, _ = lz.batched_exp_lift(rng.normal(size=(20, 3)) * 1.5)
        at, asp, _ = lz.batched_exp_lift(rng.normal(size=(6, 3)) * 1.5)
        an = np.linalg.norm(asp, axis=1)
        w_d, w_ext = rng.normal(size=(2, 20, 6))
        g_p, g_a = grad.pair_backward(w_d, w_ext, ps, pt, asp, at,
                                      lz.inner_to_anchors(ps, pt, asp, at), an, True)
        want_p, want_a = np.zeros((20, 3)), np.zeros((6, 3))
        for i in range(20):
            x = lz.LorentzPoint(pt[i], ps[i])
            for j in range(6):
                y = lz.LorentzPoint(at[j], asp[j])
                want_p[i] += (w_d[i, j] * grad.grad_lorentz_distance(x, y)
                              + w_ext[i, j] * grad.grad_exterior_angle(x, y))
                want_a[j] += (w_d[i, j] * grad.grad_lorentz_distance(y, x)
                              + w_ext[i, j] * grad.grad_exterior_angle_anchor(x, y))
        for got, want in ((g_p, want_p), (g_a, want_a)):
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11 * np.abs(want).max())

    def test_point_on_its_anchors_origin_ray_gives_finite_grads(self):
        # ext is 0 on the ray, where 1 - A^2 rounds below 0 (-5.8e-15 and
        # -1.8e-15 for these two points); the sin floor keeps the
        # gradients finite
        u = np.array([1.0, 0.2, -0.3])
        anchor = lift(u)
        points = [lift(s * u) for s in (1.5, 3.0)]
        ps, pt = np.stack([p.spatial for p in points]), np.array([p.time for p in points])
        asp, at = anchor.spatial[None, :], np.array([anchor.time])
        an = np.array([anchor.spatial_norm])
        inner = lz.inner_to_anchors(ps, pt, asp, at)
        g_row = grad.batched_grad_ext_wrt_point(ps, pt, np.repeat(asp, 2, axis=0),
                                                np.repeat(at, 2), inner[:, 0], np.repeat(an, 2))
        assert np.all(np.isfinite(g_row))
        g_p, g_a = grad.pair_backward(np.ones((2, 1)), np.ones((2, 1)), ps, pt, asp, at,
                                      inner, an, True)
        assert np.all(np.isfinite(g_p)) and np.all(np.isfinite(g_a))

    def test_exp_lift_backward_matches_fd(self):
        rng = np.random.default_rng(76)
        y = lift(rng.normal(size=3))
        for _ in range(20):
            v = rng.normal(size=3) * rng.uniform(0.05, 2.5)

            def loss_of_tangent(w):
                t, s, _ = lz.batched_exp_lift(w[None, :])
                return dist_of_spatial(s[0], y)

            t, s, terms = lz.batched_exp_lift(v[None, :])
            g_spatial = grad.grad_lorentz_distance(lz.lift_point(s[0]), y)
            g_v = grad.exp_lift_backward(terms, g_spatial[None, :])[0]
            fd = grad.finite_difference_gradient(loss_of_tangent, v)
            np.testing.assert_allclose(g_v, fd, atol=2e-6)

    def test_exp_lift_backward_through_clamp(self):
        rng = np.random.default_rng(77)
        y = lift(rng.normal(size=3))
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * 15.0  # beyond the magnitude clamp

        def loss_of_tangent(w):
            t, s, _ = lz.batched_exp_lift(w[None, :])
            return dist_of_spatial(s[0], y)

        t, s, terms = lz.batched_exp_lift(v[None, :])
        g_spatial = grad.grad_lorentz_distance(lz.lift_point(s[0]), y)
        g_v = grad.exp_lift_backward(terms, g_spatial[None, :])[0]
        fd = grad.finite_difference_gradient(loss_of_tangent, v)
        np.testing.assert_allclose(g_v, fd, atol=1e-5)
        lz.reset_clamp_events()
