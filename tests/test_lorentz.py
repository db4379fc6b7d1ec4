"""Tests for the hyperboloid primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzseg import lorentz as lz
from lorentzseg.errors import DomainError, UsageError

# extended-precision summation fixture (50-digit reference evaluation)
INNER_X = [0.17108369498571863, -0.9880543263691317, -0.876272046270818,
           -0.8999918837492884, 1.2137704610664537, 1.4376693239145824]
INNER_Y = [1.99956202743887, 1.024869345181255, -1.6391999738313716,
           -1.4630755854808122, 1.2433214728978497, 0.40268927360368867]
INNER_VALUE = 3.4864631102264564523

# 50-digit evaluation of the origin exponential lift of (0.3, 0.4)
LIFT_TIME = 1.127625965206380785226
LIFT_SPATIAL = [0.3126571832962484169735, 0.4168762443949978892979]


def random_points(rng, n, dim=4, scale=1.2):
    return [lz.exp_lift_origin(rng.normal(size=dim) * scale) for _ in range(n)]


class TestLorentzInner:
    def test_origin_self_product(self):
        assert lz.lorentz_inner([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == -1.0

    def test_orthogonal_axes(self):
        assert lz.lorentz_inner([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_extended_precision_fixture(self):
        got = lz.lorentz_inner(INNER_X, INNER_Y)
        assert got == pytest.approx(INNER_VALUE, rel=1e-14)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=5), rng.normal(size=5)
        assert lz.lorentz_inner(x, y) == lz.lorentz_inner(y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            lz.lorentz_inner([1.0, 0.0], [1.0, 0.0, 0.0])


class TestLiftPoint:
    def test_zero_spatial(self):
        p = lz.lift_point(np.zeros(3))
        assert p.time == 1.0
        assert np.all(p.spatial == 0.0)

    def test_norm_sq_three(self):
        p = lz.lift_point([1.0, 1.0, 1.0])
        assert p.time == pytest.approx(2.0, abs=1e-15)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            lz.lift_point([1e200, 1e200])


class TestExpLiftOrigin:
    def test_zero_vector(self):
        p = lz.exp_lift_origin(np.zeros(2))
        assert p.time == 1.0 and np.all(p.spatial == 0.0)

    def test_unit_vector_distance(self):
        p = lz.exp_lift_origin([0.0, 1.0, 0.0])
        d = lz.geodesic_distance(lz.origin(3), p)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_reference_fixture(self):
        p = lz.exp_lift_origin([0.3, 0.4])
        assert p.time == pytest.approx(LIFT_TIME, abs=1e-15)
        np.testing.assert_allclose(p.spatial, LIFT_SPATIAL, atol=1e-15)

    def test_closure_1000_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = lz.exp_lift_origin(rng.normal(size=3) * 2.0)
            assert lz.manifold_check(p, 1e-8)

    def test_magnitude_clamp_counts_and_stays_finite(self):
        lz.reset_clamp_events()
        p = lz.exp_lift_origin(np.full(4, 50.0))
        assert lz.clamp_events() == 1
        assert np.all(np.isfinite(p.ambient))
        d = lz.geodesic_distance(lz.origin(4), p)
        assert d == pytest.approx(lz.MAX_TANGENT_NORM, rel=1e-9)
        lz.reset_clamp_events()


class TestTangentProject:
    def test_origin_spatial_unchanged(self):
        o = lz.origin(3)
        u = np.array([0.0, 0.5, -0.2, 1.0])
        v = lz.tangent_project(o, u)
        np.testing.assert_allclose(v.components, u, atol=1e-15)

    def test_project_base_point_is_zero(self):
        rng = np.random.default_rng(2)
        z = lz.exp_lift_origin(rng.normal(size=3))
        v = lz.tangent_project(z, z.ambient)
        np.testing.assert_allclose(v.components, 0.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = lz.exp_lift_origin(rng.normal(size=4))
            u = rng.normal(size=5)
            v1 = lz.tangent_project(z, u)
            v2 = lz.tangent_project(z, v1.components)
            np.testing.assert_allclose(v2.components, v1.components, atol=1e-12)

    def test_orthogonality(self):
        rng = np.random.default_rng(4)
        z = lz.exp_lift_origin(rng.normal(size=4) * 1.5)
        v = lz.tangent_project(z, rng.normal(size=5))
        assert abs(lz.lorentz_inner(v.components, z.ambient)) <= 1e-9


class TestExpLog:
    def test_exp_zero_is_identity(self):
        z = lz.exp_lift_origin([0.5, -0.3])
        v = lz.TangentVector(z, np.zeros(3))
        x = lz.exp_map(z, v)
        assert x.same_coords(z)

    def test_exp_at_origin_matches_lift(self):
        rng = np.random.default_rng(5)
        ve = rng.normal(size=3)
        o = lz.origin(3)
        via_map = lz.exp_map(o, lz.TangentVector(o, np.concatenate([[0.0], ve])))
        via_lift = lz.exp_lift_origin(ve)
        assert via_map.time == pytest.approx(via_lift.time, rel=1e-14)
        np.testing.assert_allclose(via_map.spatial, via_lift.spatial, rtol=1e-14)

    def test_log_of_self_is_zero(self):
        z = lz.exp_lift_origin([0.2, 0.9])
        v = lz.log_map(z, z)
        assert np.all(v.components == 0.0)

    def test_log_inverts_exp(self):
        # round trip is only promised below the magnitude clamp
        rng = np.random.default_rng(6)
        for _ in range(200):
            z = lz.exp_lift_origin(rng.normal(size=3))
            u = lz.tangent_project(z, rng.normal(size=4)).components
            target = rng.uniform(0.0, 3.0)
            v = lz.TangentVector(z, u * (target / max(lz.TangentVector(z, u).norm, 1e-12)))
            back = lz.log_map(z, lz.exp_map(z, v))
            tol = 1e-7 * max(1.0, v.norm)
            np.testing.assert_allclose(back.components, v.components, atol=tol)

    def test_log_norm_equals_distance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            z = lz.exp_lift_origin(rng.normal(size=3))
            x = lz.exp_lift_origin(rng.normal(size=3))
            v = lz.log_map(z, x)
            assert v.norm == pytest.approx(lz.geodesic_distance(z, x), abs=1e-8)

    def test_log_rejects_numerically_off_manifold_pair(self):
        # a far-out point whose time drifted low within constructor slack
        # drives -c<z,x>_L visibly below 1, which log_map must refuse
        s, t = math.sinh(8.0), math.cosh(8.0)
        z = lz.lift_point([s, 0.0])
        x = lz.LorentzPoint(t * (1.0 - 2e-9), [s, 0.0])
        with pytest.raises(DomainError):
            lz.log_map(z, x)


class TestGeodesicDistance:
    def test_zero_for_equal(self):
        p = lz.exp_lift_origin([0.4, 0.1])
        assert lz.geodesic_distance(p, p) == 0.0

    def test_unit_speed(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ve = rng.normal(size=3)
            d = lz.geodesic_distance(lz.origin(3), lz.exp_lift_origin(ve))
            assert d == pytest.approx(np.linalg.norm(ve), rel=1e-8)

    def test_triangle_inequality_1000(self):
        rng = np.random.default_rng(9)
        pts = random_points(rng, 60, dim=3)
        checked = 0
        for _ in range(1000):
            i, j, k = rng.integers(0, len(pts), size=3)
            dij = lz.geodesic_distance(pts[i], pts[j])
            dik = lz.geodesic_distance(pts[i], pts[k])
            dkj = lz.geodesic_distance(pts[k], pts[j])
            assert dij <= dik + dkj + 1e-10
            checked += 1
        assert checked == 1000

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = lz.exp_lift_origin(rng.normal(size=4) * 1.5)
            y = lz.exp_lift_origin(rng.normal(size=4) * 1.5)
            assert lz.geodesic_distance(x, y) == lz.geodesic_distance(y, x)


class TestManifoldCheck:
    def test_origin_tight(self):
        assert lz.manifold_check(lz.origin(3), 1e-12)

    def test_wrong_sheet(self):
        assert not lz.manifold_check([-1.0, 0.0, 0.0, 0.0], 1e-12)

    def test_off_manifold_coords(self):
        assert not lz.manifold_check([1.5, 0.0, 0.0], 1e-8)

    def test_tolerance_positive(self):
        with pytest.raises(UsageError):
            lz.manifold_check(lz.origin(2), 0.0)


class TestConstructors:
    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            lz.LorentzPoint(-1.0, [0.0, 0.0])

    def test_rejects_off_manifold(self):
        with pytest.raises(DomainError):
            lz.LorentzPoint(3.7, [0.1, 0.1])

    def test_immutable(self):
        p = lz.origin(2)
        with pytest.raises(Exception):
            p.spatial[0] = 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=5))
def test_hypothesis_lift_membership(coords):
    p = lz.exp_lift_origin(np.asarray(coords))
    assert lz.manifold_check(p, 1e-8)
    assert p.time >= 1.0


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-3, 3.0))
def test_hypothesis_lift_radius_equals_distance(radius):
    p = lz.exp_lift_origin([radius, 0.0])
    d = lz.geodesic_distance(lz.origin(2), p)
    assert d == pytest.approx(radius, rel=1e-9)


class TestArrayLayer:
    def test_batched_lift_matches_scalar(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=(40, 3))
        time, spatial, _ = lz.batched_exp_lift(v)
        for i in range(40):
            p = lz.exp_lift_origin(v[i])
            assert time[i] == pytest.approx(p.time, rel=1e-15)
            np.testing.assert_allclose(spatial[i], p.spatial, rtol=1e-15)

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=(12, 4))
        time, spatial, _ = lz.batched_exp_lift(v)
        dmat = lz.pairwise_lorentz_distances(spatial)
        pts = [lz.lift_point(spatial[i]) for i in range(12)]
        for i in range(12):
            for j in range(12):
                assert dmat[i, j] == pytest.approx(
                    lz.geodesic_distance(pts[i], pts[j]), abs=1e-10
                )

    def test_inner_to_anchors_precomputed(self):
        rng = np.random.default_rng(15)
        spatial = rng.normal(size=(8, 3))
        anchors = rng.normal(size=(4, 3))
        t = lz.time_from_spatial(spatial)
        at = lz.time_from_spatial(anchors)
        inner = lz.inner_to_anchors(spatial, t, anchors, at)
        for i in range(8):
            for j in range(4):
                expected = lz.lorentz_inner(
                    np.concatenate([[t[i]], spatial[i]]),
                    np.concatenate([[at[j]], anchors[j]]),
                )
                assert inner[i, j] == pytest.approx(expected, rel=1e-12)

    def test_batched_clamp_counts_rows(self):
        lz.reset_clamp_events()
        v = np.zeros((5, 2))
        v[1] = [40.0, 0.0]
        v[4] = [0.0, 99.0]
        time, spatial, _ = lz.batched_exp_lift(v)
        assert lz.clamp_events() == 2
        assert np.all(np.isfinite(time))
        lz.reset_clamp_events()

    def test_embedding_grid_roundtrip(self):
        rng = np.random.default_rng(16)
        v = rng.normal(size=(6, 7, 3))
        grid = lz.EmbeddingGrid.from_tangent(v)
        assert grid.shape == (6, 7)
        assert grid.dim == 3
        p = grid.point(2, 3)
        q = lz.exp_lift_origin(v[2, 3])
        assert p.time == pytest.approx(q.time, rel=1e-15)

    def test_euclidean_pairwise(self):
        pts = np.eye(3)
        d = lz.pairwise_euclidean_distances(pts)
        off = d[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, math.sqrt(2.0), rtol=1e-15)
        assert np.all(np.diag(d) == 0.0)
