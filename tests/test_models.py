"""Tests for ball-model conversions and Einstein-midpoint averaging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzseg import lorentz as lz
from lorentzseg import models as mm
from lorentzseg.errors import DomainError, UsageError


def sample_points(rng, n, dim=3, scale=1.2, rmax=3.0):
    # interior sampling: geodesic radius capped so conversions stay away
    # from the open ball boundary
    out = []
    for _ in range(n):
        v = rng.normal(size=dim) * scale
        norm = np.linalg.norm(v)
        if norm > rmax:
            v *= rmax / norm
        out.append(lz.exp_lift_origin(v))
    return out


class TestPoincarePair:
    def test_origin_maps_to_zero(self):
        p = mm.lorentz_to_poincare(lz.origin(3))
        assert np.all(p.p == 0.0)

    def test_round_trip_1000(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for x in sample_points(rng, 1000):
            back = mm.poincare_to_lorentz(mm.lorentz_to_poincare(x))
            worst = max(worst, abs(back.time - x.time), np.abs(back.spatial - x.spatial).max())
        assert worst < 1e-10

    def test_norm_order_preserved(self):
        a = lz.exp_lift_origin([0.4, 0.0])
        b = lz.exp_lift_origin([1.7, 0.0])
        assert a.spatial_norm < b.spatial_norm
        assert mm.lorentz_to_poincare(a).norm < mm.lorentz_to_poincare(b).norm

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            mm.PoincarePoint([1.0, 0.0])


class TestKleinPair:
    def test_origin_round(self):
        k = mm.lorentz_to_klein(lz.origin(2))
        assert np.all(k.k == 0.0)
        back = mm.klein_to_lorentz(mm.KleinPoint([0.0, 0.0]))
        assert back.time == 1.0

    def test_round_trip_1000(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for x in sample_points(rng, 1000):
            back = mm.klein_to_lorentz(mm.lorentz_to_klein(x))
            worst = max(worst, abs(back.time - x.time), np.abs(back.spatial - x.spatial).max())
        assert worst < 1e-10

    def test_consistency_triangle(self):
        rng = np.random.default_rng(23)
        for x in sample_points(rng, 200):
            via_klein = mm.klein_to_poincare(mm.lorentz_to_klein(x))
            direct = mm.lorentz_to_poincare(x)
            np.testing.assert_allclose(via_klein.p, direct.p, atol=1e-9)


class TestKleinPoincarePair:
    def test_zero_fixed(self):
        assert np.all(mm.klein_to_poincare(mm.KleinPoint([0.0, 0.0])).p == 0.0)
        assert np.all(mm.poincare_to_klein(mm.PoincarePoint([0.0, 0.0])).k == 0.0)

    def test_round_trip_1000(self):
        rng = np.random.default_rng(24)
        worst = 0.0
        for _ in range(1000):
            vec = rng.normal(size=3)
            vec *= rng.uniform(0.0, 0.95) / max(np.linalg.norm(vec), 1e-12)
            p = mm.PoincarePoint(vec)
            back = mm.klein_to_poincare(mm.poincare_to_klein(p))
            worst = max(worst, np.abs(back.p - p.p).max())
        assert worst < 1e-10

    def test_direct_substitution(self):
        # p along e1 with ||p||^2 = 0.25
        p = mm.PoincarePoint([0.5, 0.0])
        k = mm.poincare_to_klein(p)
        np.testing.assert_allclose(k.k, np.array([0.5, 0.0]) * 2 / 1.25, rtol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-2.5, 2.5), min_size=2, max_size=4))
def test_hypothesis_all_conversions_consistent(coords):
    x = lz.exp_lift_origin(np.asarray(coords))
    p = mm.lorentz_to_poincare(x)
    k = mm.lorentz_to_klein(x)
    np.testing.assert_allclose(mm.poincare_to_klein(p).k, k.k, atol=1e-9)
    back = mm.poincare_to_lorentz(p)
    assert back.time == pytest.approx(x.time, rel=1e-9, abs=1e-9)


class TestEinsteinMidpoint:
    def test_duplicate_point(self):
        k = mm.KleinPoint([0.3, -0.2])
        mid = mm.einstein_midpoint([k, k])
        np.testing.assert_allclose(mid.k, k.k, rtol=1e-15)

    def test_symmetric_pair_is_zero(self):
        k = mm.KleinPoint([0.4, 0.1])
        neg = mm.KleinPoint([-0.4, -0.1])
        mid = mm.einstein_midpoint([k, neg])
        np.testing.assert_allclose(mid.k, 0.0, atol=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(25)
        pts = []
        for _ in range(6):
            vec = rng.normal(size=3)
            vec *= rng.uniform(0.0, 0.9) / max(np.linalg.norm(vec), 1e-12)
            pts.append(mm.KleinPoint(vec))
        mid = mm.einstein_midpoint(pts)
        perm = [pts[i] for i in rng.permutation(6)]
        np.testing.assert_allclose(mm.einstein_midpoint(perm).k, mid.k, atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            mm.einstein_midpoint([])

    def test_result_strictly_inside(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            pts = [mm.lorentz_to_klein(x) for x in sample_points(rng, 5, scale=2.5)]
            mid = mm.einstein_midpoint(pts)
            assert mid.norm < 1.0  # gamma factor stays finite


class TestHyperbolicMean:
    def test_single_point(self):
        rng = np.random.default_rng(27)
        x = lz.exp_lift_origin(rng.normal(size=3))
        m = mm.hyperbolic_mean([x])
        assert m.time == pytest.approx(x.time, rel=1e-12)
        np.testing.assert_allclose(m.spatial, x.spatial, atol=1e-12)

    def test_symmetric_pair_on_axis(self):
        a = lz.exp_lift_origin([0.8, 0.3])
        b = lz.exp_lift_origin([0.8, -0.3])
        m = mm.hyperbolic_mean([a, b])
        assert m.spatial[1] == pytest.approx(0.0, abs=1e-14)
        assert m.spatial[0] > 0.0
        assert lz.manifold_check(m, 1e-10)

    def test_clustered_points_stay_in_hull(self):
        rng = np.random.default_rng(28)
        center = rng.normal(size=3)
        pts = [lz.exp_lift_origin(center + rng.normal(size=3) * 0.05) for _ in range(100)]
        m = mm.hyperbolic_mean(pts)
        max_pairwise = max(
            lz.geodesic_distance(pts[i], pts[j])
            for i in range(0, 100, 7)
            for j in range(0, 100, 11)
        )
        radius = max(lz.geodesic_distance(m, p) for p in pts)
        assert radius <= max(
            lz.geodesic_distance(pts[i], pts[j]) for i in range(100) for j in range(i + 1, 100)
        )
        assert max_pairwise < 1.0

    def test_array_kernel_matches(self):
        rng = np.random.default_rng(29)
        pts = sample_points(rng, 20)
        spatial = np.stack([p.spatial for p in pts])
        time = np.array([p.time for p in pts])
        t0, s0 = mm.hyperbolic_mean_arrays(spatial, time)
        m = mm.hyperbolic_mean(pts)
        assert t0 == pytest.approx(m.time, rel=1e-12)
        np.testing.assert_allclose(s0, m.spatial, atol=1e-12)


class TestIsometry:
    def test_poincare_distance_matches_lorentz(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            x, y = sample_points(rng, 2, scale=1.5)
            dl = lz.geodesic_distance(x, y)
            dp = mm.poincare_distance_reference(
                mm.lorentz_to_poincare(x), mm.lorentz_to_poincare(y)
            )
            assert dp == pytest.approx(dl, abs=1e-8)
