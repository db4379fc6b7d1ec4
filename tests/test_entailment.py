"""Tests for entailment-cone geometry and the per-pixel loss stack."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzseg import entailment as ent
from lorentzseg import lorentz as lz
from lorentzseg.errors import DomainError, UsageError

# 50-digit reference evaluation of the closed-form exterior angle for the
# seeded pair below
EXT_XS = [0.0009841226859860594, 0.23899643000677592, -0.21931028428977406]
EXT_YS = [-0.7124734710058194, -0.36373662813737806, -0.79331724399717]
EXT_VALUE = 1.75924670927751742091


def make_protos(vectors, labels=None, K=0.1):
    anchors = tuple(lz.exp_lift_origin(np.asarray(v, dtype=float)) for v in vectors)
    labels = tuple(labels or [f"c{i}" for i in range(len(anchors))])
    return ent.PrototypeSet(anchors, labels, K)


class TestHalfAperture:
    def test_published_constant_at_unit_radius(self):
        # anchor at geodesic radius 1 has spatial norm sinh(1)
        x = lz.exp_lift_origin([1.0, 0.0])
        aper = ent.half_aperture(x, 0.1)
        assert x.spatial_norm == pytest.approx(math.sinh(1.0), rel=1e-12)
        assert aper == pytest.approx(math.asin(2.0 * 0.1 / x.spatial_norm), rel=1e-14)
        assert 0.165 <= aper <= 0.175

    def test_boundary_norm_gives_right_angle(self):
        K = 0.1
        x = lz.lift_point([2 * K, 0.0])
        assert ent.half_aperture(x, K) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_halves_to_first_order_when_norm_doubles(self):
        a1 = ent.half_aperture(lz.lift_point([8.0, 0.0]), 0.1)
        a2 = ent.half_aperture(lz.lift_point([16.0, 0.0]), 0.1)
        assert a2 / a1 == pytest.approx(0.5, rel=1e-3)

    def test_strictly_decreasing(self):
        norms = np.linspace(0.25, 6.0, 40)
        apers = [ent.half_aperture(lz.lift_point([n, 0.0]), 0.1) for n in norms]
        assert np.all(np.diff(apers) < 0)

    def test_domain_error_inside_floor(self):
        with pytest.raises(DomainError) as err:
            ent.half_aperture(lz.lift_point([0.05, 0.0]), 0.1)
        assert "0.05" in str(err.value)


class TestExteriorAngle:
    def test_point_beyond_anchor_on_ray(self):
        u = np.array([0.6, 0.8])
        x = lz.exp_lift_origin(u)
        y = lz.exp_lift_origin(2.5 * u)
        assert ent.exterior_angle(x, y) == pytest.approx(0.0, abs=1e-6)

    def test_point_between_origin_and_anchor(self):
        u = np.array([0.6, 0.8])
        x = lz.exp_lift_origin(u)
        y = lz.exp_lift_origin(0.4 * u)
        assert ent.exterior_angle(x, y) == pytest.approx(math.pi, abs=1e-6)

    def test_reference_fixture(self):
        x = lz.lift_point(EXT_XS)
        y = lz.lift_point(EXT_YS)
        assert ent.exterior_angle(x, y) == pytest.approx(EXT_VALUE, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            x = lz.exp_lift_origin(rng.normal(size=3))
            y = lz.exp_lift_origin(rng.normal(size=3))
            if x.same_coords(y):
                continue
            a = ent.exterior_angle(x, y)
            assert 0.0 <= a <= math.pi

    def test_origin_anchor_rejected(self):
        with pytest.raises(UsageError):
            ent.exterior_angle(lz.origin(2), lz.exp_lift_origin([1.0, 0.0]))

    def test_coincident_points_degenerate(self):
        x = lz.exp_lift_origin([0.5, 0.5])
        with pytest.raises(DomainError):
            ent.exterior_angle(x, lz.lift_point(x.spatial))


class TestEntailmentLoss:
    def test_inside_cone_zero(self):
        u = np.array([1.0, 0.0])
        x = lz.exp_lift_origin(u)
        y = lz.exp_lift_origin(3.0 * u)  # straight out along the axis
        assert ent.entailment_loss(x, y, 0.1) == 0.0

    def test_boundary_zero(self):
        x = lz.exp_lift_origin([1.0, 0.0])
        aper = ent.half_aperture(x, 0.1)
        # walk the exterior angle onto the aperture by bisection on the
        # mixing parameter of an off-axis target
        lo, hi = 0.0, 1.0
        base, off = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            y = lz.exp_lift_origin(base + mid * off)
            if ent.exterior_angle(x, y) < aper:
                lo = mid
            else:
                hi = mid
        y = lz.exp_lift_origin(base + lo * off)
        assert ent.entailment_loss(x, y, 0.1) == pytest.approx(0.0, abs=1e-9)

    def test_direction_dominates_distance(self):
        # a nearer point in a bad direction must out-score a farther
        # point sitting inside the cone
        x = lz.exp_lift_origin([1.0, 0.0])
        y_far_in = lz.exp_lift_origin([3.2, 0.0])
        y_near_bad = lz.exp_lift_origin([0.9, 0.55])
        assert lz.geodesic_distance(x, y_near_bad) < lz.geodesic_distance(x, y_far_in)
        loss = ent.entailment_loss(x, y_near_bad, 0.1)
        assert loss > ent.entailment_loss(x, y_far_in, 0.1)
        # outside the cone the hinge is the angle past the aperture
        assert loss == pytest.approx(
            ent.exterior_angle(x, y_near_bad) - ent.half_aperture(x, 0.1), rel=1e-14)

    def test_loss_range(self):
        K = 0.1
        rng = np.random.default_rng(41)
        for _ in range(200):
            x = lz.exp_lift_origin(rng.normal(size=2) * 1.5)
            if x.spatial_norm <= 2 * K:
                continue
            y = lz.exp_lift_origin(rng.normal(size=2) * 1.5)
            if x.same_coords(y):
                continue
            val = ent.entailment_loss(x, y, K)
            assert 0.0 <= val <= math.pi

    def test_ray_transitivity(self):
        # members stay members when pushed outward along their origin ray;
        # a few random pairs in 20000 are members, so candidates are drawn
        # in arrays and screened with the array forms, and the scalar checks
        # run on the pairs the screen keeps
        K = 0.1
        rng = np.random.default_rng(42)
        tested = 0
        while tested < 50:
            xs, vs = rng.normal(size=(2, 20000, 3))
            xt, xsp, _ = lz.batched_exp_lift(xs)
            yt, ysp, _ = lz.batched_exp_lift(vs)
            xn = np.linalg.norm(xsp, axis=1)
            inner = np.einsum("ij,ij->i", xsp, ysp) - xt * yt
            ext = ent.ext_angles_from_inner(inner, yt, xt, xn)
            aper = np.arcsin(np.minimum(2 * K / xn, 1.0))
            keep = (xn > 3 * (2 * K)) & (ext <= aper + 1e-6)
            for xv, v in zip(xs[keep], vs[keep]):
                x = lz.exp_lift_origin(xv)
                if x.spatial_norm <= 3 * (2 * K):
                    continue
                y = lz.exp_lift_origin(v)
                try:
                    if ent.entailment_loss(x, y, K) > 0.0:
                        continue
                except DomainError:
                    continue
                for t in (1.25, 1.5, 2.0, 3.0):
                    y_t = lz.exp_lift_origin(t * v)
                    assert ent.entailment_loss(x, y_t, K) <= 1e-9
                tested += 1
                if tested == 50:
                    break


class TestDistanceLogits:
    def test_at_prototype(self):
        protos = make_protos([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        logits = ent.distance_logits(protos, protos.anchors[1], 0.1)
        assert logits[1] == 0.0
        assert logits.argmax() == 1
        assert np.all(np.delete(logits, 1) < 0.0)

    def test_tau_preserves_argmax(self):
        rng = np.random.default_rng(43)
        protos = make_protos(rng.normal(size=(4, 3)))
        y = lz.exp_lift_origin(rng.normal(size=3))
        a = ent.distance_logits(protos, y, 0.1)
        b = ent.distance_logits(protos, y, 2.0)
        assert a.argmax() == b.argmax()
        assert not np.allclose(a, b)

    def test_matches_bruteforce_distances(self):
        rng = np.random.default_rng(44)
        protos = make_protos(rng.normal(size=(3, 4)))
        y = lz.exp_lift_origin(rng.normal(size=4))
        tau = 0.37
        logits = ent.distance_logits(protos, y, tau)
        for i, anchor in enumerate(protos.anchors):
            assert logits[i] == pytest.approx(
                -lz.geodesic_distance(anchor, y) / tau, rel=1e-14
            )

    def test_argmin_distance_equals_argmax_logits(self):
        rng = np.random.default_rng(45)
        protos = make_protos(rng.normal(size=(5, 3)))
        for _ in range(100):
            y = lz.exp_lift_origin(rng.normal(size=3) * 1.5)
            d = np.array([lz.geodesic_distance(a, y) for a in protos.anchors])
            logits = ent.distance_logits(protos, y, 0.1)
            assert d.argmin() == logits.argmax()


class TestPixelCrossEntropy:
    def test_peaked_logits(self):
        val = ent.pixel_cross_entropy(np.array([0.0, -10.0, -10.0]), 0)
        assert val == pytest.approx(math.log(1.0 + 2.0 * math.exp(-10.0)), rel=1e-12)
        assert val < 1e-4

    def test_uniform_logits(self):
        for c in (2, 5, 9):
            val = ent.pixel_cross_entropy(np.zeros(c), 0)
            assert val == pytest.approx(math.log(c), rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(46)
        logits = rng.normal(size=7)
        a = ent.pixel_cross_entropy(logits, 3)
        b = ent.pixel_cross_entropy(logits + 123.456, 3)
        assert abs(a - b) < 1e-12

    def test_label_range(self):
        with pytest.raises(UsageError):
            ent.pixel_cross_entropy(np.zeros(3), 3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(-50, 50))
def test_hypothesis_ce_shift_invariant(logits, shift):
    logits = np.asarray(logits)
    a = ent.pixel_cross_entropy(logits, 0)
    b = ent.pixel_cross_entropy(logits + shift, 0)
    assert a >= 0.0
    assert abs(a - b) < 1e-9


class TestCombinedLoss:
    def setup_method(self):
        self.protos = make_protos([[1.2, 0.0], [0.0, 1.2]], K=0.1)

    def test_zero_weight_reduces_to_ce(self):
        y = lz.exp_lift_origin([0.4, 0.9])
        assert ent.combined_pixel_loss(self.protos, y, 1, 0.1, 0.0) == (
            ent.pixel_cross_entropy(ent.distance_logits(self.protos, y, 0.1), 1)
        )

    def test_in_cone_reduces_to_ce(self):
        y = lz.exp_lift_origin([3.0, 0.0])  # inside anchor 0's cone
        assert ent.entailment_loss(self.protos.anchors[0], y, 0.1) == 0.0
        assert ent.combined_pixel_loss(self.protos, y, 0, 0.1, 0.5) == (
            ent.pixel_cross_entropy(ent.distance_logits(self.protos, y, 0.1), 0)
        )

    def test_sum_of_constituents(self):
        y = lz.exp_lift_origin([0.3, 0.8])
        ce = ent.pixel_cross_entropy(ent.distance_logits(self.protos, y, 0.1), 0)
        hinge = ent.entailment_loss(self.protos.anchors[0], y, 0.1)
        got = ent.combined_pixel_loss(self.protos, y, 0, 0.1, 0.5)
        assert got == pytest.approx(ce + 0.5 * hinge, rel=1e-14)
        assert hinge > 0.0


class TestPrototypeSet:
    def test_degenerate_anchor_rejected_at_construction(self):
        with pytest.raises(UsageError):
            make_protos([[1.0, 0.0], [0.1, 0.0]], K=0.1)

    def test_apertures_match_scalar_half_aperture(self):
        rng = np.random.default_rng(51)
        anchors = tuple(lz.exp_lift_origin(v) for v in rng.normal(size=(5, 3)) + 1.0)
        protos = ent.PrototypeSet(anchors, tuple("abcde"), 0.1)
        for anchor, aper in zip(anchors, protos.apertures):
            assert aper == pytest.approx(ent.half_aperture(anchor, 0.1), rel=1e-14)

    @pytest.mark.parametrize("K", [0.0, -1.0, math.nan])
    def test_cone_constant_must_be_finite_and_positive(self, K):
        with pytest.raises(UsageError, match="cone constant K"):
            make_protos([[1.0, 0.0]], K=K)
        with pytest.raises(UsageError, match="cone constant K"):
            ent.half_aperture(lz.exp_lift_origin([1.0, 0.0]), K)

    def test_cached_arrays(self):
        protos = make_protos([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(protos.spatial_norms, [math.sinh(1.0), math.sinh(2.0)], rtol=1e-12)
        assert protos.time.shape == (2,)
        # computed once at construction, not on every read
        assert protos.spatial_norms is protos.spatial_norms


class TestArrayKernels:
    def test_ext_angles_match_scalar(self):
        rng = np.random.default_rng(47)
        anchors = rng.normal(size=(4, 3)) * 1.2
        at, asp, _ = lz.batched_exp_lift(anchors)
        pts = rng.normal(size=(20, 3))
        pt, psp, _ = lz.batched_exp_lift(pts)
        angles = ent.ext_angles_to_anchors(psp, pt, asp, at)
        for i in range(20):
            for j in range(4):
                scalar = ent.exterior_angle(
                    lz.lift_point(asp[j]), lz.lift_point(psp[i])
                )
                assert angles[i, j] == pytest.approx(scalar, abs=1e-10)

    def test_per_row_body_equals_gathered_all_pairs(self):
        # the shared exterior-angle body, fed one anchor per row, gives the
        # gathered all-pairs angles bit for bit
        rng = np.random.default_rng(50)
        at, asp, _ = lz.batched_exp_lift(rng.normal(size=(4, 3)) * 1.2)
        pt, psp, _ = lz.batched_exp_lift(rng.normal(size=(30, 3)))
        labels = rng.integers(0, 4, size=30)
        inner = lz.inner_to_anchors(psp, pt, asp, at)
        rows = np.arange(30)
        per_row = ent.ext_angles_from_inner(
            inner[rows, labels], pt, at[labels], np.linalg.norm(asp, axis=1)[labels]
        )
        assert np.array_equal(per_row, ent.ext_angles_to_anchors(psp, pt, asp, at)[rows, labels])

    def test_point_on_its_anchor_has_angle_zero(self):
        at, asp, _ = lz.batched_exp_lift(np.array([[0.7, -0.2]]))
        inner = lz.inner_to_anchors(asp, at, asp, at)[:, 0]
        angle = ent.ext_angles_from_inner(inner, at, at, np.linalg.norm(asp, axis=1))
        assert angle.tolist() == [0.0]

    def test_distance_logits_match_scalar(self):
        rng = np.random.default_rng(48)
        anchors = rng.normal(size=(3, 4))
        at, asp, _ = lz.batched_exp_lift(anchors)
        protos = make_protos(anchors)
        y = lz.exp_lift_origin(rng.normal(size=4))
        tau = 0.2
        inner = lz.inner_to_anchors(y.spatial[None, :], np.array([y.time]), asp, at)
        batched = -lz.distances_from_inner(inner)[0] / tau
        np.testing.assert_allclose(batched, ent.distance_logits(protos, y, tau), atol=1e-12)

    def test_cross_entropy_rows_shifts_by_the_exact_row_max(self):
        rng = np.random.default_rng(50)
        logits = rng.normal(size=(64, 9))
        logits[::5, 3] = logits[::5, 7]  # ties
        logits[1, 2], logits[2, :] = np.nan, -np.inf
        labels = rng.integers(0, 9, size=64)
        with np.errstate(invalid="ignore"):
            rows, (e, s) = ent.cross_entropy_rows(logits, labels)
            shifted = logits - logits.max(axis=-1, keepdims=True)
            e_ref = np.exp(shifted)
            rows_ref = np.log(e_ref.sum(axis=-1)) - shifted[np.arange(64), labels]
        np.testing.assert_array_equal(e, e_ref)
        np.testing.assert_array_equal(rows, rows_ref)

    def test_cross_entropy_rows_matches_scalar(self):
        rng = np.random.default_rng(49)
        logits = rng.normal(size=(10, 5))
        labels = rng.integers(0, 5, size=10)
        rows, _ = ent.cross_entropy_rows(logits, labels)
        for i in range(10):
            assert rows[i] == pytest.approx(
                ent.pixel_cross_entropy(logits[i], int(labels[i])), rel=1e-12
            )
