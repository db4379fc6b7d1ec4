"""Tests for uncertainty, confidence, and boundary maps."""

import numpy as np
import pytest

from lorentzseg import entailment as ent
from lorentzseg import lorentz as lz
from lorentzseg import segtoy as st
from lorentzseg import uncertainty as unc
from lorentzseg.errors import UsageError

import reference_values as ref
from reference_runs import (
    STATISTICS,
    label_boundary_mask,
    radius_uncertainty_variants,
    ranking_signature,
)


def grid_from_tangents(v):
    return lz.EmbeddingGrid.from_tangent(np.asarray(v, dtype=float))


def angle_uncertainty(grid, anchors):
    """The angle uncertainty over a list of LorentzPoint anchors."""
    return unc.angle_uncertainty(grid, np.stack([a.spatial for a in anchors]),
                                 np.array([a.time for a in anchors]))


class TestRadiusUncertainty:
    def test_constant_at_origin(self):
        grid = grid_from_tangents(np.zeros((4, 5, 3)))
        m = unc.radius_uncertainty(grid)
        assert m.vmin == m.vmax == -1.0

    def test_ranking_identical_across_formulations(self):
        rng = np.random.default_rng(100)
        grid = grid_from_tangents(rng.normal(size=(8, 9, 4)))
        v1, v2, v3 = radius_uncertainty_variants(grid)
        r1 = ranking_signature(v1)
        r2 = ranking_signature(v2)
        r3 = ranking_signature(v3)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(r1, r3)

    def test_ranking_signature_is_dense(self):
        # ties share a rank and the ranks leave no gaps
        np.testing.assert_array_equal(ranking_signature(np.array([[3.0, 3.0], [5.0, 1.0]])),
                                      [1, 1, 2, 0])

    def test_lower_radius_means_higher_uncertainty(self):
        grid = grid_from_tangents(np.array([[[0.1, 0.0], [2.0, 0.0]]]))
        m = unc.radius_uncertainty(grid)
        assert m.values[0, 0] > m.values[0, 1]


class TestAngleUncertainty:
    def test_single_anchor_equals_plain_ext(self):
        rng = np.random.default_rng(101)
        grid = grid_from_tangents(rng.normal(size=(3, 4, 3)))
        anchor = lz.exp_lift_origin([1.0, 0.2, -0.3])
        m = angle_uncertainty(grid, [anchor])
        for r in range(3):
            for c in range(4):
                expected = ent.exterior_angle(anchor, grid.point(r, c))
                assert m.values[r, c] == pytest.approx(expected, abs=1e-10)

    def test_zero_on_outward_ray(self):
        u = np.array([0.8, 0.6, 0.0])
        grid = grid_from_tangents(np.array([[2.5 * u, 3.0 * u]]))
        anchor = lz.exp_lift_origin(u)
        m = angle_uncertainty(grid, [anchor])
        np.testing.assert_allclose(m.values, 0.0, atol=1e-6)

    def test_min_over_anchors(self):
        rng = np.random.default_rng(102)
        grid = grid_from_tangents(rng.normal(size=(4, 4, 3)))
        anchors = [lz.exp_lift_origin(rng.normal(size=3)) for _ in range(3)]
        m = angle_uncertainty(grid, anchors)
        singles = np.stack([angle_uncertainty(grid, [a]).values for a in anchors])
        np.testing.assert_allclose(m.values, singles.min(axis=0), atol=1e-12)
        assert m.vmin >= 0.0 and m.vmax <= np.pi

    def test_origin_anchor_rejected(self):
        grid = grid_from_tangents(np.zeros((2, 2, 2)))
        with pytest.raises(UsageError):
            angle_uncertainty(grid, [lz.origin(2)])


class TestClassConfidence:
    def test_identical_pixels_have_unit_confidence(self):
        grid = grid_from_tangents(np.tile(np.array([0.4, -0.2, 0.8]), (3, 3, 1)))
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        conf = unc.class_confidence(grid, mask)
        np.testing.assert_allclose(conf.values, 1.0, atol=1e-12)

    def test_strictly_decreasing_in_distance(self):
        # pixels along one ray at growing radius; the class set is the
        # two innermost, so confidence decays with distance to their mean
        u = np.array([1.0, 0.0])
        grid = grid_from_tangents(np.array([[t * u for t in (0.5, 0.7, 1.5, 2.5, 4.0)]]))
        mask = np.zeros((1, 5), dtype=bool)
        mask[0, :2] = True
        conf = unc.class_confidence(grid, mask)
        vals = conf.values[0]
        assert np.all(np.diff(vals[1:]) < 0.0)
        assert conf.vmax <= 1.0 and conf.vmin > 0.0

    def test_members_above_nonmembers_on_reference_run(self, reference_runs):
        assert STATISTICS["CONFIDENCE_GAP_CLASS0"](reference_runs) >= ref.CONFIDENCE_GAP_MIN

    def test_empty_set_rejected(self):
        grid = grid_from_tangents(np.zeros((2, 2, 2)))
        with pytest.raises(UsageError):
            unc.class_confidence(grid, np.zeros((2, 2), dtype=bool))


class TestScalarMap:
    def test_range_is_not_a_parameter(self):
        # vmin and vmax are always the range of the values, never arguments
        with pytest.raises(TypeError):
            unc.ScalarMap(np.zeros((2, 2)), "confidence", vmin=5.0)
        with pytest.raises(TypeError):
            unc.ScalarMap(np.zeros((2, 2)), "confidence", vmax=-3.0)
        m = unc.ScalarMap(np.array([[1.0, -2.0], [4.0, 0.5]]), "confidence")
        assert (m.vmin, m.vmax) == (-2.0, 4.0)


class TestBoundaryMap:
    def test_percentile_100_all_zero(self):
        rng = np.random.default_rng(103)
        m = unc.ScalarMap(rng.normal(size=(6, 6)), "angle_uncertainty")
        out = unc.boundary_map(m, 100.0)
        assert np.all(out.values == 0.0)

    def test_step_map_median_split(self):
        vals = np.zeros((4, 8))
        vals[:, 4:] = 1.0
        out = unc.boundary_map(unc.ScalarMap(vals, "angle_uncertainty"), 50.0)
        np.testing.assert_array_equal(out.values[:, 4:], 1.0)
        np.testing.assert_array_equal(out.values[:, :4], 0.0)

    def test_constant_map_warns_and_zeroes(self):
        m = unc.ScalarMap(np.full((3, 3), 2.5), "radius_uncertainty")
        with pytest.warns(UserWarning, match="constant"):
            out = unc.boundary_map(m, 90.0)
        assert np.all(out.values == 0.0)

    def test_boundary_kind_binary(self):
        rng = np.random.default_rng(104)
        out = unc.boundary_map(unc.ScalarMap(rng.normal(size=(5, 5)), "confidence"), 80.0)
        assert set(np.unique(out.values)) <= {0.0, 1.0}


class TestLabelBoundaryMask:
    def test_vertical_split(self):
        labels = np.zeros((4, 6), dtype=int)
        labels[:, 3:] = 1
        edge = label_boundary_mask(labels)
        assert np.all(edge[:, 2:4])
        assert not edge[:, 0].any() and not edge[:, 5].any()

    def test_marks_exactly_the_pixels_beside_a_change(self):
        rng = np.random.default_rng(105)
        labels = rng.integers(0, 3, size=(7, 9))
        edge = label_boundary_mask(labels)
        for r in range(7):
            for c in range(9):
                neighbors = [(r + dr, c + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                             if 0 <= r + dr < 7 and 0 <= c + dc < 9]
                assert edge[r, c] == any(labels[n] != labels[r, c] for n in neighbors)


class TestReferenceRunStatistics:
    def test_boundary_margins_exceed_committed(self, reference_runs):
        assert STATISTICS["BOUNDARY_MARGIN_RADIUS"](reference_runs) >= ref.BOUNDARY_MARGIN_RADIUS_MIN
        assert STATISTICS["BOUNDARY_MARGIN_ANGLE"](reference_runs) >= ref.BOUNDARY_MARGIN_ANGLE_MIN

    def test_boundary_recall_above_committed(self, reference_runs):
        recall_p90 = STATISTICS["BOUNDARY_RECALL_ANGLE_P90"](reference_runs)
        assert recall_p90 >= ref.BOUNDARY_RECALL_ANGLE_P90_MIN

    def test_ranking_identity_on_reference_run(self, reference_runs):
        grid = st.embed_scene(reference_runs["boundary"].params, reference_runs.scene("boundary"))
        v1, v2, v3 = radius_uncertainty_variants(grid)
        np.testing.assert_array_equal(ranking_signature(v1), ranking_signature(v2))
        np.testing.assert_array_equal(ranking_signature(v1), ranking_signature(v3))

    def test_zero_encoder_gives_constant_maps(self, clean_scene):
        params = st.init_encoder(16, 8, 4, seed=0)
        params["w1"] = np.zeros_like(params["w1"])
        params["w2"] = np.zeros_like(params["w2"])
        grid = st.embed_scene(params, clean_scene)
        ru = unc.radius_uncertainty(grid)
        assert ru.vmin == ru.vmax
        anchors = [lz.exp_lift_origin(np.array([1.0, 0, 0, 0.0]))]
        au = angle_uncertainty(grid, anchors)
        assert au.vmin == au.vmax
