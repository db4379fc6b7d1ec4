"""Tests for Gromov delta-hyperbolicity estimation."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzseg import hyperbolicity as hyp
from lorentzseg import lorentz as lz
from lorentzseg.errors import DomainError, ParseError, UsageError
from lorentzseg.fileio import write_embedding_csv


def star_tree_matrix(weights):
    """Path-distance matrix of a star: hub first, then one leaf per weight."""
    n = len(weights) + 1
    D = np.zeros((n, n))
    for i, wi in enumerate(weights, start=1):
        D[0, i] = D[i, 0] = wi
        for j, wj in enumerate(weights, start=1):
            if i != j:
                D[i, j] = wi + wj
    return D


def naive_maxmin(A, B):
    n, m = A.shape[0], B.shape[1]
    out = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            out[i, j] = max(min(A[i, k], B[k, j]) for k in range(A.shape[1]))
    return out


class TestPairwiseDistances:
    def test_identical_points_zero(self):
        D = hyp.pairwise_distances(np.array([[1.0, 2.0], [1.0, 2.0]]), "euclidean")
        assert D.values[0, 1] == 0.0

    def test_simplex_vertices(self):
        D = hyp.pairwise_distances(np.eye(4), "euclidean")
        off = D.values[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, np.sqrt(2.0), rtol=1e-15)

    def test_lorentz_matches_scalar_distance(self):
        rng = np.random.default_rng(80)
        pts = rng.normal(size=(8, 3))
        D = hyp.pairwise_distances(pts, "lorentz")
        lifted = [lz.lift_point(p) for p in pts]
        for i in range(8):
            for j in range(8):
                assert D.values[i, j] == pytest.approx(
                    lz.geodesic_distance(lifted[i], lifted[j]), abs=1e-10
                )

    def test_unknown_metric(self):
        with pytest.raises(UsageError):
            hyp.pairwise_distances(np.eye(4), "manhattan")

    @pytest.mark.parametrize("metric", hyp.METRICS)
    def test_memory_three_matrices(self, metric):
        # the kernels return the matrix as computed and DistanceMatrix
        # mirrors it once, so the peak is the matrix and the two
        # temporaries of the symmetry check
        n = 512
        pts = np.random.default_rng(99).normal(size=(n, 8))
        tracemalloc.start()
        try:
            hyp.pairwise_distances(pts, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8

    @pytest.mark.parametrize("metric, kernel", [
        ("euclidean", lz.pairwise_euclidean_distances),
        ("lorentz", lz.pairwise_lorentz_distances),
    ])
    def test_strided_rows_match_contiguous_bitwise(self, metric, kernel):
        # contiguous rows make x @ x.T numpy's one symmetric product for
        # every input layout, so the unmirrored kernel is symmetric too
        wide = np.random.default_rng(99).normal(size=(128, 8))
        strided = wide[:, ::2]
        np.testing.assert_array_equal(hyp.pairwise_distances(strided, metric).values,
                                      hyp.pairwise_distances(strided.copy(), metric).values)
        raw = kernel(strided)
        np.testing.assert_array_equal(raw, raw.T)


class TestDistanceMatrixType:
    def test_rejects_asymmetry(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(UsageError):
            hyp.DistanceMatrix(bad)

    def test_near_symmetry_stored_bitwise_symmetric(self):
        # asymmetry within the 1e-12 tolerance is accepted; the stored
        # values mirror the upper triangle, which the half-triangle walk
        # of delta_from_matrix relies on
        rng = np.random.default_rng(95)
        values = hyp.pairwise_distances(rng.normal(size=(72, 3)), "lorentz").values.copy()
        for i, j in [(3, 40), (70, 5), (66, 67), (10, 71)]:
            values[i, j] += 1e-13
        D = hyp.DistanceMatrix(values)
        assert not np.array_equal(values, values.T)
        np.testing.assert_array_equal(D.values, D.values.T)
        np.testing.assert_array_equal(np.triu(D.values), np.triu(values))
        assert hyp.delta_from_matrix(D) == hyp.delta_bruteforce(D)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(UsageError):
            hyp.DistanceMatrix(np.array([[0.1, 1.0], [1.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(UsageError):
            hyp.DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_rejects_non_finite(self, entry):
        # every comparison with nan is false, so the symmetry and sign
        # checks alone would let an overflowed matrix through
        with pytest.raises(DomainError):
            hyp.DistanceMatrix(np.array([[0.0, entry], [entry, 0.0]]))


class TestGromovProducts:
    def setup_method(self):
        rng = np.random.default_rng(81)
        self.D = hyp.pairwise_distances(rng.normal(size=(10, 4)), "euclidean")

    def test_diagonal_is_base_distance(self):
        A = hyp.gromov_products(self.D, base=2)
        np.testing.assert_allclose(np.diag(A), self.D.values[2], atol=1e-15)

    def test_base_row_zero(self):
        A = hyp.gromov_products(self.D, base=3)
        np.testing.assert_allclose(A[3], 0.0, atol=1e-15)

    def test_nonnegative_for_metric_input(self):
        for base in range(10):
            A = hyp.gromov_products(self.D, base)
            assert A.min() >= -1e-12

    def test_base_range(self):
        with pytest.raises(UsageError):
            hyp.gromov_products(self.D, 10)


class TestMaxminProduct:
    def test_constant_matrix_fixed_point(self):
        A = np.full((5, 5), 3.25)
        np.testing.assert_array_equal(hyp.maxmin_product(A, A), A)

    def test_single_term_lower_bound(self):
        rng = np.random.default_rng(82)
        A = rng.uniform(0, 10, size=(7, 7))
        P = hyp.maxmin_product(A, A)
        for i in range(7):
            for j in range(7):
                assert P[i, j] >= min(A[i, i], A[i, j]) - 1e-15

    def test_hand_matrix_fixture(self):
        A = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 8.0], [4.0, 9.0, 6.0]])
        np.testing.assert_array_equal(hyp.maxmin_product(A, A), naive_maxmin(A, A))

    def test_chunked_equals_unchunked(self):
        # the whole 70-row matrix as one block of the kernel
        rng = np.random.default_rng(83)
        A = rng.uniform(size=(70, 70))
        np.testing.assert_array_equal(hyp.maxmin_product(A, A), naive_maxmin(A, A))

    def test_rectangular_blocks(self):
        # delta_from_matrix multiplies a block of rows by a band of columns
        rng = np.random.default_rng(96)
        A = rng.uniform(size=(70, 50))
        B = rng.uniform(size=(50, 90))
        np.testing.assert_array_equal(hyp.maxmin_product(A, B), naive_maxmin(A, B))

    def test_nonconformable(self):
        with pytest.raises(UsageError):
            hyp.maxmin_product(np.zeros((2, 3)), np.zeros((2, 3)))


class TestDelta:
    def test_star_tree_is_zero(self):
        D = star_tree_matrix([1.0, 2.0, 3.0, 4.0])
        assert hyp.delta_from_matrix(hyp.DistanceMatrix(D)) == 0.0

    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(84)
        for _ in range(20):
            n = int(rng.integers(4, 51))
            pts = rng.normal(size=(n, 3))
            D = hyp.pairwise_distances(pts, "euclidean")
            fast = hyp.delta_from_matrix(D)
            slow = hyp.delta_bruteforce(D)
            assert fast == slow  # exact equality, not tolerance

    def test_matches_bruteforce_across_row_blocks(self):
        # 130 points walk three row blocks of the upper triangle, the last
        # one partial
        rng = np.random.default_rng(97)
        D = hyp.pairwise_distances(rng.normal(size=(130, 4)), "lorentz")
        for base in (0, 129):
            assert hyp.delta_from_matrix(D, base) == hyp.delta_bruteforce(D, base)

    def test_memory_stays_quadratic(self):
        # numpy reports its buffers to tracemalloc; the blocked kernel
        # holds A and a few row blocks, never an (rows, n, n) temporary
        n = 300
        rng = np.random.default_rng(98)
        D = hyp.pairwise_distances(rng.normal(size=(n, 3)), "lorentz")
        tracemalloc.start()
        try:
            hyp.delta_from_matrix(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 8

    def test_homogeneous_in_scale(self):
        rng = np.random.default_rng(85)
        D = hyp.pairwise_distances(rng.normal(size=(12, 3)), "euclidean")
        d1 = hyp.delta_from_matrix(D)
        d2 = hyp.delta_from_matrix(hyp.DistanceMatrix(D.values * 2.0))
        assert d2 == pytest.approx(2.0 * d1, rel=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(86)
        for _ in range(20):
            val = hyp.delta_from_matrix(hyp.pairwise_distances(rng.normal(size=(15, 4)),
                                                               "euclidean"))
            assert val >= 0.0


class TestDeltaRel:
    def test_tree_metric_zero(self):
        # embed a star tree isometrically in l1-like coordinates is not
        # possible in euclidean space, so check through the matrix path
        D = hyp.DistanceMatrix(star_tree_matrix([1.0, 1.5, 2.0, 2.5]))
        assert 2.0 * hyp.delta_from_matrix(D) / hyp.diameter(D) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(87)
        pts = rng.normal(size=(30, 4))
        a = hyp.delta_rel(pts, "euclidean")
        b = hyp.delta_rel(pts * 3.7, "euclidean")
        assert b == pytest.approx(a, rel=1e-12)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(88)
        for _ in range(25):
            val = hyp.delta_rel(rng.normal(size=(20, 3)), "euclidean")
            assert 0.0 <= val <= 1.0

    def test_uniform_square_above_tree(self):
        rng = np.random.default_rng(89)
        pts = rng.uniform(0, 1, size=(50, 2))
        val = hyp.delta_rel(pts, "euclidean")
        oracle = hyp.delta_bruteforce(hyp.pairwise_distances(pts, "euclidean"))
        diam = hyp.diameter(hyp.pairwise_distances(pts, "euclidean"))
        assert val == pytest.approx(2.0 * oracle / diam, rel=1e-14)
        assert val > 0.0

    def test_degenerate_diameter(self):
        with pytest.raises(DomainError):
            hyp.delta_rel(np.ones((5, 2)), "euclidean")


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 12), st.floats(0.1, 50.0), st.integers(0, 2**31 - 1))
def test_hypothesis_delta_rel_bounds_and_scale(n, scale, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    if hyp.diameter(hyp.pairwise_distances(pts, "euclidean")) <= 0:
        return
    a = hyp.delta_rel(pts, "euclidean")
    b = hyp.delta_rel(pts * scale, "euclidean")
    assert 0.0 <= a <= 1.0
    assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


class TestBatched:
    def test_single_full_batch_matches_direct(self):
        rng = np.random.default_rng(90)
        pts = rng.normal(size=(40, 3))
        rep = hyp.batched_delta_rel_from_points(pts, batch_size=40, batch_count=1, seed=1)
        # base point of the batch is its first sampled index, so compare
        # against delta_rel on the permuted subset
        idx = np.random.default_rng(1).choice(40, size=40, replace=False)
        direct = hyp.delta_rel(pts[idx], "euclidean", base=0)
        assert rep.delta_rel == pytest.approx(direct, rel=1e-14)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(91)
        pts = rng.normal(size=(64, 4))
        a = hyp.batched_delta_rel_from_points(pts, batch_size=16, batch_count=6, seed=7)
        b = hyp.batched_delta_rel_from_points(pts, batch_size=16, batch_count=6, seed=7)
        assert a.to_dict() == b.to_dict()

    def test_hierarchical_below_isotropic(self):
        # embeddings drawn around the scene prototypes inherit the
        # parent/child tree and are measurably more hyperbolic than an
        # isotropic gaussian cloud of the same size
        from lorentzseg import segtoy as st

        scene = st.generate_scene(st.SceneConfig(height=32, width=32, seed=9))
        bank = st.DescriptorBank.fit(scene, d=8)
        rng = np.random.default_rng(92)
        classes = rng.integers(0, bank.reduced.shape[0], size=256)
        tree_pts = bank.reduced[classes] * 4.0 + rng.normal(size=(256, 8)) * 0.05
        iso = rng.normal(size=tree_pts.shape)
        rep_tree = hyp.batched_delta_rel_from_points(tree_pts, 64, 8, seed=3)
        rep_iso = hyp.batched_delta_rel_from_points(iso, 64, 8, seed=3)
        assert rep_tree.delta_rel < rep_iso.delta_rel

    def test_bad_batch_size(self):
        with pytest.raises(UsageError):
            hyp.batched_delta_rel_from_points(np.zeros((8, 2)), batch_size=3)

    def test_worker_cap_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(94)
        pts = rng.normal(size=(48, 3))
        monkeypatch.setenv("LSK_THREADS", "1")
        serial = hyp.batched_delta_rel_from_points(pts, 16, 6, seed=2)
        monkeypatch.setenv("LSK_THREADS", "4")
        parallel = hyp.batched_delta_rel_from_points(pts, 16, 6, seed=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_worker_cap_validation(self, monkeypatch):
        from lorentzseg.fileio import worker_count

        monkeypatch.setenv("LSK_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("LSK_THREADS", "zero")
        with pytest.raises(UsageError):
            worker_count()
        monkeypatch.setenv("LSK_THREADS", "0")
        with pytest.raises(UsageError):
            worker_count()

    def test_worker_default_is_cpus_this_process_may_use(self, monkeypatch):
        from lorentzseg.fileio import worker_count

        monkeypatch.delenv("LSK_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert worker_count() == 3
        monkeypatch.setenv("LSK_THREADS", "2")
        assert worker_count() == 2
        monkeypatch.delenv("LSK_THREADS")
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count() == 64


class TestEmbeddingCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(93)
        pts = rng.normal(size=(17, 5))
        path = tmp_path / "e.csv"
        write_embedding_csv(path, pts)
        from lorentzseg.fileio import read_embedding_csv

        back = read_embedding_csv(path)
        np.testing.assert_array_equal(back, pts)

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dim=3\n1.0,2.0,3.0\n1.0,2.0\n")
        from lorentzseg.fileio import read_embedding_csv

        with pytest.raises(ParseError) as err:
            read_embedding_csv(path)
        assert ":3:" in str(err.value)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("1.0,2.0\n")
        from lorentzseg.fileio import read_embedding_csv

        with pytest.raises(ParseError) as err:
            read_embedding_csv(path)
        assert ":1:" in str(err.value)
