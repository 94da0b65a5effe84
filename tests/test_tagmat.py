"""Data model, graph construction, ranking, and file format tests."""

import math
import tracemalloc
from dataclasses import dataclass, field, fields
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import tags_from_dense
from tagrefinery import config as configuration
from tagrefinery import tagmat
from tagrefinery.metrics import NoiseSpec, inject_noise
from tagrefinery.refine import FactorPair, RefineConfig
from tagrefinery.sharing import SharingConfig, share_tags
from tagrefinery.subspace import ClusterAssignment, SscConfig, spectral_cluster, ssc_solve
from tagrefinery.tagmat import (
    DatasetBundle,
    DatasetError,
    FeatureMatrix,
    GraphLaplacian,
    SimilarityGraph,
    TagMatrix,
    cosine_similarity_graph,
    graph_laplacian,
    load_dataset,
    parse_manifest,
    read_dense_matrix,
    read_sparse_matrix,
    save_dataset,
    top_n_tags,
    write_dense_matrix,
    write_sparse_matrix,
)
from tagrefinery.testkit import gen_annotation_bundle, gen_planted_annotation, gen_union_of_subspaces


def small_bundle(n_images=3, n_tags=4, seed=0):
    rng = np.random.default_rng(seed)
    tags = TagMatrix.from_dense((rng.random((n_images, n_tags)) < 0.5).astype(float))
    return DatasetBundle(
        tags=tags,
        image_features=FeatureMatrix(rng.standard_normal((n_images, 5))),
        tag_features=FeatureMatrix(rng.standard_normal((n_tags, 3))),
        image_ids=tuple(f"img{i}" for i in range(n_images)),
        tag_names=tuple(f"tag{j}" for j in range(n_tags)),
    )


class TestTagMatrix:
    def test_basic_shape_and_values(self):
        m = TagMatrix.from_dense([[0.0, 0.5], [1.0, 0.0]])
        assert (m.n_images, m.n_tags) == (2, 2)
        assert m.nnz == 2
        np.testing.assert_array_equal(m.toarray(), [[0.0, 0.5], [1.0, 0.0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(DatasetError, match=r"\[0, 1\]"):
            TagMatrix.from_dense([[1.5]])
        with pytest.raises(DatasetError):
            TagMatrix.from_dense([[-0.1]])

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DatasetError, match="non-finite"):
                TagMatrix.from_dense([[0.5, bad]])

    def test_explicit_zeros_dropped(self):
        coo = sp.coo_array((np.array([0.0, 0.7]), ([0, 1], [0, 1])), shape=(2, 2))
        m = TagMatrix(sp.csr_array(coo))
        assert m.nnz == 1

    def test_empty_matrix_valid(self):
        m = TagMatrix(sp.csr_array((2, 3)))
        assert m.nnz == 0

    def test_rejects_empty_dimensions(self):
        with pytest.raises(DatasetError):
            TagMatrix(sp.csr_array((0, 3)))

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 2)])
    def test_rejects_other_than_2d(self, shape):
        arr = np.full(shape, 0.5)
        with pytest.raises(DatasetError, match=rf"2-D, got shape \({shape[0]},"):
            TagMatrix.from_dense(arr)
        with pytest.raises(DatasetError, match=rf"2-D, got shape \({shape[0]},"):
            TagMatrix(sp.coo_array(arr))


@st.composite
def dense_inputs(draw, low, high):
    """A 2-D array with zero rows and columns, signed zeros and exact ones, and
    at times one NaN or inf; plus a conversion block of 1 to 7 rows."""
    n_rows, n_cols = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(low, high))
    arr = draw(hnp.arrays(np.float64, (n_rows, n_cols), elements=values))
    arr[sorted(draw(st.sets(st.integers(0, n_rows - 1))))] = 0.0
    arr[:, sorted(draw(st.sets(st.integers(0, n_cols - 1))))] = 0.0
    if draw(st.booleans()):
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        arr[draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))] = bad
    return arr, 8 * n_cols * draw(st.integers(1, 7))


def built(make):
    """The CSR arrays of a TagMatrix, or the message of the DatasetError it raised."""
    try:
        m = make().matrix
    except DatasetError as exc:
        return str(exc)
    return (m.shape, m.indptr.dtype, m.indices.dtype, m.indptr.tolist(), m.indices.tolist(),
            m.data.tobytes())


class TestRowBlockedBuilder:
    """from_dense gives scipy's CSR exactly, block by block."""

    @settings(max_examples=150, deadline=None)
    @given(dense_inputs(0.0, 1.0))
    def test_from_dense_matches_scipy(self, case):
        arr, block_bytes = case
        with mock.patch.object(tagmat, "_BLOCK_BYTES", block_bytes):
            assert built(lambda: TagMatrix.from_dense(arr)) == built(lambda: tags_from_dense(arr))


class TestFeatureMatrix:
    def test_dims(self):
        f = FeatureMatrix(np.ones((3, 2)))
        assert (f.n_rows, f.dim) == (3, 2)

    def test_rejects_non_finite(self):
        with pytest.raises(DatasetError):
            FeatureMatrix(np.array([[1.0, np.inf]]))

    def test_rejects_1d(self):
        with pytest.raises(DatasetError):
            FeatureMatrix(np.ones(4))


class TestSimilarityGraph:
    def test_rejects_asymmetric(self):
        w = np.array([[0.0, 0.5], [0.4, 0.0]])
        with pytest.raises(DatasetError, match="symmetric"):
            SimilarityGraph(w)

    @pytest.mark.parametrize("cls", [SimilarityGraph, GraphLaplacian])
    @pytest.mark.parametrize("delta, rejected", [(1e-11, True), (1e-13, False)])
    def test_symmetry_checked_in_every_row_block(self, cls, delta, rejected):
        n = 400  # the check runs 327 rows at a time; the entry sits in the short last block
        w = np.zeros((n, n))
        w[390, 10] = delta
        if rejected:
            with pytest.raises(DatasetError, match="not symmetric"):
                cls(w)
        else:
            cls(w)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DatasetError, match="diagonal"):
            SimilarityGraph(np.array([[0.1, 0.0], [0.0, 0.0]]))

    def test_rejects_negative(self):
        w = np.array([[0.0, -0.2], [-0.2, 0.0]])
        with pytest.raises(DatasetError, match="nonnegative"):
            SimilarityGraph(w)


def with_entries(value, shape=(2, 2)):
    """A zero array of shape whose off-diagonal entries (0, 1) and (1, 0) are value."""
    arr = np.zeros(shape)
    arr[0, 1] = arr[1, 0] = value
    return arr


def partner(x):
    """A valid factor of x's rank (its last dimension, at least 1)."""
    return np.zeros((3, max(1, np.shape(x)[-1])))


# Each dense matrix type, built from one array x (a zero 2 x 2 one is valid for all), with the name
# its errors start with and whether it must be square.
DENSE_TYPES = [
    pytest.param(FeatureMatrix, "feature matrix", False, id="FeatureMatrix"),
    pytest.param(SimilarityGraph, "similarity graph", True, id="SimilarityGraph"),
    pytest.param(GraphLaplacian, "Laplacian", True, id="GraphLaplacian"),
    pytest.param(lambda x: FactorPair(x, partner(x)), "factor P", False, id="FactorPair.p"),
    pytest.param(lambda x: FactorPair(partner(x), x), "factor Q", False, id="FactorPair.q"),
]
# Bad array -> the error it must give, and whether only a square type refuses it.
BAD_ARRAYS = [
    pytest.param(with_entries(np.nan), "contains non-finite values", False, id="nan"),
    pytest.param(with_entries(np.inf), "contains non-finite values", False, id="+inf"),
    pytest.param(with_entries(-np.inf), "contains non-finite values", False, id="-inf"),
    pytest.param(np.zeros(2), "must be 2-D, got shape (2,)", False, id="1-D"),
    pytest.param(np.zeros((2, 0)), "must be at least 1x1, got (2, 0)", False, id="n-by-0"),
    pytest.param(np.zeros((0, 0)), "must be at least 1x1, got (0, 0)", False, id="0-by-0"),
    pytest.param(np.zeros((2, 3)), "is not symmetric", True, id="non-square"),
]


@pytest.mark.parametrize("arr, reason, square_only", BAD_ARRAYS)
@pytest.mark.parametrize("make, what, square", DENSE_TYPES)
def test_every_dense_type_refuses_a_bad_array_by_one_rule(make, what, square, arr, reason, square_only):
    make(np.zeros((2, 2)))
    if square_only and not square:
        make(arr)
    else:
        with pytest.raises(DatasetError) as exc:
            make(arr)
        assert str(exc.value) == f"{what} {reason}"


def csr_buffers(m):
    return m.data, m.indices, m.indptr


def same_buffers(a, b) -> bool:
    """Whether two CSRs hold the very same three buffers (the same memory, of the same length)."""
    return all(x.ctypes.data == y.ctypes.data and x.nbytes == y.nbytes
               for x, y in zip(csr_buffers(a), csr_buffers(b)))


class TestOwnership:
    """Every matrix type keeps an array that nothing can write (tagmat._frozen), as the builders hand
    over, and copies anything else."""

    CASES = [(SimilarityGraph, "weights", [[0.0, 0.5], [0.5, 0.0]]),
             (GraphLaplacian, "matrix", [[0.5, -0.5], [-0.5, 0.5]]),
             (FeatureMatrix, "data", [[0.0, 0.5], [0.5, 0.0]])]
    IDS = ["graph", "laplacian", "features"]

    @pytest.mark.parametrize("cls, field, value", CASES, ids=IDS)
    def test_writable_array_is_copied(self, cls, field, value):
        arr = np.array(value)
        held = getattr(cls(arr), field)
        assert arr.flags.writeable and not held.flags.writeable
        assert not np.shares_memory(arr, held)
        arr[0, 1] = arr[1, 0] = 0.25
        np.testing.assert_array_equal(held, value)

    @pytest.mark.parametrize("cls, field, value", CASES, ids=IDS)
    def test_frozen_array_is_adopted(self, cls, field, value):
        arr = tagmat._freeze(np.array(value))
        assert np.shares_memory(getattr(cls(arr), field), arr)

    @pytest.mark.parametrize("cls, field, value", CASES, ids=IDS)
    def test_read_only_view_is_copied(self, cls, field, value):
        base = np.zeros((3, 3))
        base[:2, :2] = value
        view = base[:2, :2]
        view.setflags(write=False)
        held = getattr(cls(view), field)
        assert not np.shares_memory(held, base)
        np.testing.assert_array_equal(held, value)

    @pytest.mark.parametrize("cls, field, value", CASES, ids=IDS)
    def test_read_only_view_of_a_frozen_array_is_adopted(self, cls, field, value):
        base = np.zeros((3, 3))
        base[:2, :2] = value
        view = tagmat._freeze(base)[:2, :2]
        assert np.shares_memory(getattr(cls(view), field), base)

    # TagMatrix: the same rule for a CSR's three buffers.

    def test_tag_matrix_copies_a_writable_csr(self):
        m = sp.csr_array(np.array([[0.5, 0.0], [0.0, 0.2]]))
        t = TagMatrix(m)
        for mine, held in zip(csr_buffers(m), csr_buffers(t.matrix)):
            assert mine.flags.writeable and not np.shares_memory(mine, held)
        m.data[0] = 7.0
        np.testing.assert_array_equal(t.toarray(), [[0.5, 0.0], [0.0, 0.2]])

    def test_tag_matrix_leaves_the_callers_stored_zero(self):
        m = sp.csr_array(sp.coo_array((np.array([0.0, 0.7]), ([0, 1], [0, 1])), shape=(2, 2)))
        assert TagMatrix(m).nnz == 1
        assert m.nnz == 2
        np.testing.assert_array_equal(m.data, [0.0, 0.7])

    def test_tag_matrix_of_a_tag_matrix_shares_its_buffers(self):
        t = TagMatrix.from_dense([[0.5, 0.0], [0.0, 1.0]])
        again = TagMatrix(t.matrix)
        assert again.matrix is not t.matrix
        assert same_buffers(again.matrix, t.matrix)

    def test_tag_matrix_copies_a_read_only_view_of_writable_buffers(self):
        m = sp.csr_array(np.array([[0.5, 0.0], [0.0, 0.2]]))
        views = [buf[:] for buf in csr_buffers(m)]
        for view in views:
            view.setflags(write=False)
        t = TagMatrix(sp.csr_array(tuple(views), shape=m.shape))
        assert not any(np.shares_memory(mine, held) for mine, held in zip(views, csr_buffers(t.matrix)))

    @pytest.mark.parametrize("data, indices, indptr, want", [
        ([0.5, 0.25], [1, 0], [0, 2, 2], [[0.25, 0.5], [0.0, 0.0]]),  # unsorted
        ([0.5, 0.25], [0, 0], [0, 2, 2], [[0.75, 0.0], [0.0, 0.0]]),  # duplicate
        ([0.0, 0.25], [0, 1], [0, 2, 2], [[0.0, 0.25], [0.0, 0.0]]),  # stored zero
    ], ids=["unsorted", "duplicate", "stored-zero"])
    def test_tag_matrix_copies_a_frozen_csr_it_must_change(self, data, indices, indptr, want):
        bufs = [tagmat._freeze(np.array(b, dtype=d)) for b, d in
                ((data, np.float64), (indices, np.int32), (indptr, np.int32))]
        t = TagMatrix(sp.csr_array(tuple(bufs), shape=(2, 2)))
        np.testing.assert_array_equal(t.toarray(), want)
        assert t.matrix.has_canonical_format and np.all(t.matrix.data != 0.0)
        assert not any(np.shares_memory(mine, held) for mine, held in zip(bufs, csr_buffers(t.matrix)))
        np.testing.assert_array_equal(bufs[0], data)


def read_coordinate_file(tmp):
    write_sparse_matrix(tmp / "c.mtx", TagMatrix.from_dense(np.eye(3) / 2))
    return lambda: read_sparse_matrix(tmp / "c.mtx")


def read_array_file(tmp):
    write_dense_matrix(tmp / "a.mtx", np.eye(3) / 2)
    return lambda: read_sparse_matrix(tmp / "a.mtx")


def share(tmp):
    tags = TagMatrix.from_dense([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    clusters, sims = ClusterAssignment(np.zeros(3, np.int64), 1), SimilarityGraph(np.ones((3, 3)) - np.eye(3))
    return lambda: share_tags(tags, clusters, sims, SharingConfig())


def noise(tmp):
    truth = TagMatrix.from_dense(np.eye(4))
    return lambda: inject_noise(truth, NoiseSpec(0.25, 0.5, seed=0))


# Each package builder of a CSR: given a scratch directory, it makes the builder's inputs and returns
# the call that builds the TagMatrix.
CSR_BUILDERS = [
    pytest.param(lambda tmp: lambda: TagMatrix.from_dense([[0.5, 0.0], [0.0, 1.0]]), id="from_dense"),
    pytest.param(lambda tmp: lambda: TagMatrix.from_entries(2, 3, [1, 0, 1], [2, 0, 2], [0.25, 1.0, 0.5]),
                 id="from_entries"),
    pytest.param(read_coordinate_file, id="read_sparse_matrix-coordinate"),
    pytest.param(read_array_file, id="read_sparse_matrix-array"),
    pytest.param(share, id="share_tags"),
    pytest.param(noise, id="inject_noise"),
]


@pytest.mark.parametrize("prepare", CSR_BUILDERS)
def test_tag_matrix_holds_the_buffers_its_builder_made(prepare, tmp_path, monkeypatch):
    """Every builder hands its CSR over frozen through tagmat._held_csr, and TagMatrix keeps it uncopied."""
    build, made, held_csr = prepare(tmp_path), [], tagmat._held_csr

    def spy(m):
        made.append(held_csr(m))
        return made[-1]

    monkeypatch.setattr(tagmat, "_held_csr", spy)
    tags = build()
    assert len(made) == 1
    assert same_buffers(tags.matrix, made[0])
    assert all(map(tagmat._frozen, csr_buffers(tags.matrix)))


class TestAddTranspose:
    """_add_transpose(a) is a + a.T bit for bit, computed in a's own buffer."""

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_matches_sum_with_transpose(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a[a < -1.0] = -0.0  # signed zeros too: the sums must keep their signs
        want = a + a.T
        with mock.patch.object(tagmat, "_BLOCK_BYTES", 8 * 9):  # 3 x 3 blocks: 7 leaves a short last one
            got = tagmat._add_transpose(a)
        assert got is a
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestUnitRows:
    def test_scales_each_row_to_unit_length(self):
        np.testing.assert_array_equal(tagmat._unit_rows(np.array([[3.0, 4.0], [0.0, -2.0]])),
                                      [[0.6, 0.8], [0.0, -1.0]])

    def test_names_up_to_five_zero_rows(self):
        x = np.ones((8, 2))
        x[[1, 2, 3, 4, 5, 7]] = 0.0
        with pytest.raises(DatasetError, match=r"^zero-norm feature row\(s\) at indices \[1, 2, 3, 4, 5\]$"):
            tagmat._unit_rows(x)

    def test_rows_whose_norm_overflows_or_underflows_are_scaled(self):
        huge, tiny = np.array([[1e200, 1e200, 0.0]]), np.array([[1e-170, 1e-170, 0.0]])
        want = tagmat._unit_rows(np.array([[1.0, 1.0, 0.0]]))
        for row in (huge, tiny):  # their squares overflow to inf or underflow to 0
            np.testing.assert_array_equal(tagmat._unit_rows(row), want)
        g = cosine_similarity_graph(FeatureMatrix(np.vstack([huge, [[1.0, 0.0, 0.0]]])))
        assert g.weights[0, 1] == pytest.approx(np.sqrt(0.5), rel=1e-15)
        images = np.random.default_rng(0).standard_normal((6, 3))
        images[0] = [1.0, 1.0, 0.0]
        plain = ssc_solve(FeatureMatrix(images), SscConfig(max_iters=5))
        images[0] = huge
        np.testing.assert_array_equal(ssc_solve(FeatureMatrix(images), SscConfig(max_iters=5)).z, plain.z)


class TestCosineGraph:
    def test_orthogonal_rows(self):
        g = cosine_similarity_graph(FeatureMatrix([[1.0, 0.0], [0.0, 1.0]]))
        assert g.weights[0, 1] == 0.0

    def test_parallel_rows(self):
        g = cosine_similarity_graph(FeatureMatrix([[1.0, 0.0], [2.0, 0.0]]))
        assert g.weights[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_45_degrees(self):
        g = cosine_similarity_graph(FeatureMatrix([[1.0, 0.0], [1.0, 1.0]]))
        # dot([1,0],[1,1]/sqrt(2)) = 1/sqrt(2)
        assert g.weights[0, 1] == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_negative_cosine_clamped_to_zero(self):
        g = cosine_similarity_graph(FeatureMatrix([[1.0, 0.0], [-1.0, 0.0], [-1.0, 1.0]]))
        assert g.weights[0, 1] == 0.0 and g.weights[0, 2] == 0.0
        assert g.weights[1, 2] == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_zero_norm_row_rejected(self):
        with pytest.raises(DatasetError, match="zero-norm"):
            cosine_similarity_graph(FeatureMatrix([[0.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("images_per_cluster, image_dim", [(100, 30), (200, 30), (40, 30), (10, 16)])
    def test_exactly_symmetric(self, images_per_cluster, image_dim):
        """numpy forms unit @ unit.T with BLAS syrk and mirrors it, so the graph needs no symmetrising pass."""
        bundle, _ = gen_annotation_bundle(images_per_cluster=images_per_cluster, image_dim=image_dim)
        w = cosine_similarity_graph(bundle.image_features).weights
        assert np.array_equal(w, w.T)

    def test_invariant_under_row_rescaling(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        g1 = cosine_similarity_graph(FeatureMatrix(x))
        y = x.copy()
        y[2] *= 37.5
        y[5] *= 1e-3
        g2 = cosine_similarity_graph(FeatureMatrix(y))
        assert np.abs(g1.weights - g2.weights).max() <= 1e-12


class TestGraphLaplacian:
    def test_two_node(self):
        lap = graph_laplacian(SimilarityGraph(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_array_equal(lap.matrix, [[1.0, -1.0], [-1.0, 1.0]])

    def test_empty_graph(self):
        lap = graph_laplacian(SimilarityGraph(np.zeros((3, 3))))
        np.testing.assert_array_equal(lap.matrix, np.zeros((3, 3)))

    def test_three_node_weights(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 0.5
        w[0, 2] = w[2, 0] = 0.2
        lap = graph_laplacian(SimilarityGraph(w))
        np.testing.assert_allclose(np.diagonal(lap.matrix), [0.7, 0.5, 0.2])
        assert lap.matrix[0, 1] == -0.5
        assert lap.matrix[0, 2] == -0.2
        assert lap.matrix[1, 2] == 0.0

    def test_matches_diag_formula_bit_for_bit(self):
        rng = np.random.default_rng(3)
        w = rng.random((7, 7))
        w[w < 0.4] = 0.0
        w += w.T
        w[w == 0.0] = -0.0  # zero weights of both signs
        w[6] = w[:, 6] = 0.0  # an isolated node
        w[5] = w[:, 5] = -0.0  # and one with weights of -0 only
        np.fill_diagonal(w, [0.0, -0.0] * 3 + [-0.0])
        want = np.diag(w.sum(axis=1)) - w
        np.fill_diagonal(want, np.diagonal(want) - want.sum(axis=1))
        assert graph_laplacian(SimilarityGraph(w)).matrix.tobytes() == want.tobytes()

    def test_zero_row_sums_and_psd(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            feats = FeatureMatrix(rng.standard_normal((12, 6)))
            lap = graph_laplacian(cosine_similarity_graph(feats))
            assert np.abs(lap.matrix.sum(axis=1)).max() <= 1e-9
            for _ in range(20):
                x = rng.standard_normal(12)
                x /= np.linalg.norm(x)
                assert x @ lap.matrix @ x >= -1e-8


class TestTopNTags:
    def test_simple(self):
        rows = top_n_tags(np.array([[0.9, 0.1, 0.5]]), 2)
        np.testing.assert_array_equal(rows[0], [0, 2])

    def test_all_zero_tiebreak(self):
        rows = top_n_tags(np.array([[0.0, 0.0, 0.0]]), 2)
        np.testing.assert_array_equal(rows[0], [0, 1])

    def test_tie_prefers_lower_index(self):
        rows = top_n_tags(np.array([[0.5, 0.5, 0.1]]), 1)
        np.testing.assert_array_equal(rows[0], [0])

    def test_n_beyond_tags_returns_all_ranked(self):
        rows = top_n_tags(np.array([[0.1, 0.9, 0.5]]), 10)
        assert rows.shape == (1, 3) and np.issubdtype(rows.dtype, np.integer)
        np.testing.assert_array_equal(rows[0], [1, 2, 0])

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            top_n_tags(np.zeros((1, 2)), 0)


SEED_MESSAGE = "seed must be a non-negative integer, got -1"
# Library entry point -> (a call with one bad seed or cut-off, the DatasetError message naming it).
BAD_LIBRARY_VALUES = {
    "NoiseSpec": (lambda: NoiseSpec(0.1, 0.1, seed=-1), SEED_MESSAGE),
    "spectral_cluster": (lambda: spectral_cluster(cosine_similarity_graph(small_bundle().image_features),
                                                  2, seed=-1), SEED_MESSAGE),
    "gen_union_of_subspaces": (lambda: gen_union_of_subspaces(2, 1, 3, 2, seed=-1), SEED_MESSAGE),
    "gen_planted_annotation": (lambda: gen_planted_annotation(4, 3, 2, 2, 1, seed=-1), SEED_MESSAGE),
    "gen_annotation_bundle": (lambda: gen_annotation_bundle(seed=-1), SEED_MESSAGE),
    "top_n_tags-n": (lambda: top_n_tags(np.zeros((1, 2)), 0), "n must be >= 1, got 0"),
    "top_n_tags-1d": (lambda: top_n_tags(np.zeros(2), 1), "expected a 2-D score matrix, got shape (2,)"),
}


@pytest.mark.parametrize("call, message", BAD_LIBRARY_VALUES.values(), ids=BAD_LIBRARY_VALUES.keys())
def test_bad_seed_or_cutoff_raises_dataset_error_naming_it(call, message):
    with pytest.raises(DatasetError) as err:
        call()
    assert str(err.value) == message


@dataclass(frozen=True)
class Bounds:
    """One field per phrase form of the config bound checker, each default within its bound; unchecked, so
    the checker's own tests can build it with any value."""

    closed: float = field(default=0.5, metadata={"ge": 0, "le": 1})
    closed_open: float = field(default=0.5, metadata={"ge": 0, "lt": 1})
    open_closed: float = field(default=0.5, metadata={"gt": 0, "le": 1})
    above: float = field(default=1.0, metadata={"gt": 0})
    at_least: float = field(default=1.0, metadata={"ge": 0.5})
    count: int = field(default=1, metadata={"ge": 1})
    index: int = field(default=0, metadata={"ge": 0})
    pair_count: int = field(default=2, metadata={"ge": 2})
    choice: str = field(default="a", metadata={"in": ("a", "b", "c")})
    toggle: str = field(default="on", metadata={"in": ("on", "off")})
    grid: list[int] = field(default_factory=lambda: [1], metadata={"ge": 1})
    free: float = -7.0


@dataclass(frozen=True)
class Bounded(configuration._Section, Bounds):
    """Bounds, checked when it is made, as every config section is."""


# Field of Bounds -> (a value outside its bound, the reason the checker gives).
BOUND_PHRASES = {
    "closed": (1.5, "must be in [0, 1], got 1.5"),
    "closed_open": (1, "must be in [0, 1), got 1"),
    "open_closed": (0.0, "must be in (0, 1], got 0.0"),
    "above": (0.0, "must be > 0, got 0.0"),
    "at_least": (0.25, "must be >= 0.5, got 0.25"),
    "count": (0, "must be a positive integer, got 0"),
    "index": (-1, "must be a non-negative integer, got -1"),
    "pair_count": (1, "must be >= 2, got 1"),
    "choice": ("d", "must be 'a', 'b' or 'c', got 'd'"),
    "toggle": ("", "must be 'on' or 'off', got ''"),
    "grid": ([1, 0, 2], "must be a positive integer, got 0"),
}


class TestConfigProblems:
    @pytest.mark.parametrize("name, value, reason", [(name, *row) for name, row in BOUND_PHRASES.items()],
                             ids=BOUND_PHRASES.keys())
    def test_phrase_of_each_bound_form(self, name, value, reason):
        assert configuration._config_problems(Bounds(**{name: value})) == [(name, reason)]

    def test_values_within_bounds_have_no_problem(self):
        assert configuration._config_problems(Bounds()) == []
        assert configuration._config_problems(Bounds(closed=0, closed_open=0, open_closed=1, count=5)) == []

    def test_empty_list_and_each_bad_item_are_named(self):
        assert configuration._config_problems(Bounds(grid=[])) == [("grid", "must be a non-empty list, got []")]
        assert configuration._config_problems(Bounds(grid=[0, 1, -1])) == [
            ("grid", "must be a positive integer, got 0"), ("grid", "must be a positive integer, got -1")]

    def test_every_bad_field_is_named_in_field_order(self):
        values = {name: value for name, (value, _) in reversed(BOUND_PHRASES.items())}
        values["free"] = float("nan")
        problems = configuration._config_problems(Bounds(**values))
        assert problems == [(name, reason) for name, (_, reason) in BOUND_PHRASES.items()] + [
            ("free", "expected a finite number, got NaN")]

    def test_check_config_raises_one_error_naming_every_bad_field(self):
        with pytest.raises(DatasetError) as err:
            Bounded(closed=2, count=0, choice="d")
        assert str(err.value) == ("closed must be in [0, 1], got 2; count must be a positive integer, got 0; "
                                  "choice must be 'a', 'b' or 'c', got 'd'")
        assert err.value.problems == [("closed", "must be in [0, 1], got 2"),
                                      ("count", "must be a positive integer, got 0"),
                                      ("choice", "must be 'a', 'b' or 'c', got 'd'")]

    def test_noise_spec_names_both_rates(self):
        with pytest.raises(DatasetError) as err:
            NoiseSpec(1.5, -0.2)
        assert str(err.value) == ("missing_rate must be in [0, 1], got 1.5; "
                                  "inaccurate_rate must be in [0, 1], got -0.2")

    def test_cross_field_problems_follow_only_once_every_value_is_in_bounds(self):
        @dataclass(frozen=True)
        class Tied(Bounds):
            def _cross_field(self):
                return [("closed", "must not exceed open_closed")] if self.closed > self.open_closed else []

        assert configuration._config_problems(Tied(closed=0.9)) == [("closed", "must not exceed open_closed")]
        assert configuration._config_problems(Tied(closed=0.9, count=0)) == [
            ("count", "must be a positive integer, got 0")]
        assert configuration._config_problems(Tied()) == []


# Config class -> the values of its fields without a default.
KIND_CONFIGS = {SscConfig: {}, SharingConfig: {}, RefineConfig: {},
                NoiseSpec: {"missing_rate": 0.1, "inaccurate_rate": 0.1}, Bounded: {}}


def validated(cls, **values):
    """A cls of values over its defaults, which checks itself as it is built."""
    return cls(**KIND_CONFIGS[cls] | values)


# Declared type -> what the reason expects, and each value of a wrong kind with how the reason shows it.
WRONG_KINDS = {
    "int": ("an integer", [("5", '"5"'), (None, "null"), (True, "true"), (3.5, "3.5"), (math.nan, "NaN"),
                           (math.inf, "Infinity"), (-math.inf, "-Infinity"), ([1], "[1]")]),
    "float": ("a finite number", [("0.1", '"0.1"'), (None, "null"), (False, "false"), (math.nan, "NaN"),
                                  (math.inf, "Infinity"), (-math.inf, "-Infinity"), ([0.5], "[0.5]")]),
    "str": ("a string", [(5, "5"), (None, "null"), (True, "true"), (["x"], '["x"]')]),
    "list[int]": ("a list of integers", [(1, "1"), (None, "null"), ("1", '"1"'), ([True], "[true]"),
                                         ([1.5], "[1.5]"), ([1, math.nan], "[1, NaN]")]),
}
KIND_CASES = [
    (cls, f.name, value, f"{f.name} expected {expected}, got {shown}")
    for cls in KIND_CONFIGS for f in fields(cls) if cls is not Bounded or f.name == "grid"
    for expected, values in [WRONG_KINDS[f.type if isinstance(f.type, str) else str(f.type)]]
    for value, shown in values
]


class TestConfigKinds:
    @pytest.mark.parametrize("cls, name, value, message", KIND_CASES,
                             ids=[f"{cls.__name__}.{message}" for cls, _, _, message in KIND_CASES])
    def test_wrong_kind_raises_dataset_error_naming_the_field(self, cls, name, value, message):
        with pytest.raises(DatasetError) as err:
            validated(cls, **{name: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("cls", KIND_CONFIGS, ids=lambda cls: cls.__name__)
    def test_numpy_scalars_pass(self, cls):
        defaults = validated(cls)
        scalars = {f.name: np.int64(value) if isinstance(value, int) else np.float64(value)
                   for f in fields(cls) for value in [getattr(defaults, f.name)]
                   if isinstance(value, (int, float)) and not isinstance(value, bool)}
        assert scalars
        validated(cls, **scalars)


# Config class -> a field, a value outside its bound, and the error its construction raises.
OUT_OF_BOUND = {
    SscConfig: ("mu", 0, "mu must be > 0, got 0"),
    SharingConfig: ("min_confidence", 1.2, "min_confidence must be in [0, 1.1], got 1.2"),
    RefineConfig: ("mu", 1, "mu must be in [0, 1), got 1"),
    NoiseSpec: ("inaccurate_rate", -0.1, "inaccurate_rate must be in [0, 1], got -0.1"),
    configuration._TopConfig: ("threads", 0, "threads must be a positive integer, got 0"),
    configuration._SynthConfig: ("density", 1.0, "density must be in (0, 1), got 1.0"),
    configuration._TuneConfig: ("mu_grid", [0.2, 1.0], "mu_grid must be in [0, 1), got 1.0"),
}


@pytest.mark.parametrize("cls, name, value, message", [(cls, *row) for cls, row in OUT_OF_BOUND.items()],
                         ids=[cls.__name__ for cls in OUT_OF_BOUND])
def test_every_config_class_checks_itself_when_it_is_made(cls, name, value, message):
    with pytest.raises(DatasetError) as err:
        cls(**KIND_CONFIGS.get(cls, {}) | {name: value})
    assert str(err.value) == message
    assert err.value.problems == [(name, message.removeprefix(f"{name} "))]


class TestBundleAndManifest:
    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        tags = TagMatrix.from_dense(np.zeros((5, 4)) + np.eye(5, 4))
        with pytest.raises(DatasetError, match="image features"):
            DatasetBundle(
                tags=tags,
                image_features=FeatureMatrix(rng.standard_normal((4, 3))),
                tag_features=FeatureMatrix(rng.standard_normal((4, 3))),
                image_ids=tuple("abcde"),
                tag_names=tuple("wxyz"),
            )

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        dense = np.where(rng.random((6, 7)) < 0.4, rng.random((6, 7)), 0.0)
        bundle = DatasetBundle(
            tags=TagMatrix.from_dense(dense),
            image_features=FeatureMatrix(rng.standard_normal((6, 4))),
            tag_features=FeatureMatrix(rng.standard_normal((7, 3))),
            image_ids=("photo \u00e9t\u00e9", "n\u00famero-2") + tuple(f"im_{i}" for i in range(4)),
            tag_names=("\u6a19\u7c64",) + tuple(f"t_{j}" for j in range(6)),
            ground_truth=TagMatrix.from_dense((dense > 0).astype(float)),
        )
        manifest = save_dataset(bundle, tmp_path, name="rt")
        loaded = load_dataset(manifest)
        np.testing.assert_array_equal(loaded.tags.toarray(), bundle.tags.toarray())
        np.testing.assert_array_equal(loaded.image_features.data, bundle.image_features.data)
        np.testing.assert_array_equal(loaded.tag_features.data, bundle.tag_features.data)
        np.testing.assert_array_equal(
            loaded.ground_truth.toarray(), bundle.ground_truth.toarray()
        )
        assert loaded.image_ids == bundle.image_ids
        assert loaded.tag_names == bundle.tag_names

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match=r"^manifest: .*nope\.manifest: No such file or directory$"):
            load_dataset(tmp_path / "nope.manifest")

    def test_missing_component_file(self, tmp_path):
        manifest = save_dataset(small_bundle(), tmp_path, name="d")
        (tmp_path / "d_tags.mtx").unlink()
        with pytest.raises(DatasetError) as exc:
            load_dataset(manifest)
        assert str(exc.value) == f"tags: {tmp_path / 'd_tags.mtx'}: No such file or directory"

    def test_unknown_manifest_key(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("tags: t.mtx\nbogus_key: x\n")
        with pytest.raises(DatasetError, match="bogus_key"):
            parse_manifest(path)

    def test_duplicate_manifest_key(self, tmp_path):
        path = tmp_path / "dup.manifest"
        path.write_text("tags: a.mtx\ntags: b.mtx\n")
        with pytest.raises(DatasetError, match="duplicate"):
            parse_manifest(path)

    def test_manifest_missing_required_key(self, tmp_path):
        path = tmp_path / "short.manifest"
        path.write_text("tags: a.mtx\n")
        with pytest.raises(DatasetError, match="missing keys"):
            parse_manifest(path)

    def test_row_count_mismatch_detected_on_load(self, tmp_path):
        manifest = save_dataset(small_bundle(n_images=5), tmp_path, name="mm")
        # Rewrite the image features with one row too few.
        write_dense_matrix(tmp_path / "mm_image_features.mtx", np.ones((4, 5)))
        with pytest.raises(DatasetError, match="image features"):
            load_dataset(manifest)

    def test_out_of_range_confidence_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.5\n"
        )
        with pytest.raises(DatasetError, match=r"\[0, 1\]"):
            read_sparse_matrix(path)

    def test_labelme_shaped_dimensions(self, tmp_path):
        # Shape-scale check only: 2900 images x 495 tags, sparse annotations.
        rng = np.random.default_rng(11)
        n_i, n_t = 2900, 495
        flat = rng.choice(n_i * n_t, size=8000, replace=False)
        tags = TagMatrix.from_entries(n_i, n_t, flat // n_t, flat % n_t, np.ones(8000))
        bundle = DatasetBundle(
            tags=tags,
            image_features=FeatureMatrix(rng.standard_normal((n_i, 8))),
            tag_features=FeatureMatrix(rng.standard_normal((n_t, 6))),
            image_ids=tuple(f"i{k}" for k in range(n_i)),
            tag_names=tuple(f"t{k}" for k in range(n_t)),
        )
        manifest = save_dataset(bundle, tmp_path, name="lm")
        loaded = load_dataset(manifest)
        assert loaded.tags.n_images == 2900
        assert loaded.tags.n_tags == 495

    @pytest.mark.parametrize("write, value", [(write_dense_matrix, np.eye(2)),
                                              (write_sparse_matrix, TagMatrix.from_dense(np.eye(2)))],
                             ids=["dense", "sparse"])
    @pytest.mark.parametrize("target, error", [("dir.mtx", IsADirectoryError),
                                               ("missing/x.mtx", FileNotFoundError)],
                             ids=["directory", "missing-parent"])
    def test_write_to_unopenable_path_raises(self, tmp_path, write, value, target, error):
        (tmp_path / "dir.mtx").mkdir()
        with pytest.raises(error):
            write(tmp_path / target, value)
        assert not (tmp_path / "missing").exists()

    def test_dense_matrix_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 5)) * 1e3
        write_dense_matrix(tmp_path / "a.mtx", a)
        b = read_dense_matrix(tmp_path / "a.mtx")
        np.testing.assert_array_equal(a, b)
        assert b.flags.writeable

    def test_load_keeps_the_feature_array_it_reads(self, tmp_path):
        """A 20,000 x 30 feature file (4.8 MB) is held once: FeatureMatrix adopts the array that was read, so the
        load peaks at what it keeps plus far less than one more copy of the features."""
        n, rng = 20_000, np.random.default_rng(0)
        features = rng.standard_normal((n, 30))
        manifest = save_dataset(DatasetBundle(
            tags=TagMatrix.from_entries(n, 2, np.arange(n), np.arange(n) % 2, np.ones(n)),
            image_features=FeatureMatrix(features), tag_features=FeatureMatrix(np.eye(2)),
            image_ids=[f"img_{i:05d}" for i in range(n)], tag_names=["a", "b"]), tmp_path)
        tracemalloc.start()
        try:
            loaded = load_dataset(manifest)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.image_features.data, features)
        assert peak - held < features.nbytes / 2, (peak, held)


class TestImmutability:
    def test_inputs_not_frozen_by_wrappers(self):
        x = np.ones((2, 2))
        FeatureMatrix(x)
        x[0, 0] = 5.0  # caller's array stays writable
        m = sp.csr_array(x / 10)
        TagMatrix(m)
        m.data[0] = 0.7  # and so does a caller's CSR

    @pytest.mark.parametrize("make", [
        lambda: TagMatrix.from_dense(np.eye(3) / 2),
        lambda: TagMatrix.from_entries(2, 2, [0, 0], [1, 1], [0.25, 0.5]),
        lambda: TagMatrix(sp.csr_array(np.eye(3) / 2)),
        lambda: TagMatrix(sp.coo_array(np.eye(3) / 2)),
        lambda: TagMatrix(sp.csr_matrix(np.eye(3, dtype=np.float32) / 2)),
    ], ids=["from_dense", "from_entries", "csr_array", "coo_array", "float32-csr_matrix"])
    def test_no_buffer_of_a_tag_matrix_nor_any_base_is_writable(self, make):
        for buf in csr_buffers(make().matrix):
            chain = [buf]
            while isinstance(chain[-1].base, np.ndarray):
                chain.append(chain[-1].base)
            assert chain[-1].base is None
            assert not any(arr.flags.writeable for arr in chain)

    def test_wrapper_arrays_read_only(self):
        f = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            f.data[0, 0] = 3.0
        g = SimilarityGraph(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.weights[0, 1] = 1.0
