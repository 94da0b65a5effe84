"""Edge inputs run end to end with exit 0: property tests at toy size.

Each example writes a small synthetic bundle, edits it into the edge case
and runs the command line in-process on it.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tagrefinery.cli import main
from tagrefinery.metrics import NoiseSpec
from tagrefinery.tagmat import (
    FeatureMatrix,
    TagMatrix,
    read_dense_matrix,
    read_sparse_matrix,
    save_dataset,
)
from tagrefinery.testkit import gen_annotation_bundle

EDGE = settings(max_examples=4, deadline=None)
IMAGE_DIM, TAG_DIM = 12, 9  # the default refine.rank 8 fits under both
FAST_REFINE = ("--set", "refine.outer_iters=2")
EVAL_N = ("--set", "eval_n=[2, 5]")  # pipeline evaluates at cut-offs within the 8 tags

seeds = st.integers(0, 10_000)


def tiny_bundle(seed, images_per_cluster=4):
    bundle, _ = gen_annotation_bundle(
        n_clusters=2, images_per_cluster=images_per_cluster, n_tags=8, tags_per_cluster=3,
        dim_subspace=2, image_dim=IMAGE_DIM, tag_dim=TAG_DIM,
        noise=NoiseSpec(missing_rate=0.2, inaccurate_rate=0.1, seed=seed), seed=seed,
    )
    return bundle


def run(tmp_path_factory, bundle, command, *argv):
    """Exit code and output directory of one command on the bundle, in a fresh directory."""
    root = tmp_path_factory.mktemp("edge")
    manifest = save_dataset(bundle, root / "data", name="edge")
    out = root / "out"
    return main([command, "--manifest", manifest, "--output-dir", str(out), *argv]), out


def assert_scores_valid(out, shape):
    scores = read_dense_matrix(out / "refined_scores.mtx")
    assert scores.shape == shape and np.isfinite(scores).all()


@EDGE
@given(seed=seeds, per_cluster=st.integers(2, 4))
def test_k_equal_to_the_image_count(tmp_path_factory, seed, per_cluster):
    bundle = tiny_bundle(seed, per_cluster)
    n = bundle.tags.n_images
    rc, out = run(tmp_path_factory, bundle, "pipeline", "--k", str(n), *FAST_REFINE, *EVAL_N)
    assert rc == 0
    labels = np.loadtxt(out / "labels.txt", dtype=np.int64)
    assert labels.shape == (n,) and labels.min() >= 0 and labels.max() < n
    assert_scores_valid(out, (n, bundle.tags.n_tags))


@EDGE
@given(seed=seeds, data=st.data())
def test_duplicate_feature_rows(tmp_path_factory, seed, data):
    bundle = tiny_bundle(seed)
    features = bundle.image_features.data.copy()
    src, dst = data.draw(st.lists(st.integers(0, features.shape[0] - 1), min_size=2,
                                  max_size=2, unique=True))
    features[dst] = features[src]
    bundle = dataclasses.replace(bundle, image_features=FeatureMatrix(features))
    rc, out = run(tmp_path_factory, bundle, "pipeline", "--k", "2", *FAST_REFINE, *EVAL_N)
    assert rc == 0
    assert_scores_valid(out, (bundle.tags.n_images, bundle.tags.n_tags))


@EDGE
@given(seed=seeds)
def test_rank_equal_to_the_smaller_feature_dimension(tmp_path_factory, seed):
    bundle = tiny_bundle(seed)
    rank = min(IMAGE_DIM, TAG_DIM)
    rc, out = run(tmp_path_factory, bundle, "refine", "--set", f"refine.rank={rank}")
    assert rc == 0
    assert_scores_valid(out, (bundle.tags.n_images, bundle.tags.n_tags))


@EDGE
@given(seed=seeds)
def test_mu_near_one(tmp_path_factory, seed):
    bundle = tiny_bundle(seed)
    rc, out = run(tmp_path_factory, bundle, "refine", "--set", "refine.mu=0.999")
    assert rc == 0
    assert_scores_valid(out, (bundle.tags.n_images, bundle.tags.n_tags))


@EDGE
@given(seed=seeds, data=st.data())
def test_untagged_image_and_unused_tag(tmp_path_factory, seed, data):
    bundle = tiny_bundle(seed)
    dense = bundle.tags.toarray()
    image = data.draw(st.integers(0, dense.shape[0] - 1))
    tag = data.draw(st.integers(0, dense.shape[1] - 1))
    dense[image] = 0.0
    dense[:, tag] = 0.0
    bundle = dataclasses.replace(bundle, tags=TagMatrix.from_dense(dense))
    rc, out = run(tmp_path_factory, bundle, "pipeline", "--k", "2", *FAST_REFINE, *EVAL_N)
    assert rc == 0
    assert_scores_valid(out, dense.shape)


@EDGE
@given(seed=seeds)
def test_min_confidence_above_every_score_adds_nothing(tmp_path_factory, seed):
    bundle = tiny_bundle(seed)
    rc, out = run(tmp_path_factory, bundle, "pipeline", "--k", "2", "--skip-eval", *FAST_REFINE,
                  "--set", "sharing.min_confidence=1.1")
    assert rc == 0
    completed = read_sparse_matrix(out / "completed.mtx")
    np.testing.assert_array_equal(completed.toarray(), bundle.tags.toarray())
