"""Batch completion and refinement of noisy image-tag annotation matrices.

Pipeline: cluster images by sparse self-representation, share tags within
each cluster by neighbor voting, then refine the densified matrix with a
feature-based low-rank model regularized by image- and tag-similarity
Laplacians and an asymmetric weighting of unannotated positions.
"""

from .tagmat import (
    DatasetBundle,
    DatasetError,
    FeatureMatrix,
    GraphLaplacian,
    SimilarityGraph,
    TagMatrix,
    cosine_similarity_graph,
    graph_laplacian,
    load_dataset,
    save_dataset,
    top_n_tags,
)
from .subspace import (
    ClusterAssignment,
    SelfRepresentation,
    SscConfig,
    affinity,
    spectral_cluster,
    ssc_solve,
)
from .sharing import SharingConfig, score_tags_in_cluster, share_tags
from .refine import (
    FactorPair,
    RefineConfig,
    RefineResult,
    apply_factors,
    gradient,
    objective,
    refine,
    solve_alternating,
)
from .metrics import EvalReport, NoiseSpec, ap_ar_at_n, inject_noise
from .testkit import (
    PlantedAnnotation,
    SubspaceInstance,
    clustering_accuracy,
    gen_annotation_bundle,
    gen_planted_annotation,
    gen_union_of_subspaces,
    subspace_preserving_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterAssignment",
    "DatasetBundle",
    "DatasetError",
    "EvalReport",
    "FactorPair",
    "FeatureMatrix",
    "GraphLaplacian",
    "NoiseSpec",
    "PlantedAnnotation",
    "RefineConfig",
    "RefineResult",
    "SelfRepresentation",
    "SharingConfig",
    "SimilarityGraph",
    "SscConfig",
    "SubspaceInstance",
    "TagMatrix",
    "affinity",
    "ap_ar_at_n",
    "apply_factors",
    "clustering_accuracy",
    "cosine_similarity_graph",
    "gen_annotation_bundle",
    "gen_planted_annotation",
    "gen_union_of_subspaces",
    "gradient",
    "graph_laplacian",
    "inject_noise",
    "load_dataset",
    "objective",
    "refine",
    "save_dataset",
    "score_tags_in_cluster",
    "share_tags",
    "solve_alternating",
    "spectral_cluster",
    "ssc_solve",
    "subspace_preserving_rate",
    "top_n_tags",
]
