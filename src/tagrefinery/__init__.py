"""Batch completion and refinement of noisy image-tag annotation matrices.

Pipeline: cluster images by sparse self-representation, share tags within
each cluster by neighbor voting, then refine the densified matrix with a
feature-based low-rank model regularized by image- and tag-similarity
Laplacians and an asymmetric weighting of unannotated positions.

Each public name loads its module on first use (PEP 562), so importing the
package, or tagrefinery.config, loads no numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Module -> the public names it defines.
_EXPORTS = {
    "config": ("DatasetError", "NoiseSpec", "RefineConfig", "SharingConfig", "SscConfig"),
    "tagmat": ("DatasetBundle", "FeatureMatrix", "GraphLaplacian", "SimilarityGraph", "TagMatrix",
               "cosine_similarity_graph", "graph_laplacian", "load_dataset", "save_dataset", "top_n_tags"),
    "subspace": ("ClusterAssignment", "SelfRepresentation", "affinity", "spectral_cluster", "ssc_solve"),
    "sharing": ("score_tags_in_cluster", "share_tags"),
    "refine": ("FactorPair", "RefineResult", "apply_factors", "gradient", "objective", "refine",
               "solve_alternating"),
    "metrics": ("EvalReport", "ap_ar_at_n", "inject_noise"),
    "testkit": ("PlantedAnnotation", "SubspaceInstance", "clustering_accuracy", "gen_annotation_bundle",
                "gen_planted_annotation", "gen_union_of_subspaces", "subspace_preserving_rate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """The package module. Importing a submodule binds it here by its name; where a public name is the same
    (refine), the public object is bound instead, so tagrefinery.refine stays the function."""

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and name in _HOME:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
