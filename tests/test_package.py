"""The package resolves its public names on first use, so importing it, or tagrefinery.config, loads no numpy."""

import os
import subprocess
import sys

import pytest


def python(code: str) -> str:
    """The stdout of code, run in a fresh interpreter that imports the package from this tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


def test_package_and_config_load_no_numpy():
    assert python("import sys, tagrefinery, tagrefinery.config; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("submodule", ["cli", "refine"])
def test_refine_stays_the_function_once_a_submodule_is_imported(submodule):
    """Importing the refine submodule binds it on the package by its name; tagrefinery.refine must still be the
    function, and a fit through it must work."""
    code = f"""
import inspect
import tagrefinery.{submodule}
import tagrefinery as tr
assert inspect.isfunction(tr.refine), tr.refine
bundle, _ = tr.gen_annotation_bundle(n_clusters=2, images_per_cluster=6, n_tags=12, tags_per_cluster=3,
                                     noise=tr.NoiseSpec(0.2, 0.1))
features = (bundle.image_features, bundle.tag_features)
laplacians = [tr.graph_laplacian(tr.cosine_similarity_graph(f)) for f in features]
result = tr.refine(bundle.tags, *features, *laplacians, tr.RefineConfig(rank=2, outer_iters=2))
print(result.scores.shape)
"""
    assert python(code) == "(12, 12)"


def test_every_public_name_resolves():
    code = """
import importlib
import tagrefinery as tr
for name in tr.__all__:
    value = getattr(tr, name)
    assert value is getattr(importlib.import_module('tagrefinery.' + tr._HOME[name]), name), name
print(len(tr.__all__), hasattr(tr, 'no_such_name'))
"""
    assert python(code) == "39 False"
