"""Data model and ingestion for image-tag annotation datasets.

Holds sparse tag-confidence matrices, dense feature matrices, cosine
similarity graphs and their Laplacians, plus the manifest-driven dataset
bundle format (Matrix Market files + id lists).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

from .config import DatasetError, _check_args, _read_input, _shown

SYMMETRY_TOL = 1e-12
LAPLACIAN_ROWSUM_TOL = 1e-9
# Blocked passes over dense arrays (CSR building, symmetry checks, transpose sums)
# take about this many bytes of float64 per step; SSC sizes its own (subspace._sweep_rows).
_BLOCK_BYTES = 1 << 20


def _frozen(arr) -> bool:
    """The package's one hand-over test, that nothing can write arr: arr and every array down its .base
    chain are read-only ndarrays (so a read-only view of a writable array, or of a foreign buffer, fails)."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def _freeze(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only down its .base chain so that _frozen(arr) holds: how a builder hands it over."""
    base = arr
    while isinstance(base, np.ndarray):
        base.setflags(write=False)
        base = base.base
    return arr


def _block_rows(n_cols: int) -> int:
    """Rows per block of about _BLOCK_BYTES of an n_cols-wide float64 array (at least 1)."""
    return max(1, _BLOCK_BYTES // (8 * max(n_cols, 1)))


def _asymmetry(a: np.ndarray) -> float:
    """max |a - a^T| of a non-empty square array, one row block at a time."""
    n = a.shape[0]
    step = _block_rows(n)
    return float(max(np.abs(a[s : s + step] - a[:, s : s + step].T).max() for s in range(0, n, step)))


def _check_shape(shape: tuple, what: str) -> None:
    """The package's one shape rule for a matrix: 2-D and at least 1x1; else a DatasetError names what."""
    if len(shape) != 2:
        raise DatasetError(f"{what} must be 2-D, got shape {shape}")
    if shape[0] < 1 or shape[1] < 1:
        raise DatasetError(f"{what} must be at least 1x1, got {shape}")


def _check_finite(values: np.ndarray, what: str) -> None:
    """The package's one value rule for a matrix: its (stored) values are finite; else a DatasetError."""
    if not np.all(np.isfinite(values)):
        raise DatasetError(f"{what} contains non-finite values")


def _index_array(x, what: str, k=math.inf) -> np.ndarray:
    """The package's one rule for indices: np.asarray(x) if it is a 1-D integer array in [0, k), checked
    without a copy; else a DatasetError starts with what ("cluster labels out of range [0, 2): got -1 to 0")."""
    x = np.asarray(x)
    if x.ndim != 1 or x.size and x.dtype.kind not in "iu":
        raise DatasetError(f"{what} must be a 1-D integer array, got {x.dtype} of shape {x.shape}")
    if x.size and (x.min() < 0 or x.max() >= k):
        raise DatasetError(f"{what} out of range [0, {k}): got {x.min()} to {x.max()}")
    return x


def _label_array(labels, what: str, k=math.inf) -> np.ndarray:
    """The package's one rule for cluster labels: _index_array's, then a frozen int64 copy of them."""
    return _freeze(np.array(_index_array(labels, what, k), dtype=np.int64))


def _float_array(x, what: str, copy: bool | None) -> np.ndarray:
    """np.array(x, dtype=np.float64, copy=copy); a DatasetError names what if x is not numbers in rows of
    one length (a string, a ragged list), which numpy refuses with a bare ValueError or TypeError."""
    try:
        return np.array(x, dtype=np.float64, copy=copy)
    except (TypeError, ValueError):
        raise DatasetError(f"{what} must be a rectangular array of numbers") from None


def _matrix(x, what: str, symmetric: bool = False) -> np.ndarray:
    """The package's one rule for a dense matrix it takes in: x as a frozen float64 array.

    x itself is kept if it is a float64 ndarray that nothing can write (_frozen), as the builders hand
    over; anything else is copied, so a caller's writable array is never frozen or aliased. The array
    must pass _check_shape and _check_finite and, if symmetric, be square and symmetric within
    SYMMETRY_TOL; else a DatasetError starts with what ("Laplacian contains non-finite values").
    """
    if not (type(x) is np.ndarray and x.dtype == np.float64 and _frozen(x)):
        x = _float_array(x, what, copy=True)
    _check_shape(x.shape, what)
    _check_finite(x, what)
    if symmetric and (x.shape[0] != x.shape[1] or _asymmetry(x) > SYMMETRY_TOL):
        raise DatasetError(f"{what} is not symmetric")
    return _freeze(x)


def _held_csr(m: sp.csr_array) -> sp.csr_array:
    """m, a CSR no one else holds, made canonical, without stored zeros and frozen, as builders hand it over."""
    m.sum_duplicates()
    m.eliminate_zeros()
    for buf in (m.data, m.indices, m.indptr):
        _freeze(buf)
    return m


def _add_transpose(a: np.ndarray) -> np.ndarray:
    """a += a^T in place for a square array, one pair of square blocks at a time; returns a.

    NumPy's a += a.T first copies the whole overlapping operand. Here each
    entry gets a[i, j] + a[j, i], and x + y == y + x exactly, so the bits
    are those of a + a.T. Only a diagonal block is copied, by NumPy.
    """
    n = a.shape[0]
    step = max(1, math.isqrt(_BLOCK_BYTES // 8))  # square blocks of about _BLOCK_BYTES
    for s in range(0, n, step):
        for t in range(s, n, step):
            upper = a[s : s + step, t : t + step]
            upper += a[t : t + step, s : s + step].T
            if t > s:
                a[t : t + step, s : s + step] = upper.T
    return a


@dataclass(frozen=True)
class TagMatrix:
    """Sparse matrix of annotation confidences in [0, 1].

    Rows are images, columns are tags. Absent entries mean confidence 0.
    Stored compressed-row; explicit zeros are dropped and duplicate
    coordinates are summed before range validation. As _matrix does for the
    dense types, it keeps the buffers of a float64, canonical csr_array that
    stores no zeros and that nothing can write (_frozen), as the builders
    hand over (_held_csr), in a csr_array of its own; anything else is
    copied, so a caller's matrix is never aliased, frozen or edited. Shape
    and finiteness follow _matrix's rules. Immutable once built.
    """

    matrix: sp.csr_array

    def __post_init__(self):
        m = self.matrix
        if not sp.issparse(m):
            raise DatasetError("TagMatrix requires a scipy sparse matrix")
        _check_shape(m.shape, "tag matrix")
        kept = (type(m) is sp.csr_array and m.dtype == np.float64
                and all(map(_frozen, (m.data, m.indices, m.indptr)))
                and m.has_canonical_format and np.count_nonzero(m.data) == m.data.size)
        m = sp.csr_array(m) if kept else _held_csr(sp.csr_array(m, dtype=np.float64, copy=True))
        _check_finite(m.data, "tag matrix")
        if m.nnz and (m.data.min() < 0.0 or m.data.max() > 1.0):
            raise DatasetError(
                "tag confidences must lie in [0, 1], got range "
                f"[{m.data.min():.6g}, {m.data.max():.6g}]"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def n_images(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_tags(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @classmethod
    def from_dense(cls, arr) -> "TagMatrix":
        """The tag matrix of a 2-D array's nonzero entries, converted one row block at a time.

        Any other shape raises DatasetError; so do values outside [0, 1],
        NaN and inf, as for every TagMatrix.
        """
        return cls(_csr_from_dense(arr))

    @classmethod
    def from_entries(cls, n_images, n_tags, rows, cols, vals) -> "TagMatrix":
        """The tag matrix of vals at (rows, cols), duplicates summed. The shape is positive integers, rows and
        cols integers within it (_index_array) and vals numbers, all three of one length; else a DatasetError
        names what is at fault."""
        _check_args("int", {"ge": 1}, n_images=n_images, n_tags=n_tags)
        rows, cols = _index_array(rows, "rows", n_images), _index_array(cols, "cols", n_tags)
        vals = _float_array(vals, "vals", copy=None)
        if not rows.shape == cols.shape == vals.shape:
            raise DatasetError(f"rows, cols and vals must be of one length, got {rows.shape}, {cols.shape} "
                               f"and {vals.shape}")
        coo = sp.coo_array((vals, (rows, cols)), shape=(n_images, n_tags))
        return cls(_held_csr(sp.csr_array(coo)))

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def support(self) -> np.ndarray:
        """Boolean mask of annotated (nonzero) positions."""
        return self.matrix.toarray() != 0


def _csr_from_dense(arr) -> sp.csr_array:
    """CSR of a 2-D array, filled one row block (about _BLOCK_BYTES) at a time.

    Gives the arrays and index dtype of sp.csr_array(arr) without int64
    coordinates. NaN is kept, so TagMatrix rejects it. Handed over frozen (_held_csr).
    """
    arr = _float_array(arr, "tag matrix", copy=None)
    _check_shape(arr.shape, "tag matrix")
    n_rows, n_cols = arr.shape
    step = _block_rows(n_cols)
    counts = np.empty(n_rows, dtype=np.int64)
    for start in range(0, n_rows, step):
        counts[start : start + step] = np.count_nonzero(arr[start : start + step], axis=1)
    nnz = int(counts.sum())
    idx_dtype = sp.get_index_dtype(maxval=max(nnz, n_rows, n_cols))
    indptr = np.zeros(n_rows + 1, dtype=idx_dtype)
    np.cumsum(counts, out=indptr[1:])
    del counts
    data = np.empty(nnz, dtype=np.float64)
    indices = np.empty(nnz, dtype=idx_dtype)
    for start in range(0, n_rows, step):
        block = arr[start : start + step]
        lo, hi = indptr[start], indptr[start + block.shape[0]]
        mask = (block != 0.0).ravel()
        np.compress(mask, block.ravel(), out=data[lo:hi])
        np.remainder(np.flatnonzero(mask), n_cols, out=indices[lo:hi], casting="unsafe")
    return _held_csr(sp.csr_array((data, indices, indptr), shape=(n_rows, n_cols)))


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense row-wise feature matrix (one feature vector per row)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _matrix(self.data, "feature matrix"))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SimilarityGraph:
    """Symmetric nonnegative weight matrix with zero diagonal, checked and held by _matrix."""

    weights: np.ndarray

    def __post_init__(self):
        w = _matrix(self.weights, "similarity graph", symmetric=True)
        if np.abs(np.diagonal(w)).max() != 0.0:
            raise DatasetError("similarity graph must have a zero diagonal")
        if w.min() < 0.0:
            raise DatasetError("similarity graph weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class GraphLaplacian:
    """L = diag(W @ 1) - W for a similarity graph W; symmetric PSD, L @ 1 = 0; checked and held by _matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _matrix(self.matrix, "Laplacian", symmetric=True)
        if np.abs(m.sum(axis=1)).max() > LAPLACIAN_ROWSUM_TOL:
            raise DatasetError("Laplacian row sums are not zero")
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DatasetBundle:
    """A tag matrix plus the image/tag feature matrices and id lists it refers to."""

    tags: TagMatrix
    image_features: FeatureMatrix
    tag_features: FeatureMatrix
    image_ids: tuple[str, ...]
    tag_names: tuple[str, ...]
    ground_truth: TagMatrix | None = None

    def __post_init__(self):
        object.__setattr__(self, "image_ids", tuple(self.image_ids))
        object.__setattr__(self, "tag_names", tuple(self.tag_names))
        for key in _BUNDLE_FILES:
            _fits_tags(self.tags, key, getattr(self, key))


def _fits_tags(tags: TagMatrix, key: str, value):
    """value, the bundle component named key, once it fits the tag matrix (which fits itself; ground truth may
    be None)."""
    n_i, n_t = tags.n_images, tags.n_tags
    if key == "image_features" and value.n_rows != n_i:
        raise DatasetError(f"tag matrix has {n_i} images but image features have {value.n_rows} rows")
    if key == "tag_features" and value.n_rows != n_t:
        raise DatasetError(f"tag matrix has {n_t} tags but tag features have {value.n_rows} rows")
    if key == "image_ids" and len(value) != n_i:
        raise DatasetError(f"expected {n_i} image ids, got {len(value)}")
    if key == "tag_names" and len(value) != n_t:
        raise DatasetError(f"expected {n_t} tag names, got {len(value)}")
    if key == "ground_truth" and value is not None and value.matrix.shape != (n_i, n_t):
        raise DatasetError(f"ground truth shape {value.matrix.shape} does not match tag matrix {(n_i, n_t)}")
    return value


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """x with each row scaled to unit length; zero rows raise DatasetError naming (up to 5 of) them.

    The norm squares the entries, so a finite row of huge (tiny) entries gets norm inf (0). Only such a
    row is first divided by its largest |entry|; every other row is x / norm, bit for bit.
    """
    with np.errstate(over="ignore"):  # handled below
        norms = np.linalg.norm(x, axis=1)
    odd = (norms == 0.0) | (norms == np.inf)
    peaks = np.abs(x[odd]).max(axis=1, initial=0.0)
    zero = np.flatnonzero(odd)[peaks == 0.0]
    if zero.size:
        raise DatasetError(f"zero-norm feature row(s) at indices {zero[:5].tolist()}")
    norms[odd] = 1.0
    unit = x / norms[:, None]
    scaled = x[odd] / peaks[:, None]
    unit[odd] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    return unit


def cosine_similarity_graph(features: FeatureMatrix) -> SimilarityGraph:
    """Pairwise cosine similarity between feature rows, negatives clamped to 0.

    As in ssc_solve, a zero-norm row raises DatasetError("zero-norm feature
    row(s) at indices [...]"). The diagonal is zero. Built in one n x n
    buffer, which SimilarityGraph keeps. numpy forms unit @ unit.T with
    BLAS syrk and mirrors its triangle, so the product is exactly
    symmetric as it comes.
    """
    _check_args(FeatureMatrix, {}, features=features)
    unit = _unit_rows(features.data)
    w = unit @ unit.T
    np.clip(w, -1.0, 1.0, out=w)
    np.maximum(w, 0.0, out=w)
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(_freeze(w))


def graph_laplacian(graph: SimilarityGraph) -> GraphLaplacian:
    """Unnormalized Laplacian diag(W @ 1) - W of a similarity graph.

    Takes only a SimilarityGraph, which already guarantees W is square,
    symmetric, nonnegative and zero on the diagonal. Built in one n x n
    buffer, which GraphLaplacian keeps. Off the diagonal, 0 - W is the
    float operation of np.diag(d) - W; on it, (0 - W_ii) + d_i equals
    d_i - W_ii because W_ii is a zero and d_i is -0 only where W_ii is. So
    the bits, signed zeros included, are those of np.diag(d) - W until the
    last step, which subtracts each row's sum (its roundoff residual) from
    its diagonal entry so that L @ 1 = 0 holds to machine precision.
    """
    _check_args(SimilarityGraph, {}, graph=graph)
    w = graph.weights
    lap = np.subtract(0.0, w)
    lap.flat[:: w.shape[0] + 1] += w.sum(axis=1)
    # Force exact zero row sums so L @ 1 = 0 holds to machine precision.
    np.fill_diagonal(lap, np.diagonal(lap) - lap.sum(axis=1))
    return GraphLaplacian(_freeze(lap))


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def top_n_tags(scores, n: int) -> np.ndarray:
    """Column indices of the n highest scores per row, best first.

    The package's one ranking rule: higher score first, ties to the lower
    column index. Takes a 2-D score array (raw, possibly negative or -inf,
    scores are fine); densify a TagMatrix with toarray() first. Returns an
    integer array of shape (n_rows, min(n, n_cols)); n beyond the column
    count returns every column in ranked order.
    """
    _check_args("int", {"ge": 1}, n=n)
    scores = _float_array(scores, "score matrix", copy=None)
    if scores.ndim != 2:
        raise DatasetError(f"expected a 2-D score matrix, got shape {scores.shape}")
    return np.argsort(-scores, axis=1, kind="stable")[:, :n]


# ---------------------------------------------------------------------------
# File formats: Matrix Market matrices, id lists, manifests
# ---------------------------------------------------------------------------

def write_sparse_matrix(path, tags: TagMatrix) -> None:
    _check_args(TagMatrix, {}, tags=tags)
    open(path, "wb").close()  # scipy's mmwrite fails silently where open() raises OSError
    scipy.io.mmwrite(str(path), tags.matrix.tocoo())


def write_dense_matrix(path, arr: np.ndarray) -> None:
    """Write a 2-D array of any size (an empty 30 x 0 factor file too) as a Matrix Market array; a float64
    arr is not copied."""
    _check_args(np.ndarray, {}, arr=arr)
    if arr.ndim != 2:
        raise DatasetError(f"arr must be 2-D, got shape {arr.shape}")
    open(path, "wb").close()  # scipy's mmwrite fails silently where open() raises OSError
    scipy.io.mmwrite(str(path), np.asarray(arr, dtype=np.float64))


def read_sparse_matrix(path) -> TagMatrix:
    open(path, "rb").close()  # a missing path or a directory raises open()'s OSError
    m = scipy.io.mmread(str(path))
    if not sp.issparse(m):
        return TagMatrix.from_dense(np.atleast_2d(m))
    return TagMatrix(_held_csr(sp.csr_array(m)))


def read_dense_matrix(path) -> np.ndarray:
    """The file's matrix as a float64 array, handed over frozen (_freeze): no one else holds it, so the
    matrix type built from it keeps it."""
    open(path, "rb").close()  # a missing path or a directory raises open()'s OSError
    m = scipy.io.mmread(str(path))
    if sp.issparse(m):
        m = m.toarray()
    return _freeze(np.atleast_2d(np.asarray(m, dtype=np.float64)))


def read_id_list(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def _id_text(ids, what: str) -> str:
    """ids, one per line, if they are a list, tuple or 1-D array whose every id reads back (read_id_list) as
    itself: none blank or whitespace only, none holding a line break. Else a DatasetError starts with what."""
    if not isinstance(ids, (list, tuple, np.ndarray)) or getattr(ids, "ndim", 1) != 1:
        raise DatasetError(f"{what} expected a list, tuple or 1-D array, got {_shown(ids)}")
    names = [f"{name}" for name in ids]
    bad = [i for i, name in enumerate(names) if not name.strip() or "\n" in name or "\r" in name]
    if bad:
        raise DatasetError(f"{what} holds {names[bad[0]]!r} at index {bad[0]}: an id must not be blank "
                           "or hold a line break")
    return "".join(f"{name}\n" for name in names)


def write_id_list(path, ids) -> None:
    """Write ids one per line; ids that would not read back as themselves (_id_text) are refused first."""
    text = _id_text(ids, "ids")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# The bundle format: manifest key -> file suffix, reader, writer. load_dataset reads (so the first bad component
# is the one reported) and save_dataset writes in this order; every key but ground_truth is required.
_FEATURE_IO = (lambda path: FeatureMatrix(read_dense_matrix(path)),
               lambda path, features: write_dense_matrix(path, features.data))
_BUNDLE_FILES = {
    "tags": ("_tags.mtx", read_sparse_matrix, write_sparse_matrix),
    "image_features": ("_image_features.mtx", *_FEATURE_IO),
    "tag_features": ("_tag_features.mtx", *_FEATURE_IO),
    "image_ids": ("_image_ids.txt", read_id_list, write_id_list),
    "tag_names": ("_tag_names.txt", read_id_list, write_id_list),
    "ground_truth": ("_ground_truth.mtx", read_sparse_matrix, write_sparse_matrix),
}


def parse_manifest(path) -> dict[str, str]:
    """Parse a `key: value` manifest; values are paths relative to the manifest."""
    base = os.path.dirname(os.path.abspath(path))
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise DatasetError(f"line {lineno}: expected 'key: value', got {line!r}")
            key, value = line.split(":", 1)
            key, value = key.strip(), value.strip()
            if key not in _BUNDLE_FILES:
                raise DatasetError(f"line {lineno}: unknown manifest key {key!r}")
            if key in entries:
                raise DatasetError(f"line {lineno}: duplicate manifest key {key!r}")
            entries[key] = os.path.join(base, value)
    missing = [k for k in _BUNDLE_FILES if k not in entries and k != "ground_truth"]
    if missing:
        raise DatasetError(f"manifest missing keys {missing}")
    return entries


def load_dataset(manifest_path) -> DatasetBundle:
    """Load a dataset bundle from its manifest file.

    The manifest names the tag matrix (Matrix Market coordinate), the image
    and tag feature matrices (Matrix Market array), the image-id and
    tag-name lists (one per line, UTF-8), and optionally a ground-truth tag
    matrix. Each component is checked against the tag matrix as it is read,
    so a bad one raises DatasetError naming its manifest key and file.
    """
    entries = _read_input("manifest", manifest_path, parse_manifest)
    tags = _read_input("tags", entries["tags"], read_sparse_matrix)
    return DatasetBundle(tags=tags, **{
        key: _read_input(key, entries[key], read, build=functools.partial(_fits_tags, tags, key))
        for key, (_, read, _) in _BUNDLE_FILES.items() if key != "tags" and key in entries
    })


def save_dataset(bundle: DatasetBundle, out_dir, name: str = "dataset") -> str:
    """Write a bundle as manifest + component files; returns the manifest path. A bundle holding an id that
    would not read back as itself (_id_text) is refused before any directory or file is made."""
    _check_args(DatasetBundle, {}, bundle=bundle)
    for key in ("image_ids", "tag_names"):
        _id_text(getattr(bundle, key), key)
    os.makedirs(out_dir, exist_ok=True)
    files = {key: f"{name}{suffix}" for key, (suffix, _, _) in _BUNDLE_FILES.items()
             if getattr(bundle, key) is not None}
    for key, fname in files.items():
        _BUNDLE_FILES[key][2](os.path.join(out_dir, fname), getattr(bundle, key))
    manifest_path = os.path.join(out_dir, f"{name}.manifest")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("# tagrefinery dataset manifest\n")
        for key, fname in files.items():
            fh.write(f"{key}: {fname}\n")
    return manifest_path
