"""Data model and ingestion for image-tag annotation datasets.

Holds sparse tag-confidence matrices, dense feature matrices, cosine
similarity graphs and their Laplacians, plus the manifest-driven dataset
bundle format (Matrix Market files + id lists).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import os
from dataclasses import dataclass, fields

import numpy as np
import scipy.io
import scipy.sparse as sp

SYMMETRY_TOL = 1e-12
LAPLACIAN_ROWSUM_TOL = 1e-9
# Blocked passes over dense arrays (CSR building, symmetry checks, transpose sums)
# take about this many bytes of float64 per step; SSC's soft threshold takes 1/16.
_BLOCK_BYTES = 1 << 20


class DatasetError(ValueError):
    """Bad input: a file, a shape or a value, configuration included."""


def _check_seed(seed: int) -> None:
    """Refuse, where it enters, a seed that np.random.default_rng would reject."""
    if seed < 0:
        raise DatasetError(f"seed must be a non-negative integer, got {seed}")


# Config kinds, by a field's declared type: the test of a value, then the names of one and of many; a
# list[...] field takes a list of its item kind. bool is an Integral, so it passes only where bool is
# declared. A number must be finite, since NaN and inf pass no bound and JSON cannot hold them.
_KINDS = {
    "bool": (lambda v: isinstance(v, bool), "true or false", "booleans"),
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer", "integers"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
              and (isinstance(v, numbers.Integral) or math.isfinite(v)), "a finite number", "finite numbers"),
    "str": (lambda v: isinstance(v, str), "a string", "strings"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string", "strings"),
}
# Config bounds, as field metadata: "in" lists the choices, and "gt", "ge", "lt" and "le" end a range.
_BOUND_TESTS = {"in": lambda value, choices: value in choices,
                "gt": operator.gt, "ge": operator.ge, "lt": operator.lt, "le": operator.le}
_BOUND_ENDS = {"gt": ("(", ">"), "ge": ("[", ">="), "lt": (")", "<"), "le": ("]", "<=")}  # bracket, symbol


def _config_problems(config) -> list[tuple[str, str]]:
    """(field, reason) for each value of a config dataclass not of its declared type's kind, or else outside
    its field's bound, in field order; if there are none, its _cross_field() pairs. Reasons read "expected
    an integer, got 3.5", "must be in [0, 1), got 1.2" or, for an int bounded by ge 1 (ge 0), "must be a
    positive (non-negative) integer, got 0". Each item of a bounded list is checked; [] fails."""
    problems = []
    for field in fields(config):
        bound, value, show = field.metadata, getattr(config, field.name), str
        kind = field.type.__name__ if type(field.type) is type else str(field.type)  # "int", "list[int]"
        listed = kind.startswith("list[")
        is_kind, one, many = _KINDS[kind[5:-1] if listed else kind]
        if not (isinstance(value, list) and all(map(is_kind, value)) if listed else is_kind(value)):
            shown = json.dumps(value, default=repr)  # NaN, -Infinity, "5", null
            problems.append((field.name, f"expected {f'a list of {many}' if listed else one}, got {shown}"))
            continue
        ends = [key for key in _BOUND_ENDS if key in bound]
        if "in" in bound:
            *head, last = map(repr, bound["in"])
            phrase, show = f"{', '.join(head)} or {last}", repr
        elif len(ends) == 2:
            low, high = ends
            phrase = f"in {_BOUND_ENDS[low][0]}{bound[low]}, {bound[high]}{_BOUND_ENDS[high][0]}"
        elif ends == ["ge"] and bound["ge"] in (0, 1) and kind in ("int", "list[int]"):
            phrase = ("a non-negative integer", "a positive integer")[bound["ge"]]
        elif ends:
            phrase = f"{_BOUND_ENDS[ends[0]][1]} {bound[ends[0]]}"
        else:
            continue
        if isinstance(value, list) and not value:
            problems.append((field.name, "must be a non-empty list, got []"))
        for item in value if isinstance(value, list) else [value]:
            if not all(_BOUND_TESTS[key](item, limit) for key, limit in bound.items()):
                problems.append((field.name, f"must be {phrase}, got {show(item)}"))
    return problems or getattr(config, "_cross_field", list)()


def _check_config(config) -> None:
    """Raise one DatasetError naming each problem of the config ("mu must be > 0, got 0")."""
    problems = _config_problems(config)
    if problems:
        raise DatasetError("; ".join(f"{name} {reason}" for name, reason in problems))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _block_rows(n_cols: int) -> int:
    """Rows per block of about _BLOCK_BYTES of an n_cols-wide float64 array (at least 1)."""
    return max(1, _BLOCK_BYTES // (8 * max(n_cols, 1)))


def _asymmetry(a: np.ndarray) -> float:
    """max |a - a^T| of a non-empty square array, one row block at a time."""
    n = a.shape[0]
    step = _block_rows(n)
    return float(max(np.abs(a[s : s + step] - a[:, s : s + step].T).max() for s in range(0, n, step)))


def _matrix(x, what: str, symmetric: bool = False) -> np.ndarray:
    """The package's one rule for a dense matrix it takes in: x as a frozen float64 array.

    x itself is kept if it is a read-only float64 ndarray that owns its data, as the builders hand
    over; anything else is copied, so a caller's writable array is never frozen or aliased. The array
    must be 2-D, at least 1x1 and finite, and, if symmetric, square and symmetric within
    SYMMETRY_TOL; else a DatasetError starts with what ("Laplacian contains non-finite values").
    """
    if not (type(x) is np.ndarray and x.dtype == np.float64 and x.flags.owndata and not x.flags.writeable):
        x = np.array(x, dtype=np.float64)
    if x.ndim != 2:
        raise DatasetError(f"{what} must be 2-D, got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise DatasetError(f"{what} must be at least 1x1, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DatasetError(f"{what} contains non-finite values")
    if symmetric and (x.shape[0] != x.shape[1] or _asymmetry(x) > SYMMETRY_TOL):
        raise DatasetError(f"{what} is not symmetric")
    return _freeze(x)


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
    coordinates are summed before range validation. Immutable once built.
    """

    matrix: sp.csr_array

    def __post_init__(self):
        m = self.matrix
        if not sp.issparse(m):
            raise DatasetError("TagMatrix requires a scipy sparse matrix")
        if m.ndim != 2:
            raise DatasetError(f"tag matrix must be 2-D, got shape {m.shape}")
        m = sp.csr_array(m, dtype=np.float64)
        if m.shape[0] < 1 or m.shape[1] < 1:
            raise DatasetError(f"tag matrix must be at least 1x1, got {m.shape}")
        m.sum_duplicates()
        m.eliminate_zeros()
        if m.nnz:
            if not np.all(np.isfinite(m.data)):
                raise DatasetError("tag matrix contains non-finite confidences")
            if m.data.min() < 0.0 or m.data.max() > 1.0:
                raise DatasetError(
                    "tag confidences must lie in [0, 1], got range "
                    f"[{m.data.min():.6g}, {m.data.max():.6g}]"
                )
        for buf in (m.data, m.indices, m.indptr):
            buf.setflags(write=False)
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
        coo = sp.coo_array(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n_images, n_tags)
        )
        return cls(sp.csr_array(coo))

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def support(self) -> np.ndarray:
        """Boolean mask of annotated (nonzero) positions."""
        return self.matrix.toarray() != 0


def _csr_from_dense(arr) -> sp.csr_array:
    """CSR of a 2-D array, filled one row block (about _BLOCK_BYTES) at a time.

    Gives the arrays and index dtype of sp.csr_array(arr) without int64
    coordinates. NaN is kept, so TagMatrix rejects it.
    """
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise DatasetError(f"tag matrix must be 2-D, got shape {arr.shape}")
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
    return sp.csr_array((data, indices, indptr), shape=(n_rows, n_cols))


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
        for key in ("image_features", "tag_features", "image_ids", "tag_names", "ground_truth"):
            _fits_tags(self.tags, key, getattr(self, key))


def _fits_tags(tags: TagMatrix, key: str, value):
    """value, the bundle component named key, once it fits the tag matrix (ground truth may be None)."""
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
    buffer, which SimilarityGraph keeps.
    """
    unit = _unit_rows(features.data)
    w = _add_transpose(unit @ unit.T)
    w /= 2.0
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
    the bits, signed zeros included, are those of np.diag(d) - W.
    """
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
    if n < 1:
        raise DatasetError(f"n must be >= 1, got {n}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise DatasetError(f"expected a 2-D score matrix, got shape {scores.shape}")
    return np.argsort(-scores, axis=1, kind="stable")[:, :n]


# ---------------------------------------------------------------------------
# File formats: Matrix Market matrices, id lists, manifests
# ---------------------------------------------------------------------------

_MANIFEST_REQUIRED = ("tags", "image_features", "tag_features", "image_ids", "tag_names")
_MANIFEST_OPTIONAL = ("ground_truth",)


def write_sparse_matrix(path, tags: TagMatrix) -> None:
    open(path, "wb").close()  # scipy's mmwrite fails silently where open() raises OSError
    scipy.io.mmwrite(str(path), tags.matrix.tocoo())


def write_dense_matrix(path, arr: np.ndarray) -> None:
    open(path, "wb").close()  # scipy's mmwrite fails silently where open() raises OSError
    scipy.io.mmwrite(str(path), np.asarray(arr, dtype=np.float64))


def read_sparse_matrix(path) -> TagMatrix:
    open(path, "rb").close()  # a missing path or a directory raises open()'s OSError
    m = scipy.io.mmread(str(path))
    if not sp.issparse(m):
        return TagMatrix.from_dense(np.atleast_2d(m))
    return TagMatrix(sp.csr_array(m))


def read_dense_matrix(path) -> np.ndarray:
    open(path, "rb").close()  # a missing path or a directory raises open()'s OSError
    m = scipy.io.mmread(str(path))
    if sp.issparse(m):
        m = m.toarray()
    return np.atleast_2d(np.asarray(m, dtype=np.float64))


def read_id_list(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def write_id_list(path, ids) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in ids:
            fh.write(f"{name}\n")


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
            if key not in _MANIFEST_REQUIRED + _MANIFEST_OPTIONAL:
                raise DatasetError(f"line {lineno}: unknown manifest key {key!r}")
            if key in entries:
                raise DatasetError(f"line {lineno}: duplicate manifest key {key!r}")
            entries[key] = os.path.join(base, value)
    missing = [k for k in _MANIFEST_REQUIRED if k not in entries]
    if missing:
        raise DatasetError(f"manifest missing keys {missing}")
    return entries


def _read_input(field, path, read, shape=None, build=None):
    """build(read(path)), where read(path) must have shape (None: any length) if one is given.

    field is the flag or manifest key that names path. Any failure, a missing
    or unreadable file too, raises one DatasetError starting "<field>: <path>: ".
    """
    try:
        value = read(path)
        if shape is not None:
            got = getattr(value, "matrix", value).shape
            if len(got) != len(shape) or any(want not in (None, g) for g, want in zip(got, shape)):
                want = "x".join("*" if d is None else str(d) for d in shape)
                raise DatasetError(f"has shape {'x'.join(map(str, got))}, expected {want}")
        return value if build is None else build(value)
    except (ValueError, OSError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise DatasetError(f"{field}: {path}: {reason}") from None


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
    reads = {
        "image_features": lambda path: FeatureMatrix(read_dense_matrix(path)),
        "tag_features": lambda path: FeatureMatrix(read_dense_matrix(path)),
        "image_ids": read_id_list,
        "tag_names": read_id_list,
        "ground_truth": read_sparse_matrix,
    }
    return DatasetBundle(tags=tags, **{
        key: _read_input(key, entries[key], read, build=functools.partial(_fits_tags, tags, key))
        for key, read in reads.items() if key in entries
    })


def save_dataset(bundle: DatasetBundle, out_dir, name: str = "dataset") -> str:
    """Write a bundle as manifest + component files; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    files = {
        "tags": f"{name}_tags.mtx",
        "image_features": f"{name}_image_features.mtx",
        "tag_features": f"{name}_tag_features.mtx",
        "image_ids": f"{name}_image_ids.txt",
        "tag_names": f"{name}_tag_names.txt",
    }
    write_sparse_matrix(os.path.join(out_dir, files["tags"]), bundle.tags)
    write_dense_matrix(os.path.join(out_dir, files["image_features"]), bundle.image_features.data)
    write_dense_matrix(os.path.join(out_dir, files["tag_features"]), bundle.tag_features.data)
    write_id_list(os.path.join(out_dir, files["image_ids"]), bundle.image_ids)
    write_id_list(os.path.join(out_dir, files["tag_names"]), bundle.tag_names)
    if bundle.ground_truth is not None:
        files["ground_truth"] = f"{name}_ground_truth.mtx"
        write_sparse_matrix(os.path.join(out_dir, files["ground_truth"]), bundle.ground_truth)
    manifest_path = os.path.join(out_dir, f"{name}.manifest")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("# tagrefinery dataset manifest\n")
        for key, fname in files.items():
            fh.write(f"{key}: {fname}\n")
    return manifest_path
