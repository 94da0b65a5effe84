"""Configuration: every key with its default, kind and bound, its resolution, and the command line.

This module imports no numpy, so the console entry (tagrefinery.__main__) resolves the `threads` key and
sets the BLAS thread variables before numpy loads. Each config section is a frozen dataclass whose
defaults are the section's: a field's type declares its key's kind, and its metadata the bound. One
checker, _config_problems, applies both when a section is made, so a section that exists is valid: the
library gets one DatasetError, the command line exits 2 with `section.key: …`. A key's value comes from
its default, then the --config file, then the --set overrides, then its dedicated flag (the last wins).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import logging
import math
import numbers
import operator
import os
import pathlib
import sys
from dataclasses import dataclass, field

log = logging.getLogger("tagrefinery")


class DatasetError(ValueError):
    """Bad input: a file, a shape or a value, configuration included."""


def _read_input(field, path, read, shape=None, build=None):
    """build(read(path)), where read(path) must have shape (None: any length) if one is given.

    The package's one rule for a file it reads. field is the flag or manifest key that names path. Any
    failure, a missing or unreadable file too, raises one DatasetError starting "<field>: <path>: ".
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


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

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
    for field in dataclasses.fields(config):
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


class _Section:
    """A config dataclass that checks itself when it is made: one DatasetError names each problem
    ("mu must be > 0, got 0") and carries them as .problems, the (field, reason) pairs."""

    def __post_init__(self):
        problems = _config_problems(self)
        if problems:
            error = DatasetError("; ".join(f"{name} {reason}" for name, reason in problems))
            error.problems = problems
            raise error


# ---------------------------------------------------------------------------
# The sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SscConfig(_Section):
    """Knobs for the self-representation solver.

    mu is the quadratic error penalty of the objective; max_iters and tol
    (on the constraint residuals) stop the augmented-Lagrangian loop. Field metadata holds the bounds.
    """

    mu: float = field(default=10.0, metadata={"gt": 0})
    max_iters: int = field(default=4000, metadata={"ge": 1})
    tol: float = field(default=1e-5, metadata={"gt": 0})


@dataclass(frozen=True)
class SharingConfig(_Section):
    """Voting weights and admission thresholds for tag sharing; field metadata holds the bounds.

    neighbor_source is read by the pipeline to decide which similarity
    graph to slice per cluster: "affinity" reuses the self-representation
    affinity, "cosine" recomputes cosine similarity over image features.

    Vote scores are convex combinations of [0, 1] components, so any
    min_confidence above 1 admits nothing. The range accepts up to 1.1,
    clear of roundoff at 1, so that "share no tags" can be configured.
    """

    n_neighbors: int = field(default=5, metadata={"ge": 1})
    w_local: float = field(default=0.5, metadata={"ge": 0})
    w_cooc: float = field(default=0.3, metadata={"ge": 0})
    w_freq: float = field(default=0.2, metadata={"ge": 0})
    max_added_per_image: int = field(default=10, metadata={"ge": 0})
    min_confidence: float = field(default=0.2, metadata={"ge": 0, "le": 1.1})
    neighbor_source: str = field(default="affinity", metadata={"in": ("affinity", "cosine")})

    def _cross_field(self) -> list[tuple[str, str]]:
        if self.w_local or self.w_cooc or self.w_freq:
            return []
        return [("w_local", f"must be positive while w_cooc and w_freq are 0, got {self.w_local}")]


@dataclass(frozen=True)
class RefineConfig(_Section):
    """Knobs for the fit: the model's rank, lambda1, lambda2 and mu (see tagrefinery.refine), then the
    outer loop's cap and relative objective-change stop; the start is fixed by the inputs, so there is no
    seed. Field metadata holds the bounds; a fit also needs the rank within both feature dimensions
    (refine._check_rank), a rule about the data, checked where the data is known.
    """

    rank: int = field(default=8, metadata={"ge": 1})
    lambda1: float = field(default=0.1, metadata={"ge": 0})
    lambda2: float = field(default=0.01, metadata={"ge": 0})
    mu: float = field(default=0.4, metadata={"ge": 0, "lt": 1})
    outer_iters: int = field(default=30, metadata={"ge": 1})
    obj_tol: float = field(default=1e-6, metadata={"ge": 0})


@dataclass(frozen=True)
class NoiseSpec(_Section):
    """Controlled corruption: delete true annotations, add spurious ones. Field metadata holds the bounds."""

    missing_rate: float = field(metadata={"ge": 0, "le": 1})
    inaccurate_rate: float = field(metadata={"ge": 0, "le": 1})
    seed: int = field(default=0, metadata={"ge": 0})


def _key(default, like: tuple = (), **bound):
    """A config key: its default (a list is copied per use) and its bound, or like=(class, field)'s."""
    if like:
        bound = next(f.metadata for f in dataclasses.fields(like[0]) if f.name == like[1])
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=bound)
    return field(default=default, metadata=bound)


@dataclass(frozen=True)
class _TopConfig(_Section):
    """The top-level keys, outside every section. Field metadata holds each key's bound."""

    manifest: str | None = None
    output_dir: str = "out"
    k: int = _key(5, ge=1)
    auto_k: bool = False
    auto_k_max: int = _key(10, ge=1)
    eval_n: list[int] = _key([2, 5, 10], ge=1)
    threads: int = _key(1, ge=1)

    def _cross_field(self) -> list[tuple[str, str]]:
        return [] if self.output_dir else [("output_dir", "must name a directory, got ''")]


@dataclass(frozen=True)
class _SynthConfig(_Section):
    """The synth section: every kind's keys, from which testkit._synth_bundle builds the kind. Field metadata
    holds each key's bound, whatever the kind."""

    kind: str = field(default="bundle", metadata={"in": ("bundle", "planted", "subspaces")})
    n_clusters: int = _key(5, ge=1)
    images_per_cluster: int = _key(40, ge=1)
    n_tags: int = _key(50, ge=1)
    tags_per_cluster: int = _key(8, ge=1)
    dim_subspace: int = _key(4, ge=1)
    image_dim: int = _key(30, ge=1)
    tag_dim: int = _key(16, ge=1)
    tag_presence: float = _key(0.9, ge=0, le=1)
    cluster_spread: float = 0.35
    image_noise: float = _key(0.02, ge=0)
    seed: int = _key(0, ge=0)
    rank: int = _key(3, ge=1)
    density: float = _key(0.2, gt=0, lt=1)
    missing_rate: float = _key(0.3, like=(NoiseSpec, "missing_rate"))
    inaccurate_rate: float = _key(0.3, like=(NoiseSpec, "inaccurate_rate"))
    noise_seed: int = _key(0, like=(NoiseSpec, "seed"))
    name: str = "synthetic"

    def _cross_field(self) -> list[tuple[str, str]]:
        """The name's form, then the checks of the kind's generator that tie keys together."""
        vocabulary, dims = self.n_clusters * self.tags_per_cluster, min(self.image_dim, self.tag_dim)
        checks = [("name", not self.name or os.path.dirname(self.name),
                   "be a non-empty file name, not a path"),
                  ("n_tags", self.kind == "bundle" and self.n_tags < vocabulary,
                   f"be at least synth.n_clusters x synth.tags_per_cluster = {vocabulary}"),
                  ("image_dim", self.kind != "planted" and self.image_dim <= self.dim_subspace,
                   f"exceed synth.dim_subspace = {self.dim_subspace}"),
                  ("rank", self.kind == "planted" and self.rank > dims,
                   f"be at most min(synth.image_dim, synth.tag_dim) = {dims}")]
        return [(key, f"must {must}, got {getattr(self, key)!r}") for key, bad, must in checks if bad]


@dataclass(frozen=True)
class _TuneConfig(_Section):
    """The tune section. Field metadata holds each key's bound; a grid takes its RefineConfig field's."""

    lambda1_grid: list[float] = _key([0.01, 0.1], like=(RefineConfig, "lambda1"))
    lambda2_grid: list[float] = _key([0.0, 0.01], like=(RefineConfig, "lambda2"))
    mu_grid: list[float] = _key([0.0, 0.2, 0.4, 0.6, 0.8], like=(RefineConfig, "mu"))
    rank_grid: list[int] = _key([8], like=(RefineConfig, "rank"))
    val_fraction: float = _key(0.5, gt=0, le=1)
    split_seed: int = _key(0, ge=0)
    n: int = _key(5, ge=1)


# Config section -> its class; the class defaults are the section defaults.
_SECTIONS = (("ssc", SscConfig), ("sharing", SharingConfig), ("refine", RefineConfig),
             ("synth", _SynthConfig), ("tune", _TuneConfig))
DEFAULT_CONFIG: dict = {**dataclasses.asdict(_TopConfig()),
                        **{section: dataclasses.asdict(cls()) for section, cls in _SECTIONS}}


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def _merge_section(base: dict, override: dict, prefix: str) -> None:
    for key, value in override.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise DatasetError(f"unknown config key {path!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise DatasetError(f"config key {path!r} must be a section/object")
            _merge_section(base[key], value, f"{path}.")
        else:
            base[key] = value  # _build_configs checks it once everything is merged


def _apply_override(cfg: dict, assignment: str) -> None:
    """Merge one ``dotted.key=value`` flag as if it came from a config file."""
    if "=" not in assignment:
        raise DatasetError(f"override {assignment!r} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(dotted.strip().split(".")):
        value = {part: value}
    _merge_section(cfg, value, "")


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- --set overrides <- dedicated flags; _build_configs checks the values."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        loaded = _read_input("--config", args.config,
                             lambda path: json.loads(pathlib.Path(path).read_text("utf-8")))
        if not isinstance(loaded, dict):
            raise DatasetError(f"--config: {args.config}: must hold a JSON object")
        _merge_section(cfg, loaded, "")
    for assignment in getattr(args, "set", None) or []:
        _apply_override(cfg, assignment)
    for key in ("manifest", "output_dir", "threads", "k"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _build_configs(cfg: dict) -> tuple:
    """The (ssc, sharing, refine) configs of the resolved config, once every section is made; one error names
    each problem of every section as `section.key: …` (a top-level key: `key: …`)."""
    configs, problems = {}, []
    for section, cls in (("", _TopConfig), *_SECTIONS):
        values = cfg[section] if section else cfg
        try:
            configs[section] = cls(**{f.name: values[f.name] for f in dataclasses.fields(cls)})
        except DatasetError as exc:
            prefix = f"{section}." if section else ""
            problems += [f"{prefix}{key}: {reason}" for key, reason in exc.problems]
    if problems:
        raise DatasetError("; ".join(problems))
    return configs["ssc"], configs["sharing"], configs["refine"]


# ---------------------------------------------------------------------------
# The command line: each subcommand names the stages it runs, which tagrefinery.cli defines.
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a config value by dotted path, e.g. --set refine.mu=0.7",
    )
    parser.add_argument("--manifest", help="dataset manifest path (overrides config)")
    parser.add_argument("--output-dir", help="artifact directory (overrides config)")
    parser.add_argument(
        "--threads", type=int,
        help="the threads config key: BLAS threads, set as OMP/OPENBLAS/MKL_NUM_THREADS before numpy "
             "loads, so a replay with the same value is bit-stable on any machine",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagrefinery",
        description="Complete and refine noisy image-tag annotation matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="self-representation + spectral clustering of images")
    _add_common(p)
    p.add_argument("--k", type=int, help="number of clusters (overrides config)")
    p.set_defaults(stages=("cluster",))

    p = sub.add_parser("share", help="densify tags by in-cluster neighbor voting")
    _add_common(p)
    p.add_argument("--labels", help="cluster labels file (default: <output-dir>/labels.txt)")
    p.add_argument("--affinity", help="affinity matrix file (default: <output-dir>/affinity.mtx)")
    p.set_defaults(stages=("share",))

    p = sub.add_parser("refine", help="low-rank refinement of a (completed) tag matrix")
    _add_common(p)
    p.add_argument("--tags-in", help="completed tag matrix to refine instead of the bundle's")
    p.add_argument(
        "--import-factors", nargs=2, metavar=("P.mtx", "Q.mtx"),
        help="resume from saved factors",
    )
    p.add_argument(
        "--apply", action="store_true",
        help="only apply imported factors to the bundle's features (no solving)",
    )
    p.set_defaults(stages=("refine",))

    p = sub.add_parser("pipeline", help="cluster -> share -> refine -> eval")
    _add_common(p)
    p.add_argument("--k", type=int, help="number of clusters (overrides config)")
    p.add_argument("--skip-eval", action="store_true", help="skip evaluation even with ground truth")
    p.set_defaults(stages=("cluster", "share", "refine", "eval"))

    p = sub.add_parser("eval", help="AP@N / AR@N of a prediction matrix against ground truth")
    _add_common(p)
    p.add_argument("--predictions", required=True, help="Matrix Market score or tag matrix")
    p.set_defaults(stages=("eval",))

    p = sub.add_parser("synth", help="generate a synthetic bundle (manifest + files)")
    _add_common(p)
    p.set_defaults(stages=("synth",))

    p = sub.add_parser("tune", help="grid-search refine parameters against validation AP@N")
    _add_common(p)
    p.add_argument("--completed", help="reuse an existing completed matrix instead of re-sharing")
    p.set_defaults(stages=("cluster", "share", "tune"))

    return parser


def load_command(argv=None) -> tuple | None:
    """Parse a command line, set up logging, then resolve and check its config.

    Returns (flags, resolved config, (ssc, sharing, refine) configs), or None once a bad config is logged,
    for which the command exits 2.
    """
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        cfg = resolve_config(args)
        return args, cfg, _build_configs(cfg)
    except ValueError as exc:
        log.error("%s", exc)
        return None
