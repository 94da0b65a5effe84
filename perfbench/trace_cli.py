"""Run one ``tagrefinery`` command in-process with every layer wrapped in spans.

Usage::

    python3 perfbench/trace_cli.py SPANS.json -- <tagrefinery subcommand and flags>

The wrapping happens from outside the package: each public function of the
layer modules is replaced, in every ``tagrefinery`` module namespace that
binds it, by a wrapper that records a span (name, parent, start, end and a
few result fields). ``TagMatrix.toarray`` and ``TagMatrix.support`` are only
counted. After ``tagrefinery.cli.main`` returns, the spans go to SPANS.json
and the process exits with the command's own exit code.

Set the BLAS thread variables in the environment before starting this
script; they take effect only if numpy has not been imported yet.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "tagmat", "subspace", "sharing", "refine", "metrics")
COUNTED_METHODS = ("toarray", "support")


def _ssc_info(args, kwargs, result):
    return {"iters": int(result.n_iters), "converged": bool(result.converged)}


def _solve_info(args, kwargs, result):
    return {
        "outer_iters": int(result.n_outer),
        "converged": bool(result.converged),
        "final_objective": float(result.objective_trace[-1]),
    }


def _share_info(args, kwargs, result):
    tags = args[0] if args else kwargs["tags"]
    return {"entries_added": int(result.nnz - tags.nnz)}


def _write_info(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Result fields kept per span, by span name.
OBSERVERS = {
    "subspace.ssc_solve": _ssc_info,
    "refine.solve_alternating": _solve_info,
    "sharing.share_tags": _share_info,
    "tagmat.write_sparse_matrix": _write_info,
    "tagmat.write_dense_matrix": _write_info,
}


class Tracer:
    """Spans and call counts of one traced command, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        observe = OBSERVERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            span_id = len(self.spans)
            self.spans.append(span)
            self._stack.append(span_id)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.update(observe(args, kwargs, result))
            return result

        return traced

    def count(self, name: str, func):
        @functools.wraps(func)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return func(*args, **kwargs)

        return counted


def _package_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if key == "tagrefinery" or key.startswith("tagrefinery.")
    ]


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer wherever it is bound.

    Modules come from importlib, not attribute access on the package:
    ``tagrefinery.refine`` is the re-exported *function*, not the module.
    """
    originals = {}
    for layer in LAYERS:
        module = importlib.import_module(f"tagrefinery.{layer}")
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                originals[id(value)] = tracer.wrap(f"{layer}.{attr}", value)
    # Rebind in every namespace, e.g. refine.save_factors calls its own
    # imported write_dense_matrix and the package re-exports most names.
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                setattr(module, attr, wrapper)
    tag_matrix = sys.modules["tagrefinery.tagmat"].TagMatrix
    for method in COUNTED_METHODS:
        setattr(tag_matrix, method, tracer.count(f"TagMatrix.{method}", getattr(tag_matrix, method)))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace_cli.py SPANS.json -- <tagrefinery arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["tagrefinery.cli"]
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
