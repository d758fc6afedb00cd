"""Traced run of `planartl verify`: the CLI's own code, with one span per
call of the library functions that make up each layer.

Run in a fresh process with the checkout's `src` on PYTHONPATH, so the
library's `@cache`s start empty as they do for the CLI:

    python3 perfbench/traced.py RUN_ID verify CHECK... --n-max N ... --format json

Each function in LAYER_OF is replaced, wherever a planartl module binds it
(its own module and every `from .x import f`), by a wrapper that records a
span (name, start, end, parent index); methods are replaced on their class.
Then `planartl.cli.main` runs the given arguments.  Spans stay in memory
and are printed at the end as one JSON object, with counts taken from call
inputs and outputs, the CLI's exit code and its report exactly as it
printed it.  The library itself is not changed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) -> layer.  "Class.method" names a method.
LAYER_OF = {
    ("planartl.combin", "dyck_words"): "combin.dyck_words",
    ("planartl.combin", "fine_by_enumeration"): "combin.oracle",
    ("planartl.combin", "first_peak_count_by_enumeration"): "combin.oracle",
    ("planartl.diagram", "enumerate_diagrams"): "diagram.enumerate",
    ("planartl.indmod", "black_box_basis"): "indmod.basis",
    ("planartl.chains", "boundary_element"): "algebra.boundary_element",
    ("planartl.chains", "right_mult_matrix"): "chains.assemble",
    ("planartl.linalg", "PolyMatrix.compose"): "linalg.compose",
    ("planartl.jacobsthal", "jacobsthal_element"): "jacobsthal.element",
    ("planartl.linalg", "PolyMatrix.first_difference"): "jacobsthal.compare",
    ("planartl.linalg", "rank_at"): "linalg.rank",
    ("planartl.linalg", "PolyMatrix.specialize_int_columns"): "linalg.specialize",
    ("planartl.linalg", "rank_of_int_columns"): "linalg.eliminate",
}
# Where one function serves two layers, the binding the caller looks it up
# in decides: jacobsthal's right_mult_matrix builds the Jacobsthal products.
SITE_LAYER = {("planartl.jacobsthal", "right_mult_matrix"): "jacobsthal.assemble"}
LAYERS = tuple(dict.fromkeys([*LAYER_OF.values(), *SITE_LAYER.values()]))
COUNTS = {
    "diagram.enumerate.count": "count",
    "indmod.basis.size": "count",
    "chains.assemble.products": "count",
    "chains.assemble.nnz": "count",
    "jacobsthal.element.terms": "count",
    "linalg.specialize.max_bits": "bits",
    "linalg.eliminate.rank": "count",
}
COUNTED = ("diagram.enumerate", "indmod.basis", "chains.assemble", "jacobsthal.element", "linalg.specialize", "linalg.eliminate")


class Tracer:
    """In-memory spans, and the counts read off each call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.seen: set = set()

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([layer, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if layer in COUNTED:
                # Counting gets a span of its own, so that it is no
                # caller's self time.
                self.spans.append(["trace.count", perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
                self.count(layer, args, result)
                self.spans[-1][2] = perf_counter()
            return result

        return traced

    def count(self, layer: str, args: tuple, result) -> None:
        c = self.counts
        if layer in ("diagram.enumerate", "indmod.basis"):
            # Cached per argument: count each distinct call once.
            if (layer, args) not in self.seen:
                self.seen.add((layer, args))
                c["diagram.enumerate.count" if layer == "diagram.enumerate" else "indmod.basis.size"] += len(result)
        elif layer == "chains.assemble":
            elt, source = args[0], args[1]
            c["chains.assemble.products"] += len(source) * len(elt.terms)
            c["chains.assemble.nnz"] += result.nnz()
        elif layer == "jacobsthal.element":
            c["jacobsthal.element.terms"] += result.term_count
        elif layer == "linalg.specialize":
            top = max((max(map(abs, col.values())) for col in result if col), default=0)
            c["linalg.specialize.max_bits"] = max(c["linalg.specialize.max_bits"], top.bit_length())
        elif layer == "linalg.eliminate":
            c["linalg.eliminate.rank"] += result


def install(tracer: Tracer) -> None:
    """Replace every binding of each LAYER_OF function in the planartl
    modules; fail if a listed function no longer exists."""
    for (module, attr), layer in LAYER_OF.items():
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(layer, getattr(cls, method)))
            continue
        original = getattr(owner, attr)
        for name, site in list(sys.modules.items()):
            if name == "planartl" or name.startswith("planartl."):
                if getattr(site, attr, None) is original:
                    setattr(site, attr, tracer.wrap(SITE_LAYER.get((name, attr), layer), original))


def main(argv: list[str]) -> int:
    run_id, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    # Importing the CLI first loads every module it binds names from.
    cli = importlib.import_module("planartl.cli")
    install(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(cli_argv)
    json.dump({"run_id": run_id, "exit": code, "report": out.getvalue(), "spans": tracer.spans, "counts": tracer.counts},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
