"""Outside-in tracing of the vrips layers.

The tracer patches the package from the outside; nothing in ``src/``
knows it exists. A layer is a module of ``vrips``. Every public function
that one layer imports from another is replaced, in the importing
module's namespace, by a wrapper that records a span, so a span marks a
call that crosses a layer boundary. Three class members are wrapped on
their class, because callers reach them through the class:
``SemiPseudometric.values``, ``SemiUniformBase.from_members`` and
``SimplicialComplex.__post_init__`` (complex construction, i.e.
validation). ``run_command`` is the root span of every op.

Spans are kept in memory as (name, layer, start_ns, end_ns, parent,
op) and written out when the run ends. Self time of a span is its
duration minus the durations of its direct children.

``complexes.chain_image`` is not wrapped: homology calls it once per
simplex while assembling induced maps, so a span there would cost more
than the work it measures; its time stays in ``homology``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "documents", "relations", "complexes", "homology", "semiuniform", "suites")
CELL_DIMS = 4  # cells_d0 .. cells_d3; the deepest workload enumerates tetrahedra
UNWRAPPED = {"complexes.chain_image"}
SUB_SPANS = {  # spans whose whole duration is reported under its own name
    "relations.values": "relations.values_s",
    "complexes.construct": "complexes.construct_s",
    "documents.parse_document": "documents.parse_s",
    "documents.result_document": "documents.serialize_s",
    "documents.serialize_result": "documents.serialize_s",
}


def _modules():
    return {name: importlib.import_module(f"vrips.{name}") for name in LAYERS}


def _cell_counts(obj) -> list[int]:
    return [len(layer) for layer in obj.simplices]


class Tracer:
    """Wraps the layer boundaries of an imported vrips while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_sweep_members = None
        mods = _modules()
        self._complex_types = (mods["complexes"].SimplicialComplex,
                               mods["complexes"].ComplexPair)
        self._plan = self._boundaries(mods)

    # ------------------------------------------------------------ patching

    def _boundaries(self, mods):
        """(owner, attribute, layer, span name, wrapper factory) to patch."""
        layer_of = {mod.__name__: name for name, mod in mods.items()}
        plan = [(mods["cli"], "run_command", "cli", "cli.run_command", self._wrap_function)]
        for caller, mod in mods.items():
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                callee = layer_of.get(value.__module__)
                name = f"{callee}.{attr}"
                if callee is None or callee == caller or name in UNWRAPPED:
                    continue
                plan.append((mod, attr, callee, name, self._wrap_function))
        rel, cpx = mods["relations"], mods["complexes"]
        plan += [
            (rel.SemiPseudometric, "values", "relations", "relations.values",
             self._wrap_function),
            (rel.SemiUniformBase, "from_members", "relations", "relations.from_members",
             self._wrap_classmethod),
            (cpx.SimplicialComplex, "__post_init__", "complexes", "complexes.construct",
             self._wrap_function),
        ]
        return plan

    def install(self):
        for owner, attr, layer, name, factory in self._plan:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, factory(original, layer, name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_function(self, fn, layer, name):
        observe = self._observer(layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _wrap_classmethod(self, descriptor, layer, name):
        return classmethod(self._wrap_function(descriptor.__func__, layer, name))

    # --------------------------------------------------------------- spans

    def start_op(self):
        self.op += 1
        self._last_sweep_members = None

    def _open(self, layer, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, perf_counter_ns(), 0, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][3] = perf_counter_ns()
        self._stack.pop()

    # -------------------------------------------------------------- counts

    def _observer(self, layer, name):
        if name == "relations.scale_base":
            return self._observe_sweep_row
        if name == "semiuniform.limit_homology":
            return lambda args, result: self.counts.update({"semiuniform.members": len(args[0].members)})
        if name == "complexes.construct":
            return None
        if layer == "complexes":
            return self._observe_complex
        if name == "homology.induced_map":
            # the map's chains are assembled on both of its ends
            return lambda args, result: self._count_matrices(
                (args[0].domain, args[0].codomain) if hasattr(args[0], "domain")
                else (args[0].total, args[0]))
        if layer == "homology":
            return lambda args, result: self._count_matrices(args[:1])
        return None

    def _observe_sweep_row(self, args, result):
        members = frozenset(m.pairs for m in result.members)
        self.counts["cli.sweep_rows"] += 1
        if members == self._last_sweep_members:
            self.counts["cli.sweep_repeats"] += 1
        self._last_sweep_members = members

    def _observe_complex(self, args, result):
        if not isinstance(result, self._complex_types):
            return
        cells = _cell_counts(getattr(result, "total", result))
        self.counts["complexes.cells"] += sum(cells)
        for k, n in enumerate(cells[:CELL_DIMS]):
            self.counts[f"complexes.cells_d{k}"] += n

    def _count_matrices(self, objects):
        """Boundary nonzeros and dense entries, computed from cell counts.

        A k-simplex has k + 1 faces, so d_k has (k + 1) * n_k nonzeros and
        n_{k-1} * n_k dense entries. For a pair the counts are those of
        the relative cells, and the nonzeros are an upper bound.
        """
        for o in objects:
            if hasattr(o, "total"):
                sub = _cell_counts(o.sub)
                cells = [n - (sub[k] if k < len(sub) else 0)
                         for k, n in enumerate(_cell_counts(o.total))]
            elif isinstance(o, self._complex_types):
                cells = _cell_counts(o)
            else:
                continue
            for k in range(1, len(cells)):
                self.counts["homology.boundary_nnz"] += (k + 1) * cells[k]
                self.counts["homology.dense_entries"] += cells[k - 1] * cells[k]

    # ------------------------------------------------------------- reports

    def layer_totals(self, factor: float) -> Counter:
        """Per-layer self seconds and span counts, plus the named sub-spans.

        Durations are multiplied by factor.
        """
        child_ns = [0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = Counter()
        for (name, layer, start, end, parent, op), children in zip(self.spans, child_ns):
            scale = factor / 1e9
            out[f"{layer}.self_s"] += (end - start - children) * scale
            out[f"{layer}.calls"] += 1
            sub = SUB_SPANS.get(name)
            if sub is not None:
                out[sub] += (end - start) * scale
        return out

    def write_spans(self, path):
        """One JSON array per line, after a first line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "layer", "start_ns", "end_ns", "parent", "op"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
