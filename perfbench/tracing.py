"""Outside-in spans around the public entry points of the indgl2 modules.

`Tracer.install()` wraps every public function of each layer module, plus
the constructors and methods listed in METHODS, and puts the wrapper in
every indgl2 module that binds the function: `analysis` and `cli` import
`u_act`, `hecke_T_plus`, `flatten` and others by name, so patching only
the defining module would miss most calls.

A span is (name, start, end, parent, run id).  Spans stay in memory and are
written out once, by `dump()`, when the run ends.  A layer's self time is
the duration of its spans minus the time their direct child spans cover.
Operation counts and bytes for the `_kernels` layer are computed from the
shapes of each call, not measured.
"""

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

# the layers, named after their modules; "_kernels" is reported as "kernels"
LAYERS = ("gf", "localring", "weight", "linalg", "_kernels", "induction", "analysis", "cli")

# public constructors and methods that are entry points into a layer
METHODS = (
    ("gf", "FieldCtx", "__init__"),
    ("gf", "PrimeExtField", "__init__"),
    ("localring", "LocalRingCtx", "__init__"),
    ("weight", "WeightCtx", "__init__"),
    ("cli", "Config", "build"),
)

FUNCTIONS = {
    "localring": ("divide_by_uniformizer", "from_digits", "digits", "teichmuller"),
    "induction": ("u_act", "unflatten", "operator_matrix", "hecke_T_plus"),
    "analysis": ("induced_quotient_maps", "main_lemma_report", "truncated_L"),
}
LINALG_TIMED = ("fixed_space", "kernel", "intersect", "preimage", "member")
PER_CONFIG = ("analysis.induced_quotient_maps", "analysis.main_lemma_report")
INT32_BYTES = 4


def layer_label(layer: str) -> str:
    return layer.lstrip("_")


def _rref_shape(args, result):
    rows, cols = np.shape(args[0])
    return rows, cols, len(result[1])


def _matmul_shape(args, result):
    (n, m), r = np.shape(args[0]), np.shape(args[1])[1]
    return n, m, r


def _action_key(args, result):
    # the key holds the WeightCtx itself (hashed by identity), so a context
    # freed after one config cannot pass its id on to the next
    return args[0], tuple(getattr(x, "code", x) for row in args[1] for x in row)


PROBES = {
    "_kernels.rref": _rref_shape,
    "_kernels.matmul": _matmul_shape,
    "weight.action_matrix": _action_key,
}


class Tracer:
    def __init__(self):
        self.names = []  # span name index -> "layer.function"
        self.layers = []  # span name index -> layer
        self.spans = []  # (name index, start ns, end ns, parent span or -1, run id)
        self.probes = {}  # span name -> [probe value per call]
        self.run_id = 0
        self._stack = []

    def _wrap(self, fn, layer: str, label: str):
        idx = len(self.names)
        self.names.append(label)
        self.layers.append(layer)
        spans, stack = self.spans, self._stack
        probe = PROBES.get(label)
        probed = self.probes.setdefault(label, []) if probe else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (idx, t0, t1, parent, self.run_id)
            if probe is not None:
                probed.append(probe(args, result))
            return result

        return traced

    def install(self):
        """Wrap every traced entry point; call once, after importing indgl2.cli."""
        modules = {layer: importlib.import_module(f"indgl2.{layer}") for layer in LAYERS}
        replaced = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    replaced[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{name}"))
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self._wrap(vars(cls)[meth], layer, f"{layer}.{cls_name}.{meth}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "indgl2" or mod_name.startswith("indgl2.")):
                continue
            for name, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, name, hit[1])
        required = [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]
        required += [f"linalg.{fn}" for fn in LINALG_TIMED] + list(PROBES)
        missing = [name for name in required if name not in self.names]
        if missing:
            raise RuntimeError(f"traced functions not found: {', '.join(missing)}")

    def metrics(self, n_configs: int) -> dict:
        """Per-layer metrics, as {name: (value, unit)}."""
        n_names = len(self.names)
        calls = [0] * n_names
        incl = [0] * n_names
        self_ns = [0] * n_names
        child_ns = [0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            idx, t0, t1, parent, _run = self.spans[i]
            dur = t1 - t0
            calls[idx] += 1
            incl[idx] += dur
            self_ns[idx] += dur - child_ns[i]
            if parent >= 0:
                child_ns[parent] += dur
        by_name = {name: i for i, name in enumerate(self.names)}
        out = {}
        for layer in LAYERS:
            idxs = [i for i in range(n_names) if self.layers[i] == layer]
            s = sum(self_ns[i] for i in idxs)
            label = layer_label(layer)
            out[f"{label}.self_s"] = (s / 1e9, "s")
            out[f"{label}.calls"] = (sum(calls[i] for i in idxs), "count")

        def fn_metrics(name, keys=("s", "calls")):
            i = by_name[name]
            label = f"{layer_label(self.layers[i])}.{name.split('.', 1)[1]}"
            if "s" in keys:
                out[f"{label}.s"] = (incl[i] / 1e9, "s")
            if "calls" in keys:
                out[f"{label}.calls"] = (calls[i], "count")
            if name in PER_CONFIG:
                out[f"{label}.calls_per_config"] = (calls[i] / n_configs, "count")

        for layer, fns in FUNCTIONS.items():
            for fn in fns:
                fn_metrics(f"{layer}.{fn}")
        for fn in LINALG_TIMED:
            fn_metrics(f"linalg.{fn}", keys=("s",))
        fn_metrics("weight.action_matrix")

        rref = self.probes["_kernels.rref"]
        matmul = self.probes["_kernels.matmul"]
        fn_metrics("_kernels.rref")
        out["kernels.rref.ops_computed"] = (sum(r * c * k for r, c, k in rref), "count")
        out["kernels.rref.rank_ratio"] = (sum(k for _, _, k in rref) / max(sum(r for r, _, _ in rref), 1), "ratio")
        out["kernels.rref.max_cols"] = (max((c for _, c, _ in rref), default=0), "count")
        fn_metrics("_kernels.matmul")
        out["kernels.matmul.ops_computed"] = (sum(n * m * r for n, m, r in matmul), "count")
        # computed, not measured: each int32 operand read once, each result written once
        moved = sum(2 * r * c for r, c, _ in rref) + sum(n * m + m * r + n * r for n, m, r in matmul)
        out["kernels.bytes_computed"] = (moved * INT32_BYTES, "B")

        keys = self.probes["weight.action_matrix"]
        out["weight.action_matrix.distinct_ratio"] = (len(set(keys)) / max(len(keys), 1), "ratio")
        return out

    def dump(self, path, run_labels):
        """Write every span, one JSON array per line after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "names": self.names,
                "runs": run_labels,
                "columns": ["name", "start_ns", "end_ns", "parent", "run"],
            }
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
