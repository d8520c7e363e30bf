"""In-memory spans around calls into the tvq modules.

The benchmark does not edit the package: it wraps chosen functions from
the outside. A wrapper replaces every binding of the original function
in every loaded ``tvq`` module, because modules import each other's
functions by name (``gadgets`` and ``circuits`` call their own binding
of ``pachner_22``), so wrapping the defining module alone would miss
those calls. Methods are wrapped once, on their class.

Spans are (name, start, end, parent) tuples kept in a list and written
out when the round ends; a layer's self time is its span time minus the
time of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> functions wrapped in it; "Class.method" wraps a method
LAYERS = {
    "lattice": (
        "pachner_22",
        "apply_cpi",
        "SurfaceLattice.edge_triangles",
        "SurfaceLattice.plaquette",
    ),
    "gadgets": ("shear_step", "braid_schedule", "baseline_schedule", "run_schedule"),
    "circuits": ("compile_schedule",),
    "statevec": (
        "apply_fmove",
        "apply_state_permutation",
        "make_state",
        "inner",
        "apply_bp",
        "ground_project",
        "enumerate_valid_configs",
    ),
    "errors": ("braid_error_trial", "lightcone_grow"),
    "cli": ("main",),
}

COUNTERS = (
    "statevec.apply_fmove.amps_out",
    "statevec.apply_bp.amps_out",
    "statevec.nnz_peak",
    "circuits.gates",
    "circuits.depth",
)


def span_names() -> list[str]:
    return [
        f"{layer}.{name.split('.')[-1]}" for layer, names in LAYERS.items() for name in names
    ]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out.update(dict.fromkeys(COUNTERS, "count"))
    out["circuits.depth"] = "layers"
    out["trace.overhead_s"] = "s"
    return out


class Tracer:
    """Records spans while ``enabled``; wrappers cost one flag test otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every function in LAYERS, in every loaded tvq module."""
        import tvq.cli  # noqa: F401  (the package itself does not import cli)

        modules = [m for k, m in sys.modules.items() if k == "tvq" or k.startswith("tvq.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"tvq.{layer}"]
            for qual in names:
                span = f"{layer}.{qual.split('.')[-1]}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(span, getattr(cls, meth)))
                    continue
                original = getattr(home, qual)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, span: str, fn):
        observe = getattr(self, "_observe_" + span.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1]
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (span, start, end, parent)
            if span.startswith("statevec."):
                self._observe_state(out[0] if isinstance(out, tuple) else out)
            if observe is not None:
                observe(out)
            return out

        return wrapper

    # ---- counters at the span boundaries -------------------------------------

    def _observe_state(self, out) -> None:
        nnz = getattr(out, "nnz", None)
        if nnz is not None:
            self.counters["statevec.nnz_peak"] = max(self.counters["statevec.nnz_peak"], nnz())

    def _observe_statevec_apply_fmove(self, out) -> None:
        self.counters["statevec.apply_fmove.amps_out"] += out[0].nnz()

    def _observe_statevec_apply_bp(self, out) -> None:
        self.counters["statevec.apply_bp.amps_out"] += out.nnz()

    def _observe_circuits_compile_schedule(self, out) -> None:
        self.counters["circuits.gates"] += out.gate_count()
        self.counters["circuits.depth"] += out.depth()

    # ---- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the counters."""
        calls = dict.fromkeys(span_names(), 0)
        total = dict.fromkeys(span_names(), 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += (end - start) - child[i]
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = total[name]
        out.update(self.counters)
        return out

    def write(self, path, origin: float) -> None:
        """One JSON line per span, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
                    )
                    + "\n"
                )
