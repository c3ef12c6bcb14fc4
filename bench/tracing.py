"""Layer spans and counters, installed on fermicluster from outside.

Every traced callable is rebound to a wrapper in each ``fermicluster``
namespace that holds it.  ``from .x import y`` copies the reference, so
``pipeline.model_norms`` and ``grossneveu.model_norms`` are two bindings of
one function, and ``clusters.effective_log_integral`` is a separate binding
from the ``berezin`` global that ``log_direct`` calls; the scan below finds
and rebinds all of them.  Methods are rebound on their class, which also
catches ``polymer_activity`` calling itself through ``self``.

A span records name, start, end and the span that opened it.  Self time is
a span's duration minus the time its child spans cover, so recursion and
nested layers are never counted twice.  Spans stay in memory and are
written out once, after the measured work.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# Span name -> (module, attribute path) of the original callable.
SPANS = {
    "pipeline.pair_series": ("fermicluster.pipeline", "pair_series"),
    "pipeline.oracle_pair_series": ("fermicluster.pipeline", "oracle_pair_series"),
    "grossneveu.covariance": ("fermicluster.grossneveu", "covariance"),
    "grossneveu.quartic_kernel": ("fermicluster.grossneveu", "quartic_kernel"),
    "grossneveu.source_kernels": ("fermicluster.grossneveu", "source_kernels"),
    "grossneveu.model_norms": ("fermicluster.grossneveu", "model_norms"),
    "grossneveu.torus_decay_fit": ("fermicluster.grossneveu", "torus_decay_fit"),
    "grossneveu.correlation_rows": ("fermicluster.grossneveu", "correlation_rows"),
    "weights.coeff_norm": ("fermicluster.weights", "coeff_norm"),
    "weights.logseries_norm": ("fermicluster.weights", "logseries_norm"),
    "clusters.engine_init": ("fermicluster.clusters", "ClusterEngine.__init__"),
    "clusters.activity": ("fermicluster.clusters", "ClusterEngine.polymer_activity"),
    "clusters.assemble": ("fermicluster.clusters", "ClusterEngine.assemble"),
    "berezin.log_direct": ("fermicluster.berezin", "log_direct"),
    "berezin.elim": ("fermicluster.berezin", "effective_log_integral"),
    "berezin.integrate_element": ("fermicluster.berezin", "integrate_element"),
    "algebra.mul": ("fermicluster.algebra", "GrassmannElement.__mul__"),
    "algebra.log1p": ("fermicluster.algebra", "log1p_nilpotent"),
    "algebra.exp_series": ("fermicluster.algebra", "exp_series"),
    "trees.enumerate": ("fermicluster.trees", "enumerate_trees"),
}

# Counted but not spanned: its time stays in the caller's self time.
COUNTED = {"clusters.ursell": ("fermicluster.clusters", "ursell_factor")}

# Bindings that must exist at the package version this benchmark targets;
# a missing one means the scan no longer sees a copy the pipeline calls.
EXPECTED_COPIES = {
    ("fermicluster.pipeline", "model_norms"),
    ("fermicluster.pipeline", "covariance"),
    ("fermicluster.pipeline", "log_direct"),
    ("fermicluster.clusters", "effective_log_integral"),
    ("fermicluster.clusters", "integrate_element"),
    ("fermicluster.berezin", "log1p_nilpotent"),
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _bindings(original) -> list[tuple[object, str, str]]:
    """Every (namespace, attribute, label) in fermicluster bound to ``original``."""
    out = []
    for modname, module in sorted(sys.modules.items()):
        if modname != "fermicluster" and not modname.startswith("fermicluster."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                out.append((module, attr, f"{modname}.{attr}"))
            elif isinstance(value, type) and value.__module__ == modname:
                for name, member in list(vars(value).items()):
                    if member is original:
                        out.append((value, name, f"{modname}.{attr}.{name}"))
    return out


class Tracer:
    """Span stack, per-span self time and call counts, plus layer counters."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: dict[str, float] = {name: 0.0 for name in SPANS}
        self.calls: dict[str, int] = {name: 0 for name in list(SPANS) + list(COUNTED)}
        self.counts = {
            "algebra.mul_pairs": 0,
            "algebra.mul_out_terms": 0,
            "clusters.candidates": 0,
            "clusters.polymers_live": 0,
            "clusters.ursell_nonzero": 0,
            "weights.coeff_norm_entries": 0,
        }
        self.rebound: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        # frames: [span id, time covered by children]; the root frame has id -1
        self._stack: list[list] = [[-1, 0.0]]
        self._next_id = 0

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        import fermicluster.pipeline  # noqa: F401  (loads every traced module)
        import fermicluster.trees  # noqa: F401

        for name, (module, path) in SPANS.items():
            self._rebind(name, _resolve(module, path), self._span_wrapper)
        for name, (module, path) in COUNTED.items():
            self._rebind(name, _resolve(module, path), self._count_wrapper)
        missing = {f"{m}.{a}" for m, a in EXPECTED_COPIES} - set(self.rebound)
        if missing:
            self.remove()
            raise RuntimeError(f"traced copies not found: {sorted(missing)}")

    def _rebind(self, name, owner_attr, make_wrapper) -> None:
        owner, attr = owner_attr
        original = vars(owner)[attr]
        wrapper = make_wrapper(name, original)
        for namespace, binding, label in _bindings(original):
            self._restore.append((namespace, binding, original))
            setattr(namespace, binding, wrapper)
            self.rebound.append(label)

    def remove(self) -> None:
        for namespace, binding, original in reversed(self._restore):
            setattr(namespace, binding, original)
        self._restore.clear()

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        after = _AFTER.get(name)
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0]
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][1] += duration
                self_s[name] += duration - frame[1]
                calls[name] += 1
                spans.append((sid, name, start, end, parent))
            if after is not None:
                after(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        calls = self.calls
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            if result:
                counts["clusters.ursell_nonzero"] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    # -- output ---------------------------------------------------------------

    def root_covered_s(self) -> float:
        """Time covered by top-level spans since the tracer started."""
        return self._stack[0][1]

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _after_mul(counts, args, result):
    self, other = args
    if hasattr(other, "terms"):
        counts["algebra.mul_pairs"] += len(self.terms) * len(other.terms)
        counts["algebra.mul_out_terms"] += len(result.terms)


def _after_engine_init(counts, args, result):
    counts["clusters.candidates"] += len(args[0].candidates)


def _after_assemble(counts, args, result):
    counts["clusters.polymers_live"] += result[1].polymer_count


def _after_coeff_norm(counts, args, result):
    counts["weights.coeff_norm_entries"] += len(args[0])


_AFTER = {
    "algebra.mul": _after_mul,
    "clusters.engine_init": _after_engine_init,
    "clusters.assemble": _after_assemble,
    "weights.coeff_norm": _after_coeff_norm,
}
