"""Span recording around the public entry points of asipkit.

The tracer wraps each entry point where its caller looks the name up (the
package namespace, the defining module, and every module that imported it),
so nothing under ``src/`` changes.  Per-step helpers such as
``ChainSpec.kernel`` and ``ChainSpec.marginal`` are not wrapped: they run
hundreds of thousands of times per pass, and their time counts as self time
of the calling layer.

Spans are kept in memory as ``{id, name, start, end, parent, op}`` and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import asipkit
from asipkit import blocks, chain, cli, mixing, moments, simulate, verify

# `asipkit.battery` names the battery() function, not the module
battery = importlib.import_module("asipkit.battery")
from asipkit.moments import MomentEngine, SupportOverflow

LAYERS = ("chain", "moments", "mixing", "blocks", "simulate", "verify", "cli")


def _len(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _segments_span(segments) -> int:
    segs = [(int(a), int(b)) for a, b in segments]
    return max(b for _, b in segs) - min(a for a, _ in segs)


# (layer, function name, modules whose attribute is patched -- the defining
# module first -- and a counter hook).
# A hook maps (args, kwargs) to {counter: increment}; positional layouts
# follow the signatures in src/asipkit.
_FUNCTIONS = [
    ("chain", "build_chain", (chain, asipkit, cli, battery), None),
    ("chain", "pair_joint", (chain, asipkit, mixing, moments), None),
    ("moments", "cov_partial_sum", (moments, asipkit), None),
    ("mixing", "mixing_report", (mixing, asipkit, blocks, cli, verify), None),
    ("mixing", "alpha_phi", (mixing, asipkit, blocks),
     lambda a, k: {"mixing.pair_laws": _len(a[2] if len(a) > 2 else k.get("j_range"))}),
    ("mixing", "condition_h_profile", (mixing, asipkit, cli, verify), None),
    ("blocks", "plan_partition", (blocks, asipkit, cli, verify), None),
    ("blocks", "build_blocks", (blocks, asipkit, cli),
     lambda a, k: {"blocks.build_calls": 1,
                   "blocks.planned_horizon": int(a[3] if len(a) > 3 else k["horizon"])}),
    ("blocks", "verify_partition", (blocks, asipkit, cli, verify), None),
    ("blocks", "covariance_inequality_check", (blocks, asipkit, verify), None),
    ("simulate", "sample_paths", (simulate, asipkit, cli), None),
    ("simulate", "clt_diagnostic", (simulate, asipkit, cli), None),
    ("simulate", "variance_matching_diagnostic", (simulate, asipkit, cli), None),
    ("simulate", "gaussian_surrogate", (simulate, asipkit, cli), None),
    ("simulate", "rate_scaling_diagnostic", (simulate, asipkit, cli), None),
    ("simulate", "lil_diagnostic", (simulate, asipkit), None),
    ("verify", "verify_chain", (verify, asipkit), None),
    ("cli", "main", (cli,), None),
]

# (layer, class, method name, counter hook); `a[0]` is self.
_METHODS = [
    ("chain", chain.ChainSpec, "step_matrix",
     lambda a, k: {"chain.kernel_products": int(a[2]) - int(a[1])}),
    ("moments", MomentEngine, "prefix_variances",
     lambda a, k: {"moments.sweep_steps": int(a[2]) - int(a[1])}),
    ("moments", MomentEngine, "suffix_variances",
     lambda a, k: {"moments.sweep_steps": int(a[2]) - int(a[1])}),
    ("moments", MomentEngine, "cov_partial_sum",
     lambda a, k: {"moments.sweep_steps": int(a[2]) - int(a[1])}),
    ("moments", MomentEngine, "var_window",
     lambda a, k: {"moments.sweep_steps": int(a[2]) - int(a[1])}),
    ("moments", MomentEngine, "var_segments",
     lambda a, k: {"moments.sweep_steps": _segments_span(a[2])}),
    ("moments", MomentEngine, "v_curve", None),
    ("moments", MomentEngine, "window_distribution",
     lambda a, k: {"moments.sweep_steps": int(a[2]) - int(a[1])}),
    ("moments", MomentEngine, "lp_norm", None),
]


class Tracer:
    """Records nested spans and counters while installed and active."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, layer, start, end, parent, op, self_s)
        self.counters: dict[str, float] = {}
        self.active = False
        self.op = None
        self._stack: list[list] = []  # [span id, child seconds]
        self._saved: list[tuple] = []
        self._plans_made: dict[int, object] = {}  # holds the partitions so ids stay unique
        self._plans_used: set[int] = set()

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, layer: str, hook):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                for key, inc in hook(args, kwargs).items():
                    tracer.count(key, inc)
            tracer._note_partition_use(name, args, kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id; filled on exit
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append([sid, 0.0])
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except SupportOverflow:
                tracer.count("moments.dp_overflows", 1)
                raise
            finally:
                end = time.perf_counter()
                _, child = tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans[sid] = (sid, name, layer, start, end, parent, tracer.op, dur - child)
            if name == "blocks.plan_partition":
                tracer._plans_made[id(out[0])] = out[0]
            return out

        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for layer, fname, modules, hook in _FUNCTIONS:
            orig = getattr(modules[0], fname)
            wrapped = self._wrap(orig, layer, hook)
            for mod in modules:
                if getattr(mod, fname, None) is orig:
                    self._saved.append((mod, fname, orig))
                    setattr(mod, fname, wrapped)
        for layer, cls, mname, hook in _METHODS:
            orig = cls.__dict__[mname]
            self._saved.append((cls, mname, orig))
            setattr(cls, mname, self._wrap(orig, layer, hook))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    # -- counters ------------------------------------------------------------

    def count(self, key: str, inc: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + inc

    def _note_partition_use(self, name: str, args, kwargs) -> None:
        """A plan counts as used once its partition reaches a consumer."""
        part = None
        if name in ("blocks.verify_partition", "simulate.variance_matching_diagnostic"):
            part = args[1] if len(args) > 1 else kwargs.get("partition")
        elif name == "simulate.sample_paths":
            part = kwargs.get("partition", args[5] if len(args) > 5 else None)
        if part is not None and id(part) in self._plans_made:
            self._plans_used.add(id(part))

    # -- results -------------------------------------------------------------

    def end_pass(self) -> None:
        """Fold the pass's plan bookkeeping into the counters (partitions are
        tracked by object id, which only holds within one pass)."""
        self.count("blocks.plans_made", len(self._plans_made))
        self.count("blocks.plans_used", len(self._plans_used))
        self._plans_made.clear()
        self._plans_used.clear()

    def self_seconds(self) -> dict:
        """Self seconds per layer: span time minus the time of child spans."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            self_s[span[2]] += span[7]
        return self_s

    def top_level_seconds(self, names) -> float:
        """Seconds in spans of the given names that no span of those names encloses."""
        names = set(names)
        total = 0.0
        for sid, name, _, start, end, parent, _, _ in self.spans:
            if name not in names:
                continue
            p = parent
            while p is not None and self.spans[p][1] not in names:
                p = self.spans[p][5]
            if p is None:
                total += end - start
        return total

    def write(self, path, header: dict) -> None:
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, name, _, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "op": op,
                }) + "\n")
