"""Layer spans taken from outside the package, by rebinding its functions.

A wrapper replaces each traced function in every ``qhcalc`` module that
holds a reference to it, and each traced ``Space`` method on the class.
It wraps the public object itself, so it sits outside any ``lru_cache``
and cache hits count as calls.  Spans are aggregated as they close (a
verify run opens hundreds of thousands), and self time is a span's
duration minus the time its child spans cover, which keeps recursive
``replay`` calls from being counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> traced callables; "Class.method" names patch the class.
LAYERS = {
    "corner_spaces": ("blowup", "replay", "rewrite_step", "isomorphic",
                      "Space.disjoint", "Space.separated_by",
                      "Space.locus_nonempty_certificate",
                      "Space.rates_feasible"),
    "a_spaces": ("triple_space", "double_space", "commuted_triple_seq",
                 "verify_facemaps", "triple_projection_tables"),
    "index_algebra": ("normalize", "add", "ext_union", "pullback_family",
                      "pushforward_family", "windowed_eq"),
    "op_calculus": ("compose", "ffz_closed_form", "parametrix_ledger"),
    "densities": ("triple_weights",),
    "model_symbols": ("normal_family_matrix", "fully_elliptic_check",
                      "laplacian_spectrum_min_distance"),
    "numpy.linalg": ("svd",),
}

# The CLI subcommand forms, as ``cli.main_s.<form>`` names them.
CLI_FORMS = ("tower-validate", "space-double", "space-triple",
             "facemap-verify", "weights", "compose", "act", "parametrix",
             "normal-family", "resolvent-check", "export-dot")

BLOWUP = "corner_spaces.blowup"
REPLAY = "corner_spaces.replay"
COMPOSE = "op_calculus.compose"
TRIPLE_WEIGHTS = "densities.triple_weights"


def span_names():
    for mod, funcs in LAYERS.items():
        for f in funcs:
            yield f"{mod}.{f}"


class Tracer:
    """Per-function calls and self time, plus the three layer ratios."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.raised = Counter()          # NonIntegrable exits of compose
        self.replay_hits = 0             # replay calls that ran no blowup
        self.first_calls = 0             # triple_weights on a new tower
        self._seen = set()
        self._stack = []
        self._undo = []

    # -- wrapping ----------------------------------------------------------
    def _timed(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[name] += dur - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dur
        return wrapper

    def _wrapper(self, name, fn):
        inner = self._timed(name, fn)
        if name == REPLAY:
            calls = self.calls

            @functools.wraps(fn)
            def replay(*args, **kwargs):
                before = calls[BLOWUP]
                try:
                    return inner(*args, **kwargs)
                finally:
                    if calls[BLOWUP] == before:
                        self.replay_hits += 1
            return replay
        if name == COMPOSE:
            @functools.wraps(fn)
            def compose(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                except Exception as e:
                    if type(e).__name__ == "NonIntegrable":
                        self.raised[name] += 1
                    raise
            return compose
        if name == TRIPLE_WEIGHTS:
            @functools.wraps(fn)
            def triple_weights(t, *args, **kwargs):
                if t not in self._seen:
                    self._seen.add(t)
                    self.first_calls += 1
                return inner(t, *args, **kwargs)
            return triple_weights
        return inner

    def install(self) -> None:
        """Wrap every traced callable; ``qhcalc`` must be importable."""
        import qhcalc  # noqa: F401  (loads every submodule)
        pkg = [m for n, m in sorted(sys.modules.items())
               if n == "qhcalc" or n.startswith("qhcalc.")]
        for modname, funcs in LAYERS.items():
            full = modname if modname.startswith("numpy") \
                else f"qhcalc.{modname}"
            mod = importlib.import_module(full)
            for f in funcs:
                name = f"{modname}.{f}"
                if "." in f:
                    cls_name, meth = f.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrapper(name, orig))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, f)
                wrapped = self._wrapper(name, orig)
                for holder in [mod] + pkg:
                    for attr, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, attr, wrapped)
                            self._undo.append((holder, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, orig = self._undo.pop()
            setattr(holder, attr, orig)

    # -- results -----------------------------------------------------------
    def dump(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "raised": dict(self.raised),
                "replay_hits": self.replay_hits,
                "first_calls": self.first_calls}

    def merge(self, data: dict) -> None:
        self.calls.update(data["calls"])
        for k, v in data["self_s"].items():
            self.self_s[k] += v
        self.raised.update(data["raised"])
        self.replay_hits += data["replay_hits"]
        self.first_calls += data["first_calls"]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(run, tr: Tracer, import_s: float, main_s: dict,
                  untraced_s: float, traced_s: float) -> None:
    """Record every per-layer metric on ``run``; absent layers read 0.

    ``import_s`` is the median child ``import qhcalc`` time; ``main_s``
    maps CLI forms to their summed untraced ``cli.main`` time in one
    session.  Ratios with no calls read 0.
    """
    for name in span_names():
        run.metric(f"{name}.calls", tr.calls[name], "count")
        run.metric(f"{name}.self_s", tr.self_s[name], "s")
    run.metric(f"{REPLAY}.hit_ratio",
               _ratio(tr.replay_hits, tr.calls[REPLAY]), "ratio")
    run.metric(f"{COMPOSE}.integrable_ratio",
               _ratio(tr.calls[COMPOSE] - tr.raised[COMPOSE],
                      tr.calls[COMPOSE]), "ratio")
    run.metric(f"{TRIPLE_WEIGHTS}.first_call_ratio",
               _ratio(tr.first_calls, tr.calls[TRIPLE_WEIGHTS]), "ratio")
    run.metric("cli.import_s", import_s, "s")
    for form in CLI_FORMS:
        run.metric(f"cli.main_s.{form}", main_s.get(form, 0.0), "s")
    run.metric("trace.untraced_s", untraced_s, "s")
    run.metric("trace.traced_s", traced_s, "s")
    run.metric("trace.overhead_s", traced_s - untraced_s, "s")
