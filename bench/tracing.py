"""Per-layer tracing of sepmac from outside the library.

Every public function of a sepmac module is wrapped in a span. Spans nest on
one stack, so the self time of a layer is the time of its spans minus the
time of wrapped calls made inside them. sepmac modules import functions by
name (``from .core import type_of``) and a caller looks the name up in its
own module, so a wrapper replaces every module attribute bound to the
original function. ``scipy.optimize.minimize`` is wrapped separately where
``bounds`` and ``exponent`` look it up; its span belongs to the ``scipy``
layer and includes the objective evaluations it calls back.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from math import comb
from time import perf_counter

LAYERS = ("cli", "core", "channels", "verify", "construct", "bounds", "exponent")


def _count_msgs(extra, args, result):
    code, s = args[0], args[1]
    extra["verify.msgs"] += comb(code.t, s)


def _count_symbols(extra, args, result):
    extra["channels.symbols"] += args[1].N


def _count_girth_reject(extra, args, result):
    extra["verify.girth.rejects"] += not result.holds


def _count_nodes(extra, args, result):
    extra["construct.nodes"] += result.nodes


def _count_converged(extra, args, result):
    extra["exponent.converged"] += bool(result.converged)


def _minimize_hook(layer):
    def hook(extra, args, result):
        extra[f"{layer}.minimize.nit"] += int(getattr(result, "nit", 0))
        extra[f"{layer}.minimize.success"] += bool(result.success)
    return hook


HOOKS = {
    "verify.is_separable": _count_msgs,
    "verify.error_fraction": _count_msgs,
    "channels.output_word": _count_symbols,
    "verify.split_graph_girth_check": _count_girth_reject,
    "construct.max_code_search": _count_nodes,
    "exponent.exponent": _count_converged,
    "bounds.minimize": _minimize_hook("bounds"),
    "exponent.minimize": _minimize_hook("exponent"),
}


class Tracer:
    """Counts and times calls into sepmac while installed."""

    def __init__(self):
        self.calls = defaultdict(int)      # "layer.function" -> calls
        self.incl = defaultdict(float)     # "layer.function" -> inclusive seconds
        self.self_s = defaultdict(float)   # layer -> self seconds
        self.extra = defaultdict(float)    # counters filled by HOOKS
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _close(self, key, layer, frame, start):
        d = perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += d
        self.incl[key] += d
        self.self_s[layer] += d - frame[0]

    def _wrap(self, key, layer, fn):
        hook = HOOKS.get(key)
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between items
            # is not charged to the generator
            def wrapper(*args, **kwargs):
                self.calls[key] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(key, layer, frame, start)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                self.calls[key] += 1
                frame = [0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(key, layer, frame, start)
                if hook is not None:
                    hook(self.extra, args, result)
                return result
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"sepmac.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", layer, fn)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, name, wrappers[id(value)])
        for layer in ("bounds", "exponent"):
            mod = modules[layer]
            self._patch(mod, "minimize", self._wrap(f"{layer}.minimize", "scipy", mod.minimize))

    def _patch(self, mod, name, value) -> None:
        self._undo.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._undo):
            setattr(mod, name, value)
        self._undo.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass over the workload."""
        def calls(key):
            return self.calls[key] / passes

        def secs(key):
            return self.incl[key] / passes

        def extra(key):
            return self.extra[key] / passes

        def ratio(num, den):
            return num / den if den else 0.0

        girth_calls = calls("verify.split_graph_girth_check")
        b_starts, e_starts = calls("bounds.minimize"), calls("exponent.minimize")
        points = calls("exponent.exponent") + calls("exponent.rate_lower_bound_general")
        e_secs = secs("exponent.exponent") + secs("exponent.rate_lower_bound_general")
        return {
            "cli.self_s": self.self_s["cli"] / passes,
            "core.load_code_s": secs("core.load_code"),
            "core.type_of.calls": calls("core.type_of"),
            "core.column_multiset.calls": calls("core.column_multiset"),
            "core.compositions.calls": calls("core.compositions"),
            "core.self_s": self.self_s["core"] / passes,
            "channels.output_word.calls": calls("channels.output_word"),
            "channels.output_word_s": secs("channels.output_word"),
            "channels.symbols_per_s": ratio(extra("channels.symbols"),
                                            secs("channels.output_word")),
            "channels.eval_channel.calls": calls("channels.eval_channel"),
            "verify.msgs": extra("verify.msgs"),
            "verify.separable_s": secs("verify.is_separable"),
            "verify.msgs_per_s": ratio(extra("verify.msgs"),
                                       secs("verify.is_separable") + secs("verify.error_fraction")),
            "verify.cover_s": sum(secs(f"verify.{f}") for f in (
                "is_frameproof", "is_list_decoding", "is_at_most_s_separable", "factor_decode")),
            "verify.girth.calls": girth_calls,
            "verify.girth_s": secs("verify.split_graph_girth_check"),
            "construct.nodes": extra("construct.nodes"),
            "construct.search_s": secs("construct.max_code_search"),
            "construct.nodes_per_s": ratio(extra("construct.nodes"),
                                           secs("construct.max_code_search")),
            "construct.self_s": self.self_s["construct"] / passes,
            "construct.girth_prune_frac": ratio(extra("verify.girth.rejects"), girth_calls),
            "bounds.P_term.calls": calls("bounds.P_term"),
            "bounds.P_term_s": secs("bounds.P_term"),
            "bounds.entropy_output.calls": calls("bounds.entropy_output"),
            "bounds.entropy_evals_per_s": ratio(calls("bounds.entropy_output"),
                                                secs("bounds.entropy_output")),
            "bounds.minimize.starts": b_starts,
            "bounds.minimize.nit": extra("bounds.minimize.nit"),
            "bounds.minimize.success_frac": ratio(extra("bounds.minimize.success"), b_starts),
            "exponent.points": points,
            "exponent.s_per_point": ratio(e_secs, points),
            "exponent.minimize.starts": e_starts,
            "exponent.minimize.nit": extra("exponent.minimize.nit"),
            "exponent.minimize.success_frac": ratio(extra("exponent.minimize.success"), e_starts),
            "exponent.scipy_s": secs("exponent.minimize"),
            "exponent.converged_frac": ratio(extra("exponent.converged"),
                                             calls("exponent.exponent")),
            "exponent.self_s": self.self_s["exponent"] / passes,
        }

