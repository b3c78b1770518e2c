"""Outside-in tracing of adlab's layers, from the benchmark's own files.

The tracer wraps every public function of each layer module and rebinds
the name in every loaded ``adlab`` module that holds it, because modules
import each other's functions by name (``from ..dissociation import
dim_bounds``).  ``uninstall`` puts every original back.

A span opens when a call crosses into a layer other than the innermost
open span's; a call within the same layer is part of the enclosing span.
A layer's self time is the time of its spans minus the time of the child
spans they contain.  Per-function counters count every call, nested or
not; inclusive time is taken on the outermost call of each function.

Deterministic counters, gathered for a few functions from their
arguments and results:

- ``dim_k_exact``: ``states`` (WorkMeter states the call spent),
  ``truncated`` (calls that returned inexact bounds or ran out of budget)
  and ``repeats`` (calls whose (set, k, budget) was already seen);
- ``d_k_exact``: ``states``;
- ``sumset``: ``out_elems``; ``rep_fn``: ``support``;
- ``dirichlet_min``: ``q_evals`` = (number of q scanned) x |A|, computed;
- ``evaluate_claim``: ``budget_skips``, calls that returned a
  budget-exhausted skip record.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

from adlab.budget import WorkMeter
from adlab.errors import BudgetExceededError

LAYERS = {
    "adlab.harness.claims": "harness",
    "adlab.harness.runner": "harness",
    "adlab.harness.generators": "harness",
    "adlab.dissociation": "dissociation",
    "adlab.groundset": "groundset",
    "adlab.energy": "energy",
    "adlab.growth": "growth",
    "adlab.modular": "modular",
    "adlab.decompose": "decompose",
}


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def _meter_states(budget) -> int:
    return budget.states if isinstance(budget, WorkMeter) else 0


def _budget_key(budget):
    """What decides a search's outcome: the remaining budget of a meter."""
    if isinstance(budget, WorkMeter):
        return ("meter", budget.limit - budget.states)
    return budget


class FunctionStats:
    __slots__ = ("calls", "active", "incl_s", "counts")

    def __init__(self):
        self.calls = 0
        self.active = 0
        self.incl_s = 0.0
        self.counts = defaultdict(int)


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.snapshot()`` after."""

    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        self.layer_self: dict[str, float] = defaultdict(float)
        self.pair_incl: dict[tuple, float] = defaultdict(float)
        self.pair_states: dict[tuple, int] = defaultdict(int)
        self._stack: list = []  # [layer, start, child_time]
        self._seen_dims: set = set()
        self._pair = None
        self._rebound: list = []  # (module, name, original)

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        wrappers = {}
        for modname, layer in LAYERS.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for name, fn in public_functions(module).items():
                key = f"{layer}.{name}"
                self.stats[key] = FunctionStats()
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, key))
        for modname, module in list(sys.modules.items()):
            if modname != "adlab" and not modname.startswith("adlab."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebound.append((module, name, obj))
                    setattr(module, name, hit[1])
        return self

    def uninstall(self) -> None:
        for module, name, original in reversed(self._rebound):
            setattr(module, name, original)
        self._rebound.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` just spent outside adlab out of the open span's self time."""
        if self._stack:
            self._stack[-1][2] += seconds

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str):
        stats = self.stats[key]
        counter = _COUNTERS.get(key)
        signature = inspect.signature(fn) if counter else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats.calls += 1
            opened = not stack or stack[-1][0] != layer
            bound = signature.bind(*args, **kwargs).arguments if counter else None
            state = counter.before(self, bound) if counter else None
            outer = stats.active == 0
            stats.active += 1
            start = clock()
            if opened:
                stack.append([layer, start, 0.0])
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stats.active -= 1
                if outer:
                    stats.incl_s += end - start
                if opened:
                    _, _, child = stack.pop()
                    self.layer_self[layer] += end - start - child
                    if stack:
                        stack[-1][2] += end - start
                if counter:
                    counter.after(self, stats, bound, state, result, exc, end - start)

        return traced

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-function and per-layer numbers of everything traced so far."""
        funcs = {
            key: {"calls": s.calls, "incl_s": s.incl_s, **s.counts}
            for key, s in self.stats.items()
        }
        return {"functions": funcs, "layer_self_s": dict(self.layer_self)}


class _Counter:
    """Gathers one function's counters: ``before`` returns the state ``after`` gets."""

    def before(self, tracer, bound):
        return None


class _SearchStates(_Counter):
    """WorkMeter states of dim_k_exact / d_k_exact, net of a shared meter."""

    def __init__(self, dims: bool):
        self.dims = dims

    def before(self, tracer, bound):
        budget = bound.get("budget")
        if self.dims:
            key = (bound["lam"], bound.get("k", 1), _budget_key(budget))
            if key in tracer._seen_dims:
                tracer.stats["dissociation.dim_k_exact"].counts["repeats"] += 1
            tracer._seen_dims.add(key)
        return _meter_states(budget)

    def after(self, tracer, stats, bound, before, result, exc, elapsed):
        if isinstance(exc, BudgetExceededError):
            spent, truncated = (exc.states or 0) - before, True
        elif exc is None:
            spent, truncated = result.states - before, not result.exact
        else:
            return
        stats.counts["states"] += spent
        if self.dims:
            stats.counts["truncated"] += truncated
            if tracer._pair is not None:
                tracer.pair_states[tracer._pair] += spent


class _Size(_Counter):
    def __init__(self, name: str, size):
        self.name = name
        self.size = size

    def after(self, tracer, stats, bound, state, result, exc, elapsed):
        if exc is None:
            stats.counts[self.name] += self.size(result)


class _QEvals(_Counter):
    def after(self, tracer, stats, bound, state, result, exc, elapsed):
        if exc is None:
            q_range = bound.get("q_range")
            scanned = len(q_range) if q_range is not None else result.modulus - 1
            stats.counts["q_evals"] += scanned * len(bound["a"])


class _Claims(_Counter):
    """Budget skips, plus the (claim, instance) pair for the slowest-pairs table."""

    def before(self, tracer, bound):
        inst = bound.get("instance")
        label = inst.get("label", "?") if isinstance(inst, dict) else str(inst)
        outer, tracer._pair = tracer._pair, (bound["claim_id"], label)
        return outer

    def after(self, tracer, stats, bound, outer, result, exc, elapsed):
        pair, tracer._pair = tracer._pair, outer
        tracer.pair_incl[pair] += elapsed
        if exc is None and any(r.note.startswith("skipped: budget") for r in result):
            stats.counts["budget_skips"] += 1


_COUNTERS = {
    "dissociation.dim_k_exact": _SearchStates(dims=True),
    "dissociation.d_k_exact": _SearchStates(dims=False),
    "groundset.sumset": _Size("out_elems", len),
    "groundset.rep_fn": _Size("support", lambda r: len(r.entries)),
    "modular.dirichlet_min": _QEvals(),
    "harness.evaluate_claim": _Claims(),
}
