"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of the steerkit modules
(and ``Scenario.from_dict``) with a wrapper, in every steerkit namespace
that holds a reference to it, so calls across modules and within a module
are both seen.  A layer is the module that defines the function.

Each wrapped call is a frame on a per-thread stack.  On exit its duration
minus the time of its wrapped children is its self time, charged to
``(layer, bucket)``; the bucket names the operation a dynamics or steering
frame serves (``oracle_reduced``, ``oracle_full``, ``mc``, ``kernels``,
``region``, ``threshold``, ``product``) and is inherited by children that
have none of their own.  Calls of the scalar ``closedform`` functions, which
run tens of thousands of times per scenario, only update counters (the
four scalar factors they share are not wrapped at all); every other call
also records a span ``(id, name, thread, start, end, parent)``.
Spans stay in memory until ``write_spans``.

Work that ``cli`` fans out to a thread pool runs while the calling thread
waits inside ``cli.run``.  ``wall_attribution`` moves that waiting time to
the layers the pool threads were busy in, splitting overlapping intervals
evenly, so that the attributed times of all layers add up to the time
spent inside wrapped calls on the main thread.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
import types

LAYERS = ("model", "closedform", "steering", "dynamics", "cli", "svgplot")
WITNESSES = ("collective_steering_value", "single_steering_value")
# Scalar factors only closedform itself calls: wrapping them would move no
# time between layers and would double the cost of tracing a witness.
UNWRAPPED = {"closedform": {"gain_filter_ratio", "decay_filter_ratio",
                            "amplified_noise_factor", "coherence_factor"}}

_BUCKETS = {
    "steering_region": "region",
    "noise_threshold": "threshold",
    "r_crossing": "threshold",
    "steering_product": "product",
    "monte_carlo_output_covariance": "mc",
    "output_kernels": "kernels",
    "input_kernels": "kernels",
    "collective_output_kernels": "kernels",
}


class _ThreadState:
    def __init__(self, main: bool):
        self.main = main
        # frames: [start, child_time, bucket, root_snapshot, span_id]
        self.stack: list[list] = []
        self.self_s: dict[tuple[str, str | None], float] = {}
        self.calls: dict[str, int] = {}
        self.roots: list[tuple[float, float, dict]] = []


class Tracer:
    """Installs wrappers into steerkit and aggregates what they record."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main_ident = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self.oracle_calls: list[tuple[str, float, float, float]] = []
        self.mc_calls: list[tuple[int, int, float]] = []
        self._derived = None

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(threading.get_ident() == self._main_ident)
            with self._lock:
                self._states.append(st)
            self._local.state = st
            return st

    # -- wrappers ----------------------------------------------------------

    def _enter(self, st: _ThreadState, bucket: str | None) -> list:
        stack = st.stack
        if bucket is None and stack:
            bucket = stack[-1][2]
        root = None
        if not stack and not st.main:
            root = dict(st.self_s)
        frame = [time.perf_counter(), 0.0, bucket, root, -1]
        stack.append(frame)
        return frame

    def _exit(self, st: _ThreadState, frame: list, layer: str) -> float:
        end = time.perf_counter()
        dur = end - frame[0]
        stack = st.stack
        stack.pop()
        key = (layer, frame[2] if layer in ("dynamics", "steering") else None)
        st.self_s[key] = st.self_s.get(key, 0.0) + dur - frame[1]
        if stack:
            stack[-1][1] += dur
        elif frame[3] is not None:
            before = frame[3]
            st.roots.append((frame[0], end, {
                k: v - before.get(k, 0.0) for k, v in st.self_s.items()
                if v != before.get(k, 0.0)}))
        return end

    def _counter(self, fn, layer: str, qualname: str):
        tracer = self
        local = self._local
        perf = time.perf_counter
        key = (layer, None)
        witness = fn.__name__ in WITNESSES

        def counted(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = tracer._state()
            stack = st.stack
            calls = st.calls
            if witness:
                r = args[0] if args else kwargs["r"]
                # a numpy array argument counts one evaluation per element
                size = 1 if type(r) is float else getattr(r, "size", 1)
                calls["<witness_evals>"] = calls.get("<witness_evals>", 0) \
                    + size
            calls[qualname] = calls.get(qualname, 0) + 1
            if not stack and not st.main:
                # a pool thread's root frame needs the full bookkeeping
                frame = tracer._enter(st, None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(st, frame, layer)
            frame = [perf(), 0.0, stack[-1][2] if stack else None, None, -1]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - frame[0]
                stack.pop()
                self_s = st.self_s
                self_s[key] = self_s.get(key, 0.0) + dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return counted

    def _spanned(self, fn, layer: str, qualname: str):
        tracer = self
        bucket = _BUCKETS.get(fn.__name__)
        observe = {"output_covariance": self._observe_oracle,
                   "monte_carlo_output_covariance": self._observe_mc,
                   }.get(fn.__name__)

        def spanned(*args, **kwargs):
            st = tracer._state()
            b = bucket
            if fn.__name__ == "output_covariance":
                b = "oracle_" + kwargs.get("engine", "reduced")
            frame = tracer._enter(st, b)
            frame[4] = span_id = next(tracer._ids)
            parent = st.stack[-2][4] if len(st.stack) > 1 else -1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer._exit(st, frame, layer)
                st.calls[qualname] = st.calls.get(qualname, 0) + 1
                tracer.spans.append((span_id, qualname,
                                     threading.get_ident(), frame[0], end,
                                     parent))
            if observe is not None:
                observe(args, kwargs, end - frame[0])
            return result

        return spanned

    def _observe_oracle(self, args, kwargs, dur: float) -> None:
        rp = args[0]
        dq = self._derived(rp)
        kappa_over_g = math.sqrt(rp.kappa / (2.0 * dq.G1)) \
            if dq.G1 > 0 else math.nan
        self.oracle_calls.append((kwargs.get("engine", "reduced"), dq.r,
                                  kappa_over_g, dur))

    def _observe_mc(self, args, kwargs, dur: float) -> None:
        model, kernels, _, trajectories = args[:4]
        n_state = 2 * model.dimension + 2 * len(kernels)
        steps = kwargs.get("n_steps", 256)
        self.mc_calls.append((trajectories, steps * n_state * trajectories,
                              dur))

    # -- install / uninstall -------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every steerkit module."""
        import importlib

        modules = [importlib.import_module(f"{package.__name__}.{name}")
                   for name in LAYERS]
        self._derived = modules[0].derived_quantities
        namespaces = modules + [package]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__
                        or name in UNWRAPPED.get(layer, ())):
                    continue
                qualname = f"{layer}.{name}"
                make = self._counter if layer == "closedform" else self._spanned
                wrapper = make(fn, layer, qualname)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
        scenario = modules[LAYERS.index("cli")].Scenario
        original = scenario.__dict__["from_dict"]
        self._patches.append((scenario, "from_dict", original))
        scenario.from_dict = classmethod(
            self._spanned(original.__func__, "cli", "cli.Scenario.from_dict"))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for st in self._states:
            for k, v in st.calls.items():
                out[k] = out.get(k, 0) + v
        return out

    def wall_attribution(self) -> tuple[dict, float]:
        """Self time per (layer, bucket) on the wall clock, and its total.

        Main-thread self times are kept, except that the time pool threads
        were busy is taken from ``cli`` (where the main thread waited) and
        given to the pool threads' layers, split evenly where they overlap.
        """
        out: dict = {}
        for st in self._states:
            if st.main:
                for k, v in st.self_s.items():
                    out[k] = out.get(k, 0.0) + v
        total = sum(out.values())
        roots = [root for st in self._states if not st.main
                 for root in st.roots]
        events = sorted([(s, 1, i) for i, (s, _, _) in enumerate(roots)]
                        + [(e, -1, i) for i, (_, e, _) in enumerate(roots)])
        share = [0.0] * len(roots)
        active: set[int] = set()
        covered = 0.0
        last = None
        for t, kind, i in events:
            if active and last is not None:
                for j in active:
                    share[j] += (t - last) / len(active)
                covered += t - last
            last = t
            if kind > 0:
                active.add(i)
            else:
                active.discard(i)
        for (start, end, breakdown), wall in zip(roots, share):
            dur = end - start
            if dur <= 0.0:
                continue
            for k, v in breakdown.items():
                out[k] = out.get(k, 0.0) + wall * v / dur
        if roots:
            out[("cli", None)] = out.get(("cli", None), 0.0) - covered
        return out, total

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "thread", "start", "end",
                                  "parent"],
                       "spans": self.spans}, fh)
