"""Outside-in layer ledger for the traced benchmark runs.

The benchmark attributes time to the program's layers without changing
the program: it wraps each layer's public functions from here.  Every
wrapper keeps a call count, a total time and a self time (its duration
minus the time of wrapped callees on the same thread), plus the work
counters its layer defines (TILOS bumps, LP rows, simplex iterations,
cache bytes, ...).  Aggregates stay in memory, keyed by a *phase* the
benchmark sets (``rep1``, ``measure``, ...), and are written out once
when the process ends.  Nothing is recorded while no phase is set.

Wrappers are installed by a post-import hook, when the module that
defines a target finishes executing.  That has two consequences the
ledger relies on:

* installing the ledger imports nothing early, so lazy imports still
  happen where the program does them (``startup.lazy_import_s``);
* every later ``from module import name`` binds the wrapper, so call
  sites in other modules are covered without being named here.

A target that no longer exists (a refactor renamed or deleted it) is
skipped: its metrics then read 0, and the layer that absorbed the work
shows it as self time.

The time a wrapper spends on its own bookkeeping is charged to no
layer, so it surfaces as unattributed time, next to whatever program
code no wrapper covers (``ledger.unattributed_share``).
"""

from __future__ import annotations

import functools
import importlib.abc
import json
import sys
import threading
from time import perf_counter

#: Written to stderr by the process under test once set-up is done;
#: ``-X importtime`` lines before it are set-up imports, after it lazy.
SETUP_MARKER = "perfbench: setup complete"


class Ledger:
    """Per-phase layer aggregates shared by every wrapper in a process."""

    def __init__(self) -> None:
        self.phase: str | None = None
        self.phases: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _data(self) -> dict | None:
        phase = self.phase
        if phase is None:
            return None
        data = self.phases.get(phase)
        if data is None:
            data = self.phases[phase] = {
                "layers": {}, "roots": {}, "counters": {}, "samples": {},
            }
        return data

    def record(self, layer: str, total: float, self_time: float,
               parent_layer: str | None) -> None:
        """Fold one finished call into the current phase."""
        with self._lock:
            data = self._data()
            if data is None:
                return
            # [calls, total s, self s]; a layer calling itself is one
            # call, timed once.
            agg = data["layers"].setdefault(layer, [0, 0.0, 0.0])
            agg[2] += self_time
            if parent_layer != layer:
                agg[0] += 1
                agg[1] += total
            if parent_layer is None:
                data["roots"][layer] = data["roots"].get(layer, 0.0) + total

    def add(self, name: str, value: float) -> None:
        """Add to a work counter of the current phase."""
        with self._lock:
            data = self._data()
            if data is not None:
                data["counters"][name] = data["counters"].get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        """Append one per-operation sample (kept in call order)."""
        with self._lock:
            data = self._data()
            if data is not None:
                data["samples"].setdefault(name, []).append(value)

    def dump(self, path: str) -> None:
        with self._lock:
            text = json.dumps(self.phases)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def wrap(ledger: Ledger, fn, layer: str, count=None, before=None, sample=None):
    """``fn`` timed as ``layer``.

    ``count(ledger, args, kwargs, result, parent_layer, state)`` adds
    the call's work counters once it returned; ``state`` is what
    ``before(args, kwargs)`` read just before the call.
    ``sample(args, kwargs)`` names a per-operation list that receives
    the call's duration, even when the call raises.  None of this
    bookkeeping is timed as the layer's or its caller's.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        entered = perf_counter()
        stack = ledger.stack()
        parent = stack[-1] if stack else None
        state = before(args, kwargs) if before is not None else None
        frame = [layer, 0.0]
        stack.append(frame)
        returned = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            total = perf_counter() - start
            stack.pop()
            parent_layer = parent[0] if parent is not None else None
            ledger.record(layer, total, total - frame[1], parent_layer)
            if sample is not None:
                ledger.sample(sample(args, kwargs), total)
            if count is not None and returned:
                try:
                    count(ledger, args, kwargs, result, parent_layer, state)
                except Exception:  # noqa: BLE001 — the program outranks a counter
                    ledger.add("ledger.counter_errors", 1)
            if parent is not None:
                parent[1] += perf_counter() - entered

    return wrapper


# -- work counters: count(ledger, args, kwargs, result, parent, state) -----


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _tilos(ledger, args, kwargs, result, parent, state):
    ledger.add("tilos.bumps", int(result.iterations))


def _flow_solve(ledger, args, kwargs, result, parent, state):
    ledger.add(f"flow.solves.{result.backend}", 1)
    ledger.add("flow.lp_rows", len(_arg(args, kwargs, 0, "lp").constraints))


def _linprog(ledger, args, kwargs, result, parent, state):
    ledger.add("flow.simplex_iterations", int(result.nit))


def _wphase(ledger, args, kwargs, result, parent, state):
    ledger.add("wphase.sweeps", int(result.sweeps))


def _minflo(ledger, args, kwargs, result, parent, state):
    ledger.add("minflo.iterations", len(result.iterations))
    ledger.add("minflo.accepted", sum(1 for r in result.iterations if r.accepted))


def _json(ledger, args, kwargs, result, parent, state):
    ledger.add("serialize.json_bytes", len(result))


def _cache_get(ledger, args, kwargs, result, parent, state):
    if result is not None and parent != "cache.get":
        ledger.add("cache.hits", 1)


# The backends store ``json.dumps(entry)``: its length is the bytes moved.
def _entry_read(ledger, args, kwargs, result, parent, state):
    if result is not None:
        ledger.add("cache.bytes_read", len(json.dumps(result)))


def _entry_written(ledger, args, kwargs, result, parent, state):
    ledger.add("cache.bytes_written", len(json.dumps(_arg(args, kwargs, 2, "payload"))))


def _spans_written(ledger, args, kwargs, result, parent, state):
    sink, records = args[0], _arg(args, kwargs, 1, "records")
    if sink.path is not None and hasattr(records, "__len__"):
        ledger.add("obs.spans", sum(1 for record in records if record))


def _poll(ledger, args, kwargs, result, parent, state):
    if parent == "queue.wait":
        ledger.add("queue.polls", 1)


def _propagated_before(args, kwargs):
    return getattr(args[0], "total_repropagated", 0)


def _propagated(ledger, args, kwargs, result, parent, state):
    # The engine's own cumulative counter, read around outermost calls.
    if parent != "timing.incremental":
        ledger.add(
            "timing.repropagated_vertices",
            getattr(args[0], "total_repropagated", 0) - state,
        )


def _client(args, kwargs):
    return f"size_sync:{_arg(args, kwargs, 2, 'client')}"


#: ``(module, attribute path, layer, counter)`` of every wrapped
#: function.  Layers are the metric prefixes of ``BENCHMARK.json``.
TARGETS = (
    ("repro.runner.spec", "resolve_circuit", "circuit.resolve", None),
    ("repro.dag", "build_sizing_dag", "dag.build", None),
    ("repro.runner.cache", "netlist_digest", "runner.key", None),
    ("repro.runner.cache", "job_key", "runner.key", None),
    ("repro.runner.executor", "campaign_keys", "runner.key", None),
    ("repro.runner.executor", "pool_entry", "runner.job", None),
    ("repro.runner.executor", "run_campaign", "runner.overhead", None),
    ("repro.runner.progress", "RunLog.write_header", "runner.runlog", None),
    ("repro.runner.progress", "RunLog.record", "runner.runlog", None),
    ("repro.runner.cache", "ResultCache.get", "cache.get", _cache_get),
    ("repro.runner.cache", "ResultCache.put", "cache.put", None),
    ("repro.runner.backends", "DiskBackend.get", "cache.get", _entry_read),
    ("repro.runner.backends", "SqliteBackend.get", "cache.get", _entry_read),
    ("repro.runner.backends", "DiskBackend.put", "cache.put", _entry_written),
    ("repro.runner.backends", "SqliteBackend.put", "cache.put", _entry_written),
    ("repro.timing.sta", "GraphTimer.__init__", "timing.sta", None),
    ("repro.timing.sta", "GraphTimer.analyze", "timing.sta", None),
    ("repro.timing.sta", "GraphTimer.arrival_times", "timing.sta", None),
    ("repro.timing.sta", "GraphTimer.required_times", "timing.sta", None),
    ("repro.sizing.tilos", "tilos_size", "tilos", _tilos),
    ("repro.balancing.fsdu", "balance", "balance", None),
    ("repro.sizing.dphase", "d_phase", "dphase", None),
    ("repro.sizing.dphase", "area_sensitivities", "dphase.sensitivity", None),
    ("repro.sizing.dphase", "build_dphase_lp", "dphase.lp_build", None),
    ("repro.flow.duality", "solve_difference_lp", "flow.solve", _flow_solve),
    ("repro.flow.scipy_backend", "linprog", "flow.highs", _linprog),
    ("repro.sizing.wphase", "w_phase", "wphase", _wphase),
    ("repro.sizing.minflo", "minflotransit", "minflo", _minflo),
    ("repro.sizing.serialize", "result_to_dict", "serialize.result", None),
    ("repro.sizing.serialize", "canonical_json", "serialize.json", _json),
    ("repro.service.app", "SizingService._admit", "service.admit", None),
    ("repro.service.admission", "AdmissionController.admit", "service.admit",
     None),
    ("repro.service.jobs", "JobStore.create", "service.store", None),
    ("repro.service.jobs", "JobStore.finish", "service.store", None),
    ("repro.service.jobs", "JobStore.get", "service.store", None),
    ("repro.service.jobs", "JobStore.mark_running", "service.store", None),
    ("repro.service.jobs", "JobStore.depth", "service.store", None),
    ("repro.service.queue", "WorkQueue.create", "queue.create", None),
    ("repro.service.queue", "WorkQueue.lease", "queue.lease", None),
    ("repro.service.queue", "WorkQueue.finish", "queue.finish", None),
    ("repro.service.queue", "WorkQueue.wait", "queue.wait", None),
    ("repro.service.queue", "WorkQueue.get", "service.store", _poll),
    ("repro.service.queue", "WorkQueue.mark_running", "service.store", None),
    ("repro.service.queue", "WorkQueue.depth", "service.store", None),
    ("repro.service.server", "_Handler._dispatch", "http.handler", None),
    ("repro.obs.trace", "SpanSink.emit", "obs.sink", None),
    ("repro.obs.trace", "SpanSink.emit_many", "obs.sink", _spans_written),
)

#: IncrementalTimer's public surface (the engine TILOS and the W/D loop
#: time through).
INCREMENTAL_METHODS = (
    "__init__", "update_delays", "report", "required_times", "slack",
    "critical_path",
)


def _patches(ledger: Ledger) -> dict[str, list]:
    """Module name -> functions that install that module's wrappers."""
    patches: dict[str, list] = {}

    def add(module_name, path, make):
        *owners, attr = path.split(".")

        def patch(module):
            owner = module
            for name in owners:
                owner = getattr(owner, name, None)
            if hasattr(owner, attr):
                setattr(owner, attr, make(getattr(owner, attr)))

        patches.setdefault(module_name, []).append(patch)

    for module_name, path, layer, count in TARGETS:
        add(module_name, path,
            lambda fn, layer=layer, count=count: wrap(ledger, fn, layer, count))
    # Per-request server time, by client id, for ``http.residual_ms``.
    add("repro.service.app", "SizingService.size_sync",
        lambda fn: wrap(ledger, fn, "service.size", sample=_client))
    for method in INCREMENTAL_METHODS:
        add("repro.timing.incremental", f"IncrementalTimer.{method}",
            lambda fn: wrap(ledger, fn, "timing.incremental", _propagated,
                            before=_propagated_before))
    return patches


class _PostImportHook(importlib.abc.MetaPathFinder):
    """Runs callbacks right after a named module finishes executing."""

    def __init__(self, callbacks: dict[str, list]):
        self.callbacks = callbacks

    def find_spec(self, name, path, target=None):
        callbacks = self.callbacks.get(name)
        if not callbacks:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        exec_module = loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            for callback in callbacks:
                callback(module)

        loader.exec_module = exec_and_patch
        return spec


def install(extra: dict[str, list] | None = None) -> Ledger:
    """Create the process's ledger and arm every wrapper.

    ``extra`` maps module names to more ``callback(module)`` functions
    to run once those modules are loaded.  Call this before the program
    is imported: a module loaded earlier is patched at once, but names
    other modules already imported from it stay unwrapped.
    """
    ledger = Ledger()
    callbacks = _patches(ledger)
    for name, fns in (extra or {}).items():
        callbacks.setdefault(name, []).extend(fns)
    pending = {}
    for name, fns in callbacks.items():
        module = sys.modules.get(name)
        if module is None:
            pending[name] = fns
        else:
            for fn in fns:
                fn(module)
    sys.meta_path.insert(0, _PostImportHook(pending))
    return ledger


# -- reading a ledger back (in the benchmark's own process) ---------------


def layer_metrics(data: dict) -> dict[str, float]:
    """Per-layer metrics of one phase of a dumped ledger.

    Every ``*_s`` metric is a self time, so they add up to the time the
    wrappers attribute; counts of calls are outermost calls (a layer
    calling itself counts once).
    """
    layers = data.get("layers", {})
    counters = data.get("counters", {})

    def self_s(layer):
        return float(layers.get(layer, [0, 0.0, 0.0])[2])

    def calls(layer):
        return int(layers.get(layer, [0, 0.0, 0.0])[0])

    def count(name):
        return counters.get(name, 0)

    gets = calls("cache.get")
    iterations = count("minflo.iterations")
    metrics = {
        "circuit.resolve_s": self_s("circuit.resolve"),
        "circuit.resolves": calls("circuit.resolve"),
        "dag.build_s": self_s("dag.build"),
        "dag.builds": calls("dag.build"),
        "runner.key_s": self_s("runner.key"),
        "timing.sta_s": self_s("timing.sta"),
        "timing.sta_calls": calls("timing.sta"),
        "timing.incremental_s": self_s("timing.incremental"),
        "timing.incremental_calls": calls("timing.incremental"),
        "timing.repropagated_vertices": count("timing.repropagated_vertices"),
        "tilos.s": self_s("tilos"),
        "tilos.bumps": count("tilos.bumps"),
        "balance.s": self_s("balance"),
        "balance.calls": calls("balance"),
        "dphase.s": self_s("dphase"),
        "dphase.sensitivity_s": self_s("dphase.sensitivity"),
        "dphase.lp_build_s": self_s("dphase.lp_build"),
        "flow.solve_s": self_s("flow.solve"),
        "flow.highs_s": self_s("flow.highs"),
        "flow.solves": calls("flow.solve"),
        "flow.solves.scipy": count("flow.solves.scipy"),
        "flow.solves.ssp": count("flow.solves.ssp"),
        "flow.lp_rows": count("flow.lp_rows"),
        "flow.simplex_iterations": count("flow.simplex_iterations"),
        "wphase.s": self_s("wphase"),
        "wphase.sweeps": count("wphase.sweeps"),
        "minflo.s": self_s("minflo"),
        "minflo.iterations": iterations,
        "minflo.accept_ratio": (
            count("minflo.accepted") / iterations if iterations else 0.0
        ),
        "serialize.result_s": self_s("serialize.result"),
        "serialize.json_s": self_s("serialize.json"),
        "serialize.json_calls": calls("serialize.json"),
        "serialize.json_bytes": count("serialize.json_bytes"),
        "cache.get_s": self_s("cache.get"),
        "cache.gets": gets,
        "cache.hit_ratio": count("cache.hits") / gets if gets else 0.0,
        "cache.put_s": self_s("cache.put"),
        "cache.puts": calls("cache.put"),
        "cache.bytes_read": count("cache.bytes_read"),
        "cache.bytes_written": count("cache.bytes_written"),
        "runner.job_s": self_s("runner.job"),
        "runner.runlog_s": self_s("runner.runlog"),
        "runner.overhead_s": self_s("runner.overhead"),
        "service.size_s": self_s("service.size"),
        "service.admit_s": self_s("service.admit"),
        "service.store_s": self_s("service.store"),
        "service.store_ops": calls("service.store"),
        "queue.create_s": self_s("queue.create"),
        "queue.lease_s": self_s("queue.lease"),
        "queue.finish_s": self_s("queue.finish"),
        "queue.wait_s": self_s("queue.wait"),
        "queue.polls": count("queue.polls"),
        "http.handler_s": self_s("http.handler"),
        "http.requests": calls("http.handler"),
        "obs.spans": count("obs.spans"),
        "obs.sink_s": self_s("obs.sink"),
        "ledger.counter_errors": count("ledger.counter_errors"),
    }
    if metrics["flow.solves.scipy"] and not calls("flow.highs"):
        # The scipy backend solved without linprog: these two describe
        # linprog only, so they are absent rather than a misleading 0.
        del metrics["flow.highs_s"], metrics["flow.simplex_iterations"]
    return metrics


def attributed_seconds(data: dict, roots: tuple[str, ...] | None = None) -> float:
    """Time inside root wrappers (all roots, or only the named layers)."""
    return sum(
        total for layer, total in data.get("roots", {}).items()
        if roots is None or layer in roots
    )


def import_ledger(stderr_text: str, own_modules: frozenset) -> dict[str, float]:
    """Split ``-X importtime`` output at :data:`SETUP_MARKER`.

    Returns ``startup.import_s`` (every set-up import),
    ``startup.third_party_import_s`` (the set-up imports of packages
    outside the standard library and ``repro``) and
    ``startup.lazy_import_s`` (every import after set-up).  Self times
    are summed, so nested imports are not counted twice; the
    benchmark's own modules are left out.
    """
    setup = third_party = lazy = 0
    after_marker = False
    stdlib = sys.stdlib_module_names
    for line in stderr_text.splitlines():
        if line.strip() == SETUP_MARKER:
            after_marker = True
            continue
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        micros = int(fields[0])
        top = fields[2].strip().split(".")[0]
        if top in own_modules:
            continue
        if after_marker:
            lazy += micros
            continue
        setup += micros
        if top not in stdlib and top != "repro":
            third_party += micros
    return {
        "startup.import_s": setup / 1e6,
        "startup.third_party_import_s": third_party / 1e6,
        "startup.lazy_import_s": lazy / 1e6,
    }
