"""A long-lived, compile-once/run-many execution session.

Gokhale's premise is that all scheduling and parallelization work happens
at compile time and is amortized over many executions. A
:class:`~repro.core.pipeline.CompileResult` already amortizes within one
object — plan cache and kernel cache — but every ``run()`` still
created (and tore down) its execution engine, so the thread pool never
survived a request. A :class:`Session` owns all of it across requests:

* compiled modules, de-duplicated by source hash — loading the same source
  twice serves the same :class:`CompileResult` (and therefore the same
  warmed caches);
* the per-module plan cache and kernel cache, via the owned
  ``CompileResult``s;
* *persistent* execution engines
  (:class:`~repro.runtime.backends.ExecutionBackend`), one per plan label,
  worker count and options, each with its recycled buffers and — once a
  ``threaded`` plan runs on it — its thread pool, reused by every later run
  of any module; only per-run resources (idle recycled buffers) are
  released between requests;
* warmed native kernels: :meth:`warm` compiles every reachable kernel
  (including the cffi/C tier) and optionally primes plans and pools with a
  throwaway run, so the first real request compiles nothing;
* **tier-up**: a plan key's first run plans exactly as a one-shot
  ``compile_source`` would, charging the native build to that run. Its
  second run is evidence the plan is served, so it queues the key on the
  session's one builder thread, which replans it with the build sunk
  (``build_plan(served=True)``). An unchanged plan text settles the key;
  the changed plans of every tier-up pending at once compile as **one**
  translation unit at idle CPU priority, and the session swaps each key's
  plan between runs. Runs in flight finish on the old plan, no request
  waits on ``cc``, and a failed build keeps the old plan (no retry).

Thread safety: ``run()`` may be called concurrently from many threads (the
serve daemon does). Identical ``(module, sizes)`` plan lookups coalesce on
a per-key lock so the planner runs once; runs on one backend instance
proceed concurrently. Array arguments are *borrowed*: a run reads them in
place (copying only to convert dtype, byte order or layout) and never
writes them, so the same
array may feed concurrent runs — but the caller must not mutate it until
every run reading it has returned. A result's bytes are the caller's for as
long as the caller holds any view of them (the array, a slice, a
``memoryview``) and never alias an argument; big result arrays are views
(``owndata`` false, ``.base`` the store's owner) of buffers the session
reuses for a later run only after the last such view is gone.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.core.pipeline import CompilerOptions, CompileResult, compile_source, plan_sizes
from repro.errors import SessionError
from repro.plan.ir import ExecutionPlan
from repro.ps.semantics import AnalyzedModule
from repro.ps.types import ArrayType, RecordType
from repro.runtime.backends import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import native as native_mod
from repro.runtime.kernels.cache import plan_keys
from repro.runtime.values import array_bounds, dtype_for

#: a plan key's tier-up state once past its run count: waiting for (or in)
#: the builder, on the plan with the build sunk, kept on its first plan
#: because that replans to the same text, kept there after a failed build
QUEUED, SERVED, SETTLED, FAILED = "queued", "served", "settled", "failed"

#: seconds without a new tier-up before the builder takes the batch
TIER_UP_QUIET = 0.05

_log = logging.getLogger(__name__)


def fill_random_arrays(
    analyzed: AnalyzedModule,
    args: dict[str, Any],
    seed: int = 0,
) -> list[str]:
    """Fill missing array parameters of ``args`` in place with seeded
    random data shaped from the declared bounds (the scalar entries of
    ``args`` resolve symbolic bounds). Returns the filled names — shared
    by ``repro run``, ``repro client run``, and the daemon's ``fill``
    request field, so all three surfaces auto-fill identically."""
    rng = np.random.default_rng(seed)
    scalars = {
        k: int(v) for k, v in args.items() if isinstance(v, (int, np.integer))
    }
    filled: list[str] = []
    for pname in analyzed.param_names:
        if pname in args:
            continue
        sym = analyzed.symbol(pname)
        if isinstance(sym.type, ArrayType):
            bounds = array_bounds(sym.type, scalars)
            shape = tuple(hi - lo + 1 for lo, hi in bounds)
            args[pname] = rng.random(shape)
            filled.append(pname)
    return filled


def describe_module(analyzed: AnalyzedModule) -> dict[str, Any]:
    """A JSON-friendly signature of a module: what a client must send and
    what it gets back."""
    params = []
    for pname in analyzed.param_names:
        t = analyzed.symbol(pname).type
        if isinstance(t, ArrayType):
            params.append(
                {
                    "name": pname,
                    "kind": "array",
                    "rank": len(t.dims),
                    "dtype": np.dtype(dtype_for(t.element)).name,
                }
            )
        elif isinstance(t, RecordType):
            params.append({"name": pname, "kind": "record"})
        else:
            params.append({"name": pname, "kind": "scalar", "type": str(t)})
    return {
        "module": analyzed.name,
        "params": params,
        "results": list(analyzed.result_names),
    }


@dataclass
class SessionStats:
    """Counters a long-lived session exposes (`repro client stats`)."""

    modules: list[str]
    runs: int
    plans_built: int
    plan_requests: int
    backends: list[str]
    kernels: dict[str, dict[str, int]]
    #: argument bytes the runs read in place / had to copy on import, and
    #: target arrays they allocated without / with a zero-fill
    arg_bytes_borrowed: int = 0
    arg_bytes_converted: int = 0
    arrays_uninitialised: int = 0
    arrays_zeroed: int = 0
    #: bytes of big target arrays handed out on pages an earlier run had
    #: touched / on new pages, and idle bytes kept for the next run
    storage_bytes_recycled: int = 0
    storage_bytes_fresh: int = 0
    storage_bytes_held: int = 0
    #: calls of team kernels, and those of them run narrower than the plan
    #: said (a daemon's per-request cap, or a forked process)
    team_calls: int = 0
    team_capped: int = 0
    #: plan keys swapped to their plan with the native build sunk, keys
    #: whose build failed (they keep their first plan), and keys queued
    #: for (or in) the background builder
    tier_ups: int = 0
    tier_up_failures: int = 0
    builds_pending: int = 0
    #: the builder's translation units loaded, and how many of them
    #: started a compiler (the rest came from the on-disk cache)
    tier_up_builds: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


class Session:
    """See the module docstring. Typical use::

        with repro.Session() as session:
            session.load(source)                  # -> "Relaxation"
            session.warm("Relaxation", {"M": 64, "maxK": 8})
            out = session.run("Relaxation", {"M": 64, "maxK": 8, ...})
    """

    def __init__(
        self,
        execution: ExecutionOptions | None = None,
        compiler: CompilerOptions | None = None,
    ):
        self._execution = ExecutionOptions.resolve(execution)
        self._compiler = compiler or CompilerOptions()
        self._modules: dict[str, CompileResult] = {}
        self._by_hash: dict[str, CompileResult] = {}
        self._backends: dict[tuple, ExecutionBackend] = {}
        self._plan_locks: dict[tuple, threading.Lock] = {}
        self._lock = threading.Lock()
        self._load_lock = threading.Lock()
        self._closed = False
        self._runs = 0
        self._plans_built = 0
        self._plan_requests = 0
        #: plan key -> its run count, or its tier-up state once queued
        self._tiers: dict[tuple, int | str] = {}
        #: tier-ups the builder has not taken yet
        self._pending: list[tuple] = []
        self._wake = threading.Condition(self._lock)
        self._builder: threading.Thread | None = None
        self._tier_ups = 0
        self._tier_up_failures = 0
        self._tier_up_builds = {"tus": 0, "cc_calls": 0}

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the tier-up builder (a ``cc`` it has started runs to its
        end), tear down every persistent backend (worker pools exit) and
        drop the loaded modules.
        Idempotent; the session refuses further work afterwards."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
            builder = self._builder
            backends = list(self._backends.values())
            self._backends.clear()
            self._plan_locks.clear()
        if builder is not None:
            builder.join()
        for backend in backends:
            backend.close()
        self._modules.clear()
        self._by_hash.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    # -- loading -----------------------------------------------------------

    def load(self, source: str, name: str | None = None) -> str:
        """Compile ``source`` into this session and return the name it is
        served under (the module's own name unless ``name`` overrides it).

        Loading is de-duplicated by source hash: the same text compiles
        once, and re-loading it returns the existing entry with all its
        warmed state. Loading *different* source under an already-served
        name is a :class:`SessionError` — a serving session must never
        silently swap the program behind a name clients are calling."""
        self._check_open()
        digest = hashlib.sha256(
            (repr(self._compiler) + "\0" + source).encode()
        ).hexdigest()
        with self._load_lock:
            result = self._by_hash.get(digest)
            if result is None:
                result = compile_source(source, self._compiler)
                self._by_hash[digest] = result
            served = name or result.analyzed.name
            existing = self._modules.get(served)
            if existing is not None and existing is not result:
                raise SessionError(
                    f"module name {served!r} is already served by a "
                    f"different source; load it under an explicit name="
                )
            self._modules[served] = result
        return served

    def load_file(self, path: str, name: str | None = None) -> str:
        with open(path, encoding="utf-8") as fh:
            return self.load(fh.read(), name=name)

    def modules(self) -> list[str]:
        return sorted(self._modules)

    def describe(self, module: str) -> dict[str, Any]:
        return describe_module(self._result(module).analyzed)

    def result_for(self, module: str) -> CompileResult:
        """The owned :class:`CompileResult` behind a served name."""
        return self._result(module)

    def _result(self, module: str) -> CompileResult:
        try:
            return self._modules[module]
        except KeyError:
            known = ", ".join(sorted(self._modules)) or "none loaded"
            raise SessionError(
                f"unknown module {module!r} (loaded: {known})"
            ) from None

    # -- planning ----------------------------------------------------------

    def plan(
        self,
        module: str,
        sizes: dict[str, int] | None = None,
        *,
        options: ExecutionOptions | None = None,
        **overrides: Any,
    ) -> ExecutionPlan:
        """The execution plan ``(module, sizes, options)`` is served with
        now: its first plan, or its tiered-up one once swapped in.

        Identical concurrent lookups coalesce: the first caller builds the
        plan under a per-key lock while the rest wait and then hit the
        module's plan cache — N clients asking for the same warm plan cost
        one planner run, not N."""
        self._check_open()
        options = options or self.options(**overrides)
        okey = options.key()
        return self._plan(self._key(module, sizes, okey), options)

    def options(self, **overrides: Any) -> ExecutionOptions:
        """The session's execution options with ``overrides`` applied: what
        ``plan`` / ``run`` / ``warm`` resolve their keyword overrides to, or
        take ready-made as ``options=`` in their place — the daemon resolves
        once per request, which is also where it rejects an unknown name."""
        return ExecutionOptions.resolve(self._execution, **overrides)

    def _key(self, module: str, sizes: dict | None, okey: tuple) -> tuple:
        """The plan key: module, options key, integer sizes."""
        self._result(module)
        return (module, okey, plan_sizes(sizes or {}))

    def _plan(
        self, key: tuple, options: ExecutionOptions, served: bool | None = None
    ) -> ExecutionPlan:
        """The plan of ``key``: priced as its tier-up state says, or as
        ``served`` says when given (the builder's replan)."""
        module, okey, sizes = key
        result = self._result(module)
        if served is None:
            with self._lock:
                self._plan_requests += 1
                served = self._tiers.get(key) == SERVED
        plan = result._plan_cache.get((okey, sizes, served))
        if plan is not None:
            return plan
        with self._lock:
            lock = self._plan_locks.get((key, served))
            if lock is None:
                lock = self._plan_locks[key, served] = threading.Lock()
        with lock:
            before = len(result._plan_cache)
            plan = result.plan(
                dict(sizes), execution=options, options_key=okey, served=served
            )
            if len(result._plan_cache) != before:
                with self._lock:
                    self._plans_built += 1
            return plan

    # -- execution ---------------------------------------------------------

    def run(
        self,
        module: str,
        args: dict[str, Any],
        *,
        options: ExecutionOptions | None = None,
        **overrides: Any,
    ) -> dict[str, Any]:
        """Execute one request against the warm state: cached plan,
        compiled kernels, and a persistent backend. Array arguments are
        borrowed read-only for the duration of the run — read in place,
        copied only to convert dtype / byte order / layout — so they are
        never mutated here and
        must not be mutated by another thread meanwhile. A result's bytes
        are yours while you hold any view of them (the array, a slice, a
        ``memoryview``) and never alias an argument; a big result is itself
        a view (``owndata`` false, ``.base`` the store's owner) of a buffer
        that a later run reuses only after the last view of it is gone.
        A plan key's second run queues its tier-up (see the module
        docstring); this run and the ones until the swap keep the first
        plan."""
        self._check_open()
        result = self._result(module)
        options = options or self.options(**overrides)
        okey = options.key()
        key = (module, okey, plan_sizes(args))
        plan = self._plan(key, options, self._count_run(key, result, options))
        out = execute_module(
            result.analyzed,
            args,
            flowchart=result.flowchart,
            options=options,
            kernel_cache=result.kernel_cache,
            plan=plan,
            backend=self._backend(plan, okey),
        )
        with self._lock:
            self._runs += 1
        return out

    def _backend(self, plan: ExecutionPlan, okey: tuple) -> ExecutionBackend:
        """The persistent engine for ``plan`` under options ``okey``,
        shared by every module."""
        # keyed by label too: each engine's BufferStore trims to what its
        # own plans ran, and `auto` alternates labels between programs
        key = (plan.backend, plan.workers, okey)
        backend = self._backends.get(key)
        if backend is not None:
            return backend
        with self._lock:
            self._check_open()
            backend = self._backends.get(key)
            if backend is None:
                backend = ExecutionBackend(workers=plan.workers)
                self._backends[key] = backend
        return backend

    # -- tier-up -----------------------------------------------------------

    def _count_run(
        self, key: tuple, result: CompileResult, options: ExecutionOptions
    ) -> bool:
        """Count a run of ``key`` and its plan request; its second run
        queues the tier-up. A key whose runs call no native kernel has
        nothing to sink and settles. True when the run takes the plan
        with the build sunk."""
        with self._lock:
            self._plan_requests += 1
            state = self._tiers.get(key, 0)
            if not isinstance(state, int) or self._closed:
                return state == SERVED
            if state == 0:
                self._tiers[key] = 1
            elif not options.runs_kernels() or options.kernel_tier != "native":
                self._tiers[key] = SETTLED
            else:
                self._tiers[key] = QUEUED
                self._pending.append((key, result, options))
                if self._builder is None:
                    self._builder = threading.Thread(
                        target=self._build_loop, name="repro-tier-up",
                        daemon=True,
                    )
                    self._builder.start()
                self._wake.notify()
        return False

    def _build_loop(self) -> None:
        """The builder thread: one batch of tier-ups after another. A batch
        starts once no tier-up has been queued for ``TIER_UP_QUIET``
        seconds, so a client's pass over many programs lands in one unit."""
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wake.wait()
                queued = -1
                while queued != len(self._pending) and not self._closed:
                    queued = len(self._pending)
                    self._wake.wait(TIER_UP_QUIET)
                if self._closed:
                    return
            self._tier_up()

    def _tier_up(self) -> None:
        """Replan every pending key with the build sunk, taking keys that
        arrive meanwhile into the same batch; settle the unchanged ones,
        then build the changed plans' missing kernels as one unit at idle
        priority and swap them in."""
        changed: list[tuple] = []
        while True:
            with self._lock:
                batch, self._pending = self._pending, []
                if not batch or self._closed:
                    break
            for key, result, options in batch:
                try:
                    first = self._plan(key, options, served=False)
                    tiered = self._plan(key, options, served=True)
                    if tiered.pretty() == first.pretty():
                        self._settle(key, SETTLED)
                        continue
                    cache = result.kernel_cache
                    specs = cache.native_specs(
                        plan_keys(tiered, options.use_windows)
                    )
                except Exception:  # the key keeps its first plan
                    _log.warning("tier-up replan of %s failed", key, exc_info=True)
                    self._settle(key, FAILED)
                    continue
                changed.append((key, cache, specs))
        if not changed:
            return
        try:
            native_mod.build_kernels(
                [spec for _, _, specs in changed for spec in specs.values()],
                self._tier_up_builds,
                idle=True,
            )
            for _, cache, specs in changed:
                cache.adopt(specs)
        except Exception:  # a failed build keeps every old plan: no retry
            _log.warning(
                "tier-up build of %d plans failed; they keep their first plan",
                len(changed), exc_info=True,
            )
            for key, _, _ in changed:
                self._settle(key, FAILED)
            return
        for key, _, _ in changed:
            self._settle(key, SERVED)

    def _settle(self, key: tuple, state: str) -> None:
        with self._lock:
            if self._tiers.get(key) != QUEUED:
                return  # warm() took the key over meanwhile
            self._tiers[key] = state
            self._tier_ups += state == SERVED
            self._tier_up_failures += state == FAILED

    # -- warm-up -----------------------------------------------------------

    def warm(
        self,
        module: str | None = None,
        sizes: dict[str, int] | None = None,
        prime: bool = True,
        *,
        options: ExecutionOptions | None = None,
        **overrides: Any,
    ) -> dict[str, Any]:
        """Do all one-time work up front so the first request pays nothing:
        compile every reachable kernel (native C tier included), build and
        cache the plan for ``sizes`` — priced as served, with the native
        build sunk, its kernels built here and now, so the key never tiers
        up later — and, when ``prime`` is true and
        ``sizes`` are given, execute one throwaway run with every other
        parameter zero (scalars and arrays alike), which starts worker
        pools and exercises the exact request path. ``module=None`` warms
        every loaded module. Returns per-module kernel-cache statistics."""
        self._check_open()
        names = [module] if module is not None else self.modules()
        options = options or self.options(**overrides)
        okey = options.key()
        report: dict[str, Any] = {}
        for served in names:
            result = self._result(served)
            if options.runs_kernels():
                result.kernel_cache.warm(options.use_windows, tier=options.kernel_tier)
            if sizes:
                key = self._key(served, sizes, okey)
                with self._lock:
                    self._tiers[key] = SERVED
                plan = self._plan(key, options)
                if options.runs_kernels() and options.kernel_tier == "native":
                    result.kernel_cache.prepare(
                        plan_keys(plan, options.use_windows)
                    )
                if prime:
                    args: dict[str, Any] = dict(sizes)
                    analyzed = result.analyzed
                    missing = {
                        pname: analyzed.symbol(pname).type
                        for pname in analyzed.param_names
                        if pname not in args
                    }
                    # scalars first (a zero of the declared type): array
                    # bounds may use them
                    for pname, t in missing.items():
                        if not isinstance(t, (ArrayType, RecordType)):
                            args[pname] = dtype_for(t)(0).item()
                    scalars = {
                        k: int(v)
                        for k, v in args.items()
                        if isinstance(v, (int, np.integer))
                    }
                    for pname, t in missing.items():
                        if isinstance(t, ArrayType):
                            bounds = array_bounds(t, scalars)
                            shape = tuple(hi - lo + 1 for lo, hi in bounds)
                            args[pname] = np.zeros(
                                shape, dtype=dtype_for(t.element)
                            )
                    self.run(served, args, options=options)
            report[served] = result.kernel_cache.stats()
        return report

    # -- introspection -----------------------------------------------------

    def stats(self) -> SessionStats:
        with self._lock:
            backends = sorted({key[0] for key in self._backends})
            runs, built, requests = (
                self._runs, self._plans_built, self._plan_requests
            )
            storage: Counter = Counter()
            for backend in self._backends.values():
                storage.update(backend.counters)
                storage.update(
                    storage_bytes_recycled=backend.store.recycled,
                    storage_bytes_fresh=backend.store.fresh,
                    storage_bytes_held=backend.store.held(),
                )
            tiers = {
                "tier_ups": self._tier_ups,
                "tier_up_failures": self._tier_up_failures,
                "builds_pending": sum(
                    state == QUEUED for state in self._tiers.values()
                ),
                "tier_up_builds": dict(self._tier_up_builds),
            }
        return SessionStats(
            modules=self.modules(),
            runs=runs,
            plans_built=built,
            plan_requests=requests,
            backends=backends,
            kernels={
                name: result.kernel_cache.stats()
                for name, result in sorted(self._modules.items())
            },
            **storage,
            **tiers,
        )
