"""A long-lived, compile-once/run-many execution session.

Gokhale's premise is that all scheduling and parallelization work happens
at compile time and is amortized over many executions. A
:class:`~repro.core.pipeline.CompileResult` already amortizes within one
object — plan cache, kernel cache, calibration — but every ``run()`` still
instantiated (and tore down) its execution backend, so worker pools never
survived a request. A :class:`Session` owns all of it across requests:

* compiled modules, de-duplicated by source hash — loading the same source
  twice serves the same :class:`CompileResult` (and therefore the same
  warmed caches);
* the per-module plan cache / kernel cache / calibration trio, via the
  owned ``CompileResult``s;
* *persistent* execution backends: thread pools and forked process pools
  (over shared memory) are created once per ``(module, backend, workers,
  options)`` and reused by every subsequent run — only per-run resources
  (a run's shared-memory segments) are released between requests;
* warmed native kernels: :meth:`warm` compiles every reachable kernel
  (including the cffi/C tier) and optionally primes plans and pools with a
  throwaway run, so the first real request compiles nothing.

Thread safety: ``run()`` may be called concurrently from many threads (the
serve daemon does). Identical ``(module, sizes)`` plan lookups coalesce on
a per-key lock so the planner runs once; runs on a pooled process backend
serialise on the backend instance (its task/result queues multiplex one
run at a time — see ``ExecutionBackend.serialize_runs``), while in-process
backends run concurrently. Array arguments are *borrowed*: a run reads
them in place (copying only to convert dtype, byte order or layout, or into
shared memory on the process backends) and never writes them, so the same
array may feed concurrent runs — but the caller must not mutate it until
every run reading it has returned. A result's bytes are the caller's for as
long as the caller holds any view of them (the array, a slice, a
``memoryview``) and never alias an argument; big result arrays are views
(``owndata`` false, ``.base`` the store's owner) of buffers the session
reuses for a later run only after the last such view is gone.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from repro.core.pipeline import CompilerOptions, CompileResult, compile_source
from repro.errors import SessionError
from repro.plan.ir import ExecutionPlan
from repro.ps.semantics import AnalyzedModule
from repro.ps.types import ArrayType, RecordType
from repro.runtime.backends import BACKENDS, instantiate_backend
from repro.runtime.backends.base import STORAGE_COUNTERS
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.values import array_bounds, dtype_for


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
class _BackendSlot:
    """A persistent backend plus the lock that serialises runs on it when
    the backend cannot multiplex concurrent runs (process pools)."""

    backend: Any
    lock: threading.Lock | None = None


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
        self._backends: dict[tuple, _BackendSlot] = {}
        self._plan_locks: dict[tuple, threading.Lock] = {}
        self._lock = threading.Lock()
        self._load_lock = threading.Lock()
        self._closed = False
        self._runs = 0
        self._plans_built = 0
        self._plan_requests = 0
        #: the storage counters of backends already retired
        self._retired = dict.fromkeys(STORAGE_COUNTERS, 0)

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear down every persistent backend (worker pools exit, every
        shared-memory segment is unlinked) and drop the loaded modules.
        Idempotent; the session refuses further work afterwards."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            slots = list(self._backends.values())
            self._backends.clear()
            self._plan_locks.clear()
        for slot in slots:
            slot.backend.close()
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
        """The cached execution plan for ``(module, sizes, options)``.

        Identical concurrent lookups coalesce: the first caller builds the
        plan under a per-key lock while the rest wait and then hit the
        module's plan cache — N clients asking for the same warm plan cost
        one planner run, not N."""
        self._check_open()
        options = options or self.options(**overrides)
        return self._plan(module, sizes, options, options.key())

    def options(self, **overrides: Any) -> ExecutionOptions:
        """The session's execution options with ``overrides`` applied: what
        ``plan`` / ``run`` / ``warm`` resolve their keyword overrides to, or
        take ready-made as ``options=`` in their place — the daemon resolves
        once per request, which is also where it rejects an unknown name."""
        return ExecutionOptions.resolve(self._execution, **overrides)

    def _plan(
        self, module: str, sizes: dict | None, options: ExecutionOptions, okey: tuple
    ) -> ExecutionPlan:
        result = self._result(module)
        sizes = {
            k: int(v)
            for k, v in (sizes or {}).items()
            if isinstance(v, (int, np.integer))
        }
        key = (module, okey, tuple(sorted(sizes.items())))
        with self._lock:
            self._plan_requests += 1
            lock = self._plan_locks.get(key)
            if lock is None:
                lock = self._plan_locks[key] = threading.Lock()
        with lock:
            before = len(result._plan_cache)
            plan = result.plan(sizes, execution=options, options_key=okey)
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
        copied only to convert dtype / byte order / layout or into shared
        memory on the process backends — so they are never mutated here and
        must not be mutated by another thread meanwhile. A result's bytes
        are yours while you hold any view of them (the array, a slice, a
        ``memoryview``) and never alias an argument; a big result is itself
        a view (``owndata`` false, ``.base`` the store's owner) of a buffer
        that a later run reuses only after the last view of it is gone."""
        self._check_open()
        result = self._result(module)
        options = options or self.options(**overrides)
        okey = options.key()
        plan = self._plan(module, args, options, okey)
        slot = self._backend_slot(module, plan, okey)
        ctx = slot.lock if slot.lock is not None else contextlib.nullcontext()
        try:
            with ctx:
                out = execute_module(
                    result.analyzed,
                    args,
                    flowchart=result.flowchart,
                    options=options,
                    kernel_cache=result.kernel_cache,
                    plan=plan,
                    backend=slot.backend,
                )
        except BaseException:
            if slot.lock is not None:
                # A failed run can leave a pooled backend's queues in an
                # undefined state (a worker may have died mid-wavefront);
                # retire the pool so the next request forks a fresh one.
                self._retire_backend(slot)
            raise
        with self._lock:
            self._runs += 1
        return out

    def _backend_slot(
        self, module: str, plan: ExecutionPlan, okey: tuple
    ) -> _BackendSlot:
        cls = BACKENDS[plan.backend]
        # Pooled backends are scoped per module: forked workers hold the
        # fork-time flowchart, so their pool must only ever see that
        # module's descriptors. In-process backends are module-agnostic.
        scope = module if cls.serialize_runs else None
        key = (scope, plan.backend, plan.workers, okey)
        with self._lock:
            self._check_open()
            slot = self._backends.get(key)
            if slot is None:
                slot = _BackendSlot(
                    instantiate_backend(plan.backend, workers=plan.workers),
                    threading.Lock() if cls.serialize_runs else None,
                )
                self._backends[key] = slot
        return slot

    def _retire_backend(self, slot: _BackendSlot) -> None:
        with self._lock:
            for key, existing in list(self._backends.items()):
                if existing is slot:
                    del self._backends[key]
                    for counter, n in slot.backend.counters.items():
                        self._retired[counter] += n
        try:
            slot.backend.close()
        except Exception:
            pass  # teardown of an already-broken pool is best effort

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
        cache the plan for ``sizes``, and — when ``prime`` is true and
        ``sizes`` are given — execute one throwaway run with every other
        parameter zero (scalars and arrays alike), which forks worker
        pools and exercises the exact request path. ``module=None`` warms
        every loaded module. Returns per-module kernel-cache statistics."""
        self._check_open()
        names = [module] if module is not None else self.modules()
        options = options or self.options(**overrides)
        report: dict[str, Any] = {}
        for served in names:
            result = self._result(served)
            tier = getattr(options, "kernel_tier", "native")
            if options.use_kernels and tier != "evaluator":
                result.kernel_cache.warm(options.use_windows, tier=tier)
            if sizes:
                self.plan(served, dict(sizes), options=options)
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
            backends = sorted(
                {slot.backend.name for slot in self._backends.values()}
            )
            runs, built, requests = (
                self._runs, self._plans_built, self._plan_requests
            )
            storage = Counter(self._retired)
            for slot in self._backends.values():
                storage.update(slot.backend.counters)
                store = slot.backend.store
                if store is not None:
                    storage.update(
                        storage_bytes_recycled=store.recycled,
                        storage_bytes_fresh=store.fresh,
                        storage_bytes_held=store.held(),
                    )
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
        )
