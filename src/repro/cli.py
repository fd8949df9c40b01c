"""Command-line interface: ``python -m repro <command> module.ps``.

Commands
--------
schedule   print the flowchart (Figure-6 style) and window analysis
graph      print the dependency graph (text or Graphviz dot)
compile    list the C or Python kernels that run, or the flowchart
transform  run the section-4 hyperplane derivation and print the report
plan       print the cost-driven execution plan (backend, chunking, and
           kernel choice per loop nest)
run        execute a module (scalars via --set, array inputs random or
           loaded from .npy via --load)
serve      compile modules once, warm plans/kernels/worker pools, and
           serve run requests over TCP or a unix socket
client     talk to a running serve daemon (run/plan/describe/stats/...)
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections.abc import Sequence

import numpy as np

from repro.core.pipeline import CompilerOptions, compile_source
from repro.errors import ReproError
from repro.graph.build import build_dependency_graph
from repro.graph.dot import to_dot, to_text
from repro.hyperplane.pipeline import hyperplane_transform
from repro.plan.ir import KNOWN_BACKENDS, VALID_STRATEGIES
from repro.ps.parser import parse_module
from repro.ps.printer import format_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import KERNEL_TIERS, ExecutionOptions, execute_module
from repro.schedule.merge import merge_loops
from repro.schedule.scheduler import schedule_module


def _read_module(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_module(fh.read())


def _flowchart(analyzed, merge: bool):
    if not merge:
        return schedule_module(analyzed)
    graph = build_dependency_graph(analyzed)
    return merge_loops(schedule_module(analyzed, graph), graph)


def _cmd_schedule(args) -> int:
    analyzed = analyze_module(_read_module(args.module))
    flow = schedule_module(analyzed)
    print(flow.pretty())
    if flow.windows:
        print()
        print("virtual dimensions (windows):")
        for name, dims in sorted(flow.windows.items()):
            for d, w in sorted(dims.items()):
                print(f"  {name} dimension {d}: window of {w}")
    return 0


def _cmd_graph(args) -> int:
    analyzed = analyze_module(_read_module(args.module))
    graph = build_dependency_graph(analyzed)
    print(to_dot(graph) if args.dot else to_text(graph))
    return 0


def _cmd_compile(args) -> int:
    with open(args.module, encoding="utf-8") as fh:
        source = fh.read()
    options = CompilerOptions(
        merge_loops=args.merge,
        hyperplane=args.hyperplane,
        use_windows=not args.no_windows,
    )
    result = compile_source(source, options)
    text = {
        "c": lambda: result.c_source,
        "python": lambda: result.python_source,
        "flowchart": result.flowchart.pretty,
    }[args.emit]()
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(text)
    return 0


def _cmd_transform(args) -> int:
    analyzed = analyze_module(_read_module(args.module))
    res = hyperplane_transform(analyzed, array=args.array)
    print(f"recursive array     : {res.array}")
    print(f"dependence vectors  : {res.dependences.vectors}")
    print(f"inequalities        : {'; '.join(res.inequalities)}")
    print(f"time vector         : {res.pi}")
    print(f"time equation       : {res.time_equation}")
    print(f"transformation T    : {res.T}")
    print(f"inverse             : {res.Tinv}")
    print(f"recurrence window   : {res.recurrence_window}")
    print()
    print("schedule before:")
    print(res.original_flowchart.pretty())
    print()
    print("schedule after:")
    print(res.transformed_flowchart.pretty())
    if args.emit_module:
        print()
        print(format_module(res.transformed_module))
    return 0


def _execution_options(args) -> ExecutionOptions:
    """Execution options from the shared CLI flags, through the one
    documented resolution path (``ExecutionOptions.resolve``) that the
    library, the serve daemon, and these commands all use."""
    return ExecutionOptions.resolve(
        None,
        backend=args.backend,
        workers=args.workers,
        use_windows=args.windows,
        use_kernels=not args.no_kernels,
        kernel_tier=args.kernel_tier,
        strategy=getattr(args, "strategy", None),
    )


def _cmd_plan(args) -> int:
    from repro.plan.planner import build_plan

    analyzed = analyze_module(_read_module(args.module))
    flow = _flowchart(analyzed, getattr(args, "merge", False))
    options = _execution_options(args)
    scalars = _parse_assignments(args.set or [], _local_scalar_types(analyzed))
    plan = build_plan(analyzed, flow, options, scalars)
    text = plan.pretty(cycles=args.cycles)
    print(text)
    print()
    print(plan.explain())
    if args.save:
        from repro.runtime.kernels import KernelCache, native
        from repro.runtime.kernels.cache import plan_keys

        specs = list(KernelCache(analyzed, flow).native_specs(
            plan_keys(plan, plan.use_windows)
        ).values())
        out = native.persist_plan(analyzed.name, text, specs)
        print(
            f"saved plan + its translation unit "
            f"({len({s.fn_name for s in specs})} C function(s)) to {out}",
            file=sys.stderr,
        )
    return 0


def _local_scalar_types(analyzed) -> dict[str, str]:
    from repro.serve.session import describe_module  # lazy: pulls asyncio

    return _scalar_types(describe_module(analyzed))


def _scalar_types(signature: dict) -> dict[str, str]:
    """Parameter name -> declared type name (``"array"`` / ``"record"`` for
    the non-scalars), from a ``describe`` signature — the local commands
    build it with :func:`describe_module`, the client ones ask the daemon,
    so ``--set`` parses identically on both sides."""
    return {
        p["name"]: p.get("type", p["kind"]) for p in signature["params"]
    }


_BOOLS = {"true": True, "1": True, "false": False, "0": False}


def _parse_assignments(
    pairs: Sequence[str], types: dict[str, str] | None = None
) -> dict[str, int | float | bool]:
    """``NAME=VALUE`` pairs parsed by the parameter's declared PS type
    (``real`` -> float, ``bool`` -> true/false, everything else — ``int``,
    subranges, enumeration ordinals, names that are not parameters — int)."""
    types = types or {}
    out: dict[str, int | float | bool] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"--set expects NAME=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        declared = types.get(name, "int")
        if declared in ("array", "record"):
            raise ReproError(
                f"--set {name}: parameter {name!r} is {declared}-valued; "
                f"pass arrays with --load {name}=FILE.npy"
            )
        try:
            if declared == "real":
                out[name] = float(value)
            elif declared == "bool":
                out[name] = _BOOLS[value.lower()]
            else:
                out[name] = int(value)
        except (ValueError, KeyError):
            raise ReproError(
                f"--set {name}: {value!r} is not a valid {declared} "
                f"(parameter {name!r} is declared {declared})"
            ) from None
    return out


def _cmd_run(args) -> int:
    analyzed = analyze_module(_read_module(args.module))
    run_args: dict = dict(
        _parse_assignments(args.set or [], _local_scalar_types(analyzed))
    )
    for pair in args.load or []:
        name, _, path = pair.partition("=")
        run_args[name] = np.load(path)
    # Fill remaining array parameters with seeded random data — the same
    # helper the serve daemon uses for "fill": true requests.
    from repro.serve.session import fill_random_arrays

    for pname in fill_random_arrays(analyzed, run_args, seed=args.seed):
        shape = run_args[pname].shape
        print(f"note: filled {pname} with random{shape} (seed {args.seed})",
              file=sys.stderr)
    options = _execution_options(args)
    flow = (
        _flowchart(analyzed, True) if getattr(args, "merge", False) else None
    )
    results = execute_module(
        analyzed, run_args, flowchart=flow, options=options
    )
    _print_results(results)
    return 0


def _print_results(results: dict) -> None:
    """Each result as NumPy prints it (summarised, 6 decimals), then one
    ``sha256=<hex>`` line over its dtype, shape and raw bytes — what a
    ``cmp`` of two outputs compares for every element."""
    with np.printoptions(precision=6, suppress=True):
        for name, value in results.items():
            print(f"{name} =")
            print(value)
            array = np.asarray(value)
            digest = hashlib.sha256(f"{array.dtype.str} {array.shape}\n".encode())
            digest.update(
                repr(value).encode() if array.dtype.hasobject else array.tobytes()
            )
            print(f"sha256={digest.hexdigest()}")


def _cmd_serve(args) -> int:
    from repro.serve import DaemonThread, Session

    session = Session(
        execution=_execution_options(args),
        compiler=CompilerOptions(
            merge_loops=args.merge, hyperplane=args.hyperplane
        ),
    )
    for path in args.modules:
        name = session.load_file(path)
        print(f"loaded {name} from {path}", file=sys.stderr)
    warm_sizes = _parse_assignments(args.warm or [])
    session.warm(sizes=warm_sizes or None)
    runner = DaemonThread(
        session,
        host=args.host,
        port=args.port or 0,
        unix_path=args.socket,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
    )
    daemon = runner.start()
    if isinstance(daemon.address, tuple):
        print(f"serving on {daemon.address[0]}:{daemon.address[1]}", flush=True)
    else:
        print(f"serving on {daemon.address}", flush=True)
    try:
        runner.join()
    except KeyboardInterrupt:
        runner.stop()
    return 0


def _client(args):
    from repro.serve import ReproClient

    return ReproClient(host=args.host, port=args.port, unix_path=args.socket)


def _client_overrides(args) -> dict:
    overrides = {"backend": args.backend, "workers": args.workers}
    return {k: v for k, v in overrides.items() if v is not None}


def _cmd_client_run(args) -> int:
    with _client(args) as client:
        run_args: dict = dict(_parse_assignments(
            args.set or [], _scalar_types(client.describe(args.run_module))
        ))
        for pair in args.load or []:
            name, _, path = pair.partition("=")
            run_args[name] = np.load(path)
        results = client.run(
            args.run_module,
            run_args,
            fill=True,
            seed=args.seed,
            **_client_overrides(args),
        )
    _print_results(results)
    return 0


def _cmd_client_plan(args) -> int:
    with _client(args) as client:
        sizes = _parse_assignments(
            args.set or [], _scalar_types(client.describe(args.run_module))
        )
        plan = client.plan(args.run_module, sizes, **_client_overrides(args))
    print(f"backend: {plan['backend']}  workers: {plan['workers']}  "
          f"cycles: {plan['cycles']:.0f}")
    for index, strategy in plan["strategies"]:
        print(f"  loop {index}: {strategy}")
    print(plan["explain"])
    return 0


def _cmd_client_simple(args) -> int:
    import json

    op = args.client_command
    with _client(args) as client:
        if op == "ping":
            print(client.ping())
        elif op == "modules":
            for name in client.modules():
                print(name)
        elif op == "describe":
            print(json.dumps(client.describe(args.run_module), indent=2))
        elif op == "stats":
            print(json.dumps(client.stats(), indent=2))
        elif op == "shutdown":
            print(client.shutdown())
    return 0


def _add_execution_flags(p: argparse.ArgumentParser) -> None:
    """The execution-option flags shared by plan/run/serve — one flag set
    feeding :func:`_execution_options`."""
    p.add_argument("--windows", action="store_true",
                   help="allocate virtual dimensions as windows")
    p.add_argument("--backend", default="auto",
                   choices=["auto", *sorted(KNOWN_BACKENDS)],
                   help="pin the plan to a backend label (default: auto, "
                        "the cost-driven planner's choice)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker count for the thread pool and native teams "
                        "(default: cpu count)")
    p.add_argument("--no-kernels", action="store_true",
                   help="disable compiled kernels and run everything on "
                        "the reference tree-walking evaluator")
    p.add_argument("--kernel-tier", default="native",
                   choices=list(KERNEL_TIERS),
                   help="highest kernel tier: native (cffi-compiled C, the "
                        "default, degrading to numpy when no C compiler "
                        "exists) or numpy (exec-compiled NumPy kernels)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PS compiler reproduction (Gokhale 1987): scheduling, "
        "windows, hyperplane transformation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="print the flowchart and windows")
    p.add_argument("module", help="PS source file")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("graph", help="print the dependency graph")
    p.add_argument("module")
    p.add_argument("--dot", action="store_true", help="Graphviz output")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("compile", help="list the kernels that run")
    p.add_argument("module")
    p.add_argument("--emit", choices=["c", "python", "flowchart"], default="c")
    p.add_argument("--merge", action="store_true", help="merge compatible loops")
    p.add_argument("--hyperplane", action="store_true",
                   help="apply the section-4 transformation first")
    p.add_argument("--no-windows", action="store_true",
                   help="disable window allocation")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("transform", help="hyperplane derivation report")
    p.add_argument("module")
    p.add_argument("--array", default=None, help="recursive array to transform")
    p.add_argument("--emit-module", action="store_true",
                   help="also print the transformed PS source")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("plan", help="print the cost-driven execution plan")
    p.add_argument("module")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="scalar parameter, parsed by its declared type "
                        "(trip counts need sizes)")
    _add_execution_flags(p)
    p.add_argument("--strategy", default=None, choices=list(VALID_STRATEGIES),
                   help="prefer this strategy wherever it is valid")
    p.add_argument("--merge", action="store_true",
                   help="apply the loop-merging pass before planning "
                        "(a merged nest plans as one loop)")
    p.add_argument("--cycles", action="store_true",
                   help="include calibrated cycle predictions")
    p.add_argument("--save", action="store_true",
                   help="persist the plan next to the generated C kernels "
                        "in the on-disk native cache (offline builds)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("run", help="execute a module")
    p.add_argument("module")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="scalar parameter, parsed by its declared type")
    p.add_argument("--load", action="append", metavar="NAME=FILE.npy",
                   help="array parameter from a .npy file")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for auto-filled array parameters")
    _add_execution_flags(p)
    p.add_argument("--strategy", default=None, choices=list(VALID_STRATEGIES),
                   help="prefer this strategy wherever it is valid")
    p.add_argument("--merge", action="store_true",
                   help="apply the loop-merging pass before execution")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "serve",
        help="compile once and serve run requests from a warm daemon",
    )
    p.add_argument("modules", nargs="+", metavar="MODULE.ps",
                   help="PS source files to compile and serve")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (default: an ephemeral port, printed on "
                        "the ready line)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="serve on a unix socket instead of TCP")
    p.add_argument("--warm", action="append", metavar="NAME=INT",
                   help="sizes to pre-plan and prime pools for (repeatable); "
                        "kernels warm regardless")
    p.add_argument("--max-inflight", type=int, default=8, metavar="N",
                   help="requests executing at once (default 8)")
    p.add_argument("--max-queue", type=int, default=32, metavar="N",
                   help="waiting requests beyond which the daemon answers "
                        "Overloaded (default 32)")
    p.add_argument("--merge", action="store_true",
                   help="compile every module with the loop-merging pass")
    p.add_argument("--hyperplane", action="store_true",
                   help="compile every module with the section-4 "
                        "transformation applied first")
    _add_execution_flags(p)
    p.set_defaults(func=_cmd_serve)

    conn = argparse.ArgumentParser(add_help=False)
    conn.add_argument("--host", default="127.0.0.1")
    conn.add_argument("--port", type=int, default=None)
    conn.add_argument("--socket", default=None, metavar="PATH")

    p = sub.add_parser("client", help="talk to a running serve daemon")
    csub = p.add_subparsers(dest="client_command", required=True)

    c = csub.add_parser("run", parents=[conn], help="execute a module")
    c.add_argument("run_module", metavar="MODULE", help="served module name")
    c.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="scalar parameter, parsed by its declared type")
    c.add_argument("--load", action="append", metavar="NAME=FILE.npy",
                   help="array parameter from a .npy file")
    c.add_argument("--seed", type=int, default=0,
                   help="seed for daemon-filled array parameters")
    c.add_argument("--backend", default=None,
                   choices=["auto", *sorted(KNOWN_BACKENDS)])
    c.add_argument("--workers", type=int, default=None, metavar="N")
    c.set_defaults(func=_cmd_client_run)

    c = csub.add_parser("plan", parents=[conn],
                        help="show the plan the daemon would execute")
    c.add_argument("run_module", metavar="MODULE")
    c.add_argument("--set", action="append", metavar="NAME=VALUE")
    c.add_argument("--backend", default=None,
                   choices=["auto", *sorted(KNOWN_BACKENDS)])
    c.add_argument("--workers", type=int, default=None, metavar="N")
    c.set_defaults(func=_cmd_client_plan)

    for op, help_text in [
        ("ping", "check the daemon is alive"),
        ("modules", "list served modules"),
        ("describe", "print a module's parameter/result signature"),
        ("stats", "print session counters and cache statistics"),
        ("shutdown", "stop the daemon (pools torn down, shm unlinked)"),
    ]:
        c = csub.add_parser(op, parents=[conn], help=help_text)
        if op == "describe":
            c.add_argument("run_module", metavar="MODULE")
        c.set_defaults(func=_cmd_client_simple)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. piped through `head`); exit quietly
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
