"""The serving side of the benchmark, in a process of its own.

    python serve_child.py WORKLOAD.pkl SOCKET_PREFIX

``repro serve`` fixes ``CompilerOptions`` per daemon and cannot set
``hyperplane`` / ``merge_loops`` at all, so this child builds what a
deployment would: one warm ``Session`` + ``DaemonThread`` per distinct
``CompilerOptions`` of the workload, each on the unix socket
``SOCKET_PREFIX-<compiler key>`` with ``max_inflight=2`` (= the client
count). Every request is run and checked once before the sockets are
announced, so plans, kernels and pools are warm. Prints one JSON line
``{"sockets": {...}}`` when ready, serves until stdin closes, then stops
the daemons and exits.
"""

import contextlib
import json
import pickle
import sys

from driver import add_src_to_path


def main(argv: list[str]) -> int:
    path, prefix = argv[1], argv[2]
    add_src_to_path()
    import oracle
    from driver import open_sessions, run_request
    from repro.serve import DaemonThread

    with open(path, "rb") as fh:
        workload = pickle.load(fh)  # written by run.py in this checkout
    with open_sessions(workload) as sessions, contextlib.ExitStack() as stack:
        for r in workload.requests:
            bad = oracle.mismatch(r, run_request(sessions, r))
            if bad:
                print(f"error: warm-up run wrong: {bad}", file=sys.stderr)
                return 1
        sockets = {}
        for key, session in sessions.items():
            sockets[key] = f"{prefix}-{key}"
            stack.enter_context(
                DaemonThread(
                    session, unix_path=sockets[key], max_inflight=2, max_queue=8
                )
            )
        print(json.dumps({"sockets": sockets}), flush=True)
        sys.stdin.read()  # the parent closes our stdin to stop us
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
