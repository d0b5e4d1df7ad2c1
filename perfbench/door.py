"""Benchmark-owned front door: ``repro.cli serve``, optionally traced.

Usage: ``python3 perfbench/door.py [--trace-dir DIR] <serve arguments>``.

With ``--trace-dir`` the span wrappers are installed in this process
before the door forks its shards, so the shards inherit them; on SIGTERM
the door drains, each shard writes ``DIR/shard-<pid>.json`` as its serve
loop returns, and the door writes ``DIR/door-<pid>.json`` last.
"""

import os
import signal
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _stop_with_parent() -> None:
    """Drain and exit (SIGTERM) if the benchmark that started us is gone."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=watch, daemon=True).start()


def main() -> int:
    _stop_with_parent()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    argv = sys.argv[1:]
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    tracer = None
    if trace_dir is not None:
        from spans import Tracer, install_door

        tracer = Tracer()
        install_door(tracer, trace_dir)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve"] + argv)
    finally:
        if tracer is not None:
            tracer.dump(os.path.join(trace_dir, f"door-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main())
