"""The repository's benchmark: four workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-cold --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result (provenance, self-check, per-rung figures, failures) is written to
``.bench_build/perfbench/``.  The command exits non-zero when any answer
is wrong, any self-check fails, or the load generator fell behind.
See ``perfbench/NOTE.md`` for the workloads and the layer map.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
NATIVE = os.path.join(ROOT, ".bench_build", "native")

#: Set-up is measured this many times per run (this process plus fresh
#: probe processes) and reported as the median.
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=["engine-cold", "service-warm", "batch-dense", "http-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time, and exit")
    parser.add_argument("--inject", choices=["wrong-cost", "stale"],
                        help="inject a fault the checks must catch (self-test)")
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Point the program at this checkout's sources and build directory."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program sources at {SRC}")
    os.makedirs(OUT, exist_ok=True)
    os.environ["REPRO_NATIVE_BUILD_DIR"] = NATIVE
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)


def build_native_kernel() -> None:
    """Compile the C dpconv kernel into the checkout (a no-op once built).

    A host without a compiler runs without the C rung; the result's
    provenance records which backend resolved.
    """
    subprocess.run(
        [sys.executable, "-m", "repro.optimizer._native_build"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=600, check=False,
    )


def setup_probe(args) -> float:
    """Set up in a fresh interpreter; returns its set-up seconds."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the door and the idle loops
    # this process started are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    prepare_environment()
    if not args.setup_probe:
        build_native_kernel()
    started = time.monotonic()
    import harness

    workload = harness.make(args)
    workload.setup()
    setup_s = time.monotonic() - started
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        outcome = harness.measure(workload, args)
    finally:
        workload.close()
    setups = [setup_s]
    if not args.trace:
        setups += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    return harness.finish(workload, args, outcome, statistics.median(setups), setups)


if __name__ == "__main__":
    sys.exit(main())
