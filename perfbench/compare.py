"""Compare two result files written by ``perfbench/run.py``.

Usage: ``python3 perfbench/compare.py BASE.json NEW.json``

Refuses (exit 2) when the two runs did not run the same program on the
same input: a different request-stream hash means different inputs, and
a different backend resolution means a different program (a host
without a C compiler runs the numpy or python rung).  Otherwise prints
every metric of both runs and their ratio.
"""

import json
import sys


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def refusal(base: dict, new: dict):
    """Why the two results may not be compared, or ``None``."""
    a, b = base["provenance"], new["provenance"]
    for key in ("workload", "stream_sha256", "backend_resolution", "trace"):
        if a[key] != b[key]:
            return f"{key} differs: {a[key]!r} vs {b[key]!r}"
    return None


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    reason = refusal(base, new)
    if reason is not None:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    for section in ("end_to_end", "per_layer"):
        for name, value in base[section].items():
            other = new[section].get(name)
            ratio = other / value if value and other is not None else float("nan")
            print(f"{section:10s} {name:34s} {value:14.4f} {other:14.4f} {ratio:8.3f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
