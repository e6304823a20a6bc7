"""Run lakebench from a repository checkout.

    python3 benchmarks/lakebench/run.py --workload hybrid_10k --seed 1 \
        --seconds 12 --trace 0

Exits 2 without a result when the checkout has no ``src/repro`` to
serve, 1 when an output check fails, 0 otherwise; the last line on
stdout is the result as one JSON object.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"lakebench: no repro package under {src}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from benchmarks.lakebench.runner import main as run

    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
