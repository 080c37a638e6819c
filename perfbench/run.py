"""Run the soarqep solver benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

BLAS is pinned to one thread here, before numpy is first imported.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402  (imports numpy, after the pinning above)

if __name__ == "__main__":
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    try:
        sys.exit(harness.main(sys.argv[1:], src))
    except harness.SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
