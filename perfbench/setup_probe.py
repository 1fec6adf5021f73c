"""Set-up cost in a fresh interpreter: ``import dpgs``, then ``plan(...)``.

Usage: python3 setup_probe.py <src dir> <JSON list of [alpha, epsilon, delta, d]>

Prints one JSON object with ``import_s`` and ``plan_s``. Fails if dpgs is
not imported from the given source directory.
"""

import json
import os
import sys
import time


def main() -> int:
    src, plans = os.path.realpath(sys.argv[1]), json.loads(sys.argv[2])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import dpgs

    t1 = time.perf_counter()
    for alpha, epsilon, delta, d in plans:
        dpgs.plan(alpha, dpgs.PrivacyParams(epsilon, delta), d)
    t2 = time.perf_counter()
    if not os.path.realpath(dpgs.__file__).startswith(src + os.sep):
        print(f"dpgs was imported from {dpgs.__file__}, not {src}", file=sys.stderr)
        return 2
    print(json.dumps({"import_s": t1 - t0, "plan_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
