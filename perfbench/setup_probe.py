"""Set-up cost of one fresh process: import the package, warm one workload up.

Run as ``python3 perfbench/setup_probe.py <workload> <work dir>``; prints
one JSON line with ``import_s`` and ``warmup_s``.  The runner starts it
several times per run and reports the median as ``setup_s``, the cost
every CLI invocation pays before its first result.
"""

import json
import sys
import time
from pathlib import Path

import bench_env


def main() -> int:
    workload, work_dir = sys.argv[1], Path(sys.argv[2])
    bench_env.pin()
    t0 = time.perf_counter()
    bench_env.use_checkout_source()
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    t2 = time.perf_counter()
    WORKLOADS[workload].warm_up(work_dir)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
