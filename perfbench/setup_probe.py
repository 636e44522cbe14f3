"""Set-up probe: build one workload's set-up in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

run.py reads the system-wide monotonic clock just before it starts this
process; the probe prints the same clock once the first episode is ready
(imports, config, topology, learner and checkpoint done), so the difference
is the set-up time from process start.
"""

import sys
import time

import workloads


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, workdir)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


if __name__ == "__main__":
    main()
