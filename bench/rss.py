"""Peak resident memory of a process that runs a fixed number of rounds of one workload.

    python3 bench/rss.py <workload> <seed> <rounds>

prints the peak in MB.  run.py starts this as a fresh interpreter, so the
figure holds only the program, its imports and the workload's own inputs:
not the harness's timing records, output checks or scipy, and not more
rounds when the program gets faster.

The peak is VmHWM from /proc/self/status, the high-water mark of this
process's own address space.  Linux carries ru_maxrss over an exec from the
parent's address space, so getrusage in a child of an 80 MB parent reads at
least 80 MB; ru_maxrss is used only where /proc is missing.
"""

from __future__ import annotations

import os
import resource
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    name, seed, rounds = argv[0], int(argv[1]), int(argv[2])
    workload = WORKLOADS[name](seed, False)
    for r in range(rounds):
        for _, fn in workload.ops(r):
            fn()
    print(peak_kb() / 1024)
    return 0


def peak_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
