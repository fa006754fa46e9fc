"""Set-up probe, started by run.py in a fresh interpreter.

    python3 perfbench/probe.py <workload> <workdir>

Imports cohfact (PYTHONPATH points at the checkout's src), loads the
workload's inputs from <workdir>, makes one untimed warm-up call, prints
time.monotonic() and then checks the call's output. Exits 1 if it fails.
"""

import sys
import time

import workloads


def main(argv):
    name, workdir = argv
    wl = workloads.load(name, workdir)
    out = wl.call(0)
    print(time.monotonic())
    wl.check(0, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
