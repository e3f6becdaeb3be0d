"""Reference worker: the same workload, run on the frozen program.

``corpus.tar.gz`` holds ``src/repro`` as of commit 7781e5e.  The runner
starts this script as a child process, which imports that frozen copy
instead of the checkout's ``src``, sets the workload up once, prints
``ready`` and then runs the steps the runner asks for on stdin.  It
exits at end of input.

After each step of its own pass the runner has the reference run the
same step, so both see the same host speed; see README, "Host speed".
"""

from __future__ import annotations

import argparse
import json
import sys
import tarfile
import time
from pathlib import Path

from workloads import CORPUS_PATH, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    # stdout carries the protocol; anything the program prints goes to stderr.
    protocol, sys.stdout = sys.stdout, sys.stderr

    work = Path(args.work)
    with tarfile.open(CORPUS_PATH, "r:gz") as archive:
        archive.extractall(work / "frozen", filter="data")
    src = work / "frozen" / "src"
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload](args.seed, work, src)
    workload.make_inputs()
    cache_root = work / "cache"
    cache_root.mkdir()
    workload.setup(cache_root)
    print("ready", file=protocol, flush=True)
    # Each request "<pass> <step>" runs one step of the reference pass and
    # answers with its host seconds; a pass is prepared before its first
    # step and finished before the answer to its last, so nothing runs
    # while the runner is timing its own step.
    steps, timed = 0, []
    for line in sys.stdin:
        index, i = (int(field) for field in line.split())
        if i == 0:
            steps, timed = workload.start_pass(index), []
        start = time.perf_counter()
        output = workload.step(i)
        timed.append((time.perf_counter() - start, output))
        if i == steps - 1:
            workload.finish_pass(index, timed)
        print(json.dumps(timed[-1][0]), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
