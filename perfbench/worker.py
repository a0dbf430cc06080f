"""Run one slice of an untraced benchmark run in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED START END PASSES WITH_VERIFY

Times the library's set-up first: ``import twistwidth`` (numpy included),
then the lazy work the first calls pay (see ``run.warm_up``). Nothing
imports numpy or the library before that timer starts. Then builds the
workload's inputs from SEED, times items START..END-1 PASSES times (on
sweep-n4, WITH_VERIFY=1 first runs verify_theorem(4, "t2")), checks every
output, and prints its report (``workloads.Run.report``) as one JSON
object; the set-up time is its "setup" operation.
"""

import json
import sys
from time import perf_counter

import run  # standard library only


def main(argv):
    name, seed, start, end, passes, with_verify = argv
    begin = perf_counter()
    lib = run.load_library()
    run.warm_up(lib, name)
    setup_s = perf_counter() - begin

    import workloads

    items = workloads.INPUTS[name](int(seed))[int(start):int(end)]
    print(json.dumps(workloads.run_slice(name, lib, items, int(passes), with_verify == "1",
                                         (begin, setup_s))))


if __name__ == "__main__":
    main(sys.argv[1:])
