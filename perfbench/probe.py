"""Set-up probe, run in a fresh interpreter by run.py.

Builds the workload's inputs and imports numpy first, then times
``import fafft`` (which builds the GF(256) and zeta tables), and then, at
each size class, the first call (engine construction, plan build and any
other lazy state) and the median of STEADY_CALLS further calls, which have
none of that left.  Prints one JSON line:
{"import_s": s, "first_s": {class: s}, "steady_s": {class: s}}.

    python3 perfbench/probe.py <workload> <seed> <path of src>
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy  # noqa: F401  -- loaded before the clock starts: not fafft's set-up

import inputs

STEADY_CALLS = 3


def main() -> None:
    workload, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    ops = inputs.first_of_each_class(inputs.rounds(workload, seed))
    if workload == "circuit":
        ops = sorted(op for op in ops if op[0] in inputs.CIRCUIT_SETUP_N)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fafft

    import_s = time.perf_counter() - t0
    first, steady = {}, {}
    for op in ops:
        times = []
        for _ in range(1 + STEADY_CALLS):
            t0 = time.perf_counter()
            if workload == "circuit":
                fafft.gen_mul_circuit(op[0])
            else:
                fafft.mul_fafft(op[2], op[3])
            times.append(time.perf_counter() - t0)
        first[str(op[0])] = times[0]
        steady[str(op[0])] = statistics.median(times[1:])
    print(json.dumps({"import_s": import_s, "first_s": first, "steady_s": steady}))


if __name__ == "__main__":
    main()
