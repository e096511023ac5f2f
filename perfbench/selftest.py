"""Harness self-test: a deliberately wrong multiply must be caught.

    python3 perfbench/selftest.py

Runs the mul-small workload for one second through run.main with a
multiply that flips the lowest product bit whenever bit 1 of the first
operand is set, and checks that the checker reports failed products
(failed_frac > 0, correct false) and that the exit code is nonzero.  The
library is not touched.  Exits 0 when the wrong multiply was caught.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def wrong_mul(a: int, b: int) -> int:
    from fafft import mul_fafft

    c = mul_fafft(a, b)
    return c ^ 1 if a & 2 else c


def main() -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", "mul-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
            mul=wrong_mul,
        )
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    frac = result["failed"] / result["attempted"]
    caught = code != 0 and frac > 0 and not result["correct"]
    print(f"wrong multiply: exit code {code}, failed_frac {frac:.3f}: "
          + ("caught" if caught else "NOT caught"))
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
