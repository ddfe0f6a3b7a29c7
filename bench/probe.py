"""Cold set-up probe: run in a fresh interpreter by the benchmark.

    python3 bench/probe.py 5,2,2 3,1,3 [--split]

Imports ffplanar from the checkout's `src/`, builds the context of every
tower given as p,m,n, warms the tables the library builds lazily, and prints
one JSON line the moment it is ready.  The parent process times the span
from starting this process to reading that line.  With --split it also times
a cold primitive-modulus search per tower before building the context, so
that modulus search, table build and lazy tables are reported apart.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def warm(ctx) -> None:
    """Build every table the library otherwise builds on first use."""
    ctx.add_matrix
    ctx.neg_vec(0)
    ctx.trace_table
    ctx.norm_table
    ctx.square_table
    ctx.subfield_eta_table


def main(argv: list[str]) -> int:
    split = "--split" in argv
    towers = [tuple(int(v) for v in a.split(",")) for a in argv if a != "--split"]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ffplanar
    from ffplanar.field import find_primitive_modulus

    phases = {"import_s": time.perf_counter() - t0, "towers": []}
    for p, m, n in towers:
        row = {"tower": [p, m, n]}
        if split:
            t = time.perf_counter()
            find_primitive_modulus(p, m * n)
            row["modulus_search_s"] = time.perf_counter() - t
        t = time.perf_counter()
        ctx = ffplanar.new_ctx(p, m, n)
        row["new_ctx_s"] = time.perf_counter() - t
        t = time.perf_counter()
        warm(ctx)
        row["lazy_tables_s"] = time.perf_counter() - t
        phases["towers"].append(row)
    print(json.dumps(phases), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
