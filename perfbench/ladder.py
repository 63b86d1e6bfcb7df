"""One-off measurements of the ROADMAP ladder entries too large for a run.

The benchmark's workloads must fit a run of a few seconds per pass, so three
ROADMAP baselines are measured here instead, once per commit of interest,
and written to a JSON file with the environment record:

* ``full_check`` on the determinant poset at q = 3, called as
  ``test_criterion_01`` calls it;
* the superclass and co-orbit partitions of U_4 at q = 8;
* ``superchar table`` on U_4 at q = 8.

Ladder entries that cannot run at all on the seed are listed in the output
with the reason.  Run from the repository root:

    python3 perfbench/ladder.py [--out perfbench/ladder_seed.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import time

import worker
from run import blas_threads, git_commit, src_digest

DEFERRED = [
    {
        "entry": "U_6 at q = 3",
        "reason": "3^15 elements, over the 2^20 enumeration cap",
    },
    {
        "entry": "Heisenberg n = 6 at q = 3",
        "reason": "6563 classes, 43 M cells; the scalar table runs out of memory",
    },
    {
        "entry": "Heisenberg n = 5 at q = 4",
        "reason": "4099 classes through the scalar extension-field path: about 160 s",
    },
]


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(worker.OUT_DIR / "ladder.json"))
    args = ap.parse_args(argv)

    limit = worker.MEM_LIMIT_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    worker.import_superchar()
    import numpy

    from superchar import cli

    det = worker.Job("check", "determinant", 3)
    u48 = worker.Job("table", "full_u4", 8, "json")
    ctx = worker.setup([det, u48], worker.OUT_DIR / "ladder", {})

    G = worker.load_group(ctx.spec_path(det))
    report, det_s = timed(lambda: worker.criterion_check(G))
    U = worker.load_group(ctx.spec_path(u48))
    classes, sc_s = timed(U.orbit_partition)
    chars, co_s = timed(U.coorbit_partition)
    out = ctx.out_path(u48)
    rc, table_s = timed(lambda: cli.main(["table", str(ctx.spec_path(u48)), "--out", str(out)]))

    result = {
        "env": {
            "commit": git_commit(),
            "src_sha256": src_digest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": blas_threads(),
        },
        "measured": {
            "determinant_q3_full_check_s": det_s,
            "determinant_q3_ok": report.ok,
            "determinant_q3_classes": report.classes,
            "u4_q8_orbit_partition_s": sc_s,
            "u4_q8_coorbit_partition_s": co_s,
            "u4_q8_classes": len(classes),
            "u4_q8_characters": len(chars),
            "u4_q8_table_s": table_s,
            "u4_q8_table_exit": rc,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "roadmap_baseline": {
            "determinant_q3_full_check_s": 41,
            "u4_q8_partition_s": 7.8,
            "u4_q8_table_s": 21,
        },
        "deferred": DEFERRED,
    }
    text = json.dumps(result, indent=1) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    return 0 if report.ok and rc == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
