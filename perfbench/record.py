"""Record the expected outputs of every benchmark job in ``expected.json``.

For each table job: the sha256 and size of the bytes ``superchar table``
writes, and the table's shape.  Before a digest is recorded the table is
confirmed against the brute-force oracle: every row is compared with
``Oracle.value_row`` at the table's own representatives, and
``full_check`` must pass on the group.  For each check job: the
``(classes, characters)`` that ``full_check`` reports.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/record.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import worker


def confirm_table(G, tab) -> None:
    """Raise unless every value of ``tab`` equals the oracle's orbit sum."""
    import numpy as np

    from superchar.oracle import Oracle, charvalue_coeff_rows, full_check

    report = full_check(G, oracle_cap=worker.CHECK_ORACLE_CAP, with_axioms=False)
    if not report.ok:
        raise SystemExit(f"full_check failed: {list(report.lines())}")
    oracle = Oracle(G, cap=worker.CHECK_ORACLE_CAP)
    classes = [o.rep for o in G.all_orbit_reps()]
    chars = [o.rep for o in G.all_coorbit_reps()]
    if (len(classes), len(chars)) != (len(tab.classes), len(tab.chars)):
        raise SystemExit("table shape differs from the partitions")
    digits = np.array(classes, dtype=np.int64).reshape(len(classes), oracle.dim)
    F = oracle.field
    for eta, row in zip(chars, tab.values):
        formula = charvalue_coeff_rows(
            F.p,
            F.q,
            [v.is_zero for v in row],
            [v.q_exp for v in row],
            [v.zeta_exp for v in row],
        )
        if not np.array_equal(formula, oracle.value_row(eta, digits)):
            raise SystemExit(f"table row of eta={eta} differs from the oracle")


def main() -> int:
    worker.import_superchar()
    from superchar.table import build_algebra_table, build_pattern_table

    jobs = {j.name: j for jobs in worker.WORKLOADS.values() for j in jobs}
    work = worker.OUT_DIR / "record"
    ctx = worker.setup(list(jobs.values()), work, {})
    expected = {"tables": {}, "checks": {}}
    for name, job in sorted(jobs.items()):
        t0 = time.perf_counter()
        G = worker.load_group(ctx.spec_path(job))
        if job.kind == "check":
            report = worker.criterion_check(G)
            if not report.ok:
                raise SystemExit(f"{name}: full_check failed")
            expected["checks"][name] = {"classes": report.classes, "characters": report.characters}
        else:
            from superchar import cli

            out = ctx.out_path(job)
            if cli.main(["table", str(ctx.spec_path(job)), "--format", job.fmt, "--out", str(out)]):
                raise SystemExit(f"{name}: superchar table failed")
            data = out.read_bytes()
            build = build_algebra_table if job.is_algebra else build_pattern_table
            tab = build(G)
            if tab.render(job.fmt).encode("utf-8") != data:
                raise SystemExit(f"{name}: CLI output differs from the rendered table")
            confirm_table(G, tab)
            expected["tables"][name] = {
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
                "classes": len(tab.classes),
                "characters": len(tab.chars),
            }
        print(f"{name}: {time.perf_counter() - t0:.1f}s", file=sys.stderr, flush=True)
    worker.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
