"""superchar benchmark: one workload, one run.

    python3 perfbench/run.py --workload {table-prime,table-ext,check} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src``.
The load is a closed loop with one client: jobs run back to back in one
fresh child process, under an address-space limit, in passes whose job
order is a permutation drawn from ``--seed`` (every seed does the same
work).  Passes repeat until another would overrun ``--seconds``.

Every job's output is checked: table bytes against recorded sha256 digests,
``full_check`` reports against ``report.ok`` and the recorded shape.

``--trace 0`` prints the end-to-end metrics (median pass wall time, cells
per second, peak RSS, set-up time); ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The full result, with the environment record, goes to
``.perfbench-out/results/``; traced runs also write their spans to
``.perfbench-out/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MEM_LIMIT_MB, OUT_DIR, ROOT, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_PROBES = 9  # fresh processes timed for setup_s; the median is reported
DEADLINE_S = 170  # the whole run, probes included, ends before 180 s

END_TO_END_UNITS = {"norm_wall_s": "s", "norm_cells_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name == "table.bytes" else "count"


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    n = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    return env


def src_digest() -> str:
    """sha256 over the library sources: identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "superchar").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def call_worker(args: list[str], timeout: float) -> dict:
    """Run the worker; its last stdout line is its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(timeout, 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def summarize(result: dict, setups: list[dict]) -> tuple[dict, float]:
    """The printed metrics of a worker result, and its failed / attempted.

    A traced result carries per-layer values; an untraced one gives the
    end-to-end metrics, with set-up time the median of ``setups``.
    """
    if "layers" in result:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["layers"].items()}
    else:
        wall = statistics.median(p["norm_s"] for p in result["passes"])
        values = {
            "norm_wall_s": wall,
            "norm_cells_per_s": result["cells_per_pass"] / wall,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(p["setup_s"] for p in setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, result["failed"] / result["attempted"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="superchar benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "superchar" / "__init__.py").is_file():
        print(f"error: no superchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                left = DEADLINE_S - (time.perf_counter() - started)
                setups.append(call_worker(common + ["--setup-only"], left))
        left = DEADLINE_S - (time.perf_counter() - started)
        result = call_worker(common + ["--trace", str(args.trace)], left)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    metrics, fail_rate = summarize(result, setups)

    env = {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "mem_limit_mb": MEM_LIMIT_MB,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    record = {"env": env, "metrics": metrics, "fail_rate": fail_rate, "setup_probes": setups}
    record.update(result)
    results_file = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    results_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(result['passes'])}+{len(result['traced_passes'])}  "
        f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
        f"blas_threads {env['blas_threads']}  commit {env['commit'] or env['src_sha256'][:12]}"
    )
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    if result["passes"]:
        raw = statistics.median(p["wall_s"] for p in result["passes"])
        print(f"  {'wall_s':32s} {raw:>16.6g} s (not normalized)")
        print(f"  {'cells_per_s':32s} {result['cells_per_pass'] / raw:>16.6g} 1/s (not normalized)")
    print(f"  {'fail_rate':32s} {fail_rate:>16.6g} ratio ({failed} of {attempted} jobs)")
    for err in result["errors"][:5]:
        print(f"  failed {err['job']}: {err['error']}")
    print(f"  results: {results_file.relative_to(ROOT)}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
