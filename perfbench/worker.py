"""One benchmark run of one workload, executed in its own process.

``run.py`` starts this file as a child process under an address-space limit,
so a table that outgrows memory raises ``MemoryError`` inside a job (a failed
job) instead of bringing the machine down.  The child imports ``superchar``
from the checkout's ``src`` directory, writes the spec files, parses every
job's group, then runs the workload's jobs back to back in passes until the
time budget is spent.  The last line of its standard output is one JSON
object for ``run.py``.

Two kinds of pass exist:

* an untraced pass drives the library from outside exactly as a user would:
  ``superchar.cli.main(["table", ...])`` for tables and
  ``superchar.full_check`` (called as the acceptance suite calls it) for
  checks;
* a traced pass does the same work through the modules' public calls one
  stage at a time, each inside a span, and then repeats each stage
  (partitions, evaluator set-up, scalar and block values, irreducibility)
  on its own so that per-layer times can be read off the spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import re
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

MEM_LIMIT_MB = 3072  # address space of a run, well below an 8 GB machine's memory
CHECK_ORACLE_CAP = 1 << 21  # what test_criterion_01 passes to full_check
REF_SAMPLES = 7
REF_NOMINAL_S = 0.003  # reference loop time of the machine normalized times refer to


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Job:
    kind: str  # "table" | "check"
    group: str  # catalog name: corpus entry, heisenbergN, full_uN, semidirectN, sixteen
    q: int
    fmt: str | None = None  # table output format

    @property
    def name(self) -> str:
        base = f"{self.kind}:{self.group}_q{self.q}"
        return f"{base}.{self.fmt}" if self.fmt else base

    @property
    def section(self) -> str:
        """Where the job's expected output lives in ``expected.json``."""
        return "tables" if self.kind == "table" else "checks"

    @property
    def is_algebra(self) -> bool:
        return self.group.startswith("semidirect") or self.group == "sixteen"


def _check_jobs() -> list[Job]:
    # The whole corpus at q = 2, 3 except determinant at q = 3, whose
    # full_check alone (about 40-55 s) outlasts a run's time budget.
    names = [
        "heisenberg3", "heisenberg4", "heisenberg5", "full_u3", "full_u4",
        "orbit_shape", "coorbit_shape", "class_counterexample",
        "annihilator_example", "determinant", "two_step",
    ]
    jobs = [Job("check", n, q) for n in names for q in (2, 3) if (n, q) != ("determinant", 3)]
    jobs += [Job("check", f"semidirect{n}", q) for n in (4, 5, 6) for q in (2, 3)]
    jobs.append(Job("check", "sixteen", 2))
    # one extension field, so the oracle's r > 1 loop and the scalar
    # fallback of value_block are exercised
    jobs.append(Job("check", "full_u3", 8))
    return jobs


WORKLOADS: dict[str, list[Job]] = {
    # Jobs are kept to a few seconds at most: the normalization in run_pass
    # tracks the machine's speed between jobs, not inside one.
    "table-prime": [
        Job("table", "heisenberg6", 2, "json"),
        Job("table", "heisenberg4", 3, "json"),
        Job("table", "coorbit_shape", 3, "json"),
        Job("table", "class_counterexample", 3, "json"),
        Job("table", "annihilator_example", 3, "json"),
        Job("table", "full_u6", 2, "json"),
        Job("table", "full_u5", 3, "json"),
    ],
    "table-ext": [
        Job("table", "semidirect5", 4, "csv"),
        Job("table", "semidirect4", 4, "csv"),
        Job("table", "full_u3", 16, "csv"),
        Job("table", "heisenberg4", 4, "csv"),
        Job("table", "full_u4", 4, "csv"),
    ],
    "check": _check_jobs(),
}


def spec_text(job: Job) -> str:
    """The spec file of a job's group, generated from the catalog."""
    from superchar import catalog
    from superchar.algebra import emit_algebra_spec
    from superchar.gf import Fq
    from superchar.poset import emit_spec

    field = Fq.of(job.q)
    corpus = {e.name: e.J for e in catalog.corpus()}
    if job.group in corpus:
        return emit_spec(corpus[job.group], field)
    m = re.fullmatch(r"(heisenberg|full_u|semidirect)(\d+)", job.group)
    if m:
        family, n = m.group(1), int(m.group(2))
        if family == "heisenberg":
            return emit_spec(catalog.heisenberg(n), field)
        if family == "full_u":
            return emit_spec(catalog.full_triangular(n), field)
        return emit_algebra_spec(catalog.semidirect_algebra(n, field))
    if job.group == "sixteen" and job.q == 2:
        return emit_algebra_spec(catalog.sixteen_group())
    raise ValueError(f"unknown group {job.group!r} at q={job.q}")


def load_group(path: Path):
    """Parse and validate a spec file with ``superchar``'s CLI loader."""
    from superchar.cli import _load

    return _load(str(path))


def criterion_check(G):
    """``full_check`` with the arguments ``test_criterion_01`` passes."""
    from superchar.oracle import DEFAULT_ORACLE_CAP, full_check

    return full_check(G, oracle_cap=CHECK_ORACLE_CAP, with_axioms=G.order() <= DEFAULT_ORACLE_CAP)


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, held in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float):
        self.counters[name] = self.counters.get(name, 0) + amount

    def totals(self, first: int = 0, stop: int | None = None) -> dict[str, float]:
        """Summed duration per span name, over ``spans[first:stop]``."""
        out: dict[str, float] = {}
        for rec in self.spans[first:stop]:
            out[rec["name"]] = out.get(rec["name"], 0.0) + rec["end"] - rec["start"]
        return out


def _dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


# Span names whose summed duration is a per-layer metric (name + "_s").
STAGE_SPANS = (
    "core.orbit_partition",
    "core.coorbit_partition",
    "formula.evaluator_setup",
    "formula.value",
    "formula.value_block",
    "formula.irreducible",
    "algebra.partition",
    "algebra.corank",
    "algebra.value",
    "algebra.irreducible",
    "oracle.partition",
    "oracle.value_row",
    "oracle.axioms",
    "table.render",
)
PARSE_SPANS = ("poset.parse", "algebra.parse")  # recorded during set-up
COUNTERS = (
    "table.build_s",
    "table.bytes",
    "core.elements",
    "core.classes",
    "formula.cells",
    "formula.zero_cells",
)
LAYER_METRICS = (
    tuple(f"{s}_s" for s in STAGE_SPANS + PARSE_SPANS) + COUNTERS + ("trace.overhead_s",)
)


# ---------------------------------------------------------------------------
# jobs


class JobFailed(Exception):
    """A job ran but produced a wrong or unexpected result."""


class Context:
    """Per-run state: spec paths, output paths and the recorded expectations."""

    def __init__(self, work: Path, expected: dict):
        self.work = work
        self.expected = expected
        self.spec_paths: dict[str, Path] = {}

    def spec_path(self, job: Job) -> Path:
        return self.spec_paths[job.name]

    def out_path(self, job: Job) -> Path:
        return self.work / "out" / (job.name.replace(":", "-"))


def setup(jobs: list[Job], work: Path, expected: dict, tracer: Tracer | None = None) -> Context:
    """Write every job's spec file, then parse and validate every group."""
    ctx = Context(work, expected)
    (work / "specs").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(parents=True, exist_ok=True)
    new = []
    for job in jobs:
        if job.name in ctx.spec_paths:
            continue
        path = work / "specs" / f"{job.group}_q{job.q}.txt"
        path.write_text(spec_text(job), encoding="utf-8")
        ctx.spec_paths[job.name] = path
        new.append(job)
    for job in new:
        if tracer is None:
            load_group(ctx.spec_path(job))
        else:
            span = "algebra.parse" if job.is_algebra else "poset.parse"
            with tracer.span(span, job=job.name):
                load_group(ctx.spec_path(job))
    return ctx


def _expect(ctx: Context, job: Job) -> dict:
    want = ctx.expected.get(job.section, {}).get(job.name)
    if want is None:
        raise JobFailed(f"no recorded expectation for {job.name}")
    return want


def _verify_table(ctx: Context, job: Job, data: bytes):
    want = _expect(ctx, job)["sha256"]
    got = hashlib.sha256(data).hexdigest()
    if got != want:
        raise JobFailed(f"{job.name}: output sha256 {got} != recorded {want}")


def _verify_check(ctx: Context, job: Job, report):
    if not report.ok:
        raise JobFailed(f"{job.name}: full_check failed: {'; '.join(report.lines())}")
    want = _expect(ctx, job)
    got = (report.classes, report.characters)
    if got != (want["classes"], want["characters"]):
        raise JobFailed(f"{job.name}: (classes, characters) {got} != recorded {want}")


def cells_of(ctx: Context, job: Job) -> int:
    """Characters x superclasses a job produces or checks, from the record
    (0 for a job without one: that job fails)."""
    want = ctx.expected.get(job.section, {}).get(job.name)
    return want["classes"] * want["characters"] if want else 0


def run_table(ctx: Context, job: Job):
    from superchar import cli

    out = ctx.out_path(job)
    rc = cli.main(["table", str(ctx.spec_path(job)), "--format", job.fmt, "--out", str(out)])
    if rc != 0:
        raise JobFailed(f"{job.name}: superchar table exited with {rc}")
    _verify_table(ctx, job, out.read_bytes())


def run_check(ctx: Context, job: Job):
    _verify_check(ctx, job, criterion_check(load_group(ctx.spec_path(job))))


def trace_table(ctx: Context, job: Job, tr: Tracer):
    """The table job split into its stages, then each stage on its own."""
    import numpy as np

    from superchar.core import DEFAULT_ENUM_CAP
    from superchar.formula import CharacterEvaluator, is_irreducible
    from superchar.table import build_algebra_table, build_pattern_table

    with tr.span("cli.load"):
        G = load_group(ctx.spec_path(job))
    build = build_algebra_table if job.is_algebra else build_pattern_table
    with tr.span("table.build") as build_span:
        tab = build(G, cap=DEFAULT_ENUM_CAP)
    with tr.span("table.render"):
        text = tab.render(job.fmt)
    out = ctx.out_path(job)
    out.write_text(text, encoding="utf-8")
    data = out.read_bytes()
    _verify_table(ctx, job, data)
    tr.count("table.bytes", len(data))
    del tab, text, data

    stages = []
    if job.is_algebra:
        with tr.span("algebra.partition") as s:
            classes = G.all_orbit_reps(DEFAULT_ENUM_CAP)
            chars = G.all_coorbit_reps(DEFAULT_ENUM_CAP)
        stages.append(s)
        with tr.span("algebra.corank") as s:
            coranks = [G.corank(c.rep, cap=DEFAULT_ENUM_CAP) for c in chars]
        stages.append(s)
        with tr.span("algebra.value") as s:
            for c, corank in zip(chars, coranks):
                [G.value(c.rep, o.rep, corank=corank) for o in classes]
        stages.append(s)
        with tr.span("algebra.irreducible") as s:
            [G.is_irreducible(c.rep) for c in chars]
        stages.append(s)
    else:
        with tr.span("core.orbit_partition") as s:
            classes = G.all_orbit_reps(DEFAULT_ENUM_CAP)
        stages.append(s)
        with tr.span("core.coorbit_partition") as s:
            chars = G.all_coorbit_reps(DEFAULT_ENUM_CAP)
        stages.append(s)
        tr.count("core.elements", 2 * G.order())
        tr.count("core.classes", len(classes))
        reps = [o.rep for o in classes]
        with tr.span("formula.evaluator_setup") as s:
            evs = [CharacterEvaluator(G, c.rep) for c in chars]
        stages.append(s)
        with tr.span("formula.value") as s:
            scalar_zeros = [sum(v.is_zero for v in [ev.value(phi) for phi in reps]) for ev in evs]
        stages.append(s)
        digits = np.array(reps, dtype=np.int64).reshape(len(reps), G.dim)
        with tr.span("formula.value_block"):
            block_zeros = [int(ev.value_block(digits)[0].sum()) for ev in evs]
        if scalar_zeros != block_zeros:
            raise JobFailed(f"{job.name}: scalar and block values disagree on zero cells")
        tr.count("formula.cells", len(chars) * len(classes))
        tr.count("formula.zero_cells", sum(block_zeros))
        with tr.span("formula.irreducible") as s:
            [is_irreducible(G, c.rep) for c in chars]
        stages.append(s)
    # build_*_table runs exactly these stages inside; what remains is its own time
    tr.count("table.build_s", _dur(build_span) - sum(_dur(s) for s in stages))


def trace_check(ctx: Context, job: Job, tr: Tracer):
    """full_check as the untraced pass calls it, then its stages on their own."""
    import numpy as np

    from superchar.formula import CharacterEvaluator
    from superchar.oracle import DEFAULT_ORACLE_CAP, Oracle

    cap = CHECK_ORACLE_CAP
    with tr.span("cli.load"):
        G = load_group(ctx.spec_path(job))
    with tr.span("check.full_check"):
        report = criterion_check(G)
    _verify_check(ctx, job, report)

    if job.is_algebra:
        with tr.span("algebra.partition"):
            sc = G.orbit_partition(cap)
            co = G.coorbit_partition(cap)
    else:
        with tr.span("core.orbit_partition"):
            sc = G.orbit_partition(cap)
        with tr.span("core.coorbit_partition"):
            co = G.coorbit_partition(cap)
        tr.count("core.elements", 2 * G.order())
        tr.count("core.classes", len(sc))
    with tr.span("oracle.partition"):
        oracle = Oracle(G, cap=cap)
        oracle.superclass_partition()
        orc_co = oracle.coorbit_partition()
    digits = np.array([list(r) for r in sc.reps], dtype=np.int64).reshape(len(sc.reps), oracle.dim)
    with tr.span("oracle.value_row"):
        for k, eta in enumerate(co.reps):
            oracle.value_row(eta, digits, elements=orc_co.elements_digits(k))
    if job.is_algebra:
        with tr.span("algebra.corank"):
            coranks = [G.corank(eta, cap=cap) for eta in co.reps]
        phis = [tuple(int(v) for v in row) for row in digits]
        with tr.span("algebra.value"):
            for eta, corank in zip(co.reps, coranks):
                [G.value(eta, phi, corank=corank) for phi in phis]
    else:
        with tr.span("formula.evaluator_setup"):
            evs = [CharacterEvaluator(G, eta) for eta in co.reps]
        with tr.span("formula.value_block"):
            zeros = [int(ev.value_block(digits)[0].sum()) for ev in evs]
        tr.count("formula.cells", len(co) * len(sc))
        tr.count("formula.zero_cells", sum(zeros))
    if G.order() <= DEFAULT_ORACLE_CAP:  # criterion_check verified the axioms too
        with tr.span("oracle.axioms"):
            oracle.verify_axioms()


RUNNERS = {"table": run_table, "check": run_check}
TRACERS = {"table": trace_table, "check": trace_check}


# ---------------------------------------------------------------------------
# passes


def _reference_loop() -> int:
    d: dict = {}
    x = 1
    for i in range(4000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 97, x % 89, i & 7)
        d[key] = d.get(key, 0) + 1
    return len(d)


def reference_s() -> float:
    """Current speed of this machine for small-integer, tuple and dict work
    (what superchar mostly does): the median time of a few short fixed
    loops, after a garbage collection so the last job's leftovers do not
    land in it."""
    gc.collect()
    times = []
    for _ in range(REF_SAMPLES):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(ctx: Context, jobs: list[Job], errors: list, tracer: Tracer | None = None) -> dict:
    """Every job once, in the given order.  A job that raises is a failed
    job; the pass goes on with the next one.

    The reference loop is timed before the first job and after each job.
    ``norm_s`` is the pass's time with each job rescaled by the mean of the
    reference times on either side of it, to a machine on which the
    reference takes ``REF_NOMINAL_S``: shared hosts here drift between
    speed regimes tens of percent apart within seconds, and the rescaling
    cancels most of that drift.
    """
    failed = 0
    job_s = []
    refs = [reference_s()]
    for job in jobs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                RUNNERS[job.kind](ctx, job)
            else:
                with tracer.span("job", job=job.name):
                    TRACERS[job.kind](ctx, job, tracer)
        except Exception as exc:  # a job boundary: record it and carry on
            failed += 1
            errors.append(
                {
                    "job": job.name,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(limit=8),
                }
            )
        job_s.append(time.perf_counter() - t0)
        refs.append(reference_s())
    scale = [REF_NOMINAL_S * 2 / (a + b) for a, b in zip(refs, refs[1:])]
    return {
        "wall_s": sum(job_s),
        "norm_s": sum(t * k for t, k in zip(job_s, scale)),
        "attempted": len(jobs),
        "failed": failed,
        "jobs": [j.name for j in jobs],
        "job_s": job_s,
        "refs": refs,
    }


def layer_metrics(tracer: Tracer, first_span: int, counters_before: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (spans and counters since a mark)."""
    totals = tracer.totals(first_span)
    out = {f"{s}_s": totals.get(s, 0.0) for s in STAGE_SPANS}
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0) - counters_before.get(name, 0)
    return out


def run_workload(
    jobs: list[Job], seed: int, seconds: float, trace: bool, work: Path, expected: dict
) -> dict:
    """Set up, then run passes (each a seed-permuted order of ``jobs``)
    until another pass would overrun ``seconds``; at least one pass runs.
    With ``trace`` untraced and traced passes alternate."""
    rng = random.Random(seed)
    tracer = Tracer(run_id=f"seed{seed}") if trace else None
    t0 = time.perf_counter()
    ctx = setup(jobs, work, expected, tracer)
    setup_s = time.perf_counter() - t0
    setup_end = len(tracer.spans) if trace else 0
    errors: list = []
    passes, traced, layers = [], [], []
    cells = sum(cells_of(ctx, j) for j in jobs)
    begin = time.perf_counter()
    while True:
        order = list(jobs)
        rng.shuffle(order)
        passes.append(run_pass(ctx, order, errors))
        if trace:
            mark, before = len(tracer.spans), dict(tracer.counters)
            rng.shuffle(order)
            with tracer.span("pass", index=len(traced)):
                traced.append(run_pass(ctx, order, errors, tracer))
            layers.append(layer_metrics(tracer, mark, before))
        elapsed = time.perf_counter() - begin
        per_round = elapsed / len(passes)
        if elapsed + per_round > seconds:
            break
    result = {
        "setup_s": setup_s,
        "passes": passes,
        "traced_passes": traced,
        "attempted": sum(p["attempted"] for p in passes + traced),
        "failed": sum(p["failed"] for p in passes + traced),
        "cells_per_pass": cells,
        "errors": errors,
    }
    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        setup_totals = tracer.totals(0, setup_end)
        for name in PARSE_SPANS:
            metrics[f"{name}_s"] = setup_totals.get(name, 0.0)
        metrics["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in traced
        ) - statistics.median(p["wall_s"] for p in passes)
        result["layers"] = metrics
        result["spans"] = tracer.spans
    return result


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def import_superchar():
    """Import the library from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "superchar" / "__init__.py").is_file():
        raise SystemExit(f"superchar sources not found under {src}")
    sys.path.insert(0, str(src))
    import superchar

    if not Path(superchar.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported superchar from {superchar.__file__}, not from {src}")
    return superchar


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    limit = MEM_LIMIT_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    ref_before = reference_s() if args.setup_only else None
    t0 = time.perf_counter()
    import_superchar()
    import numpy

    import_s = time.perf_counter() - t0
    jobs = WORKLOADS[args.workload]
    work = OUT_DIR / "work" / args.workload
    expected = load_expected()
    if args.setup_only:
        t1 = time.perf_counter()
        setup(jobs, work, expected)
        raw = import_s + time.perf_counter() - t1
        ref_after = reference_s()
        setup_s = raw * REF_NOMINAL_S * 2 / (ref_before + ref_after)
        print(json.dumps({"setup_raw_s": raw, "refs": [ref_before, ref_after], "setup_s": setup_s}))
        return 0
    result = run_workload(jobs, args.seed, args.seconds, bool(args.trace), work, expected)
    result["import_s"] = import_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["numpy"] = numpy.__version__
    spans = result.pop("spans", None)
    if spans is not None:
        trace_file = OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(spans) + "\n", encoding="utf-8")
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
