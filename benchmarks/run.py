"""realbott benchmark: census and oracle throughput, check latency, and a
traced per-layer split.

Run from the repository root:

    python3 benchmarks/run.py --workload census6 --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35 --trace 1

One run measures one workload for ``--seconds`` seconds in this one
process, checks every output, prints each metric by name with its unit,
and ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics with no
tracing; ``--trace 1`` replays the workload with spans (see tracing.py),
reports the per-layer metrics and writes the spans to ``.bench_out/``.
BENCHMARK.json at the repository root names the workloads and metrics
and says why each workload exists; README.md maps each layer metric to
the end-to-end metric it should move.

Workloads, and the layers each one is there to expose:
  census6        run_census(n=6) in one process: the bottcore and f2poly
                 deciders; the bitmask kernel and a Gray-code walk show here.
  verify-sample  matrix_at + analyze + check_against_rows on seeded n = 6/7
                 matrices: the euclid motion oracle, about 85% of the time.
  check-mixed    one closed-loop client sending ``check --json`` through
                 cli.main: parse and rendering, the 2^n freeness scan at
                 n up to 14, and the general P-matrix path.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
SETUP_SAMPLES = 11
CENSUS_N = 6

if not (SRC / "realbott" / "__init__.py").is_file():
    sys.exit(f"benchmark: no realbott sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from realbott import cli  # noqa: E402
from realbott.bottcore import (  # noqa: E402
    BottMatrix,
    InconsistencyError,
    PMatrix,
    analyze,
    has_full_holonomy,
    is_free,
    spin_membership,
)
from realbott.census import (  # noqa: E402
    CensusConfig,
    CensusRow,
    OracleDisagreementError,
    matrix_at,
    run_census,
)
from realbott.euclid import check_against_rows  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import FUNCTIONS, STAGES, Tracer, replay_analyze, traced_layers  # noqa: E402

END_TO_END = {
    "matrices_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Mean self time per call is reported for the functions every workload
# runs; the others get calls and share here and their time in the table.
TIMED_FUNCTIONS = tuple(f for f in FUNCTIONS if f.startswith(("bottcore.", "f2poly.")))


def per_layer_units() -> dict[str, str]:
    units = {}
    for f in FUNCTIONS:
        if f in TIMED_FUNCTIONS:
            units[f + ".us"] = "us"
        units[f + ".calls"] = "count"
        units[f + ".share"] = "fraction"
    units.update(
        {
            "bottcore.is_free.subsets": "count",
            "euclid.check_against_rows.subsets": "count",
            "trace.coverage": "ratio",
            "trace.overhead": "us",
        }
    )
    return units


def _setup_code(body: str) -> str:
    return "import sys\nsys.path.insert(0, sys.argv[1])\n" + body


def analyze_seconds(matrices) -> float:
    """Summed time of analyze() alone over the given Bott matrices."""
    total = 0.0
    for a in matrices:
        t0 = perf_counter()
        analyze(a)
        total += perf_counter() - t0
    return total


class Workload:
    """Defaults shared by the workloads below.

    A workload turns a seed into ``size`` requests; ``request(i)`` is the
    timed call into realbott and ``check(i, result)`` returns
    (matrices, failed matrices) for it.  The traced run interleaves
    ``traced_pass``, ``untraced_pass`` and ``stage_reference_s``, each over
    all the requests.
    """

    size = 1
    traced_cycles = 1  # mirrored pass cycles in a traced run, a fixed count so counts repeat

    def prepare(self, seed: int, workdir: Path) -> None:
        pass

    def capture(self):
        """Context around timed requests; check-mixed captures cli's stdout."""
        return contextlib.nullcontext()

    def warm_up(self) -> None:
        with self.capture():
            for i in range(min(self.size, 20)):
                self.check(i, self.request(i))

    def untraced_pass(self) -> tuple[int, int]:
        matrices = failed = 0
        for i in range(self.size):
            m, f = self.check(i, self.request(i))
            matrices += m
            failed += f
        return matrices, failed


class Census(Workload):
    """Exhaustive n = 6 census; one request is one whole census.  The input
    is the whole index space, whatever the seed."""

    matrices = 1 << (CENSUS_N * (CENSUS_N - 1) // 2)

    def setup_child(self) -> tuple[str, list[str]]:
        code = "from realbott.census import CensusConfig, run_census\n"
        code += "run_census(CensusConfig(n=3))\n"
        return _setup_code(code), []

    def warm_up(self) -> None:
        run_census(CensusConfig(n=4))

    def request(self, i: int):
        try:
            return run_census(CensusConfig(n=CENSUS_N))[0]
        except (OracleDisagreementError, InconsistencyError) as exc:
            return exc

    def check(self, i: int, result) -> tuple[int, int]:
        ok = isinstance(result, CensusRow) and wl.census_row_ok(result)
        return self.matrices, 0 if ok else self.matrices

    def traced_pass(self, t: Tracer) -> tuple[int, int]:
        with traced_layers(t):
            row = t.call("census.run_census", self.request, 0)
        return self.check(0, row)

    def stage_reference_s(self) -> float:
        return analyze_seconds(matrix_at(CENSUS_N, i) for i in range(self.matrices))


class VerifySample(Workload):
    """matrix_at + analyze + check_against_rows per seeded (n, index)."""

    traced_cycles = 3

    def prepare(self, seed: int, workdir: Path) -> None:
        self.inputs = wl.verify_sample_inputs(seed)
        self.size = len(self.inputs)
        self.facts = [wl.bott_facts(wl.rows_at(n, index)) for n, index in self.inputs]

    def setup_child(self) -> tuple[str, list[str]]:
        code = "from realbott import analyze, check_against_rows, matrix_at\n"
        code += "a = matrix_at(int(sys.argv[2]), int(sys.argv[3]))\nanalyze(a)\n"
        code += "sys.exit(1 if check_against_rows(a) else 0)\n"
        return _setup_code(code), [str(v) for v in self.inputs[0]]

    def request(self, i: int):
        n, index = self.inputs[i % self.size]
        try:
            a = matrix_at(n, index)
            return analyze(a), check_against_rows(a)
        except InconsistencyError as exc:
            return exc

    def check(self, i: int, result) -> tuple[int, int]:
        if isinstance(result, Exception):
            return 1, 1
        rep, problems = result
        ok = not problems and wl.facts_hold(wl.bott_report(rep), self.facts[i % self.size])
        return 1, 0 if ok else 1

    def traced_pass(self, t: Tracer) -> tuple[int, int]:
        failed = 0
        with traced_layers(t):
            for i, (n, index) in enumerate(self.inputs):
                t.request = i
                try:
                    a = t.call("census.matrix_at", matrix_at, n, index)
                    rep = replay_analyze(t, a)
                    t.count("euclid.check_against_rows.subsets", 1 << n)
                    result = rep, t.call("euclid.check_against_rows", check_against_rows, a)
                except InconsistencyError as exc:
                    result = exc
                failed += self.check(i, result)[1]
        return self.size, failed

    def stage_reference_s(self) -> float:
        return analyze_seconds(matrix_at(n, index) for n, index in self.inputs)


class CheckMixed(Workload):
    """One closed-loop client: ``check --json FILE [--pmat]`` via cli.main."""

    traced_cycles = 4

    def prepare(self, seed: int, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = wl.check_mixed_inputs(seed)
        self.size = len(self.inputs)
        self.argv: list[list[str]] = []
        self.expected: list[dict | None] = []
        for k, (kind, rows, planted_free) in enumerate(self.inputs):
            path = workdir / f"m{k:04d}.txt"
            path.write_text(wl.to_text(rows), encoding="utf-8")
            self.argv.append(["check", "--json", str(path)] + (["--pmat"] if kind == "pmat" else []))
            self.expected.append(self._expected(kind, rows, planted_free))
        self.buf = io.StringIO()

    @staticmethod
    def _expected(kind: str, rows, planted_free: bool) -> dict | None:
        """The library's verdicts in check's JSON shape, or None when they
        contradict the harness's own facts (every send then fails)."""
        try:
            if kind == "bott":
                report = wl.bott_report(analyze(BottMatrix(rows)))
                facts = wl.bott_facts(rows)
            else:
                p = PMatrix(rows)
                spin, w1, w2 = spin_membership(p)
                report = {
                    "dimension": p.n,
                    "free": is_free(p),
                    "holonomyFull": has_full_holonomy(p),
                    "orientable": w1.is_zero,
                    "w1": str(w1),
                    "w2": str(w2),
                    "kahler": None,
                    "pairing": None,
                    "sVector": None,
                    "spin": spin,
                    "spinMethod": "general",
                }
                facts = wl.pmatrix_facts(rows, planted_free)
        except InconsistencyError:
            return None
        return report if wl.facts_hold(report, facts) else None

    def setup_child(self) -> tuple[str, list[str]]:
        code = "from realbott.cli import main\nsys.exit(main(sys.argv[2:]))\n"
        return _setup_code(code), self.argv[0]

    def capture(self):
        return contextlib.redirect_stdout(self.buf)

    def request(self, i: int):
        self.buf.seek(0)
        self.buf.truncate()
        try:
            rc = cli.main(self.argv[i % self.size])
        except InconsistencyError as exc:
            return exc
        return rc, self.buf.getvalue()

    def check(self, i: int, result) -> tuple[int, int]:
        expected = self.expected[i % self.size]
        if isinstance(result, Exception) or expected is None:
            return 1, 1
        rc, out = result
        return 1, 0 if rc == 0 and json.loads(out) == expected else 1

    def traced_pass(self, t: Tracer) -> tuple[int, int]:
        failed = 0
        with traced_layers(t):
            for i in range(self.size):
                t.request = i
                failed += self.check(i, t.call("cli.main", self.request, i))[1]
        return self.size, failed

    def stage_reference_s(self) -> float:
        """analyze() on the Bott requests; on the P-matrices, the deciders
        check runs for them."""
        total = 0.0
        for kind, rows, _ in self.inputs:
            if kind == "bott":
                total += analyze_seconds([BottMatrix(rows)])
                continue
            p = PMatrix(rows)
            t0 = perf_counter()
            spin_membership(p)
            is_free(p)
            has_full_holonomy(p)
            total += perf_counter() - t0
        return total


WORKLOADS = {
    "census6": Census,
    "verify-sample": VerifySample,
    "check-mixed": CheckMixed,
}


def machine_block(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "BOTT_THREADS": os.environ["BOTT_THREADS"],
    }


def fresh_setup_s(work) -> float:
    """Wall time of a fresh interpreter that imports realbott and makes one
    warm-up call of the workload's kind."""
    code, args = work.setup_child()
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, str(SRC), *args],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        check=True,
    )
    return perf_counter() - t0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024


def measure(work, seconds: int) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics with tracing off, over at least ``seconds``."""
    setup_s = statistics.median(fresh_setup_s(work) for _ in range(SETUP_SAMPLES))
    work.warm_up()
    latencies: list[float] = []
    matrices = failed = 0
    with work.capture():
        start = perf_counter()
        i = 0
        while perf_counter() - start < seconds:
            t0 = perf_counter()
            result = work.request(i)
            elapsed = perf_counter() - t0
            m, f = work.check(i, result)
            latencies.append(elapsed)
            matrices += m
            failed += f
            i += 1
    ordered = sorted(latencies)
    values = {
        "matrices_per_s": matrices / sum(latencies),
        "latency_p50_us": statistics.median(ordered) * 1e6,
        "latency_p99_us": percentile(ordered, 99) * 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"latency samples: {len(latencies)} requests of {matrices // len(latencies)} "
        f"matrices each; p99 is nearest-rank",
        f"setup_s: median of {SETUP_SAMPLES} fresh interpreters",
    ]
    return values, matrices, failed, notes


def measure_traced(work, workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics from a replay with spans.

    Three passes over the same requests run twice per cycle, in a mirrored
    order so that a steady drift in the host's speed cancels: the traced
    replay, the same requests untraced (for the overhead), and analyze()
    alone on the same matrices (the denominator of the coverage).
    """
    work.warm_up()
    t = Tracer()
    seconds = {"traced": 0.0, "untraced": 0.0, "analyze": 0.0}
    attempted = failed = 0
    with work.capture():
        mirrored = ("traced", "untraced", "analyze", "analyze", "untraced", "traced")
        for kind in mirrored * work.traced_cycles:
            if kind == "analyze":
                seconds[kind] += work.stage_reference_s()
                continue
            t0 = perf_counter()
            m, f = work.traced_pass(t) if kind == "traced" else work.untraced_pass()
            seconds[kind] += perf_counter() - t0
            attempted += m
            failed += f
    passes = 2 * work.traced_cycles  # of each kind
    matrices = attempted // (2 * passes)
    traced_s, untraced_s = seconds["traced"] / passes, seconds["untraced"] / passes
    stage_ref_s = seconds["analyze"] / passes

    summary = t.summary()
    root_ns = summary["root_ns"] or 1
    by_name = summary["by_name"]
    empty = {"calls": 0, "self_ns": 0, "incl_ns": 0}
    values: dict[str, float] = {}
    table = []
    for f in FUNCTIONS:
        s = by_name.get(f, empty)
        us = s["self_ns"] / s["calls"] / 1e3 if s["calls"] else 0.0
        share = s["self_ns"] / root_ns
        if f in TIMED_FUNCTIONS:
            values[f + ".us"] = us
        values[f + ".calls"] = s["calls"]
        values[f + ".share"] = share
        table.append(f"  {f:<38} {s['calls']:>9} calls {us:>10.2f} us/call {share:>7.2%}")
    values["bottcore.is_free.subsets"] = t.counts.get("bottcore.is_free.subsets", 0)
    values["euclid.check_against_rows.subsets"] = t.counts.get("euclid.check_against_rows.subsets", 0)
    stage_ns = sum(by_name.get(s, empty)["incl_ns"] for s in STAGES)
    values["trace.coverage"] = stage_ns / passes / 1e9 / stage_ref_s
    values["trace.overhead"] = (traced_s - untraced_s) / matrices * 1e6

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    t.write(spans_path)
    notes = [
        f"per pass: traced {traced_s:.3f} s, untraced {untraced_s:.3f} s, over {matrices} matrices",
        f"{len(t.spans) // 6} spans written to {spans_path.relative_to(ROOT)}",
        "self time per layer function (share of traced time):",
        *table,
    ]
    return values, attempted, failed, notes


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # Pinned so that an inherited value cannot silently cap census workers.
    os.environ["BOTT_THREADS"] = str(NPROC)
    if args.workload == "all":
        return run_all(args)

    work = WORKLOADS[args.workload]()
    workdir = OUT / f"inputs-{os.getpid()}"
    print(f"machine {json.dumps(machine_block(args.seed))}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    try:
        work.prepare(args.seed, workdir)
        if args.trace:
            values, attempted, failed, notes = measure_traced(work, args.workload, args.seed)
            units = per_layer_units()
        else:
            values, attempted, failed, notes = measure(work, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, unit in units.items():
        print(f"{name:<44} {values[name]:>16.6f} {unit}")
    print(f"ops_attempted {attempted}")
    print(f"ops_failed {failed}")
    for note in notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
