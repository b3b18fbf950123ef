"""The padiclab benchmark: CLI requests as users run them, one process each.

Usage::

    python3 bench/run.py --workload roots-deep --seed 1 --trace 0
    python3 bench/run.py --make-reference

Run from a checkout of the repository; the package is taken from ``src/``
(``PYTHONPATH=src``), never from an installed copy.  Each request is one
fresh ``python -m padiclab.cli`` process with cold caches and the full
import cost.  The loop is closed: the next request starts only after the
previous process has exited, and this script idles in ``os.wait4`` while a
request runs.  A run repeats its seeded request list (see ``workloads.py``)
until ``--seconds`` (by default ``run_seconds`` in BENCHMARK.json) are
used up and prints, as its last stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``req_p50_s``,
``setup_s``, ``peak_rss_mb``), the times scaled for the machine's speed
around each process (see ``SpeedProbe`` and ``setup_time``).  ``--trace 1`` runs every request under
``tracer.py`` instead and reports per-layer metrics, the medians over
passes of per-pass sums; the spans are written to
``bench/.work/spans-<workload>-<seed>.jsonl``.

Every output is checked against ``reference.json`` (generated from the seed
commit by ``--make-reference``); a nonzero exit, a timeout or a mismatch is
a failed operation.  Each run also checks that a reference with one value
perturbed is reported as a mismatch, and a traced run checks that every
count repeats exactly in every pass.  ``--record FILE`` writes the details
of the run (environment, every request, the per-layer breakdown) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
TRACER = BENCH / "tracer.py"

SETUP_REPEATS = 5  # fresh interpreters timed for setup_s
# setup_s is expressed at a reference-import time of REF_IMPORT_S: the third
# party imports that dominate ``import padiclab.cli`` today, timed beside it.
REF_IMPORT = "import numpy, scipy.sparse.linalg, mpmath"
REF_IMPORT_S = 0.4
PROBE_REPEATS = 4  # timings of the speed probe per CPU and measurement
PROBE_REF_S = 0.008  # probe time at which scaled times are expressed
REQUEST_TIMEOUT = 60.0  # seconds; a request killed by it counts as failed
RUN_DEADLINE = 160.0  # no request may run past this many seconds into a run

# Per-layer metrics: span names summed per pass, as "<name>_s".
LAYER_TIMES = (
    "cli.import",
    "cli.main",
    "qspecial.find_roots",
    "qspecial.phi11",
    "qspecial.phi11_derivative",
    "spectrum_zeta.full_spectrum",
)
# Per-layer counts: span names whose calls are counted, as "<name>_calls".
LAYER_CALLS = (
    "qspecial.phi11",
    "qspecial.phi11_derivative",
    "qspecial.find_roots",
    "spectrum_zeta.zeta_DR",
    "spectrum_zeta.eigsh",
    "spectrum_zeta.eigvalsh",
    "operators.assemble_DstarD",
    "operators.svds",
)
# Counters kept by the tracer's counting wrappers.
LAYER_COUNTERS = (
    "operators.testfn_calls",
    "tree.center_calls",
    "tree.tree_window_r_calls",
    "field_model.centers_built",
    "field_model.pi_power_calls",
)
# Count metrics that must repeat exactly (all but the ratio).
EXACT_COUNTS = (
    tuple(f"{n}_calls" for n in LAYER_CALLS) + LAYER_COUNTERS + (
        "qspecial.find_roots_cache_hits", "qspecial.roots_certified", "qspecial.max_dps",
        "spectrum_zeta.eigsh_max_n", "spectrum_zeta.eigvalsh_max_n",
        "operators.assembled_vertices", "seminorms.vertices_swept",
    )
)


def child_env() -> dict[str, str]:
    """The caller's environment (thread settings as found), package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PADICLAB_OUTDIR", None)  # output must go to stdout
    return env


def spawn(argv: list[str], out_path: Path, timeout: float) -> dict:
    """Run one process to completion; time it from spawn to exit."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "latency_s": latency,
        "exit": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def _probe_loop() -> None:
    x = 1
    for i in range(60_000):
        x = (x * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF


class SpeedProbe:
    """The machine's speed beside each timed process, from a pure-Python loop.

    On a shared host each CPU can run at two thirds of its speed for a
    changing share of the time, and that share drifts within seconds and
    over minutes, CPU time included; unscaled timings then move between runs
    by more than the bounds in BENCHMARK.json.  Before the first and after
    every timed process (never while one runs) the loop is timed
    ``PROBE_REPEATS`` times on each CPU this process may use.  A process's
    time is scaled to a machine on which the loop takes ``PROBE_REF_S``:
    multiplied by ``PROBE_REF_S`` over the loop time of the slower CPU, the
    median of its samples just before and just after the process.  The
    slower CPU, because a request is not pinned and a BLAS solve uses both;
    the median, because a single loop can be stretched tenfold when the host
    deschedules the CPU.  Unscaled times are kept in ``--record``.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: list[dict[int, list[float]]] = []  # per measurement, per CPU
        self.measure()

    def measure(self) -> None:
        sample: dict[int, list[float]] = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times = sample[cpu] = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                _probe_loop()
                times.append(time.perf_counter() - t0)
        os.sched_setaffinity(0, self.cpus)  # children inherit it
        self.samples.append(sample)

    def scale(self) -> float:
        """Scale factor for the process between the last two measurements."""
        before, after = self.samples[-2:]
        return PROBE_REF_S / max(statistics.median(before[c] + after[c]) for c in self.cpus)


def timed(probe: SpeedProbe, argv: list[str], out_path: Path, timeout: float) -> dict:
    """``spawn``, then a speed measurement before the next process starts;
    ``scaled_s`` is the latency scaled by the measurements around it."""
    res = spawn(argv, out_path, timeout)
    probe.measure()
    res["scaled_s"] = res["latency_s"] * probe.scale()
    return res


ENV_PROBE = """
import json, os, sys
import padiclab.cli, mpmath, numpy, scipy
vars_ = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
print(json.dumps({
    "python": sys.version.split()[0], "padiclab": padiclab.__version__,
    "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
    "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
    "threads": {v: os.environ.get(v) for v in vars_},
}))
"""


def setup(probe: SpeedProbe, trace: bool) -> tuple[dict, list[dict]]:
    """Untimed warm-up (byte-compiles, fills the file cache, probes the
    environment), then ``SETUP_REPEATS`` timed ``import padiclab.cli``, each
    after a timed ``REF_IMPORT``."""
    out = WORK / "setup.out"
    warm = spawn([sys.executable, "-c", ENV_PROBE], out, REQUEST_TIMEOUT)
    if warm["exit"] != 0:
        raise SystemExit(f"error: warm-up failed: {out.with_suffix('.err').read_text()}")
    env = json.loads(out.read_text())
    if trace:
        return env, []
    imports = []
    for _ in range(SETUP_REPEATS):
        for kind, code in (("reference", REF_IMPORT), ("padiclab", "import padiclab.cli")):
            res = timed(probe, [sys.executable, "-c", code], out, REQUEST_TIMEOUT)
            if res["exit"] != 0:
                raise SystemExit(f"error: {code!r} failed")
            imports.append({"kind": kind, **res})
    return env, imports


def setup_time(imports: list[dict]) -> float:
    """Median ``import padiclab.cli`` time, scaled to a machine where the
    reference import takes ``REF_IMPORT_S``.

    Import time follows the host's file-system and memory speed more than
    the CPU probe does: unscaled, or scaled by the probe, its median moved by
    a quarter between sets of runs twenty minutes apart.  The reference
    import shares that speed, and a change to what ``padiclab.cli`` imports
    (or does at import) moves the numerator only.
    """
    own = statistics.median(r["latency_s"] for r in imports if r["kind"] == "padiclab")
    ref = statistics.median(r["latency_s"] for r in imports if r["kind"] == "reference")
    return own * REF_IMPORT_S / ref


class Run:
    """One benchmark run: passes over a request list, checks and records."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 probe: SpeedProbe) -> None:
        self.probe = probe
        self.seconds = seconds
        self.trace = trace
        self.requests = workloads.request_list(workload, seed)
        self.reference = json.loads(REFERENCE.read_text())
        missing = [r.key for r in self.requests if r.key not in self.reference]
        if missing:
            raise SystemExit(f"error: no reference for {missing[0]!r}; run --make-reference")
        self.spans_path = WORK / f"spans-{workload}-{seed}.jsonl"
        self.results: list[dict] = []  # one per request made, in order
        self.pass_walls: list[float] = []  # complete passes only
        self.self_test: bool | None = None

    def argv(self, req: workloads.Request, request_id: int) -> list[str]:
        if self.trace:
            return [sys.executable, str(TRACER), str(self.spans_path), str(request_id), *req.argv()]
        return [sys.executable, "-m", "padiclab.cli", *req.argv()]

    def request(self, req: workloads.Request, request_id: int, deadline: float) -> dict:
        out = WORK / "request.out"
        timeout = min(REQUEST_TIMEOUT, max(1.0, deadline - time.perf_counter()))
        res = timed(self.probe, self.argv(req, request_id), out, timeout)
        res.update(request=request_id, args=req.argv(), error=None)
        if res["exit"] != 0:
            stderr = out.with_suffix(".err").read_text(errors="replace").strip().splitlines()
            res["error"] = f"exit {res['exit']}: {stderr[-1] if stderr else ''}"
            return res
        ref = self.reference[req.key]
        try:
            rows = check.canonical(req.command, check.parse_output(out.read_text(), req.fmt))
        except (ValueError, KeyError) as exc:
            res["error"] = f"unparsable output: {exc}"
            return res
        res["error"] = check.mismatch(req.command, rows, ref)
        if self.self_test is None and res["error"] is None:
            self.self_test = check.mismatch(req.command, rows, check.perturbed(req.command, ref)) is not None
        return res

    def execute(self) -> None:
        if self.trace:
            self.spans_path.unlink(missing_ok=True)
        start = time.perf_counter()
        deadline = start + RUN_DEADLINE
        while True:
            t_pass = time.perf_counter()
            for req in self.requests:
                if time.perf_counter() >= deadline:
                    return
                self.results.append(self.request(req, len(self.results), deadline))
            now = time.perf_counter()
            self.pass_walls.append(now - t_pass)
            if now - start + statistics.median(self.pass_walls) > self.seconds:
                return

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r["error"] is not None)

    def complete_results(self) -> list[dict]:
        return self.results[: len(self.pass_walls) * len(self.requests)]

    def request_walls(self, field: str = "latency_s") -> list[float]:
        """Per complete pass, the sum of its request latencies (the pass
        wall time without the speed measurements between requests), or of
        their scaled values with ``field="scaled_s"``."""
        done, n = self.complete_results(), len(self.requests)
        return [sum(r[field] for r in done[i:i + n]) for i in range(0, len(done), n)]


def _span_groups(spans_path: Path, per_pass: int) -> dict[int, tuple[list, list]]:
    """Spans and counter records of each pass."""
    groups: dict[int, tuple[list, list]] = {}
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            spans, counters = groups.setdefault(rec["request"] // per_pass, ([], []))
            (counters if "counters" in rec else spans).append(rec)
    return groups


def breakdown(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total time and self time (total minus children)."""
    child_time: dict[tuple[int, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["request"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time.get((s["request"], s["id"]), 0.0)
    return out


def layer_metrics(spans: list[dict], counters: list[dict], pass_wall: float) -> dict[str, float]:
    """Per-layer metrics of one pass."""
    table = breakdown(spans)
    get = lambda name, field: table.get(name, {}).get(field, 0)  # noqa: E731
    m: dict[str, float] = {f"{n}_s": get(n, "total_s") for n in LAYER_TIMES}
    m["traced.wall_s"] = pass_wall
    m.update({f"{n}_calls": get(n, "calls") for n in LAYER_CALLS})
    for name in LAYER_COUNTERS:
        m[name] = sum(c["counters"].get(name, 0) for c in counters)
    roots = [s for s in spans if s["name"] == "qspecial.find_roots"]
    m["qspecial.find_roots_cache_hits"] = sum(1 for s in roots if s["cache_hit"])
    # Roots certified: growth of each process's cached table (one process
    # per request, so the first table of a request counts in full).
    certified = 0
    for request in {s["request"] for s in roots}:
        sizes = [s["roots"] for s in roots if s["request"] == request]
        certified += max(sizes)
    m["qspecial.roots_certified"] = certified
    m["qspecial.max_dps"] = max((s["max_dps"] for s in roots), default=0)
    evals = m["qspecial.phi11_calls"] + m["qspecial.phi11_derivative_calls"]
    m["qspecial.series_evals_per_root"] = evals / certified if certified else 0.0
    for dep in ("spectrum_zeta.eigsh", "spectrum_zeta.eigvalsh"):
        m[f"{dep}_max_n"] = max((s["n"] for s in spans if s["name"] == dep), default=0)
    m["operators.assembled_vertices"] = sum(
        s["n"] for s in spans if s["name"] == "operators.assemble_DstarD")
    m["seminorms.vertices_swept"] = sum(
        s["n"] for s in spans if s["name"] == "seminorms.check_norm_comparison")
    return m


def traced_metrics(run: Run) -> tuple[dict[str, float], bool, list[dict]]:
    """Median over passes of the per-pass metrics; whether counts repeated."""
    groups = _span_groups(run.spans_path, len(run.requests))
    per_pass = [layer_metrics(*groups.get(i, ([], [])), wall)
                for i, wall in enumerate(run.request_walls())]
    counts_repeat = all(p[c] == per_pass[0][c] for p in per_pass for c in EXACT_COUNTS)
    merged = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    tables = [breakdown(groups.get(i, ([], []))[0]) for i in range(len(run.pass_walls))]
    return merged, counts_repeat, tables


def end_to_end(run: Run, imports: list[dict]) -> dict[str, float]:
    """End-to-end metrics, times scaled by the speed probe; empty when no
    request succeeded."""
    ok = [r["scaled_s"] for r in run.complete_results() if r["error"] is None]
    if not ok:
        return {}
    return {
        "wall_s": statistics.median(run.request_walls("scaled_s")),
        "req_p50_s": statistics.median(ok),
        "setup_s": setup_time(imports),
        "peak_rss_mb": max(r["rss_mb"] for r in run.results),
    }


def spec() -> dict:
    """The benchmark's declaration, BENCHMARK.json at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json declares for this mode, in its order."""
    return spec()["per_layer" if trace else "end_to_end"]


def make_reference() -> int:
    """Run every pool request once (JSON output) and store its canonical rows."""
    WORK.mkdir(exist_ok=True)
    reference = {}
    for args in workloads.pool_keys():
        req = workloads.Request(args, "json")
        res = spawn([sys.executable, "-m", "padiclab.cli", *req.argv()], WORK / "ref.out", 600)
        if res["exit"] != 0:
            print(f"error: {req.key} exited {res['exit']}", file=sys.stderr)
            return 1
        rows = check.parse_output((WORK / "ref.out").read_text(), "json")
        if req.command == "validate" and not all(r["passed"] for r in rows):
            print(f"error: {req.key} has failing rows", file=sys.stderr)
            return 1
        reference[req.key] = check.canonical(req.command, rows)
        print(f"{res['latency_s']:6.2f}s  {req.key}", file=sys.stderr)
    text = "{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reference.items())) + "\n}\n"
    REFERENCE.write_text(text)
    return 0


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=None, help="write run details as JSON")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    if not args.make_reference and args.workload is None:
        ap.error("--workload is required")
    return args


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "padiclab" / "cli.py").is_file():
        print(f"error: no padiclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.make_reference:
        return make_reference()
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE} is missing; run --make-reference", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    trace = bool(args.trace)
    probe = SpeedProbe()
    env, imports = setup(probe, trace)
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    run = Run(args.workload, args.seed, args.seconds, trace, probe)
    run.execute()
    for r in run.results:
        if r["error"] is not None:
            print(f"FAILED {' '.join(r['args'])}: {r['error']}", file=sys.stderr)
    correct = run.failed == 0 and run.self_test is True and bool(run.pass_walls)
    if run.self_test is None:
        print("FAILED self-test not run: no request matched its reference", file=sys.stderr)
    elif not run.self_test:
        print("FAILED self-test: a perturbed reference was not reported", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup": imports, "pass_wall_s": run.pass_walls,
              "pass_s": run.request_walls(), "scaled_pass_s": run.request_walls("scaled_s"),
              "probe_s": probe.samples,
              "requests": run.results}
    if not run.pass_walls:
        values = {}
    elif trace:
        values, counts_repeat, tables = traced_metrics(run)
        record["breakdown"] = tables
        if not counts_repeat:
            correct = False
            print("FAILED exact-count check: counts differ between passes", file=sys.stderr)
        for name, row in sorted(tables[0].items()):
            print(f"  {name:36s} calls={row['calls']:6d} total={row['total_s']:8.3f}s "
                  f"self={row['self_s']:8.3f}s", file=sys.stderr)
    else:
        values = end_to_end(run, imports)
    n_ok = sum(1 for r in run.complete_results() if r["error"] is None)
    print(f"{len(run.pass_walls)} passes of {len(run.requests)} requests, "
          f"{n_ok} latency samples", file=sys.stderr)
    if args.record is not None:
        record["metrics"] = values
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics(trace) if values}
    print(json.dumps({"correct": correct, "attempted": len(run.results),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
