"""Repeat benchmark runs in two sets, compare them, and record a baseline.

Usage::

    python3 bench/baseline.py --seeds 1-10 [--out FILE]

It makes two sets of untraced runs, one run per workload and seed in each,
the second set after the first has finished for every workload, so the two
sets of a workload lie about twenty minutes apart.  For every set it reports,
per end-to-end metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread: the distance between the
quartiles as a share of the median; the spreads of the unscaled times are
reported beside them.  For every metric it reports the gap between the two
sets' medians as a share of the first, and whether every spread but that of
``setup_s`` and every gap stays within the metric's bound.  It then makes two
traced runs per workload with the first seed, checks that every count metric
is identical between them, and keeps the per-layer breakdown of the first.
The tracing overhead is the traced pass time minus the untraced ``wall_s``
of the same seed, both scaled by the speed probe.  With ``--out`` the
summary is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench_run
import workloads

BENCH = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int, repeat: int) -> dict:
    record = bench_run.WORK / f"record-{workload}-{seed}-{trace}-{repeat}.json"
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)]
    proc = subprocess.run(argv, cwd=bench_run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(argv)}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads(record.read_text())
    print(f"{workload} seed={seed} trace={trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if trace == 0), file=sys.stderr, flush=True)
    return {"result": result, "details": details}


# Layer groups whose share of cli.main_s shows which layer a workload
# exercises and which it bypasses (span totals include their children).
ISOLATION = {
    "series": ("qspecial.phi11", "qspecial.phi11_derivative"),
    "roots": ("qspecial.find_roots",),
    "eigensolves": ("spectrum_zeta.eigsh", "spectrum_zeta.eigvalsh"),
    "assembly": ("operators.assemble_DstarD",),
    "seminorm_sweeps": ("operators.rho_diag", "seminorms.lipschitz_depth",
                        "seminorms.spectral_seminorm_formula"),
    "seminorm_checks": ("seminorms.check_norm_comparison",),
}


def isolation(table: dict[str, dict]) -> dict[str, float]:
    """Share of ``cli.main`` time spent in each layer group."""
    main = table["cli.main"]["total_s"]
    return {group: sum(table.get(n, {}).get("total_s", 0.0) for n in names) / main
            for group, names in ISOLATION.items()}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def untraced_set(workload: str, seeds: list[int], seconds: int, bounds: dict[str, float],
                 index: int) -> tuple[dict, list[dict]]:
    """One untraced run per seed: spreads of the scaled and unscaled times."""
    runs = [one_run(workload, seed, seconds, 0, index) for seed in seeds]
    entry: dict = {
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "all_correct": all(r["result"]["correct"] for r in runs),
        "end_to_end": {},
    }
    for name, bound in bounds.items():
        s = summary([r["result"]["metrics"][name]["value"] for r in runs])
        entry["end_to_end"][name] = s
        print(f"  {workload:15s} set {index + 1} {name:12s} median={s['median']:.4g} "
              f"spread={s['spread']:.3f} bound={bound}", file=sys.stderr)
    requests = [[q for q in r["details"]["requests"] if q["error"] is None] for r in runs]
    entry["unscaled"] = {
        "wall_s": summary([statistics.median(r["details"]["pass_s"]) for r in runs]),
        "req_p50_s": summary([statistics.median(q["latency_s"] for q in qs) for qs in requests]),
        "setup_s": summary([
            statistics.median(q["latency_s"] for q in r["details"]["setup"]
                              if q["kind"] == "padiclab") for r in runs]),
    }
    print("  unscaled spreads: " + " ".join(
        f"{k}={v['spread']:.3f}" for k, v in entry["unscaled"].items()), file=sys.stderr)
    return entry, runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    spec = bench_run.spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out: dict = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    sets: dict[str, list[tuple[dict, list[dict]]]] = {w: [] for w in workloads.WORKLOADS}
    for index in range(2):
        for workload in workloads.WORKLOADS:
            sets[workload].append(untraced_set(workload, args.seeds, seconds, bounds, index))
    ok = True
    for workload in workloads.WORKLOADS:
        (first_set, runs), (second_set, _) = sets[workload]
        gaps = {name: second_set["end_to_end"][name]["median"] / first_set["end_to_end"][name]["median"] - 1
                for name in bounds}
        within = all(abs(gaps[n]) <= b and (n == "setup_s" or s["end_to_end"][n]["spread"] <= b)
                     for n, b in bounds.items() for s in (first_set, second_set))
        entry: dict = {
            "environment": runs[0]["details"]["environment"],
            "bounds": bounds,
            "sets": [first_set, second_set],
            "median_gap": gaps,
            "within_bounds": within,
        }
        ok = ok and within and first_set["all_correct"] and second_set["all_correct"]
        print(f"  {workload}: median gaps " + " ".join(f"{k}={v:+.3f}" for k, v in gaps.items())
              + f"; within bounds: {within}", file=sys.stderr)
        first, second = (one_run(workload, args.seeds[0], seconds, 1, i) for i in range(2))
        m1, m2 = first["result"]["metrics"], second["result"]["metrics"]
        differing = [k for k in bench_run.EXACT_COUNTS if m1[k]["value"] != m2[k]["value"]]
        entry["exact_counts_identical"] = not differing
        ok = ok and not differing and first["result"]["correct"] and second["result"]["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in m1.items()}
        entry["breakdown"] = first["details"]["breakdown"][0]
        entry["share_of_cli_main"] = isolation(entry["breakdown"])
        print("  shares of cli.main: " + " ".join(
            f"{k}={v:.1%}" for k, v in entry["share_of_cli_main"].items()), file=sys.stderr)
        entry["tracing_overhead_s"] = (statistics.median(first["details"]["scaled_pass_s"])
                                       - runs[0]["result"]["metrics"]["wall_s"]["value"])
        if differing:
            print(f"  counts differ between traced runs: {differing}", file=sys.stderr)
        out["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
