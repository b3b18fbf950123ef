"""``tools/layers.py`` on one tiny window: the schema of the record it writes."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _layers_tool():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import layers
    finally:
        sys.path.pop(0)
    return layers


def test_pool_entries():
    entries = _layers_tool().pool_entries()
    workloads = [workload for workload, _, _, _ in entries]
    assert workloads == ["seminorm-sweep"] * 3 + ["validate-deep"] * 3
    assert all(sdepth == 3 for workload, _, sdepth, _ in entries if workload == "validate-deep")
    # Assembly is timed on each validate-deep entry's depth-N and drift (N + 2) windows.
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads as pools
    finally:
        sys.path.pop(0)
    assert [(field, depths) for workload, field, _, depths in entries
            if workload == "validate-deep"] == [((p, e, f), (n, n + 2))
                                                for p, e, f, n in pools.VALIDATE_POOL]
    assert all(depths == () for workload, _, _, depths in entries if workload == "seminorm-sweep")


def test_tiny_window_schema(tmp_path):
    layers = _layers_tool()
    out = tmp_path / "layers.json"
    out.write_text(json.dumps({"kept": 1, "layers": {"other": {}}}))
    argv = ["--label", "tiny", "--out", str(out), "--repeats", "3", "--window", "3,1,1,4"]
    assert layers.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["kept"] == 1 and set(record["layers"]) == {"other", "tiny"}
    run = record["layers"]["tiny"]
    assert set(run) == {"machine", "entries"}
    (entry,) = run["entries"]
    assert entry["workload"] == "window"
    assert entry["field"] == [3, 1, 1] and entry["seminorm_depth"] == 4
    assert (entry["vertices"], entry["functions"], entry["repeats"]) == (121, 12, 3)
    # Per function: one rho_diag call, and the zero element of the Lipschitz sweep.
    assert entry["evaluator_calls"] == 24
    assert list(entry["layers_ms"]) == list(layers.LAYERS)
    assert [(a["depth"], a["vertices"]) for a in entry["assembly"]] == [(4, 121), (6, 1093)]
    spectrum = entry["validate_spectrum"]
    # As validate calls it; the depth-4 window and the depth-6 drift window
    # each solve min(6, N + 1) leading blocks of their radial block.
    assert set(spectrum) == {"depth", "k", "drift", "eigvalsh_calls", "reference_ms", "layers_ms"}
    assert (spectrum["depth"], spectrum["k"], spectrum["drift"]) == (4, 8, True)
    assert spectrum["eigvalsh_calls"] == 5 + 6
    assert list(spectrum["layers_ms"]) == ["validate_spectrum"]
    for timed in [entry, *entry["assembly"], spectrum]:
        assert set(timed["reference_ms"]) == {"median", "iqr"}
        assert timed["reference_ms"]["median"] > 0.0
        for stats in timed["layers_ms"].values():
            assert set(stats) == {"median", "iqr", "ratio"}
            assert stats["median"] > 0.0 and stats["iqr"] >= 0.0 and stats["ratio"] > 0.0
    for assembly in entry["assembly"]:
        assert set(assembly) == {"depth", "vertices", "reference_ms", "layers_ms"}
        assert list(assembly["layers_ms"]) == list(layers.ASSEMBLY)
