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
    workloads = [workload for workload, _, _ in entries]
    assert workloads == ["seminorm-sweep"] * 3 + ["validate-deep"] * 3
    assert all(sdepth == 3 for workload, _, sdepth in entries if workload == "validate-deep")


def test_tiny_window_schema(tmp_path):
    layers = _layers_tool()
    out = tmp_path / "layers.json"
    out.write_text(json.dumps({"kept": 1, "layers": {"other": {}}}))
    argv = ["--label", "tiny", "--out", str(out), "--repeats", "3", "--window", "3,1,1,2"]
    assert layers.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["kept"] == 1 and set(record["layers"]) == {"other", "tiny"}
    run = record["layers"]["tiny"]
    assert set(run) == {"machine", "entries"}
    (entry,) = run["entries"]
    assert entry["workload"] == "window"
    assert entry["field"] == [3, 1, 1] and entry["seminorm_depth"] == 2
    assert (entry["vertices"], entry["functions"], entry["repeats"]) == (13, 12, 3)
    # Per function: one rho_diag call, and the zero element of the Lipschitz sweep.
    assert entry["evaluator_calls"] == 24
    assert list(entry["layers_ms"]) == list(layers.LAYERS)
    for stats in entry["layers_ms"].values():
        assert set(stats) == {"median", "iqr"}
        assert stats["median"] > 0.0 and stats["iqr"] >= 0.0
