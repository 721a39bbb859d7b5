"""The per-layer p-adic benchmark runs and reports every figure."""

import json
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_layers_smoke(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # it imports bench_tables beside it
    import bench_layers

    start = time.perf_counter()
    result = json.loads(json.dumps(bench_layers.measure(ROOT / "src", sizes=((1, 3), (2, 5)))))
    assert time.perf_counter() - start < 1
    assert set(result) == {"python", "implementation", "machine", "cpus", "timings"}
    assert [(r["kmax"], r["nmax"]) for r in result["timings"]] == [(1, 3), (2, 5)]
    for record in result["timings"]:
        assert record["runs"] >= 3
        assert set(record["ms"]) == set(bench_layers.TIMED)
        assert all(ms >= 0 for ms in record["ms"].values())
