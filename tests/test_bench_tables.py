"""The per-layer tables benchmark runs and reports every figure."""

import importlib.util
import json
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tables_smoke():
    spec = importlib.util.spec_from_file_location("bench_tables", ROOT / "tools" / "bench_tables.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    start = time.perf_counter()
    result = json.loads(json.dumps(bench.measure(ROOT / "src", kmaxes=(0, 4))))
    assert time.perf_counter() - start < 1
    assert set(result) == {"python", "implementation", "machine", "cpus", "timings"}
    assert [(r["kmax"], r["eps"]) for r in result["timings"]] == [(0, 1), (0, -1), (4, 1), (4, -1)]
    for record in result["timings"]:
        assert record["runs"] >= 3
        assert set(record["ms"]) == set(bench.TIMED)
        assert all(ms >= 0 for ms in record["ms"].values())
