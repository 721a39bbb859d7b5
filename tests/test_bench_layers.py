"""The per-layer benchmark runs and reports every figure of its three stages."""

import json
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_layers_smoke(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # it imports bench_tables beside it
    import bench_layers

    start = time.perf_counter()
    result = json.loads(json.dumps(bench_layers.measure(
        ROOT / "src", sizes=((1, 3), (2, 5)), finite=(2, 3), process_runs=1)))
    # the in-process stages take milliseconds; the three children about 0.1 s each
    assert time.perf_counter() - start < 3
    assert set(result) == {"python", "implementation", "machine", "cpus",
                           "PYTHONDONTWRITEBYTECODE", "timings", "finite", "process"}
    assert [(r["kmax"], r["nmax"]) for r in result["timings"]] == [(1, 3), (2, 5)]
    for record in result["timings"]:
        assert record["runs"] >= 3
        assert set(record["ms"]) == set(bench_layers.TIMED)
        assert all(ms >= 0 for ms in record["ms"].values())
    finite = result["finite"]
    assert (finite["kmax"], finite["nmax"]) == (2, 3) and finite["runs"] >= 3
    assert set(finite["ms"]) == set(bench_layers.FINITE_TIMED)
    assert all(ms >= 0 for ms in finite["ms"].values())
    process = result["process"]
    assert process["runs"] == 1
    assert set(process["ms"]) == set(bench_layers.PROCESSES)
    assert all(ms > 0 for ms in process["ms"].values())  # a child uses some CPU
