"""The per-layer benchmark runs and reports every figure of its six stages."""

import importlib.util
import json
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_layers_smoke():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "tools" / "bench_layers.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    start = time.perf_counter()
    result = json.loads(json.dumps(bench.measure(
        ROOT / "src", kmaxes=(0, 4), sizes=((1, 3), (2, 5)), finite=(2, 3), telescope=(1, 0, 3),
        ode=4, process_runs=1)))
    # the in-process stages take milliseconds; the five children about 0.1 s each
    assert time.perf_counter() - start < 3
    assert set(result) == {"python", "implementation", "machine", "cpus",
                           "PYTHONDONTWRITEBYTECODE", "tables", "timings", "finite", "telescope",
                           "ode", "process"}
    assert [r["kmax"] for r in result["tables"]] == [0, 4]
    assert [bench.table_runs(kmax) for kmax in bench.KMAXES] == [80, 20, 5, 3]
    assert [(r["kmax"], r["nmax"]) for r in result["timings"]] == [(1, 3), (2, 5)]
    finite, telescope, ode = result["finite"], result["telescope"], result["ode"]
    assert (finite["kmax"], finite["nmax"]) == (2, 3)
    assert (telescope["count"], telescope["seed"], telescope["nmax"], ode["nmax"]) == (1, 0, 3, 4)
    for record, timed in [*((r, bench.TABLES_TIMED) for r in result["tables"]),
                          *((r, bench.TIMED) for r in result["timings"]),
                          (finite, ["finite_identity_sweep"]), (telescope, ["telescope_sweep"]),
                          (ode, bench.ODE_TIMED)]:
        assert record["runs"] >= 3
        assert set(record["ms"]) == set(timed)
        assert all(ms >= 0 for ms in record["ms"].values())
    process = result["process"]
    assert process["runs"] == 1
    assert set(process["ms"]) == {"import padsum.cli", "verify padic", "verify finite",
                                  "verify telescope", "verify ode"}
    assert all(ms > 0 for ms in process["ms"].values())  # a child uses some CPU
