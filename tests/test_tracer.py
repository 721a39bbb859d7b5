"""The benchmark's tracer (perfbench/tracer.py) still binds every name it
traces, and a traced run prints what an untraced one prints."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _python(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PADSUM_CACHE_DIR": str(cwd / "cache")}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "argv",
    [
        "verify padic --kmax 1 --nmax 3 --primes 3 --x-values 1 --format json",
        "tables --kmax 2 --no-cache",
    ],
)
def test_traced_run_matches_untraced(argv, tmp_path):
    plain = _python(["-m", "padsum.cli", *argv.split()], tmp_path)
    stats = tmp_path / "stats.json"
    traced = _python([str(ROOT / "perfbench" / "tracer.py"), str(stats), *argv.split()], tmp_path)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert json.loads(stats.read_text())["counts"]["cli.main"] == 1


def test_traced_warm_read_runs_the_checks(tmp_path):
    argv = "tables --kmax 2 --format json".split()
    cold = _python(["-m", "padsum.cli", *argv], tmp_path)
    stats = tmp_path / "stats.json"
    warm = _python([str(ROOT / "perfbench" / "tracer.py"), str(stats), *argv], tmp_path)
    assert cold.returncode == 0, cold.stderr
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    counts = json.loads(stats.read_text())["counts"]
    assert counts["tables.TableSet.build"] == 0  # a cache hit for the benchmark
    assert counts["tables.recurrence_residuals"] == 1  # the cached A was checked


def test_traced_padic_verdict_takes_no_valuation_per_n(tmp_path):
    # one val_rat per verdict (the convergence gate) and one per report (the
    # claim's expansion); the verdict itself divides by B_N instead
    argv = "verify padic --kmax 1 --nmax 3 --primes 3 --x-values 1 --format json".split()
    stats = tmp_path / "stats.json"
    traced = _python([str(ROOT / "perfbench" / "tracer.py"), str(stats), *argv], tmp_path)
    assert traced.returncode == 0, traced.stderr
    counts = json.loads(stats.read_text())["counts"]
    assert counts["padic.val_rat"] == counts["series.padic_sum_verify"] + counts["padic.expand"]
    assert counts["padic.val_factorial"] == 0


def test_traced_finite_sweep_evaluates_no_genpoly_per_n(tmp_path):
    # the remainder factor is built once per spec as a polynomial in n, so
    # no step substitutes x into A again
    argv = "verify finite --kmax 2 --nmax 3 --format json".split()
    stats = tmp_path / "stats.json"
    traced = _python([str(ROOT / "perfbench" / "tracer.py"), str(stats), *argv], tmp_path)
    assert traced.returncode == 0, traced.stderr
    assert json.loads(stats.read_text())["counts"]["poly.GenPoly.eval"] == 0
