"""Command-line interface: formats, caching, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padsum.cli import (
    BFileError,
    main,
    parse_bfile,
    parse_rational,
)
from padsum.tables import TableSet, _dumps

ROOT = Path(__file__).resolve().parents[1]
REFERENCES = ROOT / "perfbench" / "references.json"

# Exit code and SHA-256 of the stdout of small runs of each verify path;
# any change to what they print must show here.
GOLDEN_STDOUT = {
    "verify finite --kmax 4 --nmax 8 --format json":
        (0, "a99ddfecb974106c905ff8e66181d2d9b03ee5c9cfb979428df3c9eb52347057"),
    "verify padic --kmax 3 --nmax 40 --primes 2,3 --x-values 1,-1,2 --format json":
        (0, "5870e6effd202fcee895f6b67543beed9e5049651a11d8f4f955fa8f5cf542ef"),
    # -1 is the k = 1 sum, so at k = 2 the claim fails: the profile is still printed
    "verify padic --claim=-1 --k 2 --nmax 30 --primes 2,3 --format csv":
        (1, "6796798a86bc1a6131d39fda5eecb2e7adb67fe34ae66fb3d03dabb1703c776b"),
    "verify telescope --count 4 --seed 3 --nmax 8 --format json":
        (0, "99487a01084af50e15eeeb4cf7140ff43ad380ecdb10586247463abcbdd9180d"),
    "verify ode --nmax 12 --format json":
        (0, "5fd6dfdfa3e0b4385072f34f9aa5d06517ae2741f5d11c8c955dc7ca1b9476ae"),
    # 1/3 is the k = 2 sum at x = 2/3: fractional partial sums in the profile
    "verify padic --claim=1/3 --k 2 --x 2/3 --nmax 30 --primes 2,5 --format csv":
        (0, "8f70926a5d11355da83b391cfd2088b6ac48ffe34d7774c45b89a95cbd101c4d"),
}


# SHA-256 of the file `tables --no-cache` writes, per (format, kmax, eps)
GOLDEN_TABLES = {
    ("text", 0, "1"): "3f0a5abcf17966f7cfb9b01f9e50118e7d98b25697e58a0a472fc8ff9ab84a8a",
    ("text", 0, "-1"): "af41fa749342a6cf466ab4cb9684771b32a8f3767e530e006cbc45d688cd5361",
    ("text", 5, "1"): "637b2e4ab122d56de4f73c6d88a03ac7f93c3e583532a8b5243fbb1cccff66d3",
    ("text", 5, "-1"): "1b1153a202c118bc26846416716be9fd727e0029bae16b1ec4f331ecd0f3ffbb",
    ("csv", 0, "1"): "225e422993ac21072d7e460e7e5b81afec458f0879457eb29b58d1e3536eb135",
    ("csv", 0, "-1"): "225e422993ac21072d7e460e7e5b81afec458f0879457eb29b58d1e3536eb135",
    ("csv", 5, "1"): "5c4acc5c3ea78ff0ca1f9f03134923d5248a44fb443f4bcd3d6e832067c75485",
    ("csv", 5, "-1"): "5c4acc5c3ea78ff0ca1f9f03134923d5248a44fb443f4bcd3d6e832067c75485",
}


@pytest.fixture()
def dirs(tmp_path):
    out = tmp_path / "out"
    cache = tmp_path / "cache"
    return out, cache


def run(args):
    return main([str(a) for a in args])


def test_rational_literals_round_trip():
    for text in ("3", "-2/3", "0", "+7/2", "10/4"):
        value = parse_rational(text)
        assert parse_rational(str(value)) == value
    assert parse_rational("-2/3") == Fraction(-2, 3)


def test_rational_literal_rejects_floats():
    import argparse

    for bad in ("0.5", "1e3", "1/2.0", "nan", "1/0", "-3/0"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_rational(bad)


@pytest.mark.parametrize("flag", ["--x-values", "--x", "--claim"])
def test_zero_denominator_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "padic", f"{flag}=1/0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "zero denominator in '1/0'" in err and "Traceback" not in err


def test_tables_json_and_warm_cache(dirs, capsys):
    out, cache = dirs
    assert run(["tables", "--kmax", 11, "--format", "json", "--out", out, "--cache-dir", cache]) == 0
    path = out / "tables_k11_p1.json"
    data = json.loads(path.read_text())
    assert data["u"][10] == 17731
    assert data["v"][10] == 13209
    first_bytes = path.read_bytes()
    assert run(["tables", "--kmax", 11, "--format", "json", "--out", out, "--cache-dir", cache]) == 0
    assert path.read_bytes() == first_bytes  # warm cache is byte-identical
    assert len(list(cache.glob("tables_*.json"))) == 1


def _edited(path, change):
    """A corruption that replaces the entry's item at ``path`` (keys and
    indices) by ``change`` of its value, in the entry's own JSON style, so
    that the edit is the only difference."""
    def corrupt(text):
        data = json.loads(text)
        *outer, last = path
        node = data
        for key in outer:
            node = node[key]
        node[last] = change(node[last])
        return _dumps(data)
    return corrupt


# ways to spoil the cache entry of `tables --kmax 3 --eps 1`
CORRUPTIONS = {
    "truncated": lambda text: text[: len(text) // 2],
    "missing-keys": lambda text: '{"eps": 1}',
    "other-kmax": _edited(("kmax",), lambda k: 2),
    "float-coefficient": _edited(("A", 0), lambda a0: [[1.5]]),  # A_0 = 1.5
    "float-in-U": _edited(("U", 0, 1), float),  # 1 -> 1.0
    "true-in-A": _edited(("A", 0, 0, 0), bool),  # 1 -> true
    "true-eps": _edited(("eps",), bool),  # 1 -> true
    "tampered-pair": _edited(("u", 0), lambda u1: 99),  # u_1 = 99
    "short-U": _edited(("U",), lambda u: u[:-1]),
    "deep-nesting": lambda text: "[" * 100_000,
    "tampered-A": _edited(("A", 1, 1, 0), lambda c: c - 1),  # A_1 = (n - 3)x + 1
    # A_2's x^1 coefficient n - 5 -> n^2 - 5 leaves A_2(0; x), A_2(1; x), U and V as they were
    "A-off-recurrence": _edited(("A", 2, 1), lambda c: [c[0], 0, c[1]]),
    "reformatted": lambda text: json.dumps(json.loads(text)),  # same data, other bytes
}


@pytest.mark.parametrize("corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
def test_corrupt_cache_entry_is_rebuilt(dirs, capsys, corrupt):
    out, cache = dirs
    args = ["tables", "--kmax", 3, "--format", "json", "--out", out, "--cache-dir", cache]
    assert run(args) == 0
    path = out / "tables_k3_p1.json"
    fresh = path.read_bytes()
    (entry,) = cache.iterdir()
    entry.write_text(corrupt(entry.read_text()))
    assert run(args) == 0
    assert path.read_bytes() == fresh
    assert entry.read_bytes() == fresh  # rebuilt in place, no temporary file left
    assert list(cache.iterdir()) == [entry]


def test_cli_import_loads_no_hashlib():
    # the cache entry is named by (kmax, eps) alone, so no padsum process
    # pays for loading hashlib (and OpenSSL) at start-up
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, padsum.cli; assert 'hashlib' not in sys.modules"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_corrupt_cache_entry_renders_fresh_text(dirs, capsys):
    # a float coefficient in a warm entry must not reach the text renderer
    out, cache = dirs
    args = ["tables", "--kmax", 3, "--format", "text", "--out", out]
    assert run([*args, "--no-cache"]) == 0
    path = out / "tables_k3_p1.txt"
    fresh = path.read_bytes()
    assert run([*args, "--cache-dir", cache]) == 0
    (entry,) = cache.iterdir()
    entry.write_text(CORRUPTIONS["float-coefficient"](entry.read_text()))
    assert run([*args, "--cache-dir", cache]) == 0
    assert path.read_bytes() == fresh
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("eps", ["1", "-1"])
def test_tables_cold_and_warm_match_benchmark_digests(eps, dirs, capsys, monkeypatch):
    # the benchmark's own tables-cold-warm steps and reference digests, read only
    argv = ["tables", "--kmax", "30", "--eps", eps, "--format", "json",
            "--out", "{out}", "--cache-dir", "{cache}"]
    expected = json.loads(REFERENCES.read_text())["outputs"][" ".join(argv)]
    out, cache = dirs
    args = [{"{out}": out, "{cache}": cache}.get(arg, arg) for arg in argv]
    path = out / f"tables_k30_{'p1' if eps == '1' else 'm1'}.json"
    assert run(args) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
    path.unlink()
    monkeypatch.setattr(TableSet, "build", None)  # the warm run must not build
    assert run(args) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


def test_tables_text_negative_sign(dirs, capsys):
    out, cache = dirs
    assert run(["tables", "--kmax", 1, "--eps", "-1", "--format", "text", "--out", out,
                "--cache-dir", cache]) == 0
    text = (out / "tables_k1_m1.txt").read_text()
    assert "A_1(n;x) = (n - 2)x - 1" in text
    assert run(["tables", "--kmax", 0, "--format", "text", "--out", out,
                "--cache-dir", cache]) == 0
    minimal = (out / "tables_k0_p1.txt").read_text()
    assert "A_0(n;x) = 1" in minimal
    assert "U_1" not in minimal


def test_tables_csv(dirs):
    out, cache = dirs
    assert run(["tables", "--kmax", 4, "--format", "csv", "--out", out, "--no-cache",
                "--cache-dir", cache]) == 0
    lines = (out / "tables_k4_p1.csv").read_text().splitlines()
    assert lines[0] == "k,u,v"
    assert lines[4] == "4,-2,-5"
    assert not list(cache.glob("*"))  # --no-cache really skips the cache


@pytest.mark.parametrize("fmt, kmax, eps", list(GOLDEN_TABLES))
def test_tables_file_is_pinned(fmt, kmax, eps, dirs, capsys):
    out, cache = dirs
    assert run(["tables", "--kmax", kmax, "--eps", eps, "--format", fmt, "--out", out,
                "--no-cache"]) == 0
    (path,) = out.iterdir()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TABLES[fmt, kmax, eps]


# a missing b-file, and output or cache directories under a regular file
@pytest.mark.parametrize(
    "argv",
    [
        lambda regular: ["seq-compare", "U-1", "--bfile", regular.parent / "missing.txt"],
        lambda regular: ["tables", "--kmax", 1, "--out", regular / "out"],
        lambda regular: ["tables", "--kmax", 1, "--out", regular.parent,
                         "--cache-dir", regular / "cache"],
    ],
    ids=["missing-bfile", "out-under-file", "cache-under-file"],
)
def test_io_errors_exit_2(argv, tmp_path, capsys):
    regular = tmp_path / "regular"
    regular.write_text("")
    assert run(argv(regular)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_telescope_refuses_negative_count(capsys):
    assert run(["verify", "telescope", "--count", -3]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: count must be >= 0, got -3\n"


def test_verify_suites_exit_zero(capsys):
    assert run(["verify", "finite", "--kmax", 4, "--nmax", 8]) == 0
    assert "PASS finite" in capsys.readouterr().out
    assert run(["verify", "telescope", "--count", 4, "--nmax", 8]) == 0
    assert run(["verify", "ode", "--nmax", 10]) == 0
    assert run(["verify", "padic", "--kmax", 2, "--nmax", 30, "--primes", "2,3"]) == 0


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT))
def test_verify_stdout_is_pinned(argv, capsys):
    rc = run(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (rc, digest) == GOLDEN_STDOUT[argv]


@pytest.mark.parametrize(
    "argv",
    [
        "verify finite --kmax 0",
        "verify padic --kmax 0",
        "verify padic --claim=7 --k 1 --nmax 0",
        "verify padic --nmax 0",
        "verify ode --nmax 2",
    ],
)
def test_verify_refuses_to_pass_zero_checks(argv, capsys):
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv", ["verify telescope --kmax 0 --count 4 --nmax 8", "verify ode --kmax 0 --nmax 10"]
)
def test_verify_ignores_kmax_where_unused(argv, capsys):
    assert run(argv.split()) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_all_runs_the_defaults(capsys):
    # --kmax and --nmax select a single suite's size; ``verify all`` ignores them
    assert run(["verify", "all", "--kmax", 1, "--nmax", 1]) == 0
    out = capsys.readouterr().out
    for limits in ("(k<=15, eps=+-1, 8 x values, n<=25)", "named instances, N<=15",
                   "(k<=8, x in {1,-1,2}, p in {2,3,5,7,11}, N<=200)", "orders 3..50"):
        assert limits in out


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify all --claim=7 --k 1 --nmax 5 --kmax 1 --primes 5",
         "--claim applies only to verify padic"),
        ("verify finite --claim=7", "--claim applies only to verify padic"),
        ("verify telescope --claim=7 --count 1 --nmax 2", "--claim applies only to verify padic"),
        ("verify padic --claim=-1 --k 1 --kmax 3 --nmax 5 --primes 5",
         "--kmax does not apply to verify padic --claim; --k sizes its tables"),
    ],
)
def test_claim_outside_single_claim_mode_is_a_usage_error(argv, message, capsys):
    # a claim no suite checks, or a --kmax the claim's tables ignore, must not pass silently
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_verify_single_claim_defaults_to_nmax_200(capsys):
    assert run(["verify", "padic", "--claim=-1", "--k", 1, "--primes", 5, "--format", "json"]) == 0
    assert [r["n_max"] for r in json.loads(capsys.readouterr().out)] == [200]


def test_verify_finite_reports_tampered_table(monkeypatch, capsys, tamper_v1):
    build = TableSet.build
    monkeypatch.setattr(
        TableSet, "build",
        staticmethod(lambda kmax, eps: tamper_v1(build(kmax, eps))),
    )
    assert run(["verify", "finite", "--kmax", 2, "--nmax", 3]) == 1
    assert capsys.readouterr().out == (
        "FAIL finite: finite identity residual -1 != 0 at k=1 eps=+1 x=-3 n=1\n"
    )


def test_verify_padic_outside_domain_exits_2(capsys):
    # sum n! n x^n diverges 2-adically at x = 1/2, so any claim would pass
    args = ["verify", "padic", "--claim=5", "--k", 1, "--x", "1/2", "--nmax", 60]
    assert run([*args, "--primes", 2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: x = 1/2 is outside the convergence domain for p = 2")
    assert run([*args, "--primes", 3]) == 1
    assert "violated at N=6" in capsys.readouterr().out


def test_verify_single_claim_modes(capsys):
    assert run(["verify", "padic", "--claim=-1", "--k", 1, "--nmax", 40, "--primes", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert run(["verify", "padic", "--claim=-2", "--k", 1, "--nmax", 40, "--primes", "2"]) == 1
    out = capsys.readouterr().out
    assert "violated at N=" in out


def test_verify_json_report(capsys):
    assert run(["verify", "padic", "--claim=-1", "--k", 1, "--nmax", 20, "--primes", "5",
                "--format", "json", "--precision", 6]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["verdict"] == "PASS"
    assert reports[0]["claimed"] == "-1"
    assert reports[0]["claimed_expansion"] == "p=5 val=0 digits=[4,4,4,4,4,4]"


def test_verify_csv_profile(capsys):
    assert run(["verify", "padic", "--claim=-1", "--k", 1, "--nmax", 5, "--primes", "2",
                "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "N,partial,valuation"
    assert len(rows) == 6


def test_seq_bfile_output(capsys):
    assert run(["seq", "A+0,1", "--kmax", 5]) == 0
    assert capsys.readouterr().out == "0 1\n1 -1\n2 -1\n3 5\n4 -5\n5 -21\n"
    assert run(["seq", "U+1", "--kmax", 4]) == 0
    assert capsys.readouterr().out == "1 0\n2 1\n3 -1\n4 -2\n"


def test_seq_compare_match_and_mismatch(tmp_path, capsys):
    # Bell numbers match U-1 in absolute value
    reference = tmp_path / "b.txt"
    reference.write_text("# reference\n1 2\n2 5\n3 15\n4 52\n")
    assert run(["seq-compare", "U-1", "--kmax", 4, "--bfile", reference]) == 0
    assert "MATCH" in capsys.readouterr().out

    shifted = tmp_path / "shifted.txt"
    shifted.write_text("1 5\n2 15\n3 52\n")
    assert run(["seq-compare", "U-1", "--kmax", 4, "--bfile", shifted]) == 1
    assert "MISMATCH at position 0" in capsys.readouterr().out

    # b-file indices, not line positions, pick our terms: index 3 is U_3
    gap = tmp_path / "gap.txt"
    gap.write_text("1 2\n3 15\n")
    assert run(["seq-compare", "U-1", "--kmax", 4, "--bfile", gap]) == 0
    assert capsys.readouterr().out.startswith("MATCH: 2 terms agree")
    gap.write_text("0 1\n1 2\n3 15\n9 1\n")  # U-families start at index 1
    assert run(["seq-compare", "U-1", "--kmax", 4, "--bfile", gap]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("MATCH: 2 terms agree")
    assert captured.err == "skipped 2 b-file entries outside our indices\n"


def test_seq_compare_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\nnot a line\n")
    assert run(["seq-compare", "U-1", "--kmax", 3, "--bfile", bad]) == 2
    assert "line 2" in capsys.readouterr().err
    bad.write_text("# only a comment\n")
    assert run(["seq-compare", "U-1", "--kmax", 3, "--bfile", bad]) == 2
    assert "nothing to compare" in capsys.readouterr().err


def test_parse_bfile_rules():
    entries = parse_bfile("# comment\n\n0 1\n1 -1\n")
    assert entries == [(0, 1), (1, -1)]
    with pytest.raises(BFileError):
        parse_bfile("0 1\n0 2\n")  # indices must increase
    with pytest.raises(BFileError):
        parse_bfile("0 x\n")


def test_cache_info_and_clear(dirs, capsys):
    out, cache = dirs
    assert run(["tables", "--kmax", 3, "--format", "json", "--out", out, "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert run(["cache", "info", "--cache-dir", cache]) == 0
    assert "table files: 1" in capsys.readouterr().out
    assert run(["cache", "clear", "--cache-dir", cache]) == 0
    assert not list(cache.glob("tables_*.json"))
