"""Command-line interface: formats, caching, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import padsum.cli
import padsum.fps
import padsum.series
from padsum.cli import (
    BFileError,
    build_parser,
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
    # the text reports: one PASS line per suite, and the grid's counts and limits
    "verify all":
        (0, "0c4674618f53809cbb52f520916cd312e36728edd774bb2f81a4a24405ff14ff"),
    "verify padic --kmax 2 --nmax 30 --primes 2,3":
        (0, "63fc17f7fec006e3b1fef97b66ae769b9c0db3450fb13f2e768130689f861987"),
}


# SHA-256 of the file `tables` writes, per (format, kmax, eps)
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


def exit_code(args):
    """``main``'s exit code, also when argparse exits while parsing."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


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
    "float-1.0-in-A": _edited(("A", 0, 0, 0), float),  # 1 -> 1.0
    "true-eps": _edited(("eps",), bool),  # 1 -> true
    "tampered-pair": _edited(("u", 0), lambda u1: 99),  # u_1 = 99
    "short-U": _edited(("U",), lambda u: u[:-1]),
    "deep-nesting": lambda text: "[" * 100_000,
    "tampered-A": _edited(("A", 1, 1, 0), lambda c: c - 1),  # A_1 = (n - 3)x + 1
    # A_2's x^1 coefficient n - 5 -> n^2 - 5 leaves A_2(0; x), A_2(1; x), U and V as they were
    "A-off-recurrence": _edited(("A", 2, 1), lambda c: [c[0], 0, c[1]]),
    "reformatted": lambda text: json.dumps(json.loads(text)),  # same data, other bytes
    # the rows are re-serialised as stored, so the byte comparison cannot see these two
    "extra-column-in-A": _edited(("A", 1), lambda r: r + [[]]),  # A_1 with an empty x^2 column
    "trailing-zero-in-A": _edited(("A", 2, 1), lambda c: c + [0]),  # n - 5 as [-5, 1, 0]
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
    assert run(args) == 0
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


@pytest.mark.parametrize("argv", [
    "verify padic --kmax 8 --nmax 200 --primes 2,3,5,7,11 --x-values 1,-1,2 --precision 16"
    " --format json",
    "verify finite --kmax 15 --nmax 25 --format json",
    "verify telescope --count 20 --seed 0 --nmax 15 --format json",
    "verify ode --nmax 50 --format json",
])
def test_verify_matches_benchmark_digests(argv, capsys):
    # the benchmark's own verify steps and reference digests, read only
    expected = json.loads(REFERENCES.read_text())["outputs"][argv]
    assert run(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


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
    out, _ = dirs
    assert run(["tables", "--kmax", 4, "--format", "csv", "--out", out]) == 0
    lines = (out / "tables_k4_p1.csv").read_text().splitlines()
    assert lines[0] == "k,u,v"
    assert lines[4] == "4,-2,-5"


@pytest.mark.parametrize("fmt, kmax, eps", list(GOLDEN_TABLES))
def test_tables_file_is_pinned(fmt, kmax, eps, dirs, capsys):
    out, _ = dirs
    assert run(["tables", "--kmax", kmax, "--eps", eps, "--format", fmt, "--out", out]) == 0
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


def test_tables_without_cache_dir_writes_nothing_else(tmp_path, monkeypatch, capsys):
    # no default cache directory: neither HOME nor the old variable picks one
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("PADSUM_CACHE_DIR", str(home))
    assert run(["tables", "--kmax", 1, "--out", tmp_path / "out"]) == 0
    regular = tmp_path / "regular"
    regular.write_text("")
    assert run(["tables", "--kmax", 1, "--out", regular / "out"]) == 2  # out-under-file
    assert list(home.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        ("cache info", "invalid choice: 'cache'"),
        ("cache clear --cache-dir D", "invalid choice: 'cache'"),
        ("tables --kmax 1 --no-cache", "unrecognized arguments: --no-cache"),
    ],
)
def test_removed_cache_surfaces_are_usage_errors(argv, message, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a removed surface started work")

    monkeypatch.setattr(padsum.cli, "load_or_build_bundle", unreachable)
    with pytest.raises(SystemExit) as exc:
        run(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_telescope_refuses_negative_count(capsys):
    assert exit_code(["verify", "telescope", "--count", -3]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --count: -3 is under the floor of 0\n")


def test_verify_suites_exit_zero(capsys):
    assert run(["verify", "finite", "--kmax", 4, "--nmax", 8]) == 0
    assert "PASS finite" in capsys.readouterr().out
    assert run(["verify", "telescope", "--count", 4, "--nmax", 8]) == 0
    assert run(["verify", "ode", "--nmax", 10]) == 0
    assert run(["verify", "padic", "--kmax", 2, "--nmax", 30, "--primes", "2,3"]) == 0


@pytest.mark.parametrize(
    "argv, counted",
    [
        ("verify finite", "PASS finite: zero residual on 5520 identity checks"),
        ("verify padic", "p in {2,3,5,7,11}, N<=198)"),
        ("verify padic --claim=-1 --k 1 --nmax 30 --primes 2", "holds to N=28 at p=2"),
        # a random spec draws its factors with range, so only the named ones run
        ("verify telescope --count 0", "named instances, N<=13"),
    ],
)
def test_pass_lines_count_what_the_engine_ran(argv, counted, monkeypatch, capsys):
    # every step loop in series stops two short of its flag: the PASS lines
    # print what the engine checked, not what the flags asked for
    monkeypatch.setattr(padsum.series, "range", lambda *args: range(*args)[:-2], raising=False)
    assert run(argv.split()) == 0
    assert counted in capsys.readouterr().out


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
    # each is under its flag's floor, so argparse refuses it
    assert exit_code(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --" in captured.err and "is under the floor of" in captured.err


def test_verify_all_runs_the_defaults(capsys):
    assert run(["verify", "all"]) == 0
    out = capsys.readouterr().out
    for limits in ("(k<=15, eps=+-1, 8 x values, n<=25)", "named instances, N<=15",
                   "(k<=8, x in {1,-1,2}, p in {2,3,5,7,11}, N<=200)", "orders 3..50"):
        assert limits in out


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify padic --claim=-1 --k 1 --kmax 3 --nmax 5 --primes 5",
         "--kmax does not apply to verify padic --claim; --k sizes its tables"),
    ],
)
def test_claim_outside_single_claim_mode_is_a_usage_error(argv, message, capsys):
    # a --kmax the claim's tables ignore must not pass silently
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify padic --k 5 --x 7 --eps -1 --kmax 1 --nmax 3 --primes 5",
         "--k applies only to verify padic --claim"),
        ("verify padic --eps -1 --kmax 1 --nmax 3 --primes 5",
         "--eps applies only to verify padic --claim"),
        ("verify padic --x 7 --kmax 1 --nmax 3 --primes 5",
         "--x applies only to verify padic --claim"),
        ("verify padic --claim=-1 --k 1 --x-values 5,7 --nmax 3 --primes 5",
         "--x-values does not apply to verify padic --claim; --x is its point"),
        ("verify padic --kmax 1 --nmax 10 --primes 2 --format csv",
         "--format csv applies only to verify padic --claim"),
    ],
)
def test_verify_padic_mode_flags_are_checked(argv, message, capsys):
    # the grid reads --x-values and --claim reads --k/--eps/--x: a flag of the
    # other mode would be ignored, so it is a usage error
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        "verify finite --k 3 --x-values 9 --primes 5 --kmax 2 --nmax 3",
        "verify finite --claim=7",
        "verify finite --k 3 --nmax 3",  # no abbreviation: --k is not finite's --kmax
        "verify telescope --claim=7 --count 1 --nmax 2",
        "verify telescope --kmax 0 --count 4 --nmax 8",
        "verify ode --kmax 0 --nmax 10",
        "verify ode --primes 2 --nmax 3",
        "verify all --primes 5 --count 1",
        "verify all --kmax 1 --nmax 1",
        "verify all --claim=7 --k 1 --nmax 5 --kmax 1 --primes 5",
    ],
)
def test_flag_of_another_suite_is_a_usage_error(argv, capsys, monkeypatch):
    # each suite takes only the flags it reads, and ``verify all`` only --format;
    # argparse refuses any other before a suite starts
    def no_run(args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(padsum.cli, "cmd_verify", no_run)
    with pytest.raises(SystemExit) as exc:
        run(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        "verify finite --kmax 1 --nmax 1 --format csv",
        "verify telescope --format csv",
        "verify ode --format csv",
        "verify all --format csv",
    ],
)
def test_csv_outside_verify_padic_is_a_usage_error(argv, capsys, monkeypatch):
    # these suites print no csv, so --format csv would print their text lines
    def no_run(args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(padsum.cli, "cmd_verify", no_run)
    with pytest.raises(SystemExit) as exc:
        run(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


def _choices(parser):
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_each_verify_suite_declares_its_own_flags():
    suites = _choices(_choices(build_parser())["verify"])
    flags = {
        name: {s for action in parser._actions for s in action.option_strings}
        for name, parser in suites.items()
    }
    common = {"-h", "--help", "--format"}
    assert flags == {
        "finite": common | {"--kmax", "--nmax"},
        "telescope": common | {"--nmax", "--count", "--seed"},
        "padic": common | {"--kmax", "--nmax", "--primes", "--x-values", "--claim", "--k",
                           "--eps", "--x", "--precision"},
        "ode": common | {"--nmax"},
        "all": common,
    }
    formats = {
        name: next(a.choices for a in parser._actions if "--format" in a.option_strings)
        for name, parser in suites.items()
    }
    # csv is the --claim profile, so only verify padic takes it
    assert formats == {
        name: ("text", "json", "csv") if name == "padic" else ("text", "json")
        for name in suites
    }


@pytest.mark.parametrize("flag, values", [("--primes", "2,3,2"), ("--x-values", "1,2/2")])
def test_repeated_prime_or_point_is_a_usage_error(flag, values, capsys):
    # a repeat would run the same claims again and count each one twice in the PASS line
    with pytest.raises(SystemExit) as exc:
        run(["verify", "padic", "--kmax", 1, "--nmax", 5, flag, values])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"repeated value in {values!r}" in captured.err


# Each numeric flag one over its cap, then one under its floor: (argv, the message's tail)
OVER_CAP = [
    ("tables --kmax 101", "--kmax: 101 is over the cap of 100"),
    ("seq A+0,1 --kmax 101", "--kmax: 101 is over the cap of 100"),
    ("seq-compare U-1 --kmax 101 --bfile b.txt", "--kmax: 101 is over the cap of 100"),
    ("verify finite --kmax 101", "--kmax: 101 is over the cap of 100"),
    ("verify finite --nmax 1001", "--nmax: 1001 is over the cap of 1000"),
    ("verify telescope --nmax 501", "--nmax: 501 is over the cap of 500"),
    ("verify telescope --count 1001", "--count: 1001 is over the cap of 1000"),
    ("verify padic --kmax 61", "--kmax: 61 is over the cap of 60"),
    ("verify padic --nmax 2001", "--nmax: 2001 is over the cap of 2000"),
    ("verify padic --claim=-1 --k 101", "--k: 101 is over the cap of 100"),
    ("verify padic --precision 1001", "--precision: 1001 is over the cap of 1000"),
    # a prime just over 10^12: trial division would accept it
    ("verify padic --claim=-1 --primes 2,1000000000039",
     "--primes: 1000000000039 is over the cap of 1000000000000"),
    ("verify ode --nmax 501", "--nmax: 501 is over the cap of 500"),
    ("tables --kmax -1", "--kmax: -1 is under the floor of 0"),
    ("seq A+0,1 --kmax -1", "--kmax: -1 is under the floor of 0"),
    ("seq-compare U-1 --kmax -1 --bfile b.txt", "--kmax: -1 is under the floor of 0"),
    ("verify finite --kmax 0", "--kmax: 0 is under the floor of 1"),
    ("verify finite --nmax 0", "--nmax: 0 is under the floor of 1"),
    ("verify telescope --nmax 0", "--nmax: 0 is under the floor of 1"),
    ("verify telescope --count -1", "--count: -1 is under the floor of 0"),
    ("verify padic --kmax 0", "--kmax: 0 is under the floor of 1"),
    ("verify padic --nmax 0", "--nmax: 0 is under the floor of 1"),
    # a given --k 0 is refused, never replaced by the default
    ("verify padic --claim=7 --k 0 --nmax 3", "--k: 0 is under the floor of 1"),
    # the largest run the other flags allow: refused before its tables are built
    ("verify padic --claim=1 --k 100 --nmax 2000 --precision 0",
     "--precision: 0 is under the floor of 1"),
    ("verify padic --claim=-1 --primes 1", "--primes: 1 is under the floor of 2"),
    ("verify ode --nmax 2", "--nmax: 2 is under the floor of 3"),
    # flags whose type checks more than a range: a sign, and a list of primes
    ("verify padic --eps 2", "--eps: eps must be +1 or -1, got '2'"),
    ("verify padic --primes 4", "--primes: not a prime: 4 = 2 * 2"),
]


@pytest.mark.parametrize("argv, message", OVER_CAP)
def test_numeric_flag_over_its_cap_is_a_usage_error(argv, message, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an out-of-range run started work")

    for name in ("cmd_verify", "load_or_build_bundle", "sequence_slice"):
        monkeypatch.setattr(padsum.cli, name, unreachable)
    prime = padsum.cli.Prime  # the primality test itself must not see the value
    monkeypatch.setattr(padsum.cli, "Prime",
                        lambda p: prime(p) if 2 <= p <= 10**12 else unreachable())
    with pytest.raises(SystemExit) as exc:
        run(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        "verify padic --claim=-1 --k 1 --nmax 5 --primes 1000000000000000003",
        "verify padic --claim=-1 --k 1 --nmax 5 --primes 5 --precision 1000000000",
        "tables --kmax 100000",
        "verify padic --claim=-1 --k 1 --nmax 100000000 --primes 5",
        "verify finite --kmax 99999999999999999999999999",
        # a rational argument stays bounded by the interpreter's int-to-str digit limit
        pytest.param(f"verify padic --claim=-1 --k 1 --x 1{'0' * 4300}", id="--x of 4301 digits"),
    ],
)
def test_unbounded_inputs_exit_2_at_once(argv, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "padsum.cli", *argv.split()], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert "error: argument" in done.stderr and "Traceback" not in done.stderr


LONG_CSV = "verify padic --claim=-1 --k 1 --x 1{} --nmax 110 --primes 2 --format csv".format("0" * 40)


def _digit_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", int)()


@pytest.mark.parametrize("argv", [
    LONG_CSV,  # rows of the csv profile pass 4,300 digits
    # the JSON reports built even for text hold V_45(10^100), past 4,300 digits
    "verify padic --kmax 45 --x-values 1{} --nmax 2 --primes 2".format("0" * 100),
], ids=["long csv row", "long claimed sum"])
def test_results_longer_than_the_digit_limit_print_in_full(argv, capsys):
    limit = _digit_limit()
    assert run(argv.split()) == 0
    assert capsys.readouterr().err == ""
    assert _digit_limit() == limit
    # an exit-2 run after the arguments are parsed restores the limit too
    assert run(["verify", "padic", "--claim=-1", "--k", 1, "--x", "1/2", "--primes", 2]) == 2
    assert _digit_limit() == limit


def test_output_does_not_depend_on_the_digit_limit(capsys, tmp_path):
    assert run(LONG_CSV.split()) == 0
    default = capsys.readouterr().out
    assert max(map(len, default.splitlines())) > 4300
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONINTMAXSTRDIGITS": "640"}
    done = subprocess.run([sys.executable, "-m", "padsum.cli", *LONG_CSV.split()], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", default)


def test_long_integers_read_from_files_are_refused_at_once(dirs, capsys):
    # b-file values and cache entries are parsed under the interpreter's int-to-str
    # digit limit, which refuses this value before converting it; converted, it
    # would cost seconds, growing with the square of its length
    long_value = "1" * 1_000_000
    out, cache = dirs
    out.mkdir()
    bfile = out / "long.txt"
    bfile.write_text(f"1 {long_value}\n")
    args = ["tables", "--kmax", 3, "--format", "json", "--out", out, "--cache-dir", cache]
    assert run(args) == 0
    fresh = (out / "tables_k3_p1.json").read_bytes()
    (entry,) = cache.iterdir()
    entry.write_text(entry.read_text().replace("-2,", f"-{long_value},", 1))
    start = time.perf_counter()
    assert run(["seq-compare", "U-1", "--kmax", 3, "--bfile", bfile]) == 2
    assert capsys.readouterr().err.startswith(f"malformed b-file {bfile}: line 1: non-integer")
    assert run(args) == 0  # the entry is rebuilt
    assert time.perf_counter() - start < 2
    assert entry.read_bytes() == fresh


def test_caps_admit_every_default_and_benchmark_argument():
    parser = build_parser()
    for argv in (
        "tables --kmax 100", "seq A+0,1 --kmax 100", "seq-compare U-1 --kmax 100 --bfile b",
        "verify finite --kmax 100 --nmax 1000", "verify telescope --nmax 500 --count 1000",
        "verify padic --kmax 60 --nmax 2000 --precision 1000 --primes 2,1000000007,999999999989",
        "verify padic --claim=-1 --k 100", "verify ode --nmax 500",
        "verify padic --kmax 8 --nmax 200 --primes 2,3,5,7,11 --precision 16",
        "verify finite --kmax 15 --nmax 25", "verify telescope --count 20 --nmax 15",
        "verify ode --nmax 50", "tables --kmax 30", "tables --kmax 0",
    ):
        parser.parse_args(argv.split())
    for suite in ("finite", "telescope", "padic", "ode", "all"):
        parser.parse_args(["verify", suite])


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


def test_verify_finite_builds_no_record_while_it_passes(monkeypatch, capsys):
    # the x set holds 1/2 and -2/3, so a per-N record would hold Fractions
    assert {Fraction(1, 2), Fraction(-2, 3)} <= set(padsum.cli.FINITE_X_SET)
    argv = ["verify", "finite", "--kmax", "3", "--nmax", "6"]
    sweeps = 2 * 3 * len(padsum.cli.FINITE_X_SET)
    record = padsum.series.PartialSumResult
    built = []

    def counted(*args):
        built.append(args[0])
        return record(*args)

    monkeypatch.setattr(padsum.series, "PartialSumResult", counted)
    assert run(argv) == 0
    assert len(built) <= sweeps

    def refuse(*args):
        raise AssertionError("verify finite built a Fraction")

    monkeypatch.setattr(padsum.series, "Fraction", refuse)
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("PASS finite: ")


def _lower_v1(tables):
    (v1,), *vs = tables.corr.vs  # V_1 is the constant -eps
    return tables._replace(corr=tables.corr._replace(vs=((v1 - 1,), *vs)))


def test_verify_padic_reports_tampered_table(monkeypatch, capsys):
    # V_1 lowered by 1: every k = 1 claim is off by -1, so each fails, and
    # its perturbation by +1 is the true sum, which is not rejected
    build = TableSet.build
    monkeypatch.setattr(
        TableSet, "build", staticmethod(lambda kmax, eps: _lower_v1(build(kmax, eps)))
    )
    assert run("verify padic --kmax 1 --nmax 12 --primes 2,3 --x-values 1,2".split()) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[:2] == [
        "FAIL padic: claim -2 for k=1 eps=+1 x=1 p=2 violated at N=2",
        "FAIL padic: perturbed claim -1 for k=1 eps=+1 x=1 p=2 was not rejected",
    ]
    digest = "c463836c9c89a5fd43927a078b46fc0b276c1928a18300b62727e7211e4b543f"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_ode_json_reports_the_failure(monkeypatch, capsys):
    residual = padsum.fps.second_order_residual
    monkeypatch.setattr(padsum.fps, "second_order_residual", lambda order: residual(order) + 1)
    assert run("verify ode --nmax 4 --format json".split()) == 1
    assert json.loads(capsys.readouterr().out) == [
        {
            "artifacts": {"3": "96", "4": "0"},
            "bad_degree": 0,
            "check": "ode-second",
            "params": {"order": 3},
            "verdict": "FAIL",
        }
    ]


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


def test_seq_text_json_and_out_file(tmp_path, capsys):
    assert run(["seq", "A+0,1", "--kmax", 3, "--format", "text"]) == 0
    assert capsys.readouterr().out == "1, -1, -1, 5\n"
    assert run(["seq", "A+0,1", "--kmax", 3, "--format", "json"]) == 0
    assert capsys.readouterr().out == _dumps({"id": "A+0,1", "start": 0, "values": [1, -1, -1, 5]})
    out = tmp_path / "a.txt"
    assert run(["seq", "A+0,1", "--kmax", 3, "--out", out]) == 0
    assert capsys.readouterr().out == f"{out}\n"
    assert out.read_text() == "0 1\n1 -1\n2 -1\n3 5\n"


@pytest.mark.parametrize("argv", ["seq U+1 --kmax 0", "seq-compare U-1 --kmax 0 --bfile {bfile}"])
def test_u_sequence_refuses_kmax_0_before_any_table(argv, tmp_path, capsys, monkeypatch):
    # --kmax 0 passes the parser (A ids start at k = 0), but U ids start at k = 1
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 2\n")

    def unreachable(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(TableSet, "build", unreachable)
    assert run(argv.format(bfile=bfile).split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: U-sequences need kmax >= 1, got 0\n")


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
    bad.write_bytes(b"\xff0 1\n")  # not UTF-8
    assert run(["seq-compare", "A+0,1", "--kmax", 3, "--bfile", bad]) == 2
    assert capsys.readouterr().err.startswith(f"malformed b-file {bad}: 'utf-8' codec can't decode")


def test_parse_bfile_rules():
    entries = parse_bfile("# comment\n\n0 1\n1 -1\n")
    assert entries == [(0, 1), (1, -1)]
    with pytest.raises(BFileError):
        parse_bfile("0 1\n0 2\n")  # indices must increase
    with pytest.raises(BFileError):
        parse_bfile("0 x\n")
