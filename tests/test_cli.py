"""Command-line interface: formats, caching, exit codes."""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import padsum.cli
import padsum.commands.verify_finite
import padsum.fps
import padsum.series
import padsum.tables
import padsum.telescope
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


@pytest.mark.parametrize("text", ["7", "+7", "-0", "007"])
def test_an_integer_literal_parses_to_an_int(text):
    # so an integer point or claim never loads ``fractions``
    value = parse_rational(text)
    assert type(value) is int and value == Fraction(text)


def test_an_integral_quotient_literal_keeps_its_value():
    assert parse_rational("4/2") == 2


@pytest.mark.parametrize("text, caps, message", [
    ("12345", (4, 4), "a numerator of 5 digits is over the cap of 4"),
    ("-12345/2", (4, 4), "a numerator of 5 digits is over the cap of 4"),
    ("1/12345", (4, 4), "a denominator of 5 digits is over the cap of 4"),
    ("1/0", (), "zero denominator in '1/0'"),
    ("-3/000", (4, 4), "zero denominator in '-3/000'"),
])
def test_rational_literal_refusals_keep_their_messages(text, caps, message):
    with pytest.raises(argparse.ArgumentTypeError, match=f"^{message}$"):
        parse_rational(text, caps)


@pytest.mark.parametrize("values", ["2,4/2", "1,+1"])
def test_a_repeat_across_literal_forms_is_refused(values):
    with pytest.raises(argparse.ArgumentTypeError, match="repeated value"):
        padsum.cli.parse_rational_list(values)


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
    # the warm run, with the entry in place, reads nothing and builds again: its
    # output has the same bytes, and the writer overwrites the one entry
    assert path.read_bytes() == first_bytes
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
    # the run never reads the entry: it builds the tables and the writer
    # renames the fresh bundle over the corrupt one
    assert run(args) == 0
    assert path.read_bytes() == fresh
    assert entry.read_bytes() == fresh  # overwritten in place, no temporary file left
    assert list(cache.iterdir()) == [entry]


def test_tables_rerun_reads_nothing_under_the_cache_dir(dirs):
    # the recurrence is the one route to the tables: a rerun with the entry in
    # place opens nothing in DIR for reading, builds once and leaves the fresh bundle
    out, cache = dirs
    argv = ["tables", "--kmax", "3", "--format", "json", "--out", str(out),
            "--cache-dir", str(cache)]
    assert run(argv) == 0
    code = (
        "import os, sys\n"
        "from padsum import tables\n"
        "from padsum.cli import main\n"
        "cache, reads, builds = os.path.abspath(sys.argv[1]), [], []\n"
        "def hook(event, args):\n"
        "    if event == 'open' and isinstance(args[0], (str, bytes, os.PathLike)):\n"
        "        path = os.path.abspath(os.fsdecode(args[0]))\n"
        "        if (os.path.commonpath([path, cache]) == cache\n"
        "                and args[2] & os.O_ACCMODE != os.O_WRONLY):\n"
        "            reads.append(path)\n"
        "sys.addaudithook(hook)\n"
        "build = tables.TableSet.build.__func__\n"
        "tables.TableSet.build = classmethod(lambda cls, *a: builds.append(a) or build(cls, *a))\n"
        "code = main(sys.argv[2:])\n"
        "print(reads, builds, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code, str(cache), *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "[] [(3, 1)]\n"
    (entry,) = cache.iterdir()
    assert entry.name == "tables_kmax3_eps+1.json"
    assert entry.read_bytes() == (out / "tables_k3_p1.json").read_bytes()


def test_cli_import_loads_no_hashlib():
    # the cache entry is named by (kmax, eps) alone, so no padsum process
    # pays for loading hashlib (and OpenSSL) at start-up
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, padsum.cli; assert 'hashlib' not in sys.modules"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cli_import_loads_neither_json_nor_fractions():
    # ``_dumps`` writes JSON without ``json``, and a rational argument loads
    # ``fractions`` when it is parsed, so neither is part of every start-up
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys; before = set(sys.modules); import padsum.cli\n"
            "assert not {'json', 'fractions'} & (set(sys.modules) - before), sys.modules")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _rational_modules_loaded(argv: list[str], cwd: Path) -> list[str]:
    """Which of ``json``, ``fractions`` and ``decimal`` a ``main(argv)`` process
    imports after ``import sys``, sorted; the process must exit 0."""
    code = (
        "import sys; before = set(sys.modules); from padsum.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(*sorted({'json', 'fractions', 'decimal'} & (set(sys.modules) - before)),\n"
        "      file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stderr.split()


def test_tables_json_loads_no_rational_code(tmp_path):
    # every run builds on ints alone and writes with ``_dumps``, a rerun with the entry in place too
    argv = ["tables", "--kmax", "8", "--format", "json", "--cache-dir", "cache"]
    loaded = [_rational_modules_loaded(argv, tmp_path) for _ in ("cold", "warm")]
    assert loaded == [[], []]
    assert (tmp_path / "tables_k8_p1.json").read_bytes() == (
        tmp_path / "cache" / "tables_kmax8_eps+1.json").read_bytes()


@pytest.mark.parametrize("argv", [
    "seq A+0,1 --kmax 8",
    "seq U-1 --kmax 8 --format json",
    "seq-compare A+0,1 --kmax 5 --bfile ref.txt",
    "verify ode --nmax 5",
    "verify padic --kmax 2 --nmax 20 --primes 3,5 --x-values 1,-1,2",
    "verify padic --claim=-1 --k 1 --x 2 --nmax 5 --primes 5",  # V_1(2) = -1
])
def test_integer_commands_load_no_rational_code(argv, tmp_path):
    # the sequences are read off integer rows, the ODE residuals are integer
    # tuples, and p-adic verdicts at integer points and claims are taken in ints
    (tmp_path / "ref.txt").write_text("0 1\n1 -1\n2 -1\n3 5\n")
    assert _rational_modules_loaded(argv.split(), tmp_path) == []


def test_a_rational_point_loads_fractions(tmp_path):
    # the control of the probe above: the same suite at x = 1/2 needs a Fraction
    argv = "verify padic --kmax 2 --nmax 20 --primes 3,5 --x-values 1/2".split()
    assert _rational_modules_loaded(argv, tmp_path) == ["decimal", "fractions"]


def test_kernel_import_loads_no_fractions():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys; before = set(sys.modules); import padsum.kernel\n"
            "padsum.kernel._horner\n"  # the module runs at its first attribute access
            "assert type(padsum.kernel).__name__ == 'module'\n"
            "assert not {'fractions', 'decimal'} & (set(sys.modules) - before), sys.modules")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# the module of padsum.commands that runs each command family
COMMANDS = {f"commands.{name}" for name in
            ("tables", "verify_finite", "verify_padic", "verify_telescope", "verify_ode")}

# (argv, a module it runs, the modules it must leave unexecuted); "" is the import alone
COMMAND_MODULES = [
    ("", "cli", {"tables", "series", "telescope", "padic", "fps", "commands", *COMMANDS}),
    # the residuals are integer tuples: no ``RatPoly`` is built
    ("verify ode --nmax 5", "fps",
     {"poly", "series", "telescope", "tables", "padic", *COMMANDS - {"commands.verify_ode"}}),
    ("verify telescope --count 2 --nmax 4", "telescope",
     {"series", "tables", "padic", "fps", *COMMANDS - {"commands.verify_telescope"}}),
    ("tables --kmax 2", "tables",
     {"series", "telescope", "padic", "fps", *COMMANDS - {"commands.tables"}}),
    # the bundle and the pairs are integer rows: no ``RatPoly`` is built
    ("tables --kmax 2 --format json", "tables",
     {"poly", "series", "telescope", "padic", "fps", *COMMANDS - {"commands.tables"}}),
    ("tables --kmax 2 --format csv", "tables",
     {"poly", "series", "telescope", "padic", "fps", *COMMANDS - {"commands.tables"}}),
    # the scalar helpers are in ``kernel``, and ``telescope`` loads ``poly`` lazily
    ("verify finite --kmax 1 --nmax 2", "series",
     {"poly", "padic", "fps", *COMMANDS - {"commands.verify_finite"}}),
    ("verify padic --kmax 1 --nmax 3 --primes 3", "padic",
     {"poly", "fps", *COMMANDS - {"commands.verify_padic"}}),
    # the sequences are evaluated on the integer rows
    ("seq A+1,-1 --kmax 4", "tables",
     {"poly", "series", "telescope", "padic", "fps", *COMMANDS - {"commands.tables"}}),
    ("seq U--1 --kmax 4 --format json", "tables",
     {"poly", "series", "telescope", "padic", "fps", *COMMANDS - {"commands.tables"}}),
]


@pytest.mark.parametrize("argv, runs, skips", COMMAND_MODULES)
def test_a_command_executes_only_its_modules(argv, runs, skips, tmp_path):
    # a submodule stays a LazyLoader module, not a plain module, until its first use
    code = (
        "import sys, types; from padsum.cli import main\n"
        "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(*(name.removeprefix('padsum.') for name, module in sys.modules.items()\n"
        "        if name.startswith('padsum.') and type(module) is types.ModuleType),\n"
        "      file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code, *argv.split()], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    executed = set(done.stderr.split())
    assert runs in executed
    assert not executed & skips, f"{argv or 'import'} executed {sorted(executed & skips)}"


def test_python_m_runs_cli_once(tmp_path):
    # ``-m`` runs cli.py as __main__; a command module's ``from .. import cli``
    # must find that module, not run cli.py a second time as padsum.cli
    code = (
        "import runpy, sys\n"
        "runs = []\n"
        "sys.addaudithook(lambda event, args: event == 'exec'\n"
        "                 and args[0].co_filename.endswith('cli.py') and runs.append(1))\n"
        "try:\n"
        "    runpy.run_module('padsum.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print(len(runs), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["verify", "telescope", "--count", "1", "--nmax", "2"]
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS telescope: ")
    assert done.stderr == "1\n"


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
def test_tables_cold_and_warm_match_benchmark_digests(eps, dirs, capsys):
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
    assert run(args) == 0  # the warm step builds again and writes the same bytes
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


def test_verify_padic_matches_its_benchmark_digest_without_summing(monkeypatch, capsys):
    # the grid's verdicts rest on each profile's proved step identity: none sums the series
    def refuse(*args):
        raise AssertionError("verify padic ran the partial-sum loop")

    monkeypatch.setattr(padsum.series, "_steps", refuse)
    argv = ("verify padic --kmax 8 --nmax 200 --primes 2,3,5,7,11 --x-values 1,-1,2"
            " --precision 16 --format json")
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


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_tables_without_a_cache_encode_no_bundle(fmt, dirs, monkeypatch):
    # only --format json and the cache write the JSON bundle
    def unreachable(tables):
        raise AssertionError("a bundle was encoded and thrown away")

    monkeypatch.setattr(padsum.tables, "bundle_text", unreachable)
    out, _ = dirs
    assert run(["tables", "--kmax", 5, "--format", fmt, "--out", out]) == 0
    (path,) = out.iterdir()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TABLES[fmt, 5, "1"]


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


@pytest.mark.parametrize("under_file", ["--out", "--cache-dir"])
def test_directory_under_a_file_is_refused_before_the_build(under_file, tmp_path, monkeypatch,
                                                            capsys):
    def unreachable(*args):
        raise AssertionError("the tables were built")

    monkeypatch.setattr(TableSet, "build", staticmethod(unreachable))
    regular = tmp_path / "regular"
    regular.write_text("")
    dirs = {"--out": tmp_path / "out", "--cache-dir": tmp_path / "cache"}
    dirs[under_file] = regular / "dir"
    assert run(["tables", "--kmax", 60, *(a for pair in dirs.items() for a in pair)]) == 2
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


def _steps_off_by(delta, monkeypatch):
    """Make ``series._steps``, the finite checks' engine, run delta N long."""
    steps = padsum.series._steps
    monkeypatch.setattr(padsum.series, "_steps",
                        lambda spec, n_max, tables: steps(spec, n_max + delta, tables))


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
def test_verify_finite_fails_when_its_sweeps_run_off_by_one(delta, monkeypatch, capsys):
    _steps_off_by(delta, monkeypatch)
    argv = ["verify", "finite", "--kmax", 2, "--nmax", 5]
    got = 2 * 2 * 8 * (5 + delta)
    assert run(argv) == 1
    assert capsys.readouterr().out == f"FAIL finite: checked {got} of 160\n"
    assert run([*argv, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"check": "finite", "verdict": "FAIL", "detail": f"checked {got} of 160"}]


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("mode", [["--kmax", 1], ["--claim=1099511627775", "--k", 1]],
                         ids=["grid", "claim"])
def test_verify_padic_fails_when_its_profiles_run_off_by_one(mode, delta, monkeypatch, capsys):
    # each verdict's walk over B_N runs delta N long; the walks are those of the grid's
    # perturbations by 1 and of the claim V + 2^40, none of which p = 11 rejects by N = 7
    boundaries = padsum.series.SeriesErrorProfile.boundaries
    monkeypatch.setattr(padsum.series.SeriesErrorProfile, "boundaries",
                        lambda profile: boundaries(profile._replace(n_max=profile.n_max + delta)))
    argv = ["verify", "padic", *mode, "--nmax", 6, "--primes", 11]
    assert run(argv) == 1
    assert capsys.readouterr().out == f"FAIL padic: checked {6 + delta} of 6\n"
    assert run([*argv, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"check": "padic", "verdict": "FAIL", "detail": f"checked {6 + delta} of 6"}]


def test_verify_padic_fails_when_its_grid_skips_a_cell(monkeypatch, capsys):
    # 2 signs x 2 k x 3 x-values x 2 primes = 24 verdicts; a grid one cell short gives 22
    grid = padsum.cli._grid
    monkeypatch.setattr(padsum.cli, "_grid", lambda *args: list(grid(*args))[:-1])
    argv = ["verify", "padic", "--kmax", 2, "--nmax", 20, "--primes", "2,3"]
    assert run(argv) == 1
    assert capsys.readouterr().out == "FAIL padic: checked 22 of 24\n"
    assert run([*argv, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"check": "padic", "verdict": "FAIL", "detail": "checked 22 of 24"}]


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
def test_verify_telescope_fails_when_a_sweep_runs_off_by_one(delta, monkeypatch, capsys):
    # each sweep's steps, ``telescope._partials``, run delta N long
    partials = padsum.telescope._partials
    monkeypatch.setattr(padsum.telescope, "_partials",
                        lambda spec, n_max: partials(spec, n_max + delta))
    argv = ["verify", "telescope", "--count", 2, "--nmax", 6]
    assert run(argv) == 1
    assert capsys.readouterr().out == f"FAIL telescope: checked {6 + delta} of 6\n"
    assert run([*argv, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"check": "telescope", "verdict": "FAIL", "detail": f"checked {6 + delta} of 6"}]


def test_a_table_cross_check_fails_its_suite_and_the_others_run(monkeypatch, capsys):
    # the pairs' own route one row short: each table build fails its cross-check,
    # which is the FAIL of the suite that built it, and the suites after it still run
    int_pairs = padsum.tables.int_pairs
    monkeypatch.setattr(padsum.tables, "int_pairs", lambda kmax: int_pairs(kmax - 1))
    finite = "u has 16 rows by the table route and 15 by the recurrence route (eps=+1)"
    padic = "u has 9 rows by the table route and 8 by the recurrence route (eps=+1)"
    assert run(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        f"FAIL finite: {finite}",
        "PASS telescope: exact telescoping for 20 random specs (seed 0) + 2 named instances,"
        " N<=15",
        f"FAIL padic: {padic}",
        "PASS ode: both residuals vanish through the stated degrees for orders 3..50;"
        " first-order artifact equals (N+1)!",
    ]
    assert run(["verify", "all", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == [
        {"check": "finite", "verdict": "FAIL", "detail": finite},
        {"check": "telescope", "verdict": "PASS", "specs": 22},
        {"check": "padic", "verdict": "FAIL", "detail": padic},
        {"check": "ode", "verdict": "PASS", "orders": [3, 50]},
    ]


def test_verify_telescope_names_the_spec_that_fails(monkeypatch, capsys):
    rising_block = padsum.telescope.rising_block
    monkeypatch.setattr(padsum.telescope, "rising_block", lambda *args: 2 * rising_block(*args))
    argv = ["verify", "telescope", "--count", 2, "--nmax", 6]
    detail = (
        "telescoping residual 2903040 != 0 at N=2 for TelescopeSpec(mu=(2, 3), nu=(-1, 1),"
        " lam=(1, 1), alpha=1, beta=1, eps=1, x=2, aux=RatPoly(['0', '2']))"
    )
    assert run(argv) == 1
    assert capsys.readouterr().out == f"FAIL telescope[random-0]: {detail}\n"
    assert run([*argv, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"check": "telescope", "verdict": "FAIL", "detail": detail}]


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


def test_verify_all_builds_the_parsers_once(monkeypatch, capsys):
    # padsum, tables, verify and its five suites, seq and seq-compare: the suites
    # run on the namespaces of the suite parsers this parse built
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(["verify", "all"]) == 0
    assert capsys.readouterr().out.count("PASS ") == 4
    assert len(built) == 10


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
    # a number is ASCII digits after an optional sign; int() and Fraction() read more
    ("verify finite --kmax 1_0", "--kmax: invalid int value: '1_0'"),
    ("verify ode --nmax ' 5'", "--nmax: invalid int value: ' 5'"),
    ("verify telescope --seed 1_0", "--seed: invalid int value: '1_0'"),
    ("verify padic --primes ,2", "--primes: invalid int value: ''"),
    ("verify padic --x \u0663", "--x: exact rational 'p' or 'p/q' required, got '\u0663'"),
    ("verify padic --claim=-1 --x '1\n'",
     "--x: exact rational 'p' or 'p/q' required, got '1\\n'"),
]


@pytest.mark.parametrize("argv, message", OVER_CAP)
def test_numeric_flag_over_its_cap_is_a_usage_error(argv, message, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an out-of-range run started work")

    for name in ("cmd_verify", "load_or_build_bundle"):
        monkeypatch.setattr(padsum.cli, name, unreachable)
    # the cli looks these two up in their modules when it calls them
    monkeypatch.setattr(padsum.tables, "sequence_slice", unreachable)
    prime = padsum.padic.Prime  # the primality test itself must not see the value
    monkeypatch.setattr(padsum.padic, "Prime",
                        lambda p: prime(p) if 2 <= p <= 10**12 else unreachable())
    with pytest.raises(SystemExit) as exc:
        run(shlex.split(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {message}\n")


def _size_caps():
    """(flag, value at its cap, value one over it, the message's tail) for each
    cap on the size of a number or of a list."""
    for flag, top, bottom in (("--x", 100, 100), ("--x-values", 120, 10), ("--claim", 4000, 4000)):
        at_cap = f"{'7' * top}/{'1' * bottom}"
        for over, part, cap in ((f"{'7' * (top + 1)}/1", "numerator", top),
                                (f"-1/{'1' * (bottom + 1)}", "denominator", bottom)):
            yield pytest.param(flag, at_cap, over, f"a {part} of {cap + 1} digits is over the"
                               f" cap of {cap}", id=f"{flag} {part}")
    primes = [str(p) for p in range(2, 240) if all(p % q for q in range(2, p))]
    points = [str(x) for x in range(1, 202)]
    for flag, values, cap in (("--primes", primes, 50), ("--x-values", points, 200)):
        yield pytest.param(flag, ",".join(values[:cap]), ",".join(values[:cap + 1]),
                           f"{cap + 1} entries is over the cap of {cap}", id=f"{flag} entries")


@pytest.mark.parametrize("flag, at_cap, over_cap, message", list(_size_caps()))
def test_size_of_a_number_or_list_is_capped(flag, at_cap, over_cap, message, capsys):
    # the digits of a point or claim and the entries of a list are counted before
    # any is parsed, so an oversized argument is a usage error before any work
    parser = build_parser()
    assert getattr(parser.parse_args(["verify", "padic", f"{flag}={at_cap}"]),
                   flag[2:].replace("-", "_"))
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["verify", "padic", f"{flag}={over_cap}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")


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
    # b-file values are parsed under the interpreter's int-to-str digit limit,
    # which refuses this value before converting it; converted, it would cost
    # seconds, growing with the square of its length.  The cache entry that
    # holds it is never parsed: the rerun builds the tables and the writer
    # replaces the entry with the fresh bundle
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
    assert run(args) == 0  # the writer overwrites the entry
    assert time.perf_counter() - start < 2
    assert entry.read_bytes() == fresh


def test_cache_entry_with_a_huge_coefficient_is_rebuilt_at_once(dirs, capsys):
    # nothing reads the entry, so a 1000-digit coefficient in it costs no
    # time: the rerun builds the tables by recurrence and the writer replaces
    # the entry with the fresh bundle
    out, cache = dirs
    args = ["tables", "--kmax", 30, "--format", "json", "--out", out, "--cache-dir", cache]
    assert run(args) == 0
    fresh = (out / "tables_k30_p1.json").read_bytes()
    (entry,) = cache.iterdir()
    bundle = json.loads(entry.read_text())
    bundle["A"][1][0] = [10**1000]
    entry.write_text(_dumps(bundle))
    start = time.perf_counter()
    assert run(args) == 0
    assert time.perf_counter() - start < 1
    assert entry.read_bytes() == fresh == (out / "tables_k30_p1.json").read_bytes()


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


def _tamper_checked(monkeypatch, tamper):
    """Apply ``tamper`` to every table set that passes ``TableSet.checked``, the
    one door of both a single-sign build and the grid's generated and flipped tables."""
    checked = TableSet.checked
    monkeypatch.setattr(TableSet, "checked", staticmethod(lambda gen: tamper(checked(gen))))


def test_verify_finite_reports_tampered_table(monkeypatch, capsys, tamper_v1):
    _tamper_checked(monkeypatch, tamper_v1)
    assert run(["verify", "finite", "--kmax", 2, "--nmax", 3]) == 1
    assert capsys.readouterr().out == (
        "FAIL finite: finite identity residual -1 != 0 at k=1 eps=+1 x=-3 n=1\n"
    )


@pytest.mark.parametrize("argv", [
    "verify finite --kmax 3 --nmax 4",
    "verify padic --kmax 3 --nmax 12 --primes 2,3",
], ids=["finite", "padic"])
def test_a_two_sign_grid_runs_the_generator_once(argv, monkeypatch, capsys):
    # the -1 table is the sign flip of the +1 table, and both pass TableSet.checked
    generate, check = padsum.tables.gen_poly_table, TableSet.checked
    generated, checked = [], []
    monkeypatch.setattr(padsum.tables, "gen_poly_table",
                        lambda *args: generated.append(args) or generate(*args))
    monkeypatch.setattr(TableSet, "checked",
                        staticmethod(lambda gen: checked.append(gen.eps) or check(gen)))
    assert run(argv.split()) == 0
    assert capsys.readouterr().out.startswith("PASS ")
    assert generated == [(3, 1)]
    assert checked == [1, -1]


def test_verify_finite_builds_no_record_while_it_passes(monkeypatch, capsys):
    # the x set holds 1/2 and -2/3, so a per-N record would hold Fractions
    x_set = padsum.commands.verify_finite.FINITE_X_SET
    assert {Fraction(1, 2), Fraction(-2, 3)} <= set(x_set)
    argv = ["verify", "finite", "--kmax", "3", "--nmax", "6"]
    sweeps = 2 * 3 * len(x_set)
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

    monkeypatch.setattr(Fraction, "__new__", refuse)  # every route to Fraction(...)
    monkeypatch.setattr(padsum.series, "_quotient", refuse)
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("PASS finite: ")


def test_a_prime_above_nmax_names_why_a_perturbation_survives(capsys):
    # N < p gives v_p(N!) = 0, so at x = 1 no remainder up to --nmax is divisible by p
    assert run("verify padic --kmax 1 --primes 199,211 --x-values 1".split()) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL padic: perturbed claim {claim} for k=1 eps={eps} x=1 p=211 was not rejected"
        " (--nmax 200 < p = 211: no N! up to N = 200 is divisible by p)"
        for claim, eps in ((0, "+1"), (2, "-1"))
    ]
    # a point divisible by p is judged at any --nmax, and so is every p at a larger --nmax
    assert run("verify padic --kmax 1 --primes 211 --x-values 211".split()) == 0
    assert run("verify padic --kmax 1 --primes 199,211 --x-values 1 --nmax 420".split()) == 0
    assert "FAIL" not in capsys.readouterr().out


def _lower_v1(tables):
    (v1,), *vs = tables.corr.vs  # V_1 is the constant -eps
    return tables._replace(corr=tables.corr._replace(vs=((v1 - 1,), *vs)))


def test_verify_padic_reports_tampered_table(monkeypatch, capsys):
    # V_1 lowered by 1: every k = 1 claim is off by -1, so each fails, and
    # its perturbation by +1 is the true sum, which is not rejected
    _tamper_checked(monkeypatch, _lower_v1)
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


def test_verify_padic_reports_a_broken_step_identity(monkeypatch, capsys, tamper_a1):
    # A_1's constant raised by 1: every k = 1 cell still passes, and the first k = 2
    # profile refuses its tables, which ends the suite with that FAIL
    _tamper_checked(monkeypatch, tamper_a1)
    detail = "step identity residual 1 != 0 at coeffs=(0, 1) eps=+1 x=1 n=1"
    assert run("verify padic --kmax 2 --nmax 12 --primes 2,3".split()) == 1
    assert capsys.readouterr().out == f"FAIL padic: {detail}\n"
    assert run("verify padic --claim=1 --k 2 --nmax 12 --primes 2 --format json".split()) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"check": "padic", "verdict": "FAIL", "detail": detail}]


def test_verify_ode_json_reports_the_failure(monkeypatch, capsys):
    residual = padsum.fps.second_order_residual
    monkeypatch.setattr(padsum.fps, "second_order_residual",
                        lambda order: (residual(order)[0] + 1, *residual(order)[1:]))
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


@pytest.mark.parametrize("argv", [
    "verify padic --claim=1 --x 1/2 --primes 3,2 --format csv",
    "verify padic --x-values 1,1/2 --primes 3,2",
], ids=["claim-csv", "grid"])
def test_verify_padic_refuses_outside_domain_before_any_work(argv, monkeypatch, capsys):
    # each (x, p) is gated before a table, a profile or a partial sum is built,
    # so a refusal costs nothing however large --nmax is
    def unreachable(*args):
        raise AssertionError("work started before the domain gate")

    monkeypatch.setattr(padsum.tables.TableSet, "build", unreachable)
    monkeypatch.setattr(padsum.tables, "gen_poly_table", unreachable)
    monkeypatch.setattr(padsum.series, "partial_sums", unreachable)
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: x = 1/2 is outside the convergence domain for p = 2:"
                            " v_p(x) must exceed -1\n")


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
    # int() reads an underscore and other scripts' digits; a b-file holds neither
    for text, line in (("1 1_0\n", 1), ("1 1\n2 \u0663\n", 2)):
        with pytest.raises(BFileError, match=f"^line {line}: non-integer entry"):
            parse_bfile(text)
