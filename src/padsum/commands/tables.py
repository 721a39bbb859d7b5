"""``tables``, ``seq`` and ``seq-compare``: the table files, the named
sequences, and their comparison with a reference b-file."""

from __future__ import annotations

import sys
from pathlib import Path

from .. import cli
from .. import tables as tablemod
from ..kernel import _dumps


def _render_tables_text(tables: tablemod.TableSet) -> str:
    lines = [f"# tables for eps = {tables.eps:+d}, kmax = {tables.kmax}"]
    # a TableSet also holds U/V and the pairs at kmax+1, which the tables omit
    ks = range(1, tables.kmax + 1)
    if ks:
        pairs = tables.pairs
        lines += ["", "k u_k v_k"]
        lines += [f"{k} {pairs.u(k)} {pairs.v(k)}" for k in ks]
        lines.append("")
        lines += [f"U_{k}(x) = {tables.corr.u_poly(k).render('x')}" for k in ks]
        lines += [f"V_{k}(x) = {tables.corr.v_poly(k).render('x')}" for k in ks]
    lines.append("")
    lines += [f"A_{k}(n;x) = {tables.gen.poly(k).render()}" for k in range(tables.kmax + 1)]
    return "\n".join(lines) + "\n"


def _render_tables_csv(tables: tablemod.TableSet) -> str:
    pairs = tables.pairs
    lines = ["k,u,v"]
    lines += [f"{k},{pairs.u(k)},{pairs.v(k)}" for k in range(1, tables.kmax + 1)]
    return "\n".join(lines) + "\n"


def cmd_tables(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # a file in the way fails before the build
    tables, text = cli.load_or_build_bundle(args.kmax, args.eps, args.cache_dir)
    if args.format == "json":
        content = tablemod.bundle_text(tables) if text is None else text
        ext = "json"
    elif args.format == "csv":
        content = _render_tables_csv(tables)
        ext = "csv"
    else:
        content = _render_tables_text(tables)
        ext = "txt"
    sign = "p1" if args.eps > 0 else "m1"
    path = out_dir / f"tables_k{args.kmax}_{sign}.{ext}"
    path.write_text(content)
    print(path)
    return 0


def cmd_seq(args) -> int:
    values = tablemod.sequence_slice(args.id, args.kmax)
    start = tablemod.sequence_start_index(args.id)
    if args.format == "json":
        content = _dumps({"id": args.id, "start": start, "values": values})
    elif args.format == "text":
        content = ", ".join(str(v) for v in values) + "\n"
    else:
        content = "".join(f"{start + i} {v}\n" for i, v in enumerate(values))
    if args.out and args.out != "-":
        Path(args.out).write_text(content)
        print(args.out)
    else:
        print(content, end="")
    return 0


def cmd_seq_compare(args) -> int:
    try:
        reference = cli.parse_bfile(Path(args.bfile).read_text())
    except (cli.BFileError, UnicodeDecodeError) as exc:
        print(f"malformed b-file {args.bfile}: {exc}", file=sys.stderr)
        return 2
    start = tablemod.sequence_start_index(args.id)
    # pair on the b-file's own indices, so a gap or an offset cannot misalign terms
    ours = dict(enumerate(tablemod.sequence_slice(args.id, args.kmax), start))
    pairs = [(i, v) for i, v in reference if i in ours]
    if len(pairs) < len(reference):
        print(f"skipped {len(reference) - len(pairs)} b-file entries outside our indices",
              file=sys.stderr)
    if not pairs:
        print("nothing to compare (no b-file index within our sequence)", file=sys.stderr)
        return 2
    for index, value in pairs:
        if abs(ours[index]) != abs(value):
            print(
                f"MISMATCH at position {index - start} (b-file index {index}):"
                f" ours={ours[index]}, reference={value}"
            )
            return 1
    print(f"MATCH: {len(pairs)} terms agree up to sign with {args.bfile}")
    return 0
