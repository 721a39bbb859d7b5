"""The benchmark's workloads: the padsum CLI invocations of one pass, and
the check each invocation's output must pass.

Every CLI argument is written out, so a later change of a default cannot
silently change what is measured.  ``{seed}``, ``{out}`` and ``{cache}`` are
filled in per pass: the benchmark seed, and the pass's own empty output and
cache directories.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a pass.

    ``half`` is "cold" or "warm": a warm step repeats a cold one against the
    cache that the cold step left behind.  ``output`` names the file the
    command writes inside ``{out}``; when it is None the output is stdout.
    """

    argv: tuple[str, ...]
    half: str = "cold"
    output: str | None = None

    def key(self, seed: int) -> str:
        """The step's name in the reference digests; directories stay as placeholders."""
        return " ".join(self.argv).replace("{seed}", str(seed))

    def fill(self, seed: int, out: Path, cache: Path) -> list[str]:
        subst = {"{seed}": str(seed), "{out}": str(out), "{cache}": str(cache)}
        return [subst.get(arg, arg) for arg in self.argv]


def _tables(eps: str) -> tuple[Step, Step]:
    argv = ("tables", "--kmax", "30", "--eps", eps, "--format", "json",
            "--out", "{out}", "--cache-dir", "{cache}")
    output = f"tables_k30_{'p1' if eps == '1' else 'm1'}.json"
    return Step(argv, "cold", output), Step(argv, "warm", output)


WORKLOADS: dict[str, tuple[Step, ...]] = {
    "verify-padic": (
        Step(("verify", "padic", "--kmax", "8", "--nmax", "200", "--primes", "2,3,5,7,11",
              "--x-values", "1,-1,2", "--precision", "16", "--format", "json")),
    ),
    "verify-finite": (
        Step(("verify", "finite", "--kmax", "15", "--nmax", "25", "--format", "json")),
    ),
    "tables-cold-warm": _tables("1") + _tables("-1"),
    "verify-telescope-ode": (
        Step(("verify", "telescope", "--count", "20", "--seed", "{seed}", "--nmax", "15",
              "--format", "json")),
        Step(("verify", "ode", "--nmax", "50", "--format", "json")),
    ),
}


def output_bytes(step: Step, stdout: bytes, out: Path) -> bytes:
    """The bytes a step is judged by: stdout, or the file it wrote.

    A ``tables`` run prints the path it wrote, which holds the pass's
    temporary directory, so its file is digested instead; the printed path
    must still be the expected one.
    """
    if step.output is None:
        return stdout
    path = out / step.output
    if stdout != f"{path}\n".encode():
        raise ValueError(f"printed {stdout[:200]!r}, expected the path {path}")
    return path.read_bytes()


def check_output(step: Step, seed: int, rc: int, stdout: bytes, out: Path,
                 references: dict[str, str]) -> str | None:
    """None when the invocation is correct, else what was wrong.

    The output's SHA-256 must equal the digest recorded for the step.  A
    step without a recorded digest (a telescope seed that was not recorded)
    must instead print only PASS verdicts.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        data = output_bytes(step, stdout, out)
    except (OSError, ValueError) as exc:
        return str(exc)
    expected = references.get(step.key(seed))
    if expected is not None:
        digest = hashlib.sha256(data).hexdigest()
        return None if digest == expected else f"output digest {digest} != reference {expected}"
    try:
        reports = json.loads(data)
    except ValueError as exc:
        return f"unrecorded output is not JSON: {exc}"
    if not isinstance(reports, list) or not reports:
        return "unrecorded output holds no verdicts"
    if any(not isinstance(r, dict) or r.get("verdict") != "PASS" for r in reports):
        return "unrecorded output has a verdict other than PASS"
    return None
