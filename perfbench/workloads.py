"""The benchmark's workloads.

Each workload is a list of dyadbloom CLI operations made from the seed, plus
the CLI commands that build its inputs.  Every operation is checked after it
runs.

Why these workloads: the three use normest in three different ways.
verify-d8 makes many small dense solves (256x256), so Python per-call
overhead, the grid/operators fast transforms, stopping's Python scans and
suite bookkeeping dominate.  verify-d10 makes a few large dense solves
(1024x1024 SVD and eigh, dense assembly, one paraproduct per interval in the
necessity bound).  norms-d12 runs the norms report above the dense cap, on
the power-iteration route, which is memory-bound; it is the only workload
that goes through gen/serialize and the deepest one that fits in memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import SUITE_NAMES

HERE = Path(__file__).resolve().parent

# Trials per verify pass.  A D=8 pass varies by +-15% from pass to pass
# (threaded LAPACK on 256x256 matrices), so it is kept short and repeated
# about ten times a run for the median; a D=10 pass is steadier and takes
# about 13 s.
VERIFY_TRIALS = {8: 5, 10: 4}

NORMS_DEPTH = 12
# The (mu, lambda, symbol) triples of a norms pass; triple k is generated with
# gen seeds 3k, 3k+1 and 3k+2.  They are fixed, not drawn from the seed: the
# power route's cost is set by its iteration counts, which vary from about
# 200 to about 5000 per triple (with gen seeds 78-80 the paraproduct and its
# adjoint need 2782 and 2002 iterations, and the report takes 57-73 s against
# a typical 13 s on a 2-core x86 machine), so a seeded draw of a few triples
# would make the seed, not the code, set wall_s.  Two triples keep a traced
# run (one untraced and one traced pass) well inside three minutes.
NORMS_TRIPLES = (0, 1)
NORMS_REFERENCE = HERE / "reference_norms_d12.json"
# Reference norms are power-iteration midpoints with a 1e-6 relative bracket
# on sigma^2; 1e-5 leaves room for any engine that converges further.
NORM_RTOL = 1e-5
# The functionals are closed-form sums; 1e-9 admits reordered summation.
FUNCTIONAL_RTOL = 1e-9
NORM_KEYS = (
    "norm_paraproduct",
    "norm_paraproduct_adjoint",
    "norm_shift_mu",
    "norm_shift_lambda",
    "norm_commutator",
)
FUNCTIONAL_KEYS = ("bloom_b2", "bloom_b2_dual", "bloom_b2_l2form", "bmo_rho", "bmo_rho_l1", "neccon")

# gen arguments per role; the same ensembles as the verify defaults.
ROLE_GEN = (
    ("mu", ["--kind", "cascade", "--delta", "0.4"]),
    ("lambda", ["--kind", "cascade", "--delta", "0.4"]),
    ("symbol", ["--kind", "log-symbol", "--delta", "0.3"]),
)


@dataclass
class Operation:
    """One dyadbloom CLI call.  check(exit code, output) returns None or why
    the operation failed; it may also raise ValueError, KeyError or
    TypeError on an unreadable output."""

    label: str
    argv: list[str]
    output: Path
    check: Callable[[int, Path], str | None]


def _non_finite(doc, where="") -> str | None:
    """Path of the first null or non-finite number in a JSON document.
    The CLI writes non-finite floats as null."""
    if doc is None:
        return where or "<root>"
    if isinstance(doc, float) and not math.isfinite(doc):
        return where or "<root>"
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return None
    for key, value in items:
        bad = _non_finite(value, f"{where}/{key}")
        if bad:
            return bad
    return None


def _read_output(code: int, output: Path):
    """The operation's JSON output; raises ValueError if there is none or it
    holds a non-finite value."""
    if code != 0:
        raise ValueError(f"exit code {code}")
    if not output.is_file():
        raise ValueError(f"no output file {output.name}")
    doc = json.loads(output.read_text(encoding="utf-8"))
    bad = _non_finite(doc)
    if bad:
        raise ValueError(f"non-finite value at {bad}")
    return doc


def _off(value: float, ref: float, rtol: float) -> bool:
    return not abs(value - ref) <= rtol * abs(ref)


class VerifyWorkload:
    """All eight suites at one depth, one CLI `verify --suite` call each."""

    def __init__(self, depth: int):
        self.name = f"verify-d{depth}"
        self.depth = depth
        self.trials = VERIFY_TRIALS[depth]

    def setup_commands(self, seed: int, work: Path) -> list[list[str]]:
        return []

    def operations(self, seed: int, work: Path, cli) -> list[Operation]:
        out_dir = work / "verify"
        return [
            Operation(
                label=suite,
                argv=["verify", "--depth", str(self.depth), "--seed", str(seed),
                      "--trials", str(self.trials), "--suite", suite, "--out", str(out_dir)],
                output=out_dir / f"suite-{suite}.json",
                check=self._check,
            )
            for suite in SUITE_NAMES
        ]

    @staticmethod
    def _check(code: int, output: Path) -> str | None:
        doc = _read_output(code, output)
        failed = [a["name"] for a in doc.get("assertions", []) if a.get("passed") is not True]
        if doc.get("passed") is not True or failed or not doc.get("assertions"):
            return f"suite failed: {failed}"
        return None


class NormsWorkload:
    """`norms` on the gen-written files of each of NORMS_TRIPLES, on the power
    route while the CLI still offers a choice of method.  Its inputs do not
    depend on the seed."""

    def __init__(self):
        self.name = f"norms-d{NORMS_DEPTH}"
        reference = json.loads(NORMS_REFERENCE.read_text(encoding="utf-8"))
        if reference["depth"] != NORMS_DEPTH:
            raise ValueError(f"{NORMS_REFERENCE.name} is for depth {reference['depth']}")
        self.reference = reference["triples"]

    def setup_commands(self, seed: int, work: Path) -> list[list[str]]:
        return [cmd for k in NORMS_TRIPLES for cmd in gen_commands(k, work)]

    def operations(self, seed: int, work: Path, cli) -> list[Operation]:
        ops = []
        for k in NORMS_TRIPLES:
            argv, out = norms_command(k, work, cli)
            ops.append(Operation(
                label=f"triple {k}",
                argv=argv,
                output=out,
                check=lambda code, output, k=k: self._check(code, output, k),
            ))
        return ops

    def _check(self, code: int, output: Path, k: int) -> str | None:
        doc = _read_output(code, output)
        ref = self.reference[str(k)]
        if doc.get("depth") != NORMS_DEPTH:
            return f"depth {doc.get('depth')}"
        off = [key for key in NORM_KEYS if _off(doc[key], ref["norms"][key], NORM_RTOL)]
        off += [key for key in FUNCTIONAL_KEYS
                if _off(doc["bmo"][key], ref["bmo"][key], FUNCTIONAL_RTOL)]
        if off:
            return f"triple {k} off its reference: {off}"
        return None


def triple_seeds(k: int) -> dict[str, int]:
    return {role: 3 * k + i for i, (role, _) in enumerate(ROLE_GEN)}


def triple_files(k: int, work: Path) -> dict[str, Path]:
    return {role: work / f"{role}-{k}.json" for role, _ in ROLE_GEN}


def gen_commands(k: int, work: Path) -> list[list[str]]:
    seeds, files = triple_seeds(k), triple_files(k, work)
    return [
        ["gen", *args, "--depth", str(NORMS_DEPTH), "--seed", str(seeds[role]),
         "--out", str(files[role])]
        for role, args in ROLE_GEN
    ]


def norms_command(k: int, work: Path, cli) -> tuple[list[str], Path]:
    """CLI arguments of the norms report on triple k, and its output file."""
    files, out = triple_files(k, work), work / f"report-{k}.json"
    method = ["--method", "power"] if norms_offers_method(cli) else []
    argv = ["norms", "--mu", str(files["mu"]), "--lambda", str(files["lambda"]),
            "--symbol", str(files["symbol"]), "--out", str(out), *method]
    return argv, out


def norms_offers_method(cli) -> bool:
    """Whether `dyadbloom norms` still takes --method (and so defaults to a
    route that refuses this depth)."""
    parser = cli.build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            norms = action.choices.get("norms")
            return norms is not None and "--method" in norms._option_string_actions
    return False


WORKLOADS = {
    "verify-d8": functools.partial(VerifyWorkload, 8),
    "verify-d10": functools.partial(VerifyWorkload, 10),
    "norms-d12": NormsWorkload,
}
