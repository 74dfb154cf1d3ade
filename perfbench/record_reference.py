"""Record the reference values that the norms-d12 workload checks against.

    python3 perfbench/record_reference.py

For each triple of the norms-d12 workload, writes the three gen files and
runs `norms` on them through the CLI exactly as the workload does, then
stores the five operator norms and the six functionals in
reference_norms_d12.json.  Run it only at a commit whose outputs are
trusted; each triple takes about 15 s and 1 GB at depth 12.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from dyadbloom import cli  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench_work" / "record-reference"
    work.mkdir(parents=True, exist_ok=True)
    triples = {}
    try:
        for k in workloads.NORMS_TRIPLES:
            argv, out = workloads.norms_command(k, work, cli)
            with contextlib.redirect_stdout(io.StringIO()):
                for gen in workloads.gen_commands(k, work):
                    if cli.main(gen) != 0:
                        raise SystemExit(f"gen failed: {gen}")
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"norms failed on triple {k}")
            doc = json.loads(out.read_text(encoding="utf-8"))
            triples[str(k)] = {
                "seeds": workloads.triple_seeds(k),
                "norms": {key: doc[key] for key in workloads.NORM_KEYS},
                "bmo": {key: doc["bmo"][key] for key in workloads.FUNCTIONAL_KEYS},
            }
            print(f"triple {k}: {triples[str(k)]['norms']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {"depth": workloads.NORMS_DEPTH, "triples": triples}
    workloads.NORMS_REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(f"wrote {workloads.NORMS_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
