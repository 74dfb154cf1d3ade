"""One timed set-up of a workload, run as its own process.

    python3 setup_child.py SRC_DIR COMMANDS_JSON

Imports dyadbloom from SRC_DIR and runs each dyadbloom CLI command in
COMMANDS_JSON (a JSON list of argument lists) that builds the workload's
inputs.  The caller times the whole process, interpreter start included.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from dyadbloom import cli  # noqa: E402

for argv in json.loads(sys.argv[2]):
    code = cli.main(argv)
    if code != 0:
        sys.exit(code)
