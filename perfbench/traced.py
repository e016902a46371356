"""Run one workload's CLI commands in-process with the layer tracer installed.

Usage: PYTHONPATH=src python3 perfbench/traced.py SPANS_DIR COMMANDS_JSON

COMMANDS_JSON holds a list of argv lists for `apglab.cli.main`. The process
writes its spans to SPANS_DIR/spans-<pid>.json (forked pool workers write
their own files) and SPANS_DIR/main.json with the hook table and the wall
time and exit code of each command.
"""

import json
import os
import sys
import time

from tracer import Tracer


def main(spans_dir: str, commands_path: str) -> int:
    with open(commands_path) as fh:
        commands = json.load(fh)
    tracer = Tracer(spans_dir)
    tracer.install()
    import apglab.cli

    walls, codes = [], []
    for argv in commands:
        t0 = time.perf_counter()
        codes.append(apglab.cli.main(argv))
        walls.append(time.perf_counter() - t0)
    tracer.flush()
    with open(os.path.join(spans_dir, "main.json"), "w") as fh:
        json.dump({"pid": os.getpid(), "present": tracer.present, "walls": walls, "codes": codes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
