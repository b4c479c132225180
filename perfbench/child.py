"""One benchmark operation: a single recnum.cli.main(argv) call in this fresh
interpreter.

    python3 child.py <src dir> <trace 0|1> <operation id> <cli argv...>

Imports recnum from <src dir>, optionally installs the span tracer, then
records the monotonic time of entering cli.main, captures what the CLI
writes to stdout, and prints one JSON record as the last line of its own
stdout. Exits with the CLI's exit code. With <trace> = "setup" it stops
where cli.main would be entered, which measures start-up alone (and writes
the package's bytecode caches on first use).
"""

import contextlib
import io
import json
import os
import sys
import time


def main() -> int:
    src, trace, op = sys.argv[1], sys.argv[2], sys.argv[3]
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    import numpy
    import recnum
    import recnum.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(recnum.__file__))) != src:
        print(f"recnum imported from {recnum.__file__}, not from {src}", file=sys.stderr)
        return 1
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer(int(op))
        tracer.install()
    out = io.StringIO()
    t_enter = time.monotonic()
    rc = 0
    if trace != "setup":
        with contextlib.redirect_stdout(out):
            rc = recnum.cli.main(argv)
    record = {"rc": rc, "out": out.getvalue(), "t_enter": t_enter, "numpy": numpy.__version__}
    if tracer is not None:
        record["trace"] = tracer.export()
    sys.stdout.write(json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
