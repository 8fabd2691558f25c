"""Run one structsim CLI command in this fresh interpreter.

Usage: child.py RECORD TRACE ARGV...

Calls ``structsim.cli.main(ARGV)`` from the checkout's ``src`` and writes a
JSON record to RECORD: the clock at the entry into ``main`` (so the parent
can measure interpreter start plus import as set-up), the clock when it
returned, and the exit code.  With TRACE = 1 the layers are wrapped first
and the spans go to RECORD.npz.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    record_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, SRC)
    import structsim.cli as cli
    if not cli.__file__.startswith(SRC + os.sep):
        print(f"structsim imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer().install()
    sys.argv = ["structsim", *argv]       # the manifest records the command from sys.argv
    t_main = time.perf_counter()
    rc = None
    try:
        rc = cli.main(argv)
    finally:
        record = {"t_main": t_main, "t_done": time.perf_counter(), "rc": rc}
        if tracer is not None:
            record.update(tracer.dump(record_path + ".npz"))
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
