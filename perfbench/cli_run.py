"""Run one opcross command the way ``python -m opcross.cli`` does and write
what the process used to a JSON file.

    python3 perfbench/cli_run.py STATS_OUT plain|trace VERB --in FILE --out FILE

The exit status and the files written are those of the command.  STATS_OUT
receives the process's peak resident memory (VmHWM, which unlike
ru_maxrss does not count the parent's memory at fork) and, with ``trace``,
the totals of the benchmark's tracer installed around the command.
"""

import json
import sys

import opcross.cli
from tracer import Tracer


def peak_rss_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main():
    stats_out, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    try:
        opcross.cli.main(args, prog_name="opcross")
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        if tracer:
            tracer.remove()
    with open(stats_out, "w") as fh:
        json.dump({"peak_rss_kb": peak_rss_kb(),
                   "trace": tracer.totals() if tracer else None}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
