"""Run one benchmark child with every betawords layer traced or stamped.

Usage:
    python3 perfbench/traced_child.py SPANS_FILE cli ARGS...      # betawords ARGS
    python3 perfbench/traced_child.py SPANS_FILE towers OPS_JSON  # towers_job.py
    python3 perfbench/traced_child.py --stamps STAMPS_FILE cli|towers ...

Installs the tracer (or, with --stamps, the Marker, which keeps only the
clocks at call boundaries), runs the target in this process with stdout
going where the plain child's would, then writes the spans, counters and
exit code to SPANS_FILE (or the stamps to STAMPS_FILE) and exits with the
target's exit code.
"""

from __future__ import annotations

import sys

from tracer import Marker, Tracer


def main(argv: list[str]) -> int:
    recorder = Marker if argv[:1] == ["--stamps"] else Tracer
    argv = argv[1:] if recorder is Marker else argv
    if len(argv) < 3 or argv[1] not in ("cli", "towers"):
        print(__doc__, file=sys.stderr)
        return 2
    out_file, target, args = argv[0], argv[1], argv[2:]
    tracer = recorder()
    tracer.install()
    code = 0
    try:
        if target == "cli":
            import betawords.cli
            sys.argv = ["betawords", *args]
            betawords.cli.run()
        else:
            import towers_job
            code = towers_job.main(args)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code \
            if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(out_file, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
