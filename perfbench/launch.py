"""Child process of the benchmark: one `moufang` command line.

    python3 perfbench/launch.py REPORT TRACE [moufang arguments...]

Behaves like the `moufang` console script (`moufang.cli:main`) and also
writes a JSON report to REPORT: the CLOCK_MONOTONIC time at which
`moufang.cli` finished importing and, with TRACE = 1, the tracer's spans and
counters.  Without moufang arguments it only imports the package and exits
0, which times the import alone.
"""

import time
import sys

import moufang.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    report = {"imported": IMPORTED}
    tracer = None
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        report["wrapped"] = install(tracer)
    status = 0
    try:
        if argv:
            status = moufang.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(report_path, "w") as fh:
            if tracer is None:
                fh.write('{"imported": %r}' % IMPORTED)
            else:
                import json
                report.update(tracer.report())
                json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
