"""Child-process entry point: runs ``bellepr`` as its console script does.

    python3 perfbench/launch.py [--trace-out FILE] -- <bellepr arguments>

Without ``--trace-out`` this is ``sys.exit(bellepr.cli.main(argv))`` with the
checkout's ``src`` on the path.  With it, the import of ``bellepr.cli`` is
timed, the tracer is installed, and the spans are written to FILE at exit.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_out is None:
        from bellepr.cli import main as bellepr_main

        return bellepr_main(argv)

    from time import perf_counter

    from tracing import Tracer

    tracer = Tracer()
    start = perf_counter()
    import bellepr.cli

    tracer.import_s.append(perf_counter() - start)
    tracer.install()
    try:
        return bellepr.cli.main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
