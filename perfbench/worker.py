"""Run one ``qwl`` report in this fresh interpreter; print its timings as JSON.

Usage: python3 worker.py SRC_DIR TRACE_ID ARG...

SRC_DIR holds the ``qwl`` package under test.  TRACE_ID is ``-`` for an
untraced report; otherwise the report runs under ``tracer.Tracer`` and its
spans are printed too.  The line printed on stdout holds ``ready`` (the
``time.monotonic()`` reading once ``qwl.cli`` is imported, which the parent
compares with its launch time), ``ready_cpu`` (the CPU time this process
spent until then, interpreter start-up included), the report's wall and CPU
duration, its exit code, the process's peak RSS and the spans.
"""

import json
import os
import resource
import sys
import time
import traceback


def main():
    src, trace_id, argv = os.path.abspath(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import qwl.cli

    ready = time.monotonic()
    ready_cpu = time.process_time()
    if not os.path.abspath(qwl.cli.__file__).startswith(src + os.sep):
        print(f"worker: qwl imported from {qwl.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace_id != "-":
        from tracer import Tracer

        tracer = Tracer(trace_id)
        tracer.install()
    error = None
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        code = qwl.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing report is recorded as failed, not fatal
        code, error = None, traceback.format_exc()
    duration, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    if tracer is not None:
        tracer.uninstall()
    print(json.dumps({
        "ready": ready,
        "ready_cpu": ready_cpu,
        "duration": duration,
        "cpu": cpu,
        "code": code,
        "error": error,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
