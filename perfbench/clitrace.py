"""Run ``aptkit.cli`` traced, as ``python -m aptkit.cli`` would run it.

Used only by traced runs of the benchmark.  Besides the layer counts of
``tracer``, it measures the interpreter start-up (from the spawn time the
caller passes in ``PERFBENCH_SPAWN`` to the first line here), the import
of aptkit and the time in ``main``.  The report goes to the file named by
``PERFBENCH_TRACE_OUT``; stdout, stderr and the exit code are the CLI's.
"""

import time

started = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402


def main():
    t_import = time.monotonic()
    import aptkit.cli

    t_imported = time.monotonic()
    trace = tracer.Tracer().install()
    t_main = time.monotonic()
    code = 1
    try:
        code = aptkit.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    finally:
        t_end = time.monotonic()
        report = {
            "interpreter_ms": 1000 * (started - float(os.environ["PERFBENCH_SPAWN"])),
            "import_ms": 1000 * (t_imported - t_import),
            "main_ms": 1000 * (t_end - t_main),
            "layers": trace.raw(),
        }
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
