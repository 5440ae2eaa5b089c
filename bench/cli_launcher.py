"""Run ``qwitness.cli.main`` as the ``qwitness`` console script does.

With ``QWB_TRACE_OUT`` set, the launcher also times the interpreter spawn
(from ``QWB_SPAWN_NS``, the parent's monotonic clock just before it
started this process) and the package import, installs the tracer's
wrappers, and writes the spans to ``QWB_TRACE_OUT`` when the command ends.
Without it the launcher adds nothing to the command.

    PYTHONPATH=src python3 bench/cli_launcher.py witness --state-a a.json ...
"""

import os
import time

_START_NS = time.perf_counter_ns()

import qwitness.cli  # noqa: E402

_IMPORTED_NS = time.perf_counter_ns()


def _traced_main(trace_out: str) -> None:
    from tracer import Tracer

    tracer = Tracer()
    tracer.count("process.spawn_ns", _START_NS - int(os.environ["QWB_SPAWN_NS"]))
    tracer.count("process.import_ns", _IMPORTED_NS - _START_NS)
    tracer.install()
    tracer.enabled = True
    try:
        qwitness.cli.main()
    finally:
        tracer.enabled = False
        tracer.dump(trace_out)


if __name__ == "__main__":
    trace_out = os.environ.get("QWB_TRACE_OUT")
    if trace_out:
        _traced_main(trace_out)
    else:
        qwitness.cli.main()
