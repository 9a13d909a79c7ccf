"""``python -m repro.service ...`` with the span recorder installed.

Traced ``fleet-sweep`` rounds start their workers through this file
instead of ``-m repro.service``.  The round stops workers with SIGTERM;
here it raises KeyboardInterrupt, which the worker CLI handles by
returning, so the spans are written at exit.
"""

import atexit
import os
import runpy
import signal
import sys
from pathlib import Path

import spans


def _interrupt(signum, frame):
    raise KeyboardInterrupt


tracer = spans.install(Path(os.environ[spans.TRACE_ENV]))
atexit.register(tracer.dump)
signal.signal(signal.SIGTERM, _interrupt)
sys.argv[0] = "repro.service"
runpy.run_module("repro.service", run_name="__main__", alter_sys=True)
