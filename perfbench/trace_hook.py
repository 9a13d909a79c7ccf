"""Installs the span recorder on import when ``PERFBENCH_TRACE_DIR`` is set.

A traced ``batch-premap`` round preloads this module into the
multiprocessing forkserver, so every pool worker forked from it records
spans (and writes them after each chunk it runs).
"""

import os
from pathlib import Path

import spans

if os.environ.get(spans.TRACE_ENV):
    spans.install(Path(os.environ[spans.TRACE_ENV]))
