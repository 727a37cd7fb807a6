"""Wall-time logging of program phases.

Phase times go to the "ymdec" loggers at INFO level, which `ymdec -v`
sends to stderr.  They never enter a report, so reports stay
byte-identical for a given config and seed, the one condition, since no
run enters BLAS (README, Determinism).
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager


@contextmanager
def phase(log: logging.Logger, name: str):
    """Log the wall time of the enclosed block as `<name> <seconds> s`."""
    start = time.perf_counter()
    try:
        yield
    finally:
        log.info("%s %.3f s", name, time.perf_counter() - start)
