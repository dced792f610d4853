"""The machine's physical memory: the bound on the tables and paths a run
may build, which the labs and the CLI check before the work starts."""

from __future__ import annotations

import os


def physical_memory_bytes() -> int:
    """Installed memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
