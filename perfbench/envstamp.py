"""Environment stamp for benchmark results (read-only: /proc and /sys)."""

from __future__ import annotations

import os
import platform


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_sizes(cpu: int = 0) -> dict[str, str]:
    """Cache sizes of one CPU, keyed like 'L1d', 'L1i', 'L2', 'L3'."""
    base = f"/sys/devices/system/cpu/cpu{cpu}/cache"
    try:
        entries = sorted(e for e in os.listdir(base) if e.startswith("index"))
    except OSError:
        return {}
    out = {}
    for entry in entries:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type")) or ""
        size = _read(os.path.join(base, entry, "size"))
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[f"L{level}{suffix}"] = size
    return out


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
    }
