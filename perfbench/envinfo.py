"""Environment block of the benchmark report (read-only probes of the host)."""

from __future__ import annotations

import os
import platform

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CACHE_DIR = "/sys/devices/system/cpu/cpu0/cache"


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches() -> dict:
    """Per-core L2 and shared L3 sizes as the kernel reports them for cpu0."""
    out = {}
    try:
        entries = sorted(os.listdir(CACHE_DIR))
    except OSError:
        return out
    for entry in entries:
        base = os.path.join(CACHE_DIR, entry)
        level, kind, size = (_read(os.path.join(base, f)) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind == "Unified" and size:
            out[f"L{level}"] = size
    return out


def blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name', '?')} {info.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu_model(),
        "cache": caches(),
    }
