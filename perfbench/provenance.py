"""What produced a result: host, library versions, providers, commit, seed."""

from __future__ import annotations

import os
import platform
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD's commit read from .git; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def collect(root: Path, seed: int, forced_provider: str | None) -> dict:
    import cryptography
    import numpy
    from cryptography.hazmat.backends.openssl import backend
    from chainsig.schemes import get_provider

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "openssl": backend.openssl_version_text(),
        "oqs_available": get_provider("oqs").available(),
        "pqclean_available": get_provider("pqclean").available(),
        "forced_provider": forced_provider,
        "commit": _git_commit(root),
        "seed": seed,
    }
