"""Where the benchmark runs: the checkout's own package, one BLAS thread,
one CPU, and a record of the machine."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NOT_CONTROLLED = (
    "CPU frequency scaling, core isolation and other tenants' load are not "
    "controlled by the benchmark; figures carry that noise"
)


def pin_blas_threads():
    """One BLAS thread; must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def pin_cpu() -> int:
    """Run on one CPU, the last one allowed.  On a shared machine the CPUs
    can run at different speeds; staying on one removes the mixture that
    moving between them puts into every timing.  Child processes inherit it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def use_checkout_package():
    """Import lossyqpt from this checkout's src/, never from elsewhere."""
    if not (SRC / "lossyqpt" / "__init__.py").is_file():
        raise SystemExit(f"error: no lossyqpt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lossyqpt

    if Path(lossyqpt.__file__).resolve().parent != SRC / "lossyqpt":
        raise SystemExit(f"error: lossyqpt imported from {lossyqpt.__file__}")


def out_dir() -> Path:
    path = BENCH / "out"
    path.mkdir(exist_ok=True)
    return path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        return "unknown"


def record() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": _git_commit(),
        "timer": "time.perf_counter",
        "memory": "resource.getrusage(RUSAGE_SELF).ru_maxrss",
        "not_controlled": NOT_CONTROLLED,
    }
