"""Thread pinning and the environment block every result records.

:func:`pin_threads` must run before numpy is first imported: BLAS reads its
thread count once, at load time.  Processes forked later (replicas) inherit
both the environment and the already-loaded single-threaded library.
"""

from __future__ import annotations

import os
import platform
import sys

#: Thread-count variables of the BLAS/OpenMP runtimes numpy may load.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Library settings that would change what a run executes: worker pools and a
#: process-wide artifact store.  Every run starts with them unset.
UNSET_VARIABLES = ("REPRO_DATA_WORKERS", "REPRO_NUM_WORKERS", "REPRO_ARTIFACT_DIR",
                   "REPRO_BENCH_PROFILE")


def pin_threads() -> None:
    """Pin every BLAS/OpenMP runtime to one thread and clear the library's knobs."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    for name in UNSET_VARIABLES:
        os.environ.pop(name, None)


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead of returning
        return {"name": "unknown"}
    blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def _git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` directly; "unknown" outside a repo."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    """Cores, BLAS vendor and configuration, thread settings, versions and git sha."""
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "blas": _blas(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
    }
