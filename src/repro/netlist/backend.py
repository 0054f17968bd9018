"""Unified compute-backend selection for the vectorized hot paths.

Every vectorized hot path in the reproduction — the geometry kernels from
PR 2 (HPWL, RUDY, quadratic assembly), the array-backed detection kernel
(Phase I-III of the finder) and the flat-array FM partition kernel
(:mod:`repro.partition.kernel`) — keeps its pure-Python implementation
alive as a *scalar reference*.  This module is the single switch between
the two:

* ``resolve_backend(None)`` returns ``"numpy"`` unless the
  ``REPRO_SCALAR_BACKEND`` environment variable is set to a non-empty,
  non-``"0"`` value, which forces the scalar reference everywhere (the
  escape hatch the parity tests and CI cross-check against).
* An explicit ``"numpy"`` / ``"python"`` argument wins over the
  environment, so call sites can pin a backend per call.

Within the numpy backend, the finder's Phase I grower is the native C
port (:class:`~repro.finder.native.NativeOrderingGrower`) whenever its
library builds and loads, and the Python
:class:`~repro.finder.kernel.ArrayOrderingGrower` otherwise.  That choice
is made from what the host can do, not by a switch: both grow
bit-identical orderings, so it never changes a result.

Both backends produce identical results: orderings, integer group
statistics and FM partitions (move sequences, sides, cuts, pass counts)
are bit-identical by construction, floating-point scores agree to well
below 1e-9 (see ``tests/test_finder_kernel.py`` and
``tests/test_partition_kernel.py``), and flow fingerprints never depend on
the backend at all.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import NetlistError

#: Environment variable forcing the scalar reference backend everywhere.
SCALAR_BACKEND_ENV_VAR = "REPRO_SCALAR_BACKEND"

VALID_BACKENDS = ("numpy", "python")


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a compute backend name to ``"numpy"`` or ``"python"``.

    ``None`` picks ``"numpy"`` unless :data:`SCALAR_BACKEND_ENV_VAR` forces
    the scalar reference implementation.
    """
    if backend is None:
        forced = os.environ.get(SCALAR_BACKEND_ENV_VAR, "").strip() not in ("", "0")
        backend = "python" if forced else "numpy"
    if backend not in VALID_BACKENDS:
        raise NetlistError(
            f"unknown backend {backend!r}; use 'numpy' or 'python'"
        )
    return backend


@contextmanager
def forced_backend(backend: str) -> Iterator[None]:
    """Force ``backend`` process-wide for the duration of the block.

    Sets :data:`SCALAR_BACKEND_ENV_VAR` and restores the previous value on
    exit — the single point of truth for benchmarks and tests that compare
    the two backends.
    """
    if backend not in VALID_BACKENDS:
        raise NetlistError(
            f"unknown backend {backend!r}; use 'numpy' or 'python'"
        )
    previous = os.environ.get(SCALAR_BACKEND_ENV_VAR)
    os.environ[SCALAR_BACKEND_ENV_VAR] = "1" if backend == "python" else "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[SCALAR_BACKEND_ENV_VAR]
        else:
            os.environ[SCALAR_BACKEND_ENV_VAR] = previous


__all__ = [
    "SCALAR_BACKEND_ENV_VAR",
    "VALID_BACKENDS",
    "forced_backend",
    "resolve_backend",
]
