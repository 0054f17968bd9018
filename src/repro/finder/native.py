"""Native Phase I grower: ``_grower.c`` built on first use, bound with ctypes.

:class:`NativeOrderingGrower` is the numpy backend's Phase I grower.  It is
the C port of :class:`~repro.finder.kernel.ArrayOrderingGrower` over the
same :class:`~repro.finder.kernel.KernelTables` int64 buffers, and grows
bit-identical orderings with identical :meth:`telemetry` (see the header
of ``_grower.c`` for why).

:func:`load_library` compiles ``_grower.c`` once per machine with the
system C compiler into
``${XDG_CACHE_HOME:-~/.cache}/repro/native/grower-<hash>.so``, where the
hash covers the source, the compiler flags and the machine type.  The
library is written to a temporary file in that directory and moved into
place with :func:`os.replace`, so processes that build at the same moment
each load a complete file.  A first-use build runs inside a
``finder.native_build`` span.  Any failure (no compiler, a compile error,
an unwritable cache directory, a library that does not load) logs one
warning and returns ``None``; :func:`repro.finder.ordering.make_grower`
then falls back to :class:`~repro.finder.kernel.ArrayOrderingGrower`.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import weakref
from typing import Dict, List, Optional

import numpy as np

from repro.errors import FinderError
from repro.finder.kernel import KernelTables, check_seed
from repro.netlist.hypergraph import Netlist
from repro.obs import trace

logger = logging.getLogger(__name__)

#: The C source of the grower.
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_grower.c")
#: The C compiler, looked up on ``PATH``.
COMPILER = "cc"
#: Value-safe optimisation only: no FMA contraction, no fast-math, no
#: host-specific instructions, so every float matches the Python kernel.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_UNSET = object()
_library = _UNSET
_lock = threading.Lock()


def _reinit_lock() -> None:
    # A child forked while another thread held the lock must not inherit it.
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_reinit_lock)


class NativeBuildError(Exception):
    """The grower library could not be built or loaded."""


def library_path() -> str:
    """Where the library for the current source, flags and machine lives."""
    with open(SOURCE, "rb") as handle:
        source = handle.read()
    digest = hashlib.sha256(source)
    digest.update("\0".join(FLAGS + (platform.machine(),)).encode())
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(
        cache_home, "repro", "native", f"grower-{digest.hexdigest()[:16]}.so"
    )


def _build(path: str) -> None:
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise NativeBuildError(f"no C compiler {COMPILER!r} on PATH")
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, partial = tempfile.mkstemp(prefix=".grower-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        with trace.span("finder.native_build", compiler=compiler):
            result = subprocess.run(
                [compiler, *FLAGS, "-o", partial, SOURCE],
                capture_output=True, text=True, errors="replace",
            )
        if result.returncode != 0:
            raise NativeBuildError(
                f"{COMPILER} exited {result.returncode}: {result.stderr.strip()[-500:]}"
            )
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    table = np.ctypeslib.ndpointer(dtype=np.int64, ndim=1, flags="C_CONTIGUOUS")
    handle, i64 = ctypes.c_void_p, ctypes.c_int64
    signatures = {
        "grower_new": ([table] * 6 + [i64] * 5, handle),
        "grower_free": ([handle], None),
        "grower_step": ([handle], i64),
        "grower_grow": ([handle, i64], i64),
        "grower_ordering": ([handle], ctypes.POINTER(i64)),
        "grower_length": ([handle], i64),
        "grower_frontier_size": ([handle], i64),
        "grower_heap_pushes": ([handle], i64),
        "grower_compactions": ([handle], i64),
        "grower_connection_weight": ([handle, i64], ctypes.c_double),
        "grower_cut_delta": ([handle, i64], i64),
    }
    for name, (argtypes, restype) in signatures.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = restype
    return lib


def _load() -> Optional[ctypes.CDLL]:
    try:
        path = library_path()
        if not os.path.exists(path):
            _build(path)
        lib = _bind(ctypes.CDLL(path))
    except (OSError, AttributeError, NativeBuildError) as error:
        logger.warning(
            "native Phase I grower unavailable, using the array fallback: %s", error
        )
        return None
    logger.debug("native Phase I grower loaded from %s", path)
    return lib


def load_library() -> Optional[ctypes.CDLL]:
    """The bound grower library, built on first use; ``None`` if unavailable.

    The outcome is kept for the life of the process, so a failure warns once.
    """
    global _library
    with _lock:
        if _library is _UNSET:
            _library = _load()
        return _library


class NativeOrderingGrower:
    """The C implementation of Phase I; API-compatible with
    :class:`~repro.finder.ordering.LinearOrderingGrower` and bit-identical
    to :class:`~repro.finder.kernel.ArrayOrderingGrower`, telemetry included.

    Raises :class:`~repro.errors.FinderError` when :func:`load_library`
    could not provide the library.
    """

    def __init__(
        self,
        netlist: Netlist,
        seed: int,
        lambda_skip: int = 20,
        exclude_fixed: bool = True,
    ) -> None:
        check_seed(netlist, seed, exclude_fixed)
        lib = load_library()
        if lib is None:
            raise FinderError("the native grower library is unavailable")
        tables = KernelTables.for_netlist(netlist)
        # Held for the grower's lifetime: C borrows these buffers.
        self._buffers = tables.native_buffers(exclude_fixed)
        handle = lib.grower_new(
            *self._buffers,
            tables.num_cells,
            tables.arrays.num_nets,
            # Outside-pin counts lie in [1, num_cells): the clamp keeps every
            # skip decision while fitting any int into an int64.
            max(-1, min(lambda_skip or 0, tables.num_cells)),
            max(1, (tables.num_cells - 1).bit_length()),
            seed,
        )
        if not handle:
            raise MemoryError("native grower: out of memory")
        self._lib = lib
        self._handle = handle
        self._num_cells = tables.num_cells
        weakref.finalize(self, lib.grower_free, handle)

    def _check_cell(self, cell: int) -> int:
        if not 0 <= cell < self._num_cells:
            raise IndexError(f"cell {cell} out of range")
        return cell

    @property
    def ordering(self) -> List[int]:
        """Cells in the order they were absorbed (seed first)."""
        length = self._lib.grower_length(self._handle)
        pointer = self._lib.grower_ordering(self._handle)
        return np.ctypeslib.as_array(pointer, shape=(length,)).tolist()

    @property
    def frontier_size(self) -> int:
        """Number of candidate cells currently adjacent to the group."""
        return self._lib.grower_frontier_size(self._handle)

    def connection_weight(self, cell: int) -> float:
        """Current connection weight of frontier cell ``cell`` (0 if absent)."""
        return self._lib.grower_connection_weight(self._handle, self._check_cell(cell))

    def cut_delta(self, cell: int) -> int:
        """Net-cut change if frontier cell ``cell`` were absorbed now."""
        return self._lib.grower_cut_delta(self._handle, self._check_cell(cell))

    def step(self) -> Optional[int]:
        """Absorb the best frontier cell; return it, or ``None`` if stuck."""
        cell = self._lib.grower_step(self._handle)
        if cell == -2:
            raise MemoryError("native grower: out of memory")
        return None if cell < 0 else cell

    def grow(self, max_length: int) -> List[int]:
        """Grow until ``max_length`` cells or the frontier empties."""
        limit = min(max_length, self._num_cells)  # C takes an int64
        if self._lib.grower_grow(self._handle, limit) == -2:
            raise MemoryError("native grower: out of memory")
        return self.ordering

    def telemetry(self) -> Dict[str, int]:
        """Work counters of this grower (same keys and values as the array
        kernel's)."""
        return {
            "heap_pushes": self._lib.grower_heap_pushes(self._handle),
            "heap_compactions": self._lib.grower_compactions(self._handle),
        }


__all__ = ["NativeOrderingGrower", "library_path", "load_library"]
