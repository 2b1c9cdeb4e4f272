"""Pluggable array backend: the float dtype is chosen once, at config time.

The hot paths (protocol fast paths, the stacked sweep engine, the batched
min-max solver) historically hard-coded ``dtype=float`` — IEEE-754 double
— in every ``np.asarray`` call. That is the right *default* (the paper's
reference arithmetic and every bit-identity contract are float64), but it
means a float32 run is impossible without touching algorithm code, and a
stray ``np.zeros(...)`` (float64) silently upcasts an entire expression
mid-loop.

:class:`ArrayBackend` makes the choice explicit and single-point:

- ``numpy64`` — float64, the default. Threading it through a hot path is
  a no-op by construction (``asarray(dtype=float64)`` on float64 data
  returns the input), so every existing bit-identity contract is
  untouched.
- ``numpy32`` — float32 opt-in. Halves the memory traffic of the large-N
  protocol fast paths; results differ from the float64 reference by
  rounding only (see :attr:`ArrayBackend.eps`), and runs are bit-stable
  run-to-run because nothing about execution order changes.

A backend is only a dtype. The FD protocol's tree round runs the numpy
kernels of :mod:`repro.backend.kernels` in either dtype. ``compiled``,
the name that once selected those kernels, remains accepted as an alias
of ``numpy64`` (see :data:`ALIASES`).

The contract a backend-threaded hot path must keep: every floating-point
array it allocates goes through the backend (``asarray`` / ``zeros`` /
``full`` / ``empty``), Python-scalar operands are allowed (NumPy's weak
scalar promotion keeps ``float32_array + 2.0`` in float32), and
:meth:`ArrayBackend.ensure` asserts the dtype at phase boundaries so an
accidental float64 operand fails loudly instead of silently doubling the
memory traffic. Virtual time, RNG draws, and metrics stay float64
regardless of backend — they are simulation infrastructure, not protocol
payload.

Select globally with ``REPRO_BACKEND=numpy32`` or per object via the
``backend=`` constructor parameter of the threaded classes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import BackendError

__all__ = [
    "ALIASES",
    "ArrayBackend",
    "BACKENDS",
    "DEFAULT_BACKEND_NAME",
    "get_backend",
    "as_float",
]

#: Environment variable consulted by :func:`get_backend` when no explicit
#: backend is passed.
ENV_VAR = "REPRO_BACKEND"

DEFAULT_BACKEND_NAME = "numpy64"


@dataclass(frozen=True)
class ArrayBackend:
    """One floating-point array flavor: a name and its dtype.

    Instances are immutable and interned in :data:`BACKENDS`; identity
    comparisons (``backend is get_backend("numpy64")``) are safe but
    equality also works through the dataclass.
    """

    name: str
    dtype: np.dtype = field(repr=False)

    # -- allocation (the only places a hot path may mint float arrays) --
    def asarray(self, data) -> np.ndarray:
        """``np.asarray`` pinned to the backend dtype (no-op on match)."""
        return np.asarray(data, dtype=self.dtype)

    def array(self, data) -> np.ndarray:
        return np.array(data, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def empty(self, shape) -> np.ndarray:
        return np.empty(shape, dtype=self.dtype)

    def full(self, shape, fill_value) -> np.ndarray:
        return np.full(shape, fill_value, dtype=self.dtype)

    # -- the no-silent-upcast contract ----------------------------------
    def ensure(self, array: np.ndarray, context: str = "array") -> np.ndarray:
        """Assert ``array`` still carries the backend dtype.

        Placed at phase boundaries of the threaded hot paths: any operand
        that upcast the expression to float64 (or downcast it) surfaces
        here as a loud :class:`~repro.exceptions.BackendError` instead of
        a silent doubling of memory traffic.
        """
        if array.dtype != self.dtype:
            raise BackendError(
                f"{context} left the {self.name} backend: expected dtype "
                f"{self.dtype}, got {array.dtype} (a silent up/downcast in "
                "the hot path)"
            )
        return array

    @property
    def eps(self) -> float:
        """Machine epsilon of the backend dtype (documented tolerance
        unit for cross-backend comparisons)."""
        return float(np.finfo(self.dtype).eps)

    @property
    def is_default(self) -> bool:
        return self.name == DEFAULT_BACKEND_NAME


#: The registry: name -> interned backend instance.
BACKENDS: dict[str, ArrayBackend] = {
    "numpy64": ArrayBackend("numpy64", np.dtype(np.float64)),
    "numpy32": ArrayBackend("numpy32", np.dtype(np.float32)),
}

#: Accepted names that resolve to a registered backend.
ALIASES: dict[str, str] = {"compiled": DEFAULT_BACKEND_NAME}


def get_backend(spec: "str | ArrayBackend | None" = None) -> ArrayBackend:
    """Resolve ``spec`` to an interned :class:`ArrayBackend`.

    ``None`` consults ``$REPRO_BACKEND`` and falls back to ``numpy64``;
    a string is looked up in :data:`BACKENDS` after :data:`ALIASES`; an
    instance passes through. Unknown names raise
    :class:`~repro.exceptions.BackendError` listing the accepted names.
    """
    if isinstance(spec, ArrayBackend):
        return spec
    if spec is None:
        spec = os.environ.get(ENV_VAR) or DEFAULT_BACKEND_NAME
    try:
        return BACKENDS[ALIASES.get(spec, spec)]
    except KeyError:
        raise BackendError(
            f"unknown array backend {spec!r}; available: "
            f"{sorted([*BACKENDS, *ALIASES])}"
        ) from None


def as_float(data) -> np.ndarray:
    """``np.asarray`` that *preserves* an existing float32/float64 dtype.

    The dtype-generic replacement for the historical
    ``np.asarray(x, dtype=float)`` in row-wise helpers: float inputs keep
    their precision (so a float32 pipeline stays float32 end to end),
    while ints, lists, and other non-float inputs still land on float64
    exactly as before.
    """
    arr = np.asarray(data)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return np.asarray(arr, dtype=np.float64)
