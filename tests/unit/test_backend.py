"""Unit tests for the array-backend abstraction (``repro.backend``).

The backend layer's contract: ``numpy64`` (the default) is a pure
pass-through that reproduces the historical float64 arithmetic bit for
bit; ``numpy32`` pins every hot-path array to float32 and ``ensure``
catches any array that silently escaped the dtype.
"""

import numpy as np
import pytest

from repro.backend import (
    BACKENDS,
    DEFAULT_BACKEND_NAME,
    ENV_VAR,
    ArrayBackend,
    as_float,
    get_backend,
)
from repro.exceptions import BackendError


class TestRegistry:
    def test_default_is_numpy64(self):
        backend = get_backend(None)
        assert backend.name == "numpy64"
        assert backend.dtype == np.dtype(np.float64)
        assert backend.is_default

    def test_lookup_by_name(self):
        assert get_backend("numpy32").dtype == np.dtype(np.float32)
        assert not get_backend("numpy32").is_default

    def test_instances_are_interned(self):
        assert get_backend("numpy64") is BACKENDS["numpy64"]
        assert get_backend(BACKENDS["numpy32"]) is BACKENDS["numpy32"]

    def test_unknown_name_raises(self):
        with pytest.raises(BackendError):
            get_backend("float16")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy32")
        assert get_backend(None).name == "numpy32"
        monkeypatch.delenv(ENV_VAR)
        assert get_backend(None).name == DEFAULT_BACKEND_NAME

    def test_env_var_unknown_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")
        with pytest.raises(BackendError):
            get_backend(None)


class TestArrayConstruction:
    def test_asarray_is_noop_on_matching_dtype(self):
        # The flat fast path's bit-identity contract rests on this: the
        # default backend must never copy or convert a float64 array.
        backend = get_backend("numpy64")
        x = np.array([0.25, 0.75])
        assert backend.asarray(x) is x

    def test_asarray_converts_to_backend_dtype(self):
        backend = get_backend("numpy32")
        out = backend.asarray([0.25, 0.75])
        assert out.dtype == np.float32

    def test_zeros_full_empty_dtypes(self):
        for name, backend in BACKENDS.items():
            assert backend.zeros(3).dtype == backend.dtype, name
            assert backend.full(3, 1.5).dtype == backend.dtype, name
            assert backend.empty(3).dtype == backend.dtype, name

    def test_eps_matches_dtype(self):
        assert get_backend("numpy64").eps == np.finfo(np.float64).eps
        assert get_backend("numpy32").eps == np.finfo(np.float32).eps


class TestEnsure:
    def test_ensure_passes_matching_array(self):
        backend = get_backend("numpy32")
        x = np.zeros(4, dtype=np.float32)
        assert backend.ensure(x, "state") is x

    def test_ensure_raises_on_escaped_dtype(self):
        backend = get_backend("numpy32")
        with pytest.raises(BackendError, match="state"):
            backend.ensure(np.zeros(4), "state")


class TestAsFloat:
    def test_preserves_float32_and_float64(self):
        for dtype in (np.float32, np.float64):
            x = np.zeros(3, dtype=dtype)
            assert as_float(x).dtype == dtype
            assert as_float(x) is x  # no copy on the hot path

    def test_coerces_everything_else_to_float64(self):
        assert as_float([1, 2]).dtype == np.float64
        assert as_float(np.zeros(3, dtype=int)).dtype == np.float64
        assert as_float(np.zeros(3, dtype=np.float16)).dtype == np.float64


class TestNep50Foundation:
    """The float32 threading relies on NumPy 2 weak-scalar promotion:
    Python-float scalars must not upcast float32 arrays."""

    def test_python_scalars_keep_float32(self):
        x = np.ones(3, dtype=np.float32)
        assert (x * 0.5).dtype == np.float32
        assert np.maximum(x, 0.0).dtype == np.float32
        assert np.where(x > 0.5, x, 0.0).dtype == np.float32


class TestCompiledBackend:
    """``compiled`` once selected the fused tree kernels; every dtype now
    runs them, and the name survives as an alias of ``numpy64``."""

    def test_registry_entry(self):
        from repro.backend import ALIASES, BACKENDS, get_backend

        assert "compiled" not in BACKENDS
        assert ALIASES["compiled"] == "numpy64"
        assert get_backend("compiled") is BACKENDS["numpy64"]

    def test_explicit_compiled_is_always_honored(self):
        # Honored as the float64 backend it now names: no error, no
        # fallback, the numpy64 instance itself.
        from repro.backend import get_backend

        backend = get_backend("compiled")
        assert backend.name == "numpy64"
        assert backend.dtype == np.dtype(np.float64)

    def test_env_compiled_resolves_to_numpy64_without_warning(
        self, monkeypatch, caplog
    ):
        import logging

        from repro.backend import BACKENDS, get_backend

        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        with caplog.at_level(logging.WARNING, logger="repro.backend"):
            assert get_backend() is BACKENDS["numpy64"]
        assert caplog.records == []

    def test_unknown_name_lists_available_backends(self):
        from repro.backend import get_backend
        from repro.exceptions import BackendError

        with pytest.raises(BackendError, match="compiled.*numpy32.*numpy64"):
            get_backend("cuda")
