"""Process-wide runtime toggles, dependency-free by design.

Two switches live here, at the bottom of the dependency graph so code at
every layer — ``graph``, ``nn`` and ``core`` — can consult them without
inverting the ``graph -> nn`` layering:

* the *precision* tier: ``float64`` (the bit-identical default and numerical
  reference) or ``float32`` (the cheap inference tier — roughly half the
  matmul bandwidth, guarded by a relaxed equivalence bound against the
  float64 reference);
* the *canonical directives* switch: graph construction normally rewrites
  every configuration to its effective form first
  (:func:`repro.hls.directives.canonicalize_config`), so equivalent design
  points share one cache/memo signature; ``raw_directives()`` disables the
  rewrite for differential testing and for benchmarking what the
  canonicalization buys.

Both switches are backed by :class:`contextvars.ContextVar`, so concurrent
requests in a threaded or async serving daemon each see their own setting:
``with precision("float32")`` in one request cannot leak into another
thread's forward pass, and the contextmanager API is unchanged from the
module-global implementation it replaced.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar

#: the supported precision tiers, canonical spelling first
PRECISIONS = ("float64", "float32")

#: accepted aliases per canonical tier name
_PRECISION_ALIASES = {
    "float64": "float64", "f64": "float64", "fp64": "float64",
    "double": "float64",
    "float32": "float32", "f32": "float32", "fp32": "float32",
    "single": "float32",
}

_PRECISION: ContextVar[str] = ContextVar("repro_precision", default="float64")


_RAW_DIRECTIVES: ContextVar[bool] = ContextVar(
    "repro_raw_directives", default=False
)


def canonical_directives_active() -> bool:
    """Whether configurations are canonicalized before graph construction.

    True by default; :func:`raw_directives` flips it off for the enclosed
    block.
    """
    return not _RAW_DIRECTIVES.get()


@contextlib.contextmanager
def raw_directives():
    """Disable effective-directive canonicalization within the ``with`` block.

    Inside the block, :func:`~repro.graph.hierarchy.decompose` and
    :func:`~repro.graph.hierarchy.decomposition_signature` consume the
    configuration exactly as written: equivalent design points keep their
    distinct cache keys and prediction-memo entries.  Used by the
    differential tests (canonicalized and raw predictions must agree
    bit-for-bit) and by the dedup benchmarks to measure the raw-sweep
    baseline.
    """
    token = _RAW_DIRECTIVES.set(True)
    try:
        yield
    finally:
        _RAW_DIRECTIVES.reset(token)


def normalize_precision(value: str) -> str:
    """Canonical tier name (``"float64"``/``"float32"``) for ``value``.

    Accepts the common aliases (``f32``, ``fp32``, ``single``, ``double``,
    ...); raises :class:`ValueError` for anything else so typos fail loudly
    instead of silently running the wrong tier.
    """
    name = _PRECISION_ALIASES.get(str(value).strip().lower())
    if name is None:
        raise ValueError(
            f"unknown precision {value!r}; expected one of {PRECISIONS}"
        )
    return name


def active_precision() -> str:
    """The precision tier of the current context (``"float64"`` default)."""
    return _PRECISION.get()


@contextlib.contextmanager
def precision(value: str):
    """Run the ``with`` block under the given precision tier.

    Governs the dtype of arrays *created* inside the block — batch-encoding
    union buffers, tensors built from scalars and lists — while arrays that
    already carry a float32/float64 dtype (model weights cast once at load)
    propagate their own dtype through the kernels.  The default tier,
    float64, is bit-identical to the pre-tiered implementation.
    """
    token = _PRECISION.set(normalize_precision(value))
    try:
        yield
    finally:
        _PRECISION.reset(token)


__all__ = [
    "PRECISIONS", "raw_directives", "canonical_directives_active",
    "normalize_precision", "active_precision", "precision",
]
