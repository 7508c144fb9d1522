"""Checkpoint/resume for sharded DSE sweeps.

A production-scale sweep is hours of fleet time; a coordinator crash must
not throw the scored half away.  The coordinator therefore periodically
persists its progress — every scored canonical config id with its exact
prediction — and a restarted fleet (``ShardedExplorer(checkpoint=...,
resume=True)``) skips everything the checkpoint already covers.

**Why resume is bit-equal.**  A design's prediction does not depend on
what it is batched with (see "Batch invariance" in ``docs/ARCHITECTURE.md``),
predictions persist through JSON, whose ``repr``-based float encoding
round-trips float64 exactly, and the merged Pareto front is a pure function
of the ``(objectives, config_id)`` multiset — so feeding checkpointed
predictions into the merge next to freshly scored ones reproduces the
uninterrupted front bit for bit (:func:`~repro.dse.pareto.fronts_bit_equal`).

**File format.**  One JSON document ``{"body": ..., "digest": ...}``:
``digest`` is a sha256 prefix over the canonically-serialized body, so any
torn write or bit rot is detected; the body carries a format version, the
**space fingerprint** (kernel + source + every config key), the **model
digest** (:func:`~repro.core.serialization.model_weights_digest` of the
exact weights) and the inference ``precision``, binding the checkpoint to
the one sweep it can resume; and the ``scored`` table of ``[config_id,
metrics]`` pairs.  Writes are atomic (tmp + ``os.replace``, same pattern as
``save_model``), so a crash mid-checkpoint leaves the previous valid
checkpoint in place.  A checkpoint that fails *any* check — unreadable,
bad digest, wrong version/space/model/precision — is discarded with a
:class:`RuntimeWarning` and the sweep restarts from zero; it never crashes
the run and never leaks stale predictions into a front.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.dse.space import DesignSpace

#: format version of the checkpoint payload; bump on layout change
CHECKPOINT_VERSION = 1

#: newly scored configurations between periodic checkpoint writes
DEFAULT_CHECKPOINT_INTERVAL = 64


def space_fingerprint(space: DesignSpace) -> str:
    """Content digest identifying a design space exactly.

    Covers the kernel name, the source text and every configuration's
    canonical key *in enumeration order* — config ids are positions in that
    order, so two spaces with equal fingerprints agree on what every id in
    a checkpoint means.  Construction is deterministic for a seed, so the
    re-enumerated space of a restarted CLI run fingerprints identically.
    """
    digest = hashlib.sha256()
    digest.update(space.kernel.encode("utf-8"))
    digest.update(space.source.encode("utf-8"))
    for config in space.configs:
        digest.update(config.key().encode("utf-8"))
    return digest.hexdigest()[:16]


def _payload_digest(body: dict) -> str:
    """Integrity digest over the canonically-serialized checkpoint body."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class SweepCheckpoint:
    """Progress snapshot of one sharded sweep.

    ``scored`` maps config ids (of the space identified by
    ``space_fingerprint``) to their exact predictions; ``complete`` marks a
    finished sweep, whose resume scores nothing and reassembles the result
    from the table alone.
    """

    space_fingerprint: str
    model_digest: str
    precision: str
    scored: dict[int, dict[str, float]] = field(default_factory=dict)
    complete: bool = False


def save_checkpoint(path: str | Path, checkpoint: SweepCheckpoint) -> Path:
    """Atomically persist a checkpoint (tmp file + ``os.replace``).

    The scored table is emitted in config-id order, so identical progress
    produces byte-identical files regardless of delivery order.
    """
    path = Path(path)
    body = {
        "version": CHECKPOINT_VERSION,
        "space_fingerprint": checkpoint.space_fingerprint,
        "model_digest": checkpoint.model_digest,
        "precision": checkpoint.precision,
        "complete": checkpoint.complete,
        "scored": [
            [config_id, checkpoint.scored[config_id]]
            for config_id in sorted(checkpoint.scored)
        ],
    }
    payload = {"body": body, "digest": _payload_digest(body)}
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(path.name + ".tmp")
    try:
        staging.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(staging, path)
    finally:
        if staging.exists():
            staging.unlink()
    return path


def _discard(path: Path, reason: str) -> None:
    """Warn that a checkpoint is unusable (the sweep restarts from zero)."""
    warnings.warn(
        f"discarding checkpoint {path}: {reason}; restarting sweep from zero",
        RuntimeWarning,
        stacklevel=3,
    )


def load_checkpoint(
    path: str | Path,
    *,
    expected_space: str,
    expected_model: str,
    expected_precision: str,
) -> SweepCheckpoint | None:
    """Load and verify a checkpoint; ``None`` (with a warning) if unusable.

    Verification order: readability and JSON well-formedness, then the
    payload digest (catches truncation and bit flips), then the binding
    checks — format version, space fingerprint, model weights digest and
    precision tier must all match the sweep being resumed.  Any failure
    discards the checkpoint with a :class:`RuntimeWarning`; a missing file
    is silent (a first run simply has no checkpoint yet).
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        body = payload["body"]
        digest = payload["digest"]
    except (OSError, ValueError, KeyError, TypeError):
        _discard(path, "unreadable or not a checkpoint")
        return None
    if not isinstance(body, dict) or _payload_digest(body) != digest:
        _discard(path, "integrity digest mismatch (truncated or corrupted)")
        return None
    if body.get("version") != CHECKPOINT_VERSION:
        _discard(
            path,
            f"format version {body.get('version')!r} != {CHECKPOINT_VERSION}",
        )
        return None
    if body.get("space_fingerprint") != expected_space:
        _discard(path, "design-space fingerprint mismatch")
        return None
    if body.get("model_digest") != expected_model:
        _discard(path, "model weights digest mismatch")
        return None
    if body.get("precision") != expected_precision:
        _discard(
            path,
            f"precision tier {body.get('precision')!r} != "
            f"{expected_precision!r}",
        )
        return None
    try:
        scored = {
            int(config_id): {
                str(name): float(value) for name, value in metrics.items()
            }
            for config_id, metrics in body.get("scored", [])
        }
    except (ValueError, TypeError, AttributeError):
        _discard(path, "malformed scored table")
        return None
    return SweepCheckpoint(
        space_fingerprint=body["space_fingerprint"],
        model_digest=body["model_digest"],
        precision=body["precision"],
        scored=scored,
        complete=bool(body.get("complete", False)),
    )


class CheckpointWriter:
    """Accumulates scored predictions and persists them periodically.

    The coordinator calls :meth:`record_chunk` for every chunk it folds in
    (streamed or recovered alike); once ``interval`` *newly* recorded
    configurations have accumulated, the next check triggers an atomic
    :func:`save_checkpoint`.  ``on_save`` is the fault-injection hook: it
    runs after each persisted write with the running save count, so a test
    can kill the coordinator at a point where a valid checkpoint is
    guaranteed to exist on disk.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        space_fingerprint: str,
        model_digest: str,
        precision: str,
        interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        prior: dict[int, dict[str, float]] | None = None,
        on_save=None,
    ):
        self.path = Path(path)
        self.interval = max(1, interval)
        self.scored: dict[int, dict[str, float]] = dict(prior or {})
        self.saves = 0
        self._space_fingerprint = space_fingerprint
        self._model_digest = model_digest
        self._precision = precision
        self._since_save = 0
        self._on_save = on_save

    def record(self, config_id: int, metrics: dict[str, float]) -> None:
        """Fold one scored configuration in; persist every ``interval``."""
        self.record_chunk([(config_id, metrics)])

    def record_chunk(self, pairs) -> None:
        """Fold ``(config_id, metrics)`` pairs in whole, then persist if due.

        The interval is checked once, after the last pair, so a save never
        splits the chunk the pairs came from: every checkpoint is a union of
        whole chunks of the sweep's layout.
        """
        for config_id, metrics in pairs:
            if config_id not in self.scored:
                self.scored[config_id] = metrics
                self._since_save += 1
        if self._since_save >= self.interval:
            self.save()

    def save(self, *, complete: bool = False) -> None:
        """Persist the current scored table now (atomic write)."""
        save_checkpoint(
            self.path,
            SweepCheckpoint(
                space_fingerprint=self._space_fingerprint,
                model_digest=self._model_digest,
                precision=self._precision,
                scored=self.scored,
                complete=complete,
            ),
        )
        self.saves += 1
        self._since_save = 0
        if self._on_save is not None:
            self._on_save(self.saves)


__all__ = [
    "CHECKPOINT_VERSION", "DEFAULT_CHECKPOINT_INTERVAL", "SweepCheckpoint",
    "space_fingerprint", "save_checkpoint", "load_checkpoint",
    "CheckpointWriter",
]
