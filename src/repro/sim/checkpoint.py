"""Crash-safe checkpoint files for mid-replay state (``checkpoint_layout="v4"``).

:func:`repro.sim.engine.replay` can periodically serialize its *complete*
mid-stream state — accumulator partials, streaming estimators, allocator
caches, RNG bit-generator states — so a killed replay resumes from the
last checkpoint **byte-identically** to an uninterrupted run.  This
module owns the file format and the durability contract; the engine owns
*what* goes into a checkpoint (see ``sim/engine.py``) and the auditor
(``sim/audit.py``) validates the state right before each write.

File format (``checkpoint_layout="v4"``)::

    MAGIC (8 bytes, b"RPCKPT01")
    header length (4 bytes, big-endian)
    header (UTF-8 JSON): {"layout", "repro_version", "meta",
                          "sections": [{"name", "length", "crc32"}, ...]}
    header CRC32 (4 bytes, big-endian)
    section payloads, concatenated in header order

Durability: checkpoints are written to a temporary file in the same
directory, flushed, ``fsync``'d, then atomically renamed over the final
path (followed by a best-effort directory fsync), so a crash mid-write
can never leave a torn file under the final name.  Every section carries
a CRC32; :func:`load_checkpoint` raises :class:`CheckpointError` on a
bad magic, truncation, checksum mismatch or layout version mismatch —
corruption is *detected and reported*, never silently resumed from.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
import re
import struct
import sys
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.placement import Placement

__all__ = [
    "CHECKPOINT_LAYOUT",
    "Checkpoint",
    "CheckpointError",
    "CheckpointPolicy",
    "canonicalize",
    "checkpoint_file",
    "identity_fingerprint",
    "list_checkpoints",
    "load_checkpoint",
    "load_latest_checkpoint",
    "prune_checkpoints",
    "save_checkpoint",
]

#: Schema version stamped into (and required of) every checkpoint header.
#: ``"v2"``: the Proposed approach's section is its power manager's
#: snapshot (bounded history, no dense last cost matrix).
#: ``"v3"``: the sharded allocator's snapshot drops its population and
#: its per-shard summary records (a v2 sharded section unpickles only
#: against the class those records named).
#: ``"v4"``: the sharded allocator's snapshot drops its per-shard
#: allocators (and their reindex caches); only the latest plan remains.
CHECKPOINT_LAYOUT = "v4"

#: File magic; the trailing digits version the *container framing* (the
#: byte layout around the JSON header), while ``CHECKPOINT_LAYOUT``
#: versions the header/section schema itself.
_MAGIC = b"RPCKPT01"

_FILE_PATTERN = re.compile(r"^period_(\d{6,})\.ckpt$")

#: The auditor's accepted ``on_violation`` modes (see ``sim/audit.py``).
_ON_VIOLATION_MODES = ("raise", "warn", "degrade")


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt, truncated or version-mismatched."""


def _require_positive_int(value, name: str, minimum: int = 1) -> int:
    """Validate an integer-valued field (NaN-safe, mirrors MigrationCostModel)."""
    try:
        numeric = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}") from None
    if not math.isfinite(numeric) or numeric != int(numeric) or numeric < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(numeric)


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where :func:`repro.sim.engine.replay` writes checkpoints.

    ``every_periods`` is the emission cadence (a checkpoint lands after
    every K-th completed placement period); ``keep`` bounds the number of
    files retained in ``path`` (older ones are pruned so resume always
    has a fallback if the newest file is corrupt); ``audit`` runs the
    :mod:`repro.sim.audit` invariant checks right before each write, with
    ``on_violation`` selecting the auditor's failure mode.
    """

    path: str | Path
    every_periods: int = 10
    keep: int = 2
    audit: bool = True
    on_violation: str = "raise"

    def __post_init__(self) -> None:
        if not str(self.path):
            raise ValueError("checkpoint path must be a non-empty directory path")
        object.__setattr__(self, "path", Path(self.path))
        object.__setattr__(
            self,
            "every_periods",
            _require_positive_int(self.every_periods, "every_periods"),
        )
        object.__setattr__(self, "keep", _require_positive_int(self.keep, "keep"))
        if self.on_violation not in _ON_VIOLATION_MODES:
            raise ValueError(
                f"on_violation must be one of {_ON_VIOLATION_MODES}, "
                f"got {self.on_violation!r}"
            )


@dataclass(frozen=True)
class Checkpoint:
    """A loaded checkpoint: JSON-safe metadata plus named binary sections."""

    meta: dict
    sections: dict = field(default_factory=dict)


def identity_fingerprint(*identity: object) -> str:
    """SHA-256 binding a checkpoint to one exact run.

    Hashes the pickled tuple ``(CHECKPOINT_LAYOUT, *identity)``, so a
    layout bump alone invalidates every older checkpoint's fingerprint.
    """
    blob = pickle.dumps((CHECKPOINT_LAYOUT, *identity), protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


def canonicalize(state, names: tuple[str, ...]):
    """Re-share the string objects of an unpickled state.

    ``pickle.dumps`` output depends on object *identity* sharing (the
    pickler memoizes repeated objects).  A live run references the trace
    set's own name strings and interned literal keys; an unpickled
    checkpoint carries equal-valued private copies.  Rewriting restored
    containers against ``names`` (``sys.intern`` for other strings), each
    :class:`Placement` rebuilt once so shared placements stay shared,
    makes a resumed run pickle byte-identically to an uninterrupted one.
    """
    table = dict(zip(names, names, strict=True))
    rebuilt: dict[int, Placement] = {}

    def canon(obj):
        if isinstance(obj, str):
            canonical = table.get(obj)
            return canonical if canonical is not None else sys.intern(obj)
        if isinstance(obj, Placement):
            cached = rebuilt.get(id(obj))
            if cached is None:
                cached = Placement(
                    {canon(vm): server for vm, server in obj.assignment.items()},
                    obj.num_servers,
                )
                rebuilt[id(obj)] = cached
            return cached
        if isinstance(obj, dict):
            return {canon(key): canon(value) for key, value in obj.items()}
        if isinstance(obj, list):
            return [canon(item) for item in obj]
        if isinstance(obj, tuple):
            return tuple(canon(item) for item in obj)
        return obj

    return canon(state)


def checkpoint_file(directory: str | Path, period: int) -> Path:
    """The canonical file name for the checkpoint taken after ``period``."""
    return Path(directory) / f"period_{period:06d}.ckpt"


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Checkpoint files under ``directory``, newest (highest period) first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _FILE_PATTERN.match(entry.name)
        if match is not None:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found, reverse=True)]


def prune_checkpoints(directory: str | Path, keep: int) -> None:
    """Remove all but the newest ``keep`` checkpoint files (best effort)."""
    for stale in list_checkpoints(directory)[keep:]:
        # Suppressed OSError: benign race with a concurrent reader.
        with contextlib.suppress(OSError):
            stale.unlink()


def save_checkpoint(path: str | Path, meta: dict, sections: dict) -> Path:
    """Atomically write a checkpoint file.

    ``meta`` must be JSON-serializable; ``sections`` maps section names
    to raw payload bytes.  The write goes to a temporary file in the
    same directory (same filesystem, so the final rename is atomic),
    is flushed and fsync'd, then renamed over ``path``.
    """
    # Import here: ``repro/__init__`` imports ``repro.sim`` which imports
    # this module, so a top-level import would be circular.
    from repro import __version__

    path = Path(path)
    names = list(sections)
    payloads = [bytes(sections[name]) for name in names]
    header = {
        "layout": CHECKPOINT_LAYOUT,
        "repro_version": __version__,
        "meta": meta,
        "sections": [
            {"name": name, "length": len(payload), "crc32": zlib.crc32(payload)}
            for name, payload in zip(names, payloads, strict=True)
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(struct.pack(">I", len(header_bytes)))
            handle.write(header_bytes)
            handle.write(struct.pack(">I", zlib.crc32(header_bytes)))
            for payload in payloads:
                handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    _fsync_directory(path.parent)
    return path


def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        # Suppressed OSError: some filesystems reject fsync on dirs.
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and verify a checkpoint file.

    Raises :class:`CheckpointError` on any corruption: bad magic,
    truncated header or payload, CRC mismatch (header or any section),
    or a ``layout`` stamp other than :data:`CHECKPOINT_LAYOUT`.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error

    if len(blob) < len(_MAGIC) + 4 or not blob.startswith(_MAGIC):
        raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
    offset = len(_MAGIC)
    (header_length,) = struct.unpack_from(">I", blob, offset)
    offset += 4
    if len(blob) < offset + header_length + 4:
        raise CheckpointError(f"{path} is truncated (incomplete header)")
    header_bytes = blob[offset : offset + header_length]
    offset += header_length
    (header_crc,) = struct.unpack_from(">I", blob, offset)
    offset += 4
    if zlib.crc32(header_bytes) != header_crc:
        raise CheckpointError(f"{path} header checksum mismatch")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(f"{path} header is not valid JSON: {error}") from error

    layout = header.get("layout")
    if layout != CHECKPOINT_LAYOUT:
        raise CheckpointError(
            f"{path} has checkpoint_layout {layout!r}; "
            f"this build reads {CHECKPOINT_LAYOUT!r}"
        )

    sections: dict = {}
    for entry in header.get("sections", ()):
        name, length, crc = entry["name"], entry["length"], entry["crc32"]
        payload = blob[offset : offset + length]
        if len(payload) != length:
            raise CheckpointError(f"{path} is truncated (section {name!r} incomplete)")
        if zlib.crc32(payload) != crc:
            raise CheckpointError(f"{path} section {name!r} checksum mismatch")
        sections[name] = payload
        offset += length
    if offset != len(blob):
        raise CheckpointError(f"{path} has {len(blob) - offset} trailing bytes")
    return Checkpoint(meta=dict(header.get("meta", {})), sections=sections)


def load_latest_checkpoint(
    source: str | Path,
) -> tuple[Path, Checkpoint] | None:
    """The newest *valid* checkpoint under a directory (or a single file).

    A corrupt newest file is reported with a warning and the scan falls
    back to the next-newest — never silently wrong, never fatal; callers
    cold-start when nothing valid remains (returns ``None``).
    """
    source = Path(source)
    if source.is_file():
        candidates = [source]
    else:
        candidates = list_checkpoints(source)
    for candidate in candidates:
        try:
            return candidate, load_checkpoint(candidate)
        except CheckpointError as error:
            warnings.warn(
                f"skipping unusable checkpoint: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
    return None
