"""Checkpointed sweeps: an append-only journal of completed points.

Role in the pipeline: the experiment runner (:mod:`repro.harness.runner`)
appends every *successfully* computed point result to a
:class:`RunCheckpoint` as it finishes; a later run handed the same
checkpoint file skips those points entirely (mode ``"resumed"`` in the
run-report) and recomputes only the points that failed, timed out, or were
never reached.  That is what ``--resume`` on the CLI's ``faults`` command
does — a sweep interrupted by a crash or a ⌃C loses only its in-flight
points.

The checkpoint differs from :class:`repro.harness.cache.ResultCache` in
scope and lifetime: the cache is a long-lived, content-addressed store
shared across experiments; a checkpoint belongs to *one* logical sweep and
is deleted (or simply not passed) to start fresh.  Keys are the same
:func:`~repro.harness.cache.point_key` digests, so a checkpointed point is
resumed bit-identically.

Format: JSON Lines, one ``{"key": <digest>, "blob": <base64 pickle>}``
object per line, flushed per point.  A truncated final line (the crash that
motivated the resume) is skipped on load; later entries for the same key
win, so re-running a point simply supersedes it.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from pathlib import Path
from typing import Iterator, Optional, Tuple

__all__ = ["RunCheckpoint"]


class RunCheckpoint:
    """Append-only journal of ``point_key -> result`` for one sweep."""

    def __init__(self, path: os.PathLike | str) -> None:
        self.path = Path(path)
        self._entries: dict[str, object] = {}
        self.corrupt_lines = 0
        self._load()

    def _load(self) -> None:
        for record in self._read():
            if record is None:
                # A crash mid-append leaves at most one truncated line;
                # skipping it just means that point is recomputed.
                self.corrupt_lines += 1
            else:
                self._entries[record[0]] = record[1]

    def _read(self) -> Iterator[Optional[Tuple[str, object]]]:
        """Decode the file line by line: ``(key, value)`` per entry, in
        append order, or ``None`` for a line that does not decode."""
        if not self.path.exists():
            return
        for line in self.path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key = record["key"]
                value = pickle.loads(base64.b64decode(record["blob"]))
            except Exception:
                yield None
            else:
                yield key, value

    def get(self, key: str) -> Tuple[bool, object]:
        """Look up ``key``; returns ``(hit, value)``."""
        if key in self._entries:
            return True, self._entries[key]
        return False, None

    def put(self, key: str, value: object) -> bool:
        """Journal one completed point; returns whether it was persisted.

        Unpicklable results are kept in memory for this run but cannot be
        resumed from disk later (same silent-skip contract as the cache).
        """
        self._entries[key] = value
        try:
            blob = self._encode(value)
        except Exception:
            return False
        return self._append(key, blob)

    @staticmethod
    def _encode(value: object) -> str:
        """The line payload for ``value``; raises if it does not pickle."""
        return base64.b64encode(pickle.dumps(value)).decode("ascii")

    def _append(self, key: str, blob: str) -> bool:
        """Append and fsync one encoded entry; False on an I/O error."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as handle:
                handle.write(json.dumps({"key": key, "blob": blob}) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            return False
        return True

    def keys(self) -> tuple[str, ...]:
        """All journaled keys, sorted.  Sweep checkpoints use opaque point
        digests and never need this; ordered-key subclasses (the service's
        write-ahead journal) scan it for the latest committed epoch."""
        return tuple(sorted(self._entries))

    def clear(self) -> None:
        """Forget every journaled point and delete the file (fresh sweep)."""
        self._entries.clear()
        try:
            self.path.unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RunCheckpoint {self.path} ({len(self)} points)>"
