"""The service's incremental write-ahead journal.

Extends :class:`repro.harness.checkpoint.RunCheckpoint` — same JSONL
``{"key", "blob"}`` format, same fsync-per-append durability, same
truncated-final-line tolerance — with an *ordered* key space:

* ``service:meta`` — the run's identity: a config fingerprint, the
  journal :data:`FORMAT_VERSION` and the epoch/horizon parameters.
  Written once at startup; a resuming daemon refuses a journal whose
  fingerprint or format version does not match its own (resuming
  someone else's journal would silently diverge).
* ``epoch:<NNNNNNNN>`` — the dynamic state at the *end* of that epoch:
  the engine's running set + RNG, admission queue, counters, pending
  snapshot events, and the records of the jobs that departed *in that
  epoch* (each departure is written once, so a commit costs O(running +
  churn) however long the run).  Zero-padded so lexicographic key order
  is epoch order.

Commit protocol (docs/SERVICE.md): the daemon mutates its live state
through epoch ``k`` and only then appends ``epoch:k``.  A crash anywhere
before the append loses at most the in-flight epoch; recovery reloads the
highest committed epoch and re-runs from there, with the departure
history rebuilt from the per-epoch records (:meth:`ServiceJournal.\
departures`).  Because every random draw is journaled inside the engine
state, the replay is bit-identical to a run that never crashed.

Memory: recovery only ever reads the *latest* committed epoch state (plus
the per-epoch departure records, read back from the file), but the
inherited checkpoint keeps every committed blob in RAM for the process
lifetime — unbounded growth for a long-lived daemon.  The ``retain``
knob compacts the in-memory map down to the newest N epoch states after
each commit (and after load); the file on disk keeps the full history
either way, so an unbounded reader (``query_journal``) still sees every
epoch.
"""

from __future__ import annotations

import os
from typing import Optional

from ..harness.checkpoint import RunCheckpoint

__all__ = ["ServiceJournal", "FORMAT_VERSION"]

#: Layout of the epoch states this build writes and resumes.  Version 1
#: (journals written before the stamp existed, which carry none) held
#: the full departure history and numpy arrays in every epoch state.
FORMAT_VERSION = 2

_META_KEY = "service:meta"
_EPOCH_PREFIX = "epoch:"


def _epoch_key(epoch: int) -> str:
    return f"{_EPOCH_PREFIX}{epoch:08d}"


class ServiceJournal(RunCheckpoint):
    """Ordered epoch journal on top of the sweep-checkpoint substrate.

    ``retain`` bounds how many committed epoch *states* stay in memory
    (``None`` keeps them all — the right mode for query/analysis over a
    finished journal).  A long-lived daemon should pass a small bound:
    recovery needs only the latest committed epoch.
    """

    def __init__(
        self, path: os.PathLike | str, *, retain: Optional[int] = None
    ) -> None:
        if retain is not None and retain < 1:
            raise ValueError(f"retain must be >= 1 or None, got {retain!r}")
        self.retain = retain
        super().__init__(path)
        self._compact()

    def _compact(self) -> None:
        """Drop superseded epoch states from RAM (the file keeps them)."""
        if self.retain is None:
            return
        for epoch in self.epochs()[: -self.retain]:
            del self._entries[_epoch_key(epoch)]

    def write_meta(self, meta: dict) -> bool:
        """Stamp the run's identity; returns whether it hit the disk."""
        return self.put(_META_KEY, dict(meta))

    def meta(self) -> Optional[dict]:
        """The run identity, or None for a fresh journal."""
        hit, value = self.get(_META_KEY)
        return dict(value) if hit else None

    def format_version(self) -> Optional[int]:
        """The meta record's format version (1 when it predates the
        stamp), or None for a fresh journal."""
        meta = self.meta()
        return None if meta is None else meta.get("format_version", 1)

    def commit_epoch(self, epoch: int, state: dict) -> bool:
        """Append one completed epoch's state (the WAL commit point).

        Returns whether the append reached the disk.  A state that does
        not encode raises at once: that is a program fault, which retrying
        the append cannot mend.
        """
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch!r}")
        key = _epoch_key(epoch)
        blob = self._encode(state)
        self._entries[key] = state
        persisted = self._append(key, blob)
        self._compact()
        return persisted

    def epochs(self) -> list[int]:
        """Committed epoch numbers held in memory, ascending (all of them
        unless ``retain`` compacted the older states away)."""
        result = []
        for key in self.keys():
            if key.startswith(_EPOCH_PREFIX):
                result.append(int(key[len(_EPOCH_PREFIX):]))
        return result

    def latest_epoch(self) -> Optional[int]:
        """The highest committed epoch, or None before the first commit."""
        epochs = self.epochs()
        return epochs[-1] if epochs else None

    def epoch_state(self, epoch: int) -> dict:
        """The journaled state of one committed epoch."""
        hit, value = self.get(_epoch_key(epoch))
        if not hit:
            raise KeyError(f"epoch {epoch} is not in the journal")
        return value

    def departures(self, through: int) -> list[dict]:
        """The ``departed`` records of every epoch up to ``through``, in
        epoch order: the departure history a restored engine starts from.

        Read back from the file, since ``retain`` keeps only the newest
        epoch states in memory; a later entry for an epoch supersedes an
        earlier one, as on load.
        """
        per_epoch: dict[int, list[dict]] = {}
        for record in self._read():
            if record is None or not record[0].startswith(_EPOCH_PREFIX):
                continue
            epoch = int(record[0][len(_EPOCH_PREFIX):])
            if epoch <= through:
                per_epoch[epoch] = record[1]["departed"]
        return [r for epoch in sorted(per_epoch) for r in per_epoch[epoch]]
