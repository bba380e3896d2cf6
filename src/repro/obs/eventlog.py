"""Structured run-event log: JSONL persistence for sweep events.

The sweep engine emits plain event dicts (``sweep_start``,
``point_cache_hit``, ``point_start``, ``point_finish``,
``sweep_finish``) through an ``events`` callable and stays free of I/O
and timestamps itself, so its behaviour is deterministic with or without
a sink.  :class:`RunEventLog` is the sink: it stamps each event with a
monotonic sequence number and a wall-clock timestamp and appends it as
one JSON line.

``repro sweep --events PATH`` writes one such log, so a run's timeline —
what was cached, what was stolen, how long each point took — is
reconstructible after the fact with :func:`read_events` or plain ``jq``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

#: Safety valve: one log stops growing past this many events.  A sweep
#: emits a handful of events per point, so a real run sits far below it;
#: the cap exists so a runaway caller cannot fill the disk.
MAX_EVENTS = 100_000


class RunEventLog:
    """An append-only JSONL event sink, safe to share across threads.

    Instances are callables matching the sweep engine's ``events`` hook:
    ``log({"event": "point_finish", ...})`` stamps and appends one line.
    Writes are best-effort — a full disk or read-only cache degrades to
    in-memory recording (:attr:`events`) rather than killing the sweep.
    """

    def __init__(self, path: Path | str | None,
                 clock=time.time) -> None:
        self.path = Path(path) if path is not None else None
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._fh = None
        self._broken = False
        #: In-memory copy of everything recorded (tests, no-cache mode).
        self.events: list[dict] = []

    def __call__(self, event: dict) -> None:
        with self._lock:
            if self._seq >= MAX_EVENTS:
                return
            record = {"seq": self._seq, "ts": round(self._clock(), 3),
                      **event}
            self._seq += 1
            self.events.append(record)
            if self.path is None or self._broken:
                return
            try:
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._fh = self.path.open("a")
                self._fh.write(json.dumps(record, sort_keys=True) + "\n")
                self._fh.flush()
            except OSError:
                self._broken = True  # keep recording in memory only

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None

    def __enter__(self) -> "RunEventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: Path | str) -> list[dict]:
    """Parse a JSONL event log back into dicts (skips torn last lines)."""
    out: list[dict] = []
    try:
        text = Path(path).read_text()
    except OSError:
        return out
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue    # a crash mid-append leaves at most one torn line
        if isinstance(record, dict):
            out.append(record)
    return out
