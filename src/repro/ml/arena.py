"""Per-session row arenas: zero-copy window assembly for MobiWatch.

The arena appends each session's featurized rows into one growing 2D
buffer whose first ``window - 1`` rows are zeros, so *the last window of
any session is always a single contiguous slice* — no per-score
``np.stack``, no padding allocation:

- a session with ``L >= window`` records: the slice is its last ``window``
  rows;
- a shorter session: the slice naturally left-pads with the zero prefix,
  with no branch and no copy.

Appends never mutate previously returned slices (they write one row past
the last view), and capacity growth reallocates, leaving old views valid
on the retired buffer — so a view held across later appends stays
correct.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


class SessionWindowArena:
    """Growing per-session row buffers with a zero left-pad prefix."""

    def __init__(self, dim: int, window: int, dtype=np.float32, initial_rows: int = 8) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.dim = dim
        self.window = window
        self.dtype = np.dtype(dtype)
        self._initial = max(initial_rows, window)
        # session id -> [buffer, record_count]; buffer rows [0, window-1)
        # are the permanent zero pad, records start at index window - 1.
        self._sessions: Dict[int, list] = {}

    def __contains__(self, session_id: int) -> bool:
        return session_id in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    def session_ids(self) -> list:
        return list(self._sessions)

    def _entry(self, session_id: int) -> list:
        entry = self._sessions.get(session_id)
        if entry is None:
            buf = np.zeros((self.window - 1 + self._initial, self.dim), dtype=self.dtype)
            entry = self._sessions[session_id] = [buf, 0]
        return entry

    def append(self, session_id: int, row: np.ndarray) -> int:
        """Append one feature row; returns the session's new record count."""
        entry = self._entry(session_id)
        buf, count = entry
        index = self.window - 1 + count
        if index >= buf.shape[0]:
            # Double capacity; np.zeros keeps the pad prefix semantics for
            # free and old views stay valid on the retired buffer.
            grown = np.zeros((buf.shape[0] * 2, self.dim), dtype=self.dtype)
            grown[: buf.shape[0]] = buf
            entry[0] = buf = grown
        buf[index] = row
        entry[1] = count + 1
        return entry[1]

    def session_length(self, session_id: int) -> int:
        entry = self._sessions.get(session_id)
        return entry[1] if entry is not None else 0

    def window_rows(self, session_id: int) -> np.ndarray:
        """The session's last-window slice ``[window, dim]`` (a view).

        Left-padded with zeros while the session is shorter than the
        window.
        """
        entry = self._sessions.get(session_id)
        if entry is None or entry[1] == 0:
            raise KeyError(f"no rows for session {session_id}")
        buf, count = entry
        start = count - 1
        return buf[start : start + self.window]

    def release(self, session_id: int) -> bool:
        """Drop one session's buffer (eviction). Old views stay valid.

        Returns whether the session held rows. Previously handed-out views
        keep the retired buffer alive via refcount, so deferred scorers are
        unaffected; a re-appearing session starts a fresh buffer.
        """
        return self._sessions.pop(session_id, None) is not None

    def session_rows(self, session_id: int) -> np.ndarray:
        """Every row of one session ``[L, dim]`` (a view, no pad)."""
        entry = self._sessions.get(session_id)
        if entry is None:
            raise KeyError(f"no rows for session {session_id}")
        buf, count = entry
        return buf[self.window - 1 : self.window - 1 + count]

    def stats(self) -> Tuple[int, int]:
        """(sessions, total allocated rows) — capacity accounting."""
        return len(self._sessions), sum(e[0].shape[0] for e in self._sessions.values())
