"""Unix-socket transport: framed TLV messages between supervisor and workers.

Topology: the supervisor binds one ``AF_UNIX`` listener per runtime in a
short-lived temp directory (``xsec-rt-*`` — kept short because Linux caps
socket paths at ~108 bytes); each worker process connects to it by path
and identifies itself with a ``hello``. Connect-by-path rather than
inherited pipe pairs keeps the transport start-method agnostic (fork and
spawn behave identically) and makes reconnect-after-restart natural: a
restarted worker simply dials the same path.

Framing is :func:`repro.wire.frame` — magic byte + u32 length — so a
reader can resynchronize detection of garbage and the stream decodes with
the stock TLV tooling. ``MsgConnection`` owns one socket plus a
:class:`repro.wire.FrameDecoder`; EOF handling drains whatever the kernel
still buffers (a worker killed with ``SIGKILL`` may have acked a batch
whose bytes are in flight — those acks must count).
"""

from __future__ import annotations

import os
import socket
import tempfile
from typing import Any, List, Optional

from repro import wire


class TransportError(RuntimeError):
    """Raised when a peer vanished or the stream desynchronized."""


class MsgConnection:
    """One framed-message socket; select()-able via :meth:`fileno`."""

    def __init__(self, sock: socket.socket, name: str = "?") -> None:
        self._sock = sock
        self._decoder = wire.FrameDecoder()
        self.name = name
        self.eof = False
        self.sent_msgs = 0
        self.sent_bytes = 0
        self.recv_msgs = 0
        self.recv_bytes = 0

    @classmethod
    def connect(cls, path: str, name: str = "?", timeout_s: float = 10.0) -> "MsgConnection":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout_s)
        try:
            sock.connect(path)
        except OSError as exc:
            sock.close()
            raise TransportError(f"connect to {path} failed: {exc}") from exc
        sock.settimeout(None)
        return cls(sock, name=name)

    def fileno(self) -> int:
        return self._sock.fileno()

    def send_msg(self, msg: Any) -> None:
        payload = wire.frame(wire.encode(msg))
        try:
            self._sock.sendall(payload)
        except OSError as exc:
            raise TransportError(f"send to {self.name} failed: {exc}") from exc
        self.sent_msgs += 1
        self.sent_bytes += len(payload)

    def recv_msgs_once(self, bufsize: int = 1 << 16) -> List[Any]:
        """One ``recv`` worth of complete messages (may be empty).

        Sets :attr:`eof` — after first raising out any decodable remainder —
        when the peer closed. The caller decides what EOF means (worker
        death vs. graceful exit).
        """
        try:
            chunk = self._sock.recv(bufsize)
        except (BlockingIOError, InterruptedError, TimeoutError):
            raise  # transient: the caller's idle/retry logic owns these
        except (ConnectionResetError, BrokenPipeError):
            chunk = b""
        except OSError as exc:
            raise TransportError(f"recv from {self.name} failed: {exc}") from exc
        if not chunk:
            self.eof = True
            return []
        self.recv_bytes += len(chunk)
        frames = self._decoder.feed(chunk)
        self.recv_msgs += len(frames)
        return [wire.decode(frame) for frame in frames]

    def drain_eof(self) -> List[Any]:
        """Read until EOF, returning every remaining complete message.

        Called when a worker's process has died: the kernel may still
        buffer acks the worker sent before dying, and dropping them would
        turn acked writes into lost writes.
        """
        out: List[Any] = []
        self._sock.setblocking(False)
        try:
            while not self.eof:
                try:
                    out.extend(self.recv_msgs_once())
                except (BlockingIOError, InterruptedError):
                    break
                except TransportError:
                    break
        finally:
            try:
                self._sock.setblocking(True)
            except OSError:
                pass
        return out

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class Listener:
    """The supervisor's accept socket, bound in a private temp dir."""

    def __init__(self, socket_dir: Optional[str] = None) -> None:
        self._own_dir = socket_dir is None
        self.socket_dir = socket_dir or tempfile.mkdtemp(prefix="xsec-rt-")
        self.path = os.path.join(self.socket_dir, "sup.sock")
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.path)
        self._sock.listen(64)

    def fileno(self) -> int:
        return self._sock.fileno()

    def accept(self) -> MsgConnection:
        sock, _ = self._sock.accept()
        return MsgConnection(sock)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
        try:
            os.unlink(self.path)
        except OSError:
            pass
        if self._own_dir:
            try:
                os.rmdir(self.socket_dir)
            except OSError:
                pass

    def __enter__(self) -> "Listener":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
