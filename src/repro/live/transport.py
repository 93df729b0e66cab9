"""UDT over real UDP sockets.

Architecture mirrors §4.8: per endpoint, a receive thread blocks on the
UDP socket (with a timeout, like the reference's ``RCV_TIMEO`` loop) and
a timer thread services the core's scheduled events (send pacing, SYN,
EXP) with the §4.5 hybrid spin timer.  A single lock serialises all core
access; the core itself is the identical sans-IO state machine the
simulator runs.
"""

from __future__ import annotations

import heapq
import itertools
import socket
import threading
import time
from typing import Callable, Optional, Tuple

from repro.live.clock import SPIN_THRESHOLD
from repro.udt import packets as P
from repro.udt.core import UdtCore
from repro.udt.params import UdtConfig


class _ThreadScheduler:
    """Scheduler-protocol implementation backed by a timer thread."""

    def __init__(self, lock: threading.RLock, on_error: Callable[[Exception], None]):
        self._lock = lock
        self._on_error = on_error  # told, under the lock, what a callback raised
        self._cond = threading.Condition(lock)
        self._heap: list = []
        self._counter = itertools.count()
        self._origin = time.perf_counter()
        self._stop = False
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def now(self) -> float:
        return time.perf_counter() - self._origin

    def call_at(self, when: float, fn: Callable[[], None]):
        entry = [when, next(self._counter), fn, False]  # [t, seq, fn, cancelled]
        with self._cond:
            heapq.heappush(self._heap, entry)
            self._cond.notify()
        return entry

    def cancel(self, handle) -> None:
        handle[3] = True
        handle[2] = None

    def stop(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify()
        if self._thread.is_alive() and threading.current_thread() is not self._thread:
            self._thread.join(timeout=2.0)

    def _loop(self) -> None:
        while True:
            with self._cond:
                if self._stop:
                    return
                if not self._heap:
                    self._cond.wait(timeout=0.05)
                    continue
                when = self._heap[0][0]
                delay = when - self.now()
                if delay > SPIN_THRESHOLD:
                    self._cond.wait(timeout=delay - SPIN_THRESHOLD * 0.5)
                    continue
                if delay > 0:
                    # Spin phase: release the lock so the receive thread
                    # keeps running, then re-check.
                    pass
                else:
                    entry = heapq.heappop(self._heap)
                    if not entry[3] and entry[2] is not None:
                        try:
                            entry[2]()  # run under the lock, like sim events
                        except Exception as exc:
                            self._on_error(exc)
                            return
                    continue
            # busy-wait outside the lock for sub-threshold delays
            while True:
                with self._cond:
                    if self._stop or not self._heap:
                        break
                    if self._heap[0][0] - self.now() <= 0:
                        break
                time.sleep(0)


class LiveUdtEndpoint:
    """One UDT endpoint on a real UDP socket.

    >>> server = LiveUdtEndpoint(("127.0.0.1", 0)); server.listen()
    >>> client = LiveUdtEndpoint(("127.0.0.1", 0))
    >>> client.connect(server.local_addr)
    >>> client.send(b"hello")
    """

    def __init__(
        self,
        bind_addr: Tuple[str, int] = ("127.0.0.1", 0),
        config: Optional[UdtConfig] = None,
        deliver: Optional[Callable[[bytes], None]] = None,
    ):
        if config is None:
            config = UdtConfig(correct_sending_rate=True)  # §4.4 on real hosts
        self.config = config
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(bind_addr)
        self.sock.settimeout(0.05)
        self.local_addr = self.sock.getsockname()
        self.peer: Optional[Tuple[str, int]] = None
        self._lock = threading.RLock()
        self._sched = _ThreadScheduler(self._lock, self._fail)
        self._deliver_cb = deliver
        self.received = bytearray()
        self._recv_cond = threading.Condition(self._lock)
        self.core = UdtCore(
            self.config,
            self._sched,
            self._transmit,
            deliver=self._on_deliver,
            name=f"live:{self.local_addr[1]}",
        )
        self._rx_thread = threading.Thread(target=self._rx_loop, daemon=True)
        self._closed = False
        #: what the core raised on the receive or the timer thread; both stop
        self._error: Optional[Exception] = None
        self._sched.start()
        self._rx_thread.start()

    # -- wiring ----------------------------------------------------------
    def _transmit(self, msg, size: int) -> None:
        if self.peer is None or self._closed:
            return
        try:
            self.sock.sendto(msg.encode(), self.peer)
        except OSError:
            pass  # socket closed under us during shutdown

    def _on_deliver(self, size: int, data: Optional[bytes]) -> None:
        if data is not None:
            self.received.extend(data)
        if self._deliver_cb is not None and data is not None:
            self._deliver_cb(data)
        self._recv_cond.notify_all()

    def _rx_loop(self) -> None:
        while not self._closed:
            try:
                datagram, addr = self.sock.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                msg = P.decode(datagram)
            except ValueError:
                continue
            with self._lock:
                if self.peer is None:
                    self.peer = addr
                elif addr != self.peer:
                    # a stray sender's Shutdown must not close the connection;
                    # a source-address check, not authentication
                    continue
                try:
                    self.core.on_datagram(msg, len(datagram))
                except Exception as exc:
                    self._fail(exc)
        if self._error is not None:
            self._sched.stop()
            self.sock.close()

    def _fail(self, exc: Exception) -> None:
        """The core raised (called under the lock): its state is unknown now,
        so the endpoint closes and every blocked caller is woken to raise."""
        self._error = exc
        self._closed = True
        self._recv_cond.notify_all()

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise ConnectionError(f"the core raised {self._error!r}") from self._error

    # -- application API ----------------------------------------------------
    def listen(self) -> None:
        with self._lock:
            self.core.listen()

    def connect(self, peer: Tuple[str, int], timeout: float = 5.0) -> None:
        # the address recvfrom reports, so the receive loop's source check
        # matches the peer's datagrams when it is named by host name
        self.peer = (socket.gethostbyname(peer[0]), peer[1])
        with self._lock:
            self.core.connect()
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with self._lock:
                if self.core.connected:
                    return
            time.sleep(0.005)
        raise TimeoutError(f"UDT handshake with {peer} timed out")

    @property
    def connected(self) -> bool:
        with self._lock:
            return self.core.connected

    def send(self, data: bytes, timeout: float = 30.0) -> int:
        """Queue application bytes, blocking while the send buffer is full."""
        sent = 0
        deadline = time.perf_counter() + timeout
        while sent < len(data):
            with self._lock:
                self._raise_if_failed()
                sent += self.core.send(len(data) - sent, data[sent:])
            if sent < len(data):
                if time.perf_counter() > deadline:
                    raise TimeoutError("send buffer stayed full")
                time.sleep(0.002)
        return sent

    def recv_exactly(self, nbytes: int, timeout: float = 30.0) -> bytes:
        """Block until ``nbytes`` of in-order data have been delivered."""
        deadline = time.monotonic() + timeout
        with self._recv_cond:
            while len(self.received) < nbytes:
                self._raise_if_failed()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"received {len(self.received)}/{nbytes} bytes"
                    )
                self._recv_cond.wait(timeout=min(remaining, 0.1))
            out = bytes(self.received[:nbytes])
            del self.received[:nbytes]
            return out

    # -- §4.7's file-transfer extensions ---------------------------------
    def send_file(self, path: str, chunk: int = 1 << 16, timeout: float = 60.0) -> int:
        """``sendfile``: stream a file from disk into the connection."""
        total = 0
        with open(path, "rb") as fh:
            while True:
                block = fh.read(chunk)
                if not block:
                    break
                total += self.send(block, timeout=timeout)
        return total

    def recv_file(self, path: str, nbytes: int, timeout: float = 60.0) -> int:
        """``recvfile``: receive exactly ``nbytes`` straight to disk."""
        remaining = nbytes
        with open(path, "wb") as fh:
            while remaining:
                block = self.recv_exactly(min(remaining, 1 << 20), timeout=timeout)
                fh.write(block)
                remaining -= len(block)
        return nbytes

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            self.core.close()
        self._closed = True
        self._sched.stop()
        self.sock.close()


def loopback_transfer(payload: bytes, config: Optional[UdtConfig] = None) -> dict:
    """Ship ``payload`` client->server over loopback UDT; returns stats."""
    server = LiveUdtEndpoint(("127.0.0.1", 0), config=config)
    client = LiveUdtEndpoint(("127.0.0.1", 0), config=config)
    try:
        server.listen()
        client.connect(server.local_addr)
        t0 = time.perf_counter()
        client.send(payload)
        got = server.recv_exactly(len(payload))
        dt = time.perf_counter() - t0
        assert got == payload, "payload corrupted in transit"
        return {
            "bytes": len(payload),
            "seconds": dt,
            "throughput_bps": len(payload) * 8.0 / dt if dt > 0 else 0.0,
            "retransmissions": client.core.stats.retransmitted_pkts,
            "acks": client.core.stats.acks_received,
        }
    finally:
        client.close()
        server.close()
