"""Integration tests for the real-UDP loopback runtime."""

import gc
import os
import socket
import threading
import time
import weakref

import pytest

from repro.live import LiveUdtEndpoint, SpinClock, loopback_transfer, wait_until
from repro.udt import UdtConfig
from repro.udt import packets as P
from tests._collect import Collector

# A thread that dies on an exception nobody caught fails its test.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)


class TestSpinClock:
    def test_wait_until_precision(self):
        clock = SpinClock()
        target = clock.now() + 0.01
        clock.wait_until(target)
        overshoot = clock.now() - target
        assert 0 <= overshoot < 0.005  # sub-ms precision, generous CI margin

    def test_wait_until_past_returns_immediately(self):
        t0 = time.perf_counter()
        wait_until(t0 - 1.0)
        assert time.perf_counter() - t0 < 0.01


class TestLoopback:
    def test_small_transfer_intact(self):
        payload = os.urandom(100_000)
        stats = loopback_transfer(payload)
        assert stats["bytes"] == len(payload)
        assert stats["throughput_bps"] > 1e6

    def test_multi_megabyte_transfer(self):
        payload = os.urandom(1_500_000)
        stats = loopback_transfer(payload)
        assert stats["bytes"] == len(payload)

    def test_handshake_timeout_when_no_server(self):
        client = LiveUdtEndpoint(("127.0.0.1", 0))
        try:
            # A bound but silent UDP socket: never answers the handshake.
            silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            silent.bind(("127.0.0.1", 0))
            with pytest.raises(TimeoutError):
                client.connect(silent.getsockname(), timeout=1.0)
            silent.close()
        finally:
            client.close()

    def test_bidirectional_endpoints_close_cleanly(self):
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        client = LiveUdtEndpoint(("127.0.0.1", 0))
        try:
            server.listen()
            client.connect(server.local_addr)
            assert client.connected and server.connected
        finally:
            client.close()
            server.close()
        assert client.core.closed

    def test_each_endpoint_owns_its_bus(self):
        """A subscriber on one endpoint's ``core.bus`` hears that endpoint's
        handshake and nothing of its peer's."""
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        client = LiveUdtEndpoint(("127.0.0.1", 0))
        heard = Collector()
        try:
            assert client.core.bus is not server.core.bus
            client.core.bus.subscribe(heard)
            server.listen()
            client.connect(server.local_addr)
        finally:
            client.close()
            server.close()
        assert ("conn.connected", client.core.name) in {(e.kind, e.src) for e in heard}
        assert {e.src for e in heard} == {client.core.name}

    def test_connect_waits_on_a_condition_not_a_poll(self, monkeypatch):
        """The receive thread wakes ``connect()`` when the handshake lands:
        the calling thread never sleeps."""
        caller = threading.current_thread()
        real_sleep = time.sleep

        def no_polling(seconds):
            if threading.current_thread() is caller:
                raise AssertionError("connect() polled")
            real_sleep(seconds)

        server = LiveUdtEndpoint(("127.0.0.1", 0))
        client = LiveUdtEndpoint(("127.0.0.1", 0))
        on_datagram = server.core.on_datagram

        def slow_server(*args):
            real_sleep(0.05)  # the handshake lands after connect() first looks
            on_datagram(*args)

        server.core.on_datagram = slow_server
        try:
            server.listen()
            monkeypatch.setattr(time, "sleep", no_polling)
            client.connect(server.local_addr)
            monkeypatch.undo()
            assert client.connected and server.connected
        finally:
            client.close()
            server.close()

    def test_send_waits_on_a_condition_not_a_poll(self, monkeypatch):
        """A send 500 times the send buffer blocks until ACKs free room:
        the receive thread wakes it, the calling thread never sleeps."""
        caller = threading.current_thread()
        real_sleep = time.sleep

        def no_polling(seconds):
            if threading.current_thread() is caller:
                raise AssertionError("send() polled")
            real_sleep(seconds)

        payload = os.urandom(2 << 20)
        config = UdtConfig(correct_sending_rate=True, snd_buffer_pkts=64)
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        client = LiveUdtEndpoint(("127.0.0.1", 0), config=config)
        try:
            server.listen()
            client.connect(server.local_addr)
            monkeypatch.setattr(time, "sleep", no_polling)
            assert client.send(payload) == len(payload)
            monkeypatch.undo()
            assert server.recv_exactly(len(payload)) == payload
        finally:
            client.close()
            server.close()

    def test_a_send_blocked_on_a_full_buffer_raises_once_the_endpoint_closes(self):
        """The peer stops acknowledging; closing the endpoint from another
        thread ends the blocked ``send`` at once, not at its timeout."""
        config = UdtConfig(correct_sending_rate=True, snd_buffer_pkts=8)
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        client = LiveUdtEndpoint(("127.0.0.1", 0), config=config)
        try:
            server.listen()
            client.connect(server.local_addr)
            server.core.on_datagram = lambda *args: None  # deaf from now on
            closer = threading.Timer(0.2, client.close)
            closer.start()
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="closed"):
                client.send(os.urandom(100_000), timeout=30.0)
            assert time.monotonic() - t0 < 5.0
            closer.join()
        finally:
            client.close()
            server.close()

    @pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))],
                             ids=["bytearray", "memoryview"])
    def test_a_buffer_reused_after_send_returns_goes_out_as_it_was(self, wrap):
        """``send`` copies a mutable buffer once, at the call: what the
        caller writes into it afterwards never reaches the wire."""
        payload = os.urandom(300_000)
        buf = wrap(payload)
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        client = LiveUdtEndpoint(("127.0.0.1", 0))
        try:
            server.listen()
            client.connect(server.local_addr)
            assert client.send(buf) == len(payload)
            buf[:] = bytes(len(payload))
            assert server.recv_exactly(len(payload), timeout=15.0) == payload
        finally:
            client.close()
            server.close()

    def test_a_closed_endpoint_is_freed_by_reference_counting(self):
        """Once closed, neither the core nor the timer thread refers back to
        the endpoint: with the cyclic collector off, it goes as soon as its
        receive thread has left."""
        gc.disable()
        try:
            server = LiveUdtEndpoint(("127.0.0.1", 0))
            client = LiveUdtEndpoint(("127.0.0.1", 0))
            server.listen()
            client.connect(server.local_addr)
            client.send(b"x" * 10_000)
            assert server.recv_exactly(10_000, timeout=15.0) == b"x" * 10_000
            client.close()
            server.close()
            assert client.core.closed and client.core.stats.data_pkts_sent > 0
            threads = [client._rx_thread, server._rx_thread]
            refs = [weakref.ref(client), weakref.ref(server)]
            del client, server
            for t in threads:
                t.join(timeout=2.0)
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_recv_exactly_blocks_until_complete(self):
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        client = LiveUdtEndpoint(("127.0.0.1", 0))
        try:
            server.listen()
            client.connect(server.local_addr)
            payload = os.urandom(300_000)

            def send_later():
                time.sleep(0.1)
                client.send(payload)

            t = threading.Thread(target=send_later)
            t.start()
            got = server.recv_exactly(len(payload), timeout=15.0)
            t.join()
            assert got == payload
        finally:
            client.close()
            server.close()

    def test_reads_cut_the_stream_where_asked(self):
        """Each read posts its own buffer (§4.3): a payload that straddles
        its end goes on to the next read, a timed-out read gives back what
        it got, and the byte stream comes out whole and in order."""
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        client = LiveUdtEndpoint(("127.0.0.1", 0))
        payload = os.urandom(100_000)
        try:
            server.listen()
            client.connect(server.local_addr)
            client.send(payload[:60_000])
            got = [server.recv_exactly(n, timeout=15.0) for n in (1000, 1, 2455)]
            with pytest.raises(TimeoutError, match=r"received \d+/60000 bytes"):
                server.recv_exactly(60_000, timeout=1.0)
            client.send(payload[60_000:])
            got.append(server.recv_exactly(100_000 - 3456, timeout=15.0))
            assert b"".join(got) == payload
            assert server.received == bytearray()
        finally:
            client.close()
            server.close()

    def test_one_read_at_a_time(self):
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        try:
            reader = threading.Thread(target=lambda: pytest.raises(
                TimeoutError, server.recv_exactly, 10, timeout=1.0))
            reader.start()
            while server._posted is None:  # until the reader has posted
                time.sleep(0.005)
            with pytest.raises(RuntimeError, match="another recv_exactly"):
                server.recv_exactly(1, timeout=0.1)
            reader.join()
        finally:
            server.close()

    def test_recv_timeout_reports_progress(self):
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        try:
            with pytest.raises(TimeoutError):
                server.recv_exactly(10, timeout=0.2)
        finally:
            server.close()

    def test_sendfile_recvfile_roundtrip(self, tmp_path):
        src = tmp_path / "in.bin"
        dst = tmp_path / "out.bin"
        payload = os.urandom(500_000)
        src.write_bytes(payload)
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        client = LiveUdtEndpoint(("127.0.0.1", 0))
        try:
            server.listen()
            client.connect(server.local_addr)
            t = threading.Thread(
                target=lambda: client.send_file(str(src))
            )
            t.start()
            server.recv_file(str(dst), len(payload), timeout=30.0)
            t.join()
            assert dst.read_bytes() == payload
        finally:
            client.close()
            server.close()

    def _transfer_survives(self, disturb):
        """Connect, let ``disturb(server, client)`` act, then move 300 kB."""
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        client = LiveUdtEndpoint(("127.0.0.1", 0))
        try:
            server.listen()
            client.connect(server.local_addr)
            disturb(server, client)
            time.sleep(0.1)  # both receive threads have read it by now
            payload = os.urandom(300_000)
            t = threading.Thread(target=client.send, args=(payload,))
            t.start()
            assert server.recv_exactly(len(payload), timeout=15.0) == payload
            t.join(timeout=15.0)
            assert not t.is_alive()
        finally:
            client.close()
            server.close()

    def test_truncated_ack_does_not_stop_the_receive_thread(self):
        """A 24-byte ACK (a 40-byte one cut short), from each peer's own
        address: decode refuses it and the receive loop carries on."""
        truncated = P.Ack(ack_no=1, recv_seq=1).encode()[:24]

        def disturb(server, client):
            client.sock.sendto(truncated, server.local_addr)
            server.sock.sendto(truncated, client.local_addr)

        self._transfer_survives(disturb)

    @pytest.mark.parametrize("thread", ["receive", "timer"])
    def test_a_core_exception_fails_the_endpoint_loudly(self, thread):
        """The thread the core raised on keeps the exception; the blocked
        reader gets it as a ``ConnectionError`` at once, not a 10 s
        ``TimeoutError``.  The receive thread fails on the server's first
        DATA packet, the timer thread on the client's first send tick."""
        server = LiveUdtEndpoint(("127.0.0.1", 0))
        client = LiveUdtEndpoint(("127.0.0.1", 0))
        failing = server if thread == "receive" else client
        on_datagram = server.core.on_datagram

        def faulty(*args):
            if thread == "timer" or isinstance(args[0], P.DataPacket):
                raise RuntimeError("core fault")
            on_datagram(*args)

        if thread == "receive":
            server.core.on_datagram = faulty
        else:
            client.core._on_send_timer = faulty
        send_errors = []

        def send():
            try:
                client.send(os.urandom(10_000))
            except ConnectionError as exc:
                send_errors.append(exc)

        try:
            server.listen()
            client.connect(server.local_addr)
            t = threading.Thread(target=send)
            t.start()
            t0 = time.monotonic()
            with pytest.raises(ConnectionError) as info:
                failing.recv_exactly(10_000, timeout=10)
            assert time.monotonic() - t0 < 1.5
            assert str(info.value.__cause__) == "core fault"
            with pytest.raises(ConnectionError):
                failing.send(b"x")
            t.join(timeout=5.0)
            # Only the failed endpoint refuses a send: the client's own
            # timer fault, when it fires before the send is queued.
            if thread == "receive":
                assert send_errors == []
            assert [str(e.__cause__) for e in send_errors] in ([], ["core fault"])
        finally:
            client.close()
            server.close()

    def test_a_third_sockets_shutdown_leaves_the_transfer_intact(self):
        """Only the peer's datagrams reach the core (a source check, not
        authentication)."""
        stranger = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        stranger.bind(("127.0.0.1", 0))

        def disturb(server, client):
            for end in (server, client):
                stranger.sendto(P.Shutdown().encode(), end.local_addr)

        try:
            self._transfer_survives(disturb)
        finally:
            stranger.close()
