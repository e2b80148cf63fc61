"""Host-speed reference: a fixed pure-Python kernel timed beside the workload.

On a shared host the CPU time of the same code can grow by 1.5-2x for
seconds to minutes while other tenants load the physical core and its
caches; no statistic over a run shorter than such a phase removes it.  The
benchmark therefore times this kernel between units of work, at most every
``INTERVAL_S``, and scales each unit's CPU time by the kernel's nominal
time over the kernel time measured next to it: the unit's time on a host
where the kernel takes its nominal time.

A slowdown does not hit all code alike, so there are two kernels, and a
workload uses the one that resembles its work:

* ``interpreter``: a miniature wormhole mesh -- router objects, flit
  lists, XY routing, dictionary statistics -- that leans on the
  interpreter the way the simulator and the analyses do;
* ``socket``: JSON lines echoed by a thread over loopback TCP, the mix of
  system calls, thread hand-offs and serialisation of a daemon round trip.

Neither imports anything from ``repro``: a change to the program cannot
change them.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
from typing import List, Optional

#: CPU seconds of one kernel call on the reference host (2-vCPU Intel Xeon
#: virtual machine, Python 3.11) when it is not contended, per kernel.
NOMINAL_S = {"interpreter": 0.0034, "socket": 0.0036}
#: Kernel calls per sample; the sample is the fastest of them.
CALLS_PER_SAMPLE = 2
#: Wall seconds between two samples.
INTERVAL_S = 0.25
#: Round trips of one ``socket`` kernel call.
ROUND_TRIPS = 180

_SIZE = 8
_CYCLES = 250


class _Router:
    __slots__ = ("x", "y", "queue", "forwarded")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y
        self.queue: List[tuple] = []
        self.forwarded = 0

    def next_hop(self, flit: tuple) -> tuple:
        dest_x, dest_y = flit[0], flit[1]
        if dest_x != self.x:
            return (self.x + (1 if dest_x > self.x else -1), self.y)
        return (self.x, self.y + (1 if dest_y > self.y else -1))


def kernel() -> int:
    """One fixed run of the miniature mesh; returns a checksum."""
    routers = {(x, y): _Router(x, y) for x in range(_SIZE) for y in range(_SIZE)}
    latency = {}
    state = 12345
    for cycle in range(_CYCLES):
        for (x, y), router in routers.items():
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            if state % 8 == 0:
                dest = (state >> 8) % _SIZE, (state >> 16) % _SIZE
                if dest != (x, y):
                    router.queue.append((dest[0], dest[1], cycle))
        moves = []
        for position, router in routers.items():
            if router.queue:
                flit = router.queue.pop(0)
                if (flit[0], flit[1]) == position:
                    key = abs(flit[0] - position[0]) + cycle - flit[2]
                    latency[key] = latency.get(key, 0) + 1
                else:
                    moves.append((router.next_hop(flit), flit))
                    router.forwarded += 1
        for position, flit in moves:
            routers[position].queue.append(flit)
    return sum(r.forwarded for r in routers.values()) + sum(latency)


class _Echo:
    """A thread answering each JSON line sent over a loopback TCP connection."""

    def __init__(self) -> None:
        with socket.create_server(("127.0.0.1", 0)) as listener:
            self.client = socket.create_connection(listener.getsockname())
            server, _ = listener.accept()
        for end in (self.client, server):
            end.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.client.makefile("rb")
        self.thread = threading.Thread(
            target=self._serve, args=(server,), name="perfbench-echo", daemon=True
        )
        self.thread.start()

    @staticmethod
    def _serve(server: socket.socket) -> None:
        with server, server.makefile("rb") as lines:
            for line in lines:
                reply = {"ok": True, "echo": json.loads(line)}
                server.sendall(json.dumps(reply).encode("utf-8") + b"\n")

    def kernel(self) -> None:
        for index in range(ROUND_TRIPS):
            request = {"op": "ping", "index": index, "payload": [index] * 8}
            self.client.sendall(json.dumps(request).encode("utf-8") + b"\n")
            json.loads(self.reader.readline())

    def close(self) -> None:
        self.client.shutdown(socket.SHUT_WR)
        self.thread.join()
        self.reader.close()
        self.client.close()


class HostSpeed:
    """Samples of one kernel: the latest is refreshed when ``INTERVAL_S``
    has passed since it was taken."""

    def __init__(self, kind: str = "interpreter") -> None:
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        self.samples: List[float] = []
        self.taken = float("-inf")
        self._echo: Optional[_Echo] = None

    def _kernel(self) -> None:
        if self.kind == "interpreter":
            kernel()
            return
        if self._echo is None:
            self._echo = _Echo()
        self._echo.kernel()

    def sample(self) -> float:
        """CPU seconds of one kernel call, the fastest of
        ``CALLS_PER_SAMPLE``, with the collector off (the kernels make no
        reference cycles), so that the program's heap does not enter it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(CALLS_PER_SAMPLE):
                start = time.process_time()
                self._kernel()
                best = min(best, time.process_time() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(best)
        self.taken = time.perf_counter()
        return best

    def current(self) -> float:
        """The latest sample, refreshed first if it is due."""
        if time.perf_counter() - self.taken >= INTERVAL_S:
            self.sample()
        return self.samples[-1]

    def close(self) -> None:
        """Stop the echo thread, if the ``socket`` kernel started one."""
        if self._echo is not None:
            self._echo.close()
            self._echo = None


#: The reference the running workload's units are scaled by; ``run.py``
#: replaces it with the workload's kind before the first round.
HOST = HostSpeed()
