"""UNIX pipes with a bounded kernel buffer and streaming transfers.

Pipe transfers pay two kernel copies (user→pipe buffer, pipe buffer→user)
plus the per-page mapping checks of cross-process transfers (§7.2), which
is why Pipe tracks above Sem. in Figures 2/5/6. Writes larger than the
64 KB buffer stream through it in chunks, with the writer and reader
alternating — so large transfers also bounce between the two processes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro import units
from repro.errors import PeerResetError, PipeBrokenError
from repro.kernel.thread import Thread

PIPE_BUF_SIZE = 64 * units.KB


class _Message:
    """A framed write in flight through the pipe buffer."""

    __slots__ = ("total", "written", "read", "payload", "done_writing")

    def __init__(self, total: int, payload):
        self.total = total
        self.written = 0
        self.read = 0
        self.payload = payload
        self.done_writing = False


class Pipe:
    """A unidirectional pipe (message-framed for payload convenience)."""

    def __init__(self, kernel, capacity: int = PIPE_BUF_SIZE):
        self.kernel = kernel
        self.capacity = capacity
        self._messages: Deque[_Message] = deque()
        self._bytes = 0
        self._readers: Deque[Thread] = deque()
        self._writers: Deque[Thread] = deque()
        self.closed = False
        #: process owning each end, declared via :meth:`bind_endpoints`
        self._writer_proc = None
        self._reader_proc = None
        self.reader_gone = False
        self.writer_gone = False
        self._kill_hook_installed = False

    # -- peer-death semantics (POSIX EPIPE / partial-read reset) -------------

    def bind_endpoints(self, *, writer=None, reader=None) -> None:
        """Declare which process owns each end of the pipe.

        Once bound, killing the reader's process makes further writes
        raise :class:`PipeBrokenError` (EPIPE), and killing the writer's
        process makes a read that would otherwise wait forever return
        EOF — or raise :class:`PeerResetError` if the writer died with a
        message partially in flight.
        """
        if writer is not None:
            self._writer_proc = writer
        if reader is not None:
            self._reader_proc = reader
        if not self._kill_hook_installed:
            self._kill_hook_installed = True
            self.kernel.on_process_kill(self._on_process_kill)

    def _on_process_kill(self, process) -> None:
        if process is self._reader_proc and not self.reader_gone:
            self.reader_gone = True
            # writers blocked on a full buffer must see EPIPE, not hang
            waiters = list(self._writers)
            self._writers.clear()
            for waiter in waiters:
                if not waiter.is_done:
                    self.kernel.wake(waiter)
        if process is self._writer_proc and not self.writer_gone:
            self.writer_gone = True
            waiters = list(self._readers)
            self._readers.clear()
            for waiter in waiters:
                if not waiter.is_done:
                    self.kernel.wake(waiter)

    def _kernel_copy_ns(self, size: int) -> float:
        """One kernel-side copy: bandwidth capped by the pipe-buffer
        footprint, plus per-page mapping checks on large transfers."""
        cache = self.kernel.machine.cache
        costs = self.kernel.costs
        ns = cache.copy_ns(size, startup=costs.MEMCPY_STARTUP,
                           footprint=min(size, self.capacity))
        if size > units.PAGE_SIZE:
            ns += units.pages_for(size) * costs.KERNEL_COPY_PAGE_CHECK
        return ns

    def _wake_one(self, queue: Deque[Thread], thread: Thread) -> None:
        while queue:
            waiter = queue.popleft()
            if not waiter.is_done:
                self.kernel.wake(waiter, from_thread=thread)
                return

    # -- write ---------------------------------------------------------------------

    def write(self, thread: Thread, size: int, payload=None):
        """Sub-generator: write() — streams through the buffer, blocking
        whenever it is full."""
        if size <= 0:
            raise ValueError("write of non-positive size")
        costs = self.kernel.costs
        tracer = self.kernel.tracer
        span = tracer.begin("pipe.write", "ipc", thread=thread,
                            args={"size": size}) \
            if tracer.enabled else None
        yield from thread.syscall(0)
        yield from thread.kwork(costs.PIPE_WRITE_WORK)
        if self.reader_gone:
            if span is not None:
                tracer.end(span, args={"fault": "EPIPE"})
            raise PipeBrokenError(
                "write to a pipe whose read end's process is dead")
        message = _Message(size, payload)
        self._messages.append(message)
        remaining = size
        first_chunk = True
        while remaining > 0:
            if self.reader_gone:
                if span is not None:
                    tracer.end(span, args={"fault": "EPIPE"})
                raise PipeBrokenError(
                    "reader process died mid-write (EPIPE)")
            space = self.capacity - self._bytes
            if space <= 0:
                self._writers.append(thread)
                yield thread.block("pipe-full")
                continue
            chunk = min(space, remaining)
            yield from thread.kwork(self._kernel_copy_ns(chunk))
            self._bytes += chunk
            message.written += chunk
            remaining -= chunk
            if first_chunk:
                # waitqueue wake of a sleeping reader (futex-class cost)
                yield from thread.kwork(costs.FUTEX_WAKE_WORK)
                first_chunk = False
            self._wake_one(self._readers, thread)
        message.done_writing = True
        if span is not None:
            tracer.end(span)

    # -- read -----------------------------------------------------------------------

    def read(self, thread: Thread):
        """Sub-generator: read one framed message; returns its payload,
        or None at EOF."""
        costs = self.kernel.costs
        tracer = self.kernel.tracer
        span = tracer.begin("pipe.read", "ipc", thread=thread) \
            if tracer.enabled else None
        yield from thread.syscall(0)
        yield from thread.kwork(costs.PIPE_READ_WORK)
        while not self._messages:
            if self.closed or self.writer_gone:
                if span is not None:
                    tracer.end(span, args={"eof": True})
                return None
            self._readers.append(thread)
            yield thread.block("pipe-empty")
        message = self._messages[0]
        while True:
            available = message.written - message.read
            if available > 0:
                yield from thread.kwork(self._kernel_copy_ns(available))
                self._bytes -= available
                message.read += available
                self._wake_one(self._writers, thread)
                # the writer may have streamed more bytes in while the
                # copy charged time — re-check before deciding to block,
                # otherwise its wake (sent while we were RUNNING) is lost
                continue
            if message.done_writing and message.read >= message.total:
                self._messages.popleft()
                if span is not None:
                    tracer.end(span, args={"size": message.total})
                return message.payload
            if self.writer_gone:
                # writer's process died with this message partially in
                # flight: the remaining bytes will never arrive
                if span is not None:
                    tracer.end(span, args={"fault": "reset"})
                raise PeerResetError(
                    f"pipe writer died mid-message "
                    f"({message.read}/{message.total} bytes delivered)")
            self._readers.append(thread)
            yield thread.block("pipe-partial")

    def close(self) -> None:
        self.closed = True
        for reader in self._readers:
            self.kernel.wake(reader)
        self._readers.clear()

    @property
    def buffered_bytes(self) -> int:
        return self._bytes
