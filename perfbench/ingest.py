"""Live ingest against ``repro serve`` child processes.

The benchmark process is the load generator.  It holds one connection
to a daemon's ingest port and sends pre-built batches: each batch is
the records of a fixed number of requests, one JSON line each, ending
in ``{"commit": true}``.  A commit ack means "folded and visible in
``/profile``" (``docs/serving.md``).  A commit fails on an error reply,
a missing ack, or an acked record count different from what was sent.

A commit costs more the more shards the store already holds (every
commit rescans the shard manifests and rewrites the checkpoint), so
capacity falls as a session goes on.  Every session therefore starts
from a fresh copy of the same store and sends the same ``n`` batches:

* closed-loop sessions: the next batch goes out when the previous ack
  arrives.  Acked records per second is the ingest throughput, and the
  first session's service times give the capacity at the end of a
  session;
* open-loop sessions: batch ``i`` is *due* at ``start + i / rate`` and
  its latency runs from when it was due until its ack, so a stall also
  charges the batches queued behind it.  The rate is ``OFFERED_SHARE``
  of that end capacity, so the load stays below capacity all session.

Every daemon runs a host-speed sampler (``hostspeed``) and writes its
ticks when it exits; each commit latency is scaled to reference host
speed with the ticks the daemon took while it ran.
"""

from __future__ import annotations

import json
import os
import queue
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from hostspeed import Tick, read_ticks, scaled
from spans import Span, read_spans

HERE = Path(__file__).resolve().parent

#: Requests per batch (one batch = one commit = one store round): the
#: ingest traffic the serve sizing was measured at, 50 webapp requests
#: (about 1500 records) per commit, 40-70 ms from commit to ack.
BATCH_REQUESTS = 50
#: Offered open-loop rate as a share of the capacity at a session's end.
#: Below 1/1.7: the shared host's slow mode is about 1.7x slower than
#: its fast one, and the closed loop may have met the fast one.
OFFERED_SHARE = 0.55
ACK_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0


@dataclass
class Batch:
    payload: bytes
    records: int


def build_batches(app: str, seed: int, n_batches: int) -> list[Batch]:
    """Pre-generate ``n_batches`` batches of one app's records.

    One simulation run of ``BATCH_REQUESTS * n_batches`` requests; the
    records of each request (all streams, spans by trace id) go into
    the batch of that request, so no request is split across commits.
    """
    from repro.datacenter import run_gfs_workload, run_webapp_workload

    n_requests = BATCH_REQUESTS * n_batches
    if app == "gfs":
        traces = run_gfs_workload(n_requests=n_requests, seed=seed).traces
    else:
        traces = run_webapp_workload(n_requests=n_requests, seed=seed)
    by_request: dict[int, list[str]] = {}
    for stream in traces.streams():
        for record in traces.iter_records(stream):
            key = record.trace_id if stream == "spans" else record.request_id
            line = json.dumps({"stream": stream, "record": record.to_dict()})
            by_request.setdefault(key, []).append(line)
    ids = sorted(by_request)
    commit = json.dumps({"commit": True})
    batches = []
    for i in range(n_batches):
        chunk = ids[i * BATCH_REQUESTS:(i + 1) * BATCH_REQUESTS]
        lines = [line for rid in chunk for line in by_request[rid]]
        batches.append(Batch(("\n".join(lines + [commit]) + "\n").encode(), len(lines)))
    return batches


class Daemon:
    """A ``repro serve`` child with HTTP and ingest ports."""

    def __init__(
        self, store: Path, checkpoint: Path, log: Path, ticks: Path, spans: Optional[Path]
    ):
        cmd = [sys.executable, str(HERE / "daemon.py"), "--ticks", str(ticks)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += [
            "serve", "--in", str(store), "--port", "0", "--ingest-port", "0",
            "--checkpoint", str(checkpoint),
            # Commits fold on the commit path; no timer folds in between.
            "--poll-interval", "0",
        ]
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self._log)
        self.http: Optional[tuple[str, int]] = None
        self.ingest: Optional[tuple[str, int]] = None

    def wait_ready(self) -> None:
        """Read both listening addresses from the startup lines."""
        deadline = time.monotonic() + START_TIMEOUT_S
        buffer = b""
        fd = self.proc.stdout.fileno()
        while self.http is None or self.ingest is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("serve daemon did not start")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("serve daemon closed its output before starting")
            buffer += chunk
            for line in buffer.decode(errors="replace").splitlines():
                if line.startswith("serving ") and " on http://" in line:
                    host, port = line.rsplit("http://", 1)[1].rsplit(":", 1)
                    self.http = (host, int(port))
                elif line.startswith("ingest listening on "):
                    host, port = line.split("(", 1)[1].rstrip(")").split(",")
                    self.ingest = (host.strip().strip("'\""), int(port))

    def profile_text(self) -> bytes:
        host, port = self.http
        url = f"http://{host}:{port}/profile?format=text"
        with urllib.request.urlopen(url, timeout=ACK_TIMEOUT_S) as response:
            return response.read()

    def stop(self) -> int:
        """SIGTERM (``repro serve`` shuts down cleanly), kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Connection:
    """One ingest connection with a reader thread queueing every reply."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=ACK_TIMEOUT_S)
        self.sock.settimeout(None)
        self.replies: "queue.Queue[tuple[float, Optional[dict]]]" = queue.Queue()
        self.acks_seen = 0
        self._reader = threading.Thread(target=self._read, name="ingest-reader", daemon=True)
        self._reader.start()

    def _read(self) -> None:
        with self.sock.makefile("rb") as fh:
            try:
                for line in fh:
                    message = json.loads(line)
                    if "records" in message:
                        self.acks_seen += 1
                    self.replies.put((time.perf_counter(), message))
            except (OSError, ValueError):
                pass
        self.replies.put((time.perf_counter(), None))

    def ping(self) -> None:
        self.sock.sendall(b'{"ping": true}\n')
        _, reply = self.replies.get(timeout=ACK_TIMEOUT_S)
        if not reply or not reply.get("ok"):
            raise RuntimeError(f"ping failed: {reply}")

    def next_ack(self) -> tuple[float, Optional[dict], int]:
        """(time, commit ack or None if missing, error replies before it)."""
        errors = 0
        while True:
            try:
                at, reply = self.replies.get(timeout=ACK_TIMEOUT_S)
            except queue.Empty:
                return time.perf_counter(), None, errors
            if reply is None:
                self.replies.put((at, None))  # stay closed for later calls
                return at, None, errors
            if "error" in reply:
                errors += 1
            elif "records" in reply:
                return at, reply, errors

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=10)


class LiveStore:
    """A fresh copy of a store, served by a daemon, with one connection.

    The daemon starts here; :meth:`connect` waits for it, so several
    daemons can start at once.
    """

    def __init__(self, source: Path, directory: Path, trace: bool):
        shutil.copytree(source, directory)
        self.directory = directory
        self.spans_path = directory.with_name(directory.name + "-spans.jsonl") if trace else None
        self.ticks_path = directory.with_name(directory.name + "-ticks.json")
        self.exit_code: Optional[int] = None
        self.daemon = Daemon(
            directory,
            directory.with_name(directory.name + "-state.json"),
            directory.with_name(directory.name + "-daemon.log"),
            self.ticks_path,
            self.spans_path,
        )
        self.conn: Optional[Connection] = None

    def connect(self) -> "LiveStore":
        """Wait for the daemon, connect, and have one ping acked."""
        try:
            self.daemon.wait_ready()
            self.conn = Connection(self.daemon.ingest)
            self.conn.ping()
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> int:
        if self.exit_code is None:
            if self.conn is not None:
                self.conn.close()
            self.exit_code = self.daemon.stop()
        return self.exit_code

    def ticks(self) -> list[Tick]:
        """The daemon's host-speed ticks, once it has exited."""
        if not self.ticks_path.exists():
            raise RuntimeError(f"serve daemon wrote no host-speed ticks ({self.exit_code=})")
        return read_ticks(self.ticks_path)

    def spans(self) -> list[Span]:
        if self.spans_path is None or not self.spans_path.exists():
            return []
        return read_spans(self.spans_path)


@dataclass
class PhaseResult:
    #: (start, ack time) of each acked commit's latency.
    windows: list[tuple[float, float]] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    outstanding: list[int] = field(default_factory=list)
    records_acked: int = 0
    commits_acked: int = 0
    failed: int = 0
    #: The daemon's host-speed ticks, set once it has exited.
    ticks: list[Tick] = field(default_factory=list)

    @property
    def latencies_s(self) -> list[float]:
        return [hi - lo for lo, hi in self.windows]

    def scaled_latencies_s(self) -> list[float]:
        return [scaled(self.ticks, lo, hi) for lo, hi in self.windows]


def _check_ack(ack: Optional[dict], errors: int, batch: Batch, result: PhaseResult) -> bool:
    if ack is None or errors or not ack.get("ok") or ack.get("records") != batch.records:
        result.failed += 1
        return False
    result.commits_acked += 1
    result.records_acked += ack["records"]
    return True


def closed_loop(conn: Connection, batches: list[Batch]) -> PhaseResult:
    result = PhaseResult()
    for batch in batches:
        sent = time.perf_counter()
        conn.sock.sendall(batch.payload)
        at, ack, errors = conn.next_ack()
        if _check_ack(ack, errors, batch, result):
            result.windows.append((sent, at))
        if ack is None:
            result.failed += len(batches) - result.commits_acked - result.failed
            break
    return result


def open_loop(conn: Connection, batches: list[Batch], rate: float) -> PhaseResult:
    """Send batch ``i`` when due at ``start + i / rate``, whatever the acks."""
    result = PhaseResult()
    start = time.perf_counter() + 0.05
    due = [start + i / rate for i in range(len(batches))]
    acks_before = conn.acks_seen
    send_error: list[OSError] = []

    def send() -> None:
        try:
            for i, batch in enumerate(batches):
                delay = due[i] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                result.late_s.append(max(0.0, time.perf_counter() - due[i]))
                result.outstanding.append(i - (conn.acks_seen - acks_before))
                conn.sock.sendall(batch.payload)
        except OSError as error:
            send_error.append(error)

    sender = threading.Thread(target=send, name="ingest-sender", daemon=True)
    sender.start()
    for i, batch in enumerate(batches):
        at, ack, errors = conn.next_ack()
        if _check_ack(ack, errors, batch, result):
            result.windows.append((due[i], at))
        if ack is None:
            result.failed += len(batches) - i - 1
            break
    sender.join(timeout=ACK_TIMEOUT_S)
    if send_error:
        result.failed = max(result.failed, 1)
    return result


def offered_rate(closed_latencies: list[float]) -> float:
    """``OFFERED_SHARE`` of the capacity the closed loop had at its end.

    Service time grows about linearly over a session.  Its value at the
    last commit comes from the medians of the two halves of the closed
    loop's last two thirds (the first commits still warm up), joined by
    a line: one slow commit cannot move it.
    """
    start = len(closed_latencies) // 3
    tail = closed_latencies[start:]
    half = len(tail) // 2
    early, late = statistics.median(tail[:half]), statistics.median(tail[half:])
    at_early = start + (half - 1) / 2
    at_late = start + half + (len(tail) - half - 1) / 2
    slope = max(0.0, (late - early) / (at_late - at_early))
    service_end = late + slope * (len(closed_latencies) - 1 - at_late)
    return OFFERED_SHARE / service_end


@dataclass
class IngestOutcome:
    #: One result per closed-loop session, in order.
    closed: list[PhaseResult]
    #: One result per open-loop session, in order.
    sessions: list[PhaseResult]
    rate: float
    #: ``/profile?format=text`` after the last session's last ack.
    profile: bytes
    #: The store the last session grew.
    store: Path
    exit_codes: list[int]
    spans: list[Span]

    @property
    def all_sessions(self) -> list[PhaseResult]:
        return self.closed + self.sessions

    @property
    def visible_latencies_s(self) -> list[float]:
        """Open-loop latencies pooled over sessions, scaled to reference
        host speed; the closed loops' when there are no open sessions."""
        return [
            x for session in self.sessions or self.closed
            for x in session.scaled_latencies_s()
        ]

    @property
    def records_per_s(self) -> float:
        """Records acked per second of send-to-ack time over the closed
        loops, each commit scaled to reference host speed on its own."""
        return sum(s.records_acked for s in self.closed) / sum(
            x for s in self.closed for x in s.scaled_latencies_s()
        )

    @property
    def commits_acked(self) -> int:
        return sum(s.commits_acked for s in self.all_sessions)

    @property
    def records_acked(self) -> int:
        return sum(s.records_acked for s in self.all_sessions)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.all_sessions)


def run_ingest(
    source: Path,
    work: Path,
    batches: list[Batch],
    closed_sessions: int,
    open_sessions: int,
    trace: bool,
    first: Optional[LiveStore] = None,
) -> IngestOutcome:
    """Closed-loop sessions, then open-loop ones.

    Each session serves its own fresh copy of ``source`` with its own
    daemon and sends all of ``batches``.  ``first`` is an already
    started daemon for the first closed loop (started in set-up when
    the ingest phase runs first).  The open loops' rate comes from the
    first closed loop.  The daemons of each loop kind start together
    and wait, idle, for their session: a start is mostly imports, and
    an idle daemon with ``--poll-interval 0`` does no work but its
    host-speed ticks (about 2% of a CPU).  Every daemon is stopped
    before this returns.
    """
    lives: list[LiveStore] = [] if first is None else [first]
    closed: list[PhaseResult] = []
    results: list[PhaseResult] = []

    def start(kind: str, count: int, started: list[LiveStore]) -> list[LiveStore]:
        while len(started) < count:
            live = LiveStore(source, work / f"ingest-{kind}-{len(started)}", trace)
            lives.append(live)
            started.append(live)
        for live in started:
            if live.conn is None:
                live.connect()
        return started

    try:
        for index, live in enumerate(start("closed", closed_sessions, lives[:])):
            closed.append(closed_loop(live.conn, batches))
            if not open_sessions and index == closed_sessions - 1:
                profile = live.daemon.profile_text()
            live.close()
            closed[-1].ticks = live.ticks()
        rate = offered_rate(closed[0].latencies_s)
        opened = start("open", open_sessions, [])
        for live in opened:
            results.append(open_loop(live.conn, batches, rate))
            if live is opened[-1]:
                profile = live.daemon.profile_text()
            live.close()
            results[-1].ticks = live.ticks()
    finally:
        for live in lives:
            live.close()
    return IngestOutcome(
        closed=closed,
        sessions=results,
        rate=rate,
        profile=profile,
        store=lives[-1].directory,
        exit_codes=[live.exit_code for live in lives],
        spans=[span for live in lives for span in live.spans()],
    )
