"""The ``http_mixed`` workload: open-loop ``/score`` reads beside ``/resolve`` writes.

The server is its own process (``python -m repro.serve http`` through
``serve_launcher.py``).  Load comes from this process: the main thread sends
single-pair ``POST /score`` reads on one connection, on a fixed schedule of
arrival rates (an open loop: each request is due at a fixed time whether or
not the last one finished, and its latency runs from when it was due), then a
closed-loop saturation phase; a second thread sends single-record
``POST /resolve`` writes at a fixed rate on a second connection for the whole
window.  Every read is a distinct pair the server has never seen.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import fixture, hostspeed
from .layers import layer_metrics, memo_share
from .spans import Tracer, read_spans
from .stats import backlog_growing, open_loop_schedule, percentile, summarize
from .workloads import SETUP_PROBES, Context, Outcome, wall_detail

#: The lowest (nominal) read rate and its share of the window.  Reads and
#: writes together keep the server under about a fifth busy on a quiet host,
#: so a host running at a third of its speed still keeps up at this rate.
NOMINAL_RATE = 20.0
NOMINAL_SHARE = 0.6
#: Higher read rates, each sent for an equal part of this share of the window.
LADDER_RATES = (40.0, 80.0, 120.0, 160.0)
LADDER_SHARE = 0.1
#: The rest of the window: back-to-back reads on the one connection, which give
#: the bounded latency and throughput figures.
SATURATION_SHARE = 0.3
#: The phase's tail percentile, fixed: its read count grows with speed, and a
#: faster program must not be compared at a higher percentile.  A write holds
#: the service for one read in flight, so 4-10% of the phase's reads wait for
#: one, depending on host speed; p90 flipped between the two groups from run
#: to run, while p75 stays clear of them.
SATURATION_TAIL_Q = 75.0
#: Tail latency a rate must stay within to count toward ``score_max_rps``.
LIMIT_MS = 50.0
#: ``/resolve`` writes per second, for the whole window.  Not a divisor of the
#: nominal read rate, so writes land at every phase between two reads instead
#: of racing the same read each time.
WRITE_RATE = 5.5
#: Base entities per generated wave of read pairs and of written records.
READ_ENTITIES = 300
WRITE_ENTITIES = 60
#: Upper bound on saturation-phase reads per second (sizes the pair pool).
SATURATION_CAP = 600.0
#: Pairs posted as one ``{"pairs": [...]}`` batch after the window: a fixed
#: set per seed, so ``risk_auroc`` does not depend on how many reads ran.
QUALITY_PAIRS = 4000

SERVE_ARGS = [
    "http", "--host", "127.0.0.1", "--port", "0",
    "--resolve-attributes", ",".join(fixture.BLOCK_ATTRIBUTES),
    "--min-shared", str(fixture.MIN_SHARED),
]
STARTUP_TIMEOUT = 60.0
#: Server spawns per timed run; ``setup_s`` is the median (each costs a process).
SERVER_SETUPS = 3


@dataclass
class Sent:
    """One request as the load generator saw it (times from ``perf_counter``)."""

    index: int
    rung: int  # ladder rung, -1 for saturation, -2 for writes
    due: float
    sent: float
    done: float
    status: int
    body: bytes  # the raw response, parsed after the window

    @property
    def payload(self) -> dict | None:
        try:
            return json.loads(self.body)
        except ValueError:
            return None


class Server:
    """One server process: spawn, wait for ``/healthz``, stop with SIGINT."""

    def __init__(self, ctx: Context, name: str, traced: bool) -> None:
        self.report_path = ctx.workdir / f"{name}-report.json"
        self.trace_path = ctx.workdir / f"{name}-spans.jsonl" if traced else None
        command = [sys.executable, str(Path(__file__).with_name("serve_launcher.py")),
                   "--report", str(self.report_path)]
        if traced:
            command += ["--trace", str(self.trace_path)]
        command += ["--", *SERVE_ARGS, "--model", str(ctx.model_dir),
                    "--events", str(ctx.workdir / f"{name}-events.jsonl")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ctx.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ctx.root, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            self.host, self.port = self._await_address()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _await_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.process.stdout.readline()
                if not line:
                    break
                if " on http://" in line:
                    host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
                    return host, int(port)
        raise RuntimeError("the HTTP server did not report its address")

    def _await_health(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            try:
                if get_json(self.host, self.port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("the HTTP server never answered /healthz")

    def stop(self) -> dict:
        """SIGINT, wait for a clean exit (kill after 30 s); the launcher's report."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        if not self.report_path.exists():
            return {}
        return json.loads(self.report_path.read_text())


def get_json(host: str, port: int, path: str) -> tuple[int, dict]:
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _post(connection, path: str, body: bytes) -> tuple[int, bytes]:
    connection.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


class _Client:
    """One keep-alive connection that reconnects after a failed request."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.connection = http.client.HTTPConnection(host, port, timeout=30)

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        """Send one request; the status and raw body (0 and no body on a failure).

        The body is parsed only after the window, so the writer thread's large
        ``/resolve`` replies never hold the interpreter while a read is due.
        """
        try:
            return _post(self.connection, path, body)
        except (OSError, http.client.HTTPException):
            self.connection.close()
            self.connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
            return 0, b""

    def close(self) -> None:
        self.connection.close()


def _open_loop(client: _Client, bodies: list[bytes], schedule, start: float) -> list[Sent]:
    """Send read ``k`` at ``start + schedule[k]`` (or as soon after as the connection frees)."""
    sent: list[Sent] = []
    clock = time.perf_counter
    for index, (offset, rung) in enumerate(schedule):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        begun = clock()
        status, reply = client.post("/score", bodies[index])
        sent.append(Sent(index, rung, due, begun, clock(), status, reply))
    return sent


def _closed_loop(client: _Client, bodies: list[bytes], first: int, seconds: float,
                 speed: hostspeed.HostSpeed) -> list[Sent]:
    """Back-to-back reads from ``bodies[first]`` on for ``seconds``; probes host speed between."""
    sent: list[Sent] = []
    clock = time.perf_counter
    started = clock()
    index = first
    speed.probe()
    while index < len(bodies) and clock() < started + seconds:
        begun = clock()
        status, reply = client.post("/score", bodies[index])
        done = clock()
        sent.append(Sent(index, -1, begun, begun, done, status, reply))
        speed.tick(done - begun)
        index += 1
    speed.probe()
    return sent


def _write_loop(client: _Client, bodies: list[bytes], start: float,
                stop: threading.Event, sent: list[Sent]) -> None:
    """Fixed-rate ``/resolve`` writes until ``stop`` is set."""
    clock = time.perf_counter
    for index, body in enumerate(bodies):
        due = start + (index + 0.5) / WRITE_RATE
        if stop.wait(max(0.0, due - clock())):
            return
        begun = clock()
        status, reply = client.post("/resolve", body)
        sent.append(Sent(index, -2, due, begun, clock(), status, reply))


class Inputs(NamedTuple):
    """Everything the load generator sends, made from the seed before the window."""

    pairs: list  # the read pairs, in send order
    read_bodies: list[bytes]
    write_bodies: list[bytes]
    matches: set  # true matches among the written records
    quality: list  # the fixed batch behind ``risk_auroc``
    quality_body: bytes


def _inputs(ctx: Context, reads_needed: int, writes_needed: int) -> Inputs:
    """Distinct cold read pairs (shuffled), the write records and the quality batch."""
    import numpy as np
    from repro.blocking import BlockingPairSource, InvertedIndexBlocker
    from repro.serve.http.schemas import pair_to_payload

    pairs = []
    source = BlockingPairSource(
        fixture.corpus(ctx.seed + 2, "http-reads", READ_ENTITIES, None),
        [InvertedIndexBlocker(fixture.BLOCK_ATTRIBUTES, min_shared=fixture.MIN_SHARED)],
        ensure_matches=False,
    )
    for chunk in source.iter_chunks(4096):
        pairs.extend(chunk)
        if len(pairs) >= 2 * (reads_needed + QUALITY_PAIRS):
            break
    order = np.random.default_rng(ctx.seed).permutation(len(pairs))
    quality = [pairs[int(position)] for position in order[reads_needed:reads_needed + QUALITY_PAIRS]]
    pairs = [pairs[int(position)] for position in order[:reads_needed]]
    read_bodies = [json.dumps({"pair": pair_to_payload(pair)}).encode() for pair in pairs]
    quality_body = json.dumps({"pairs": [pair_to_payload(pair) for pair in quality]}).encode()

    records, matches = [], set()
    for wave in fixture.corpus(ctx.seed + 3, "http-writes", WRITE_ENTITIES, None).waves():
        records.extend(list(wave.left) + list(wave.right))
        matches |= fixture.match_keys(wave)
        if len(records) >= writes_needed:
            break
    write_bodies = [
        json.dumps({"record": {"id": record.record_id, "source": record.source,
                               "values": dict(record.values)}}).encode()
        for record in records[:writes_needed]
    ]
    return Inputs(pairs, read_bodies, write_bodies, matches, quality, quality_body)


def _pair_key(pair) -> tuple[str, str, str, str]:
    return (pair.left.source, pair.left.record_id, pair.right.source, pair.right.record_id)


#: The server's request-time histograms, one per endpoint the load uses.
REQUEST_SECONDS = ("http.request_seconds.score", "http.request_seconds.resolve")


def _stats_delta(before: dict, after: dict) -> dict:
    """Counters between two ``GET /stats`` bodies: ``(count, sum)`` per histogram."""

    def histogram(body: dict, name: str) -> tuple[float, float]:
        found = body["metrics"]["histograms"].get(name, {})
        return found.get("count", 0), found.get("sum", 0.0)

    delta = {}
    for name in (*REQUEST_SECONDS, "coalesce.batch_fill", "coalesce.linger_seconds"):
        count_before, sum_before = histogram(before, name)
        count_after, sum_after = histogram(after, name)
        delta[name] = (count_after - count_before, sum_after - sum_before)
    for name in ("cache_hits", "cache_misses", "pairs_scored", "batches"):
        delta[name] = after["service"][name] - before["service"][name]
    return delta


def _window(server: Server, seconds: float, inputs: Inputs) -> dict:
    """Drive one measured window against ``server``; the raw observations.

    The open-loop schedule is fixed work; the saturation phase after it is not
    (a faster server completes more reads), so the server's memory and its
    ``/stats`` counters are read when the schedule ends.
    """
    read_bodies, write_bodies = inputs.read_bodies, inputs.write_bodies
    rungs = [(NOMINAL_RATE, seconds * NOMINAL_SHARE)] + [
        (rate, seconds * LADDER_SHARE / len(LADDER_RATES)) for rate in LADDER_RATES
    ]
    schedule = open_loop_schedule(rungs)
    before = get_json(server.host, server.port, "/stats")[1]
    reader = _Client(server.host, server.port)
    writer = _Client(server.host, server.port)
    writes: list[Sent] = []
    stop = threading.Event()
    speed = hostspeed.HostSpeed()
    start = time.perf_counter() + 0.05
    thread = threading.Thread(target=_write_loop, args=(writer, write_bodies, start, stop, writes))
    thread.start()
    try:
        reads = _open_loop(reader, read_bodies, schedule, start)
        open_end = time.perf_counter()
        rss = fixture.peak_rss_mb(server.process.pid)
        after = get_json(server.host, server.port, "/stats")[1]
        reads += _closed_loop(reader, read_bodies, len(schedule), seconds * SATURATION_SHARE, speed)
    finally:
        stop.set()
        thread.join(timeout=120)
        reader.close()
        writer.close()
    if thread.is_alive():
        raise RuntimeError("the write thread did not finish")
    return {"rungs": rungs, "reads": reads, "writes": writes, "start": start,
            "open_end": open_end, "delta": _stats_delta(before, after), "peak_rss_mb": rss,
            "speed": speed}


def _post_quality(server: Server, inputs: Inputs) -> tuple[int, bytes]:
    """Score the quality batch on a server whose counters and spans are not reported."""
    client = _Client(server.host, server.port)
    try:
        return client.post("/score", inputs.quality_body)
    finally:
        client.close()


def _check(ctx: Context, inputs: Inputs, window: dict, quality: tuple[int, bytes]) -> dict:
    """Compare every response with the in-process program on the same input."""
    from repro.online import OnlineResolver, ResolutionPolicy
    from repro.serve import RiskService, load_pipeline
    from repro.serve.http.schemas import pair_from_payload, records_from_body

    pipeline = load_pipeline(ctx.model_dir)
    schema = pipeline.vectorizer.schema
    service = RiskService(pipeline, cache_size=0)
    reads, writes = window["reads"], window["writes"]
    local = service.score_pairs(
        [pair_from_payload(json.loads(inputs.read_bodies[one.index])["pair"], schema)
         for one in reads]
    )
    def same(result: dict | None, expected) -> bool:
        return result is not None and (
            result["probability"], result["machine_label"], result["risk_score"]
        ) == (expected.probability, expected.machine_label, expected.risk_score)

    failed = 0
    digest = hashlib.sha256()
    for one, expected in zip(reads, local):
        payload = one.payload if one.status == 200 else None
        result = payload.get("result") if payload else None
        if not same(result, expected):
            failed += 1
            continue
        digest.update(f"{one.index}|{result['probability']!r}|{result['risk_score']!r}\n".encode())

    status, body = quality
    results = (json.loads(body).get("results") or []) if status == 200 else []
    expected_quality = service.score_pairs(
        [pair_from_payload(payload, schema)
         for payload in json.loads(inputs.quality_body)["pairs"]]
    )
    labels, truths, risks = [], [], []
    for result, expected, pair in zip(results, expected_quality, inputs.quality):
        if not same(result, expected):
            failed += 1
            continue
        labels.append(result["machine_label"])
        truths.append(pair.ground_truth)
        risks.append(result["risk_score"])
    failed += len(inputs.quality) - len(results)
    digest.update(body)

    resolver = OnlineResolver(
        RiskService(load_pipeline(ctx.model_dir)),
        ResolutionPolicy(attributes=fixture.BLOCK_ATTRIBUTES, min_shared=fixture.MIN_SHARED),
    )
    mix = {"merge": 0, "split": 0, "escalate": 0}
    events = event_matches = 0
    for one in writes:
        record = records_from_body(json.loads(inputs.write_bodies[one.index]), schema)[0]
        expected = json.loads(json.dumps([event.to_dict() for event in resolver.add_record(record)]))
        payload = one.payload if one.status == 200 else None
        if not payload or payload.get("events") != expected:
            failed += 1
            continue
        for event in expected:
            mix[event["decision"]] += 1
            keys = frozenset((f"{event['left_source']}:{event['left_id']}",
                              f"{event['right_source']}:{event['right_id']}"))
            event_matches += keys in inputs.matches
        events += len(expected)
        digest.update(json.dumps(expected, sort_keys=True).encode())
    return {"failed": failed, "labels": labels, "truths": truths, "risks": risks,
            "mix": mix, "events": events, "event_matches": event_matches,
            "digest": digest.hexdigest()}


def _rung_table(window: dict) -> list[dict]:
    """Per read rate: latency, lateness, backlog, and whether it meets the limit."""
    table = []
    for rung, (rate, _) in enumerate(window["rungs"]):
        sent = [one for one in window["reads"] if one.rung == rung]
        latencies = [one.done - one.due for one in sent if one.status == 200]
        latency = summarize(latencies)
        lateness = [one.sent - one.due for one in sent]
        growing = backlog_growing(lateness, 1.0 / rate)
        meets = (len(latencies) == len(sent) > 0 and not growing
                 and latency["tail"] * 1e3 <= LIMIT_MS)
        table.append({
            "rate": rate, "sent": len(sent), "failed": len(sent) - len(latencies),
            "p50_ms": latency["p50"] * 1e3 if latencies else None,
            "tail_q": latency["tail_q"],
            "tail_ms": latency["tail"] * 1e3 if latencies else None,
            "late_mean_ms": 1e3 * sum(lateness) / len(lateness) if lateness else 0.0,
            "backlog_growing": growing, "meets_limit": meets,
        })
    return table


def http_mixed(ctx: Context) -> Outcome:
    """Reads at a ladder of rates beside fixed-rate writes, against a separate server."""
    seconds = ctx.seconds / 2.0 if ctx.trace else ctx.seconds
    reads_needed = len(open_loop_schedule(
        [(NOMINAL_RATE, seconds * NOMINAL_SHARE)]
        + [(rate, seconds * LADDER_SHARE / len(LADDER_RATES)) for rate in LADDER_RATES]
    )) + int(SATURATION_CAP * seconds * SATURATION_SHARE)
    inputs = _inputs(ctx, reads_needed, int(WRITE_RATE * seconds) + 2)

    # The quality batch goes to a server whose counters and spans are not
    # reported: the untraced pass of a traced run, or a set-up spawn.
    if ctx.trace:
        plain = Server(ctx, "plain", traced=False)
        try:
            plain_window = _window(plain, seconds, inputs)
            quality = _post_quality(plain, inputs)
        finally:
            plain.stop()
        server = Server(ctx, "traced", traced=True)
        spawned = [server]
    else:
        spawned = []
        setup_speed = hostspeed.HostSpeed()  # probes between spawns, as for in-process set-ups
        for number in range(SERVER_SETUPS - 1):
            setup_speed.probe(SETUP_PROBES)
            spare = Server(ctx, f"setup{number}", traced=False)
            spawned.append(spare)
            try:
                if number == 0:
                    quality = _post_quality(spare, inputs)
            finally:
                spare.stop()
        setup_speed.probe(SETUP_PROBES)
        server = Server(ctx, "measured", traced=False)
        spawned.append(server)
        setup_speed.probe(SETUP_PROBES)
    setup_wall_s = statistics.median(one.setup_seconds for one in spawned)
    try:
        window = _window(server, seconds, inputs)
    finally:
        report = server.stop()
    checked = _check(ctx, inputs, window, quality)

    table = _rung_table(window)
    nominal = [one for one in window["reads"] if one.rung == 0 and one.status == 200]
    nominal_latency = summarize([one.done - one.due for one in nominal])
    max_rps = 0.0
    for row in table:
        if not row["meets_limit"]:
            break
        max_rps = row["rate"]
    saturated = [one for one in window["reads"] if one.rung == -1 and one.status == 200]
    saturation_latency = [one.done - one.sent for one in saturated]
    saturation_p50 = percentile(saturation_latency, 50.0)
    saturation_tail = percentile(saturation_latency, SATURATION_TAIL_Q)
    saturation_rps = len(saturated) / sum(saturation_latency)
    writes = [one for one in window["writes"] if one.status == 200]
    write_latency = summarize([one.done - one.due for one in writes])
    auroc = fixture.risk_auroc(checked["labels"], checked["truths"], checked["risks"])
    delta = window["delta"]
    attempted = len(window["reads"]) + len(window["writes"]) + len(inputs.quality)
    counts = report.get("counts", {})
    lookups = delta["cache_hits"] + delta["cache_misses"]

    info = {
        "read_pairs": len(window["reads"]),
        "distinct_pairs": len({_pair_key(inputs.pairs[one.index]) for one in window["reads"]}),
        "quality_pairs": len(inputs.quality),
        "writes": len(window["writes"]),
        "write_rate": WRITE_RATE,
        "limit_ms": LIMIT_MS,
        "rungs": table,
        "saturation_reads": len(saturated),
        "resolve_events": checked["events"],
        "service_cache_hits": delta["cache_hits"],
        "corpus_index_memo_share": 1.0 - memo_share(counts),
        "server_exit_code": report.get("exit_code"),
        **window["speed"].info(),
    }
    detail = {
        "score_p50_ms": (nominal_latency["p50"] * 1e3, "ms"),
        f"score_p{nominal_latency['tail_q']:g}_ms": (nominal_latency["tail"] * 1e3, "ms"),
        "score_max_rps": (max_rps, "req/s"),
        "score_saturation_rps": (saturation_rps, "req/s"),
        "saturation_p50_ms": (saturation_p50 * 1e3, "ms"),
        f"saturation_p{SATURATION_TAIL_Q:g}_ms": (saturation_tail * 1e3, "ms"),
        "saturation_p90_ms": (percentile(saturation_latency, 90.0) * 1e3, "ms"),
        f"resolve_p{write_latency['tail_q']:g}_ms": (write_latency["tail"] * 1e3, "ms"),
        "risk_auroc": (auroc, "ratio"),
        **wall_detail(ctx, setup_wall_s),
    }
    failed = checked["failed"] + (1 if report.get("exit_code") != 0 else 0)
    tracer = None
    if ctx.trace:
        tracer = Tracer()
        # Every layer figure covers the open-loop schedule, the same work on
        # both servers.  Both processes read CLOCK_MONOTONIC, so the server's
        # spans can be cut to it (dropping start-up and the /stats calls).
        tracer.spans = [span for span in read_spans(server.trace_path)
                        if window["start"] <= span.start <= window["open_end"]]
        tracer.counts.update(counts)
        wall = window["open_end"] - window["start"]
        _, score_server = delta["http.request_seconds.score"]
        score_wire = sum(one.done - one.sent for one in window["reads"]
                         if one.rung >= 0 and one.status == 200)
        # Per endpoint, the traced minus the plain server's mean request time,
        # times the requests: a write still in flight when the counters were
        # read must not count as overhead.
        overhead = 0.0
        for name in REQUEST_SECONDS:
            (count, total), (plain_count, plain_total) = delta[name], plain_window["delta"][name]
            if count and plain_count:
                overhead += count * (total / count - plain_total / plain_count)
        fills, fill_sum = delta["coalesce.batch_fill"]
        lingers, linger_sum = delta["coalesce.linger_seconds"]
        nominal_sent = [one for one in window["reads"] if one.rung == 0]
        metrics = layer_metrics(tracer, wall, {
            **ctx.fit_layers,
            "blocking.precision": (checked["event_matches"] / checked["events"]
                                   if checked["events"] else 0.0),
            "service.cache_hit_rate": delta["cache_hits"] / lookups if lookups else 0.0,
            "service.mean_batch": (delta["pairs_scored"] / delta["batches"]
                                   if delta["batches"] else 0.0),
            "http.server_s": score_server,
            "http.wire_s": score_wire - score_server,
            "coalesce.mean_fill": fill_sum / fills if fills else 0.0,
            "coalesce.linger_s": linger_sum / lingers if lingers else 0.0,
            "loadgen.late_ms": 1e3 * sum(one.sent - one.due for one in nominal_sent)
            / max(1, len(nominal_sent)),
            "online.pairs_per_record": checked["events"] / max(1, len(writes)),
            "online.merges": float(checked["mix"]["merge"]),
            "online.splits": float(checked["mix"]["split"]),
            "online.escalations": float(checked["mix"]["escalate"]),
            "trace.overhead_s": overhead,
        })
    else:
        metrics = {
            "setup_s": setup_wall_s * setup_speed.factor,
            "peak_rss_mb": window["peak_rss_mb"] or report.get("peak_rss_mb", 0.0),
            "fit_s": min(ctx.fit_seconds),
            # The bounded figures come from the closed-loop phase, where the
            # server is never idle: at the open-loop rates an idle server's
            # latency is dominated, on a contended host, by how long the
            # hypervisor takes to wake it.  They are calibrated by the probes
            # this process takes between the phase's reads (see README.md).
            "throughput_per_s": saturation_rps / window["speed"].factor,
            "latency_p50_ms": saturation_p50 * 1e3 * window["speed"].factor,
            "latency_tail_ms": saturation_tail * 1e3 * window["speed"].factor,
            "risk_auroc": auroc,
        }
    return Outcome(metrics, detail, info, attempted, failed, checked["digest"], tracer)
