"""The ``serve-mix`` workload: a seeded query stream against the daemon.

Set-up warms an sqlite store with ``python -m repro warm --formulas`` and
starts ``python -m repro serve`` on it.  A closed loop then drives the
daemon from this process over two connections: each connection sends the
next request of one shared stream as soon as its previous answer
arrives.

A run answers ``REQUESTS_PER_SECOND × --seconds`` requests.  The stream
is a sequence of blocks of :data:`BLOCK` requests with fixed
proportions, so every seed exercises the same mix:

* half repeat a hot set with the same mix as the fresh requests, each
  hot request as often as the others, so the daemon's caches are used;
* the rest are fresh — membership for the four paper formulas and for FC
  text, ``equiv``, ``rank`` and ``spanner`` on words no earlier request
  used, so the solvers compute;
* two per block are the heavy equivalent pairs whose verdicts the
  committed ``BENCH_engine.json`` fixes.

Every answer is checked against a second code path (:class:`Oracle`):
membership against the batched sweep, ``equiv``/``rank`` against
``ef.naive.NaiveGameSolver``, spanners against the vset-automaton
evaluator, and the heavy pairs against the committed verdicts.
"""

from __future__ import annotations

import json
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import benchstats
import harness
import metrics as catalogue
import spans

BLOCK = 100
#: Fresh requests per block, by kind; the hot set holds one request per
#: fresh slot, and hot repeats fill the rest of a block less
#: :data:`HEAVY_PER_BLOCK`.
FRESH_PER_BLOCK = {
    "membership:ww": 5,
    "membership:no-cube": 5,
    "membership:vbv": 5,
    "membership:fib": 5,
    "membership:text": 6,
    "equiv": 10,
    "rank": 5,
    "spanner": 7,
}
HEAVY_PER_BLOCK = 2
HOT_SIZE = sum(FRESH_PER_BLOCK.values())
HOT_PER_BLOCK = BLOCK - HOT_SIZE - HEAVY_PER_BLOCK
CONNECTIONS = 2
#: Requests per requested second: a run answers a fixed number of
#: requests, about ``--seconds`` long on a 2-CPU host, so every run
#: measures the same work whatever the host's speed.
REQUESTS_PER_SECOND = 700
#: The naive EF oracle is exponential in the round count: EF requests keep
#: words short enough for it (rank 3 only up to length 5).
NAIVE_MAX_LEN = 6

FC_TEXTS = (
    "E x: (x = a.b.a)",
    "E x y: ((x = y.y) & ~(y = eps))",
    "E x y: ((x = y.b.y) & ~(y = eps))",
    "E x: ((x = a.a) & E y: (y = x.x))",
    "A x: ((x = a.a) -> E y: (y = x.b))",
    "A z: (~(z = eps) -> ~E x y: ((x = z.y) & (y = z.z)))",
)

SPANNER_PATTERNS = (
    ".*x{a+}b.*",
    ".*x{ab}.*y{b+}.*",
    "x{.*}y{.*}",
    ".*x{(ab)+}.*",
    "x{a*}b.*",
    ".*x{b}y{a*}",
)

#: One request per op, sent in sequence when the daemon starts.  The op
#: handlers import their modules on first use, and first requests of two
#: ops arriving together on two connections race in those imports: the
#: daemon answers ``ImportError: ... partially initialized module`` or
#: ``KeyError: 'repro.fc'`` (3 of 10 runs before this was added).
PRIMING = (
    {"op": "membership", "formula": "ww", "word": "ab"},
    {"op": "membership", "text": "E x: (x = a)", "alphabet": "ab", "word": "a"},
    {"op": "equiv", "w": "a", "v": "b", "k": 1},
    {"op": "rank", "w": "a", "v": "b"},
    {"op": "spanner", "pattern": "x{a}", "document": "a"},
)

#: Members of L_fib up to length 10, mutated to near misses by the
#: generator (longer ones cost a hundred times more and would make the
#: per-seed work uneven).
FIB_MEMBERS = ("cac", "cacabc", "cacabcabac")


def heavy_pairs(committed: dict[str, Any]) -> list[tuple[dict, bool]]:
    """``equiv`` requests whose verdicts the committed results fix."""
    pairs = []
    for task in ("prim/equiv/anbn-k2", "prim/equiv/abpow-k2"):
        result = committed[task]
        pairs.append(
            ({"op": "equiv", "w": result["w"], "v": result["v"], "k": result["k"]},
             result["equivalent"])
        )
    for k, (p, q) in sorted(committed["E03"]["minimal_pairs"].items()):
        pairs.append(({"op": "equiv", "w": "a" * p, "v": "a" * q, "k": int(k)}, True))
    synth = committed["prim/synth/aaaa-aaa-k2"]
    if synth["synthesized"] and synth["verified"]:
        # A verified distinguishing sentence of rank k: not ≡_k.
        pairs.append(
            ({"op": "equiv", "w": synth["w"], "v": synth["v"], "k": synth["k"]}, False)
        )
    return pairs


class _Generator:
    """Seeded request generators; ``fresh`` never repeats a request."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.seen: set[str] = set()

    def word(self, alphabet: str, low: int, high: int) -> str:
        length = self.rng.randint(low, high)
        return "".join(self.rng.choice(alphabet) for _ in range(length))

    def make(self, kind: str) -> dict[str, Any]:
        rng = self.rng
        if kind == "membership:ww":
            if rng.random() < 0.5:
                half = self.word("ab", 2, 6)
                return {"op": "membership", "formula": "ww", "word": half + half}
            return {"op": "membership", "formula": "ww", "word": self.word("ab", 4, 12)}
        if kind == "membership:no-cube":
            return {"op": "membership", "formula": "no-cube",
                    "word": self.word("ab", 4, 12)}
        if kind == "membership:vbv":
            if rng.random() < 0.5:
                half = self.word("ab", 1, 5)
                return {"op": "membership", "formula": "vbv", "word": half + "b" + half}
            return {"op": "membership", "formula": "vbv", "word": self.word("ab", 3, 11)}
        if kind == "membership:fib":
            if rng.random() < 0.3:
                word = list(rng.choice(FIB_MEMBERS))
                word[rng.randrange(len(word))] = rng.choice("abc")
                return {"op": "membership", "formula": "fib", "word": "".join(word)}
            return {"op": "membership", "formula": "fib", "word": self.word("abc", 3, 10)}
        if kind == "membership:text":
            return {"op": "membership", "text": rng.choice(FC_TEXTS),
                    "alphabet": "ab", "word": self.word("ab", 3, 10)}
        if kind in ("equiv", "rank"):
            w = self.word("ab", 3, NAIVE_MAX_LEN)
            v = self.word("ab", 3, NAIVE_MAX_LEN)
            top = 3 if max(len(w), len(v)) <= 5 else 2
            if kind == "equiv":
                return {"op": "equiv", "w": w, "v": v, "k": rng.randint(1, top)}
            return {"op": "rank", "w": w, "v": v, "max_k": top}
        if kind == "spanner":
            return {"op": "spanner", "pattern": rng.choice(SPANNER_PATTERNS),
                    "document": self.word("ab", 6, 14)}
        raise ValueError(f"unknown request kind {kind!r}")

    def fresh(self, kind: str) -> dict[str, Any]:
        for _ in range(200):
            request = self.make(kind)
            if request.get("w") is not None and request["w"] == request["v"]:
                continue
            key = spans.request_fingerprint(request)
            if key not in self.seen:
                self.seen.add(key)
                return request
        raise RuntimeError(f"could not draw a fresh {kind} request")


def build_stream(seed: int, heavy: list[dict], blocks: int) -> list[dict[str, Any]]:
    """The request stream for ``seed``: ``blocks`` blocks of :data:`BLOCK`."""
    rng = random.Random(seed)
    generator = _Generator(rng)
    # A fresh request never repeats a heavy pair either.
    generator.seen.update(spans.request_fingerprint(r) for r in heavy)
    kinds = [kind for kind, count in FRESH_PER_BLOCK.items() for _ in range(count)]
    hot = [generator.fresh(kind) for kind in kinds]
    rng.shuffle(hot)
    heavy_order = list(heavy)
    rng.shuffle(heavy_order)

    def cycle(items: list, index: int, per_block: int) -> list:
        start = index * per_block
        return [items[(start + j) % len(items)] for j in range(per_block)]

    stream: list[dict[str, Any]] = []
    for index in range(blocks):
        block = [generator.fresh(kind) for kind in kinds]
        block += cycle(hot, index, HOT_PER_BLOCK)
        block += cycle(heavy_order, index, HEAVY_PER_BLOCK)
        rng.shuffle(block)
        stream.extend(block)
    return stream


class Oracle:
    """Expected answers from code paths the daemon does not use."""

    def __init__(self, heavy: list[tuple[dict, bool]]) -> None:
        self.heavy = {spans.request_fingerprint(req): verdict for req, verdict in heavy}

    def expected(self, requests: list[dict[str, Any]]) -> dict[str, Any]:
        """fingerprint → the comparable answer, for every distinct request."""
        from repro.fc.builders import paper_formula
        from repro.fc.parser import parse_fc
        from repro.fc.semantics import defines_language_members
        from repro.fc.sweep import LanguageSweep

        distinct = {spans.request_fingerprint(r): r for r in requests}
        answers: dict[str, Any] = {}
        #: (formula name or FC text, alphabet) → {fingerprint: word}
        batches: dict[tuple[str, str | None], dict[str, str]] = {}
        for key, request in distinct.items():
            if request["op"] == "membership":
                sentence = (request.get("formula"), None) if "formula" in request else (
                    request["text"], request["alphabet"])
                batches.setdefault(sentence, {})[key] = request["word"]
        for (name, alphabet), words in batches.items():
            if alphabet is None:
                phi, alphabet = paper_formula(name)
            else:
                phi = parse_fc(name, alphabet)
            if LanguageSweep(alphabet).compile(phi) is None:
                raise RuntimeError(f"{name!r} is outside the sweep fragment")
            ordered = sorted(set(words.values()), key=lambda w: (len(w), w))
            members = dict(defines_language_members(phi, alphabet, ordered))
            for key, word in words.items():
                answers[key] = members[word]
        for key, request in distinct.items():
            if request["op"] == "equiv":
                answers[key] = self._equiv(key, request)
            elif request["op"] == "rank":
                answers[key] = naive_rank(request["w"], request["v"], request["max_k"])
            elif request["op"] == "spanner":
                answers[key] = vset_rows(request["pattern"], request["document"])
        return answers

    def _equiv(self, key: str, request: dict) -> bool:
        if key in self.heavy:
            return self.heavy[key]
        if max(len(request["w"]), len(request["v"])) > NAIVE_MAX_LEN:
            raise RuntimeError(f"no oracle for {request}")
        return naive_solver(request["w"], request["v"]).duplicator_wins(request["k"])


def naive_solver(w: str, v: str):
    from repro.ef.naive import NaiveGameSolver
    from repro.fc.structures import word_structure

    alphabet = "".join(sorted(set(w) | set(v)))
    return NaiveGameSolver(word_structure(w, alphabet), word_structure(v, alphabet))


def naive_rank(w: str, v: str, max_k: int) -> int | None:
    solver = naive_solver(w, v)
    for k in range(max_k + 1):
        if not solver.duplicator_wins(k):
            return k
    return None


def vset_rows(pattern: str, document: str) -> list:
    from repro.spanners import compile_regex_formula, parse_regex_formula

    relation = compile_regex_formula(parse_regex_formula(pattern)).evaluate(document)
    return sorted(
        sorted((var, span.start, span.end) for var, span in row.items())
        for row in relation
    )


def answer_of(request: dict[str, Any], result: dict[str, Any]) -> Any:
    """The part of a daemon ``result`` the oracle predicts."""
    op = request["op"]
    if op == "membership":
        return result["member"]
    if op == "equiv":
        return result["equivalent"]
    if op == "rank":
        return result["rank"]
    return sorted(
        sorted((var, cell["start"], cell["end"]) for var, cell in row.items())
        for row in result["rows"]
    )


# -- the daemon -------------------------------------------------------------


@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int

    def stop(self) -> None:
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=10) as sock:
                sock.sendall(b'{"op": "shutdown"}\n')
                sock.recv(4096)
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start_daemon(store: Path, log: Path, trace_out: Path | None = None) -> Daemon:
    if trace_out is None:
        argv = [sys.executable, "-m", "repro"]
    else:
        argv = [sys.executable, str(harness.HERE / "traced_main.py"),
                "--trace-out", str(trace_out), "--"]
    argv += ["serve", "--port", "0", "--store", f"sqlite:{store}"]
    sink = open(log, "w", encoding="utf-8")
    proc = subprocess.Popen(
        argv, cwd=harness.ROOT, env=harness.child_env(),
        stdout=subprocess.PIPE, stderr=sink, text=True,
    )
    sink.close()
    announce = proc.stdout.readline().strip()
    if not announce.startswith("serving on "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"daemon did not start: {announce!r}\n{log.read_text()}")
    daemon = Daemon(proc, int(announce.rsplit(":", 1)[1]))
    from repro.serve.client import ServeClient

    try:
        with ServeClient(port=daemon.port, timeout=30.0) as client:
            client.call("ping")
            for request in PRIMING:
                client.call(**request)
    except BaseException:
        daemon.stop()
        raise
    return daemon


def warm_store(store: Path, log: Path) -> None:
    child = harness.run_child(
        [sys.executable, "-m", "repro", "warm", "--formulas",
         "--store", f"sqlite:{store}"],
        log,
    )
    if child.returncode != 0:
        raise RuntimeError(f"warm exited {child.returncode}:\n{child.output}")


# -- the closed loop --------------------------------------------------------


@dataclass
class LoopResult:
    #: per stream index: (connection, latency_s, response envelope)
    answers: dict[int, tuple[int, float, dict]] = field(default_factory=dict)
    window: tuple[float, float] = (0.0, 0.0)
    client_cpu_s: float = 0.0


def closed_loop(port: int, stream: list[dict]) -> LoopResult:
    """Answer the whole stream; each connection sends the next request as
    soon as its previous answer arrives."""
    from repro.serve.client import ServeClient

    result = LoopResult()
    lock = threading.Lock()
    cursor = [0]
    errors: list[BaseException] = []
    clients = [ServeClient(port=port, timeout=60.0) for _ in range(CONNECTIONS)]
    started = time.perf_counter()

    def next_index() -> int | None:
        with lock:
            index = cursor[0]
            if index >= len(stream):
                return None
            cursor[0] += 1
            return index

    def drive(connection: int) -> None:
        client = clients[connection]
        try:
            while (index := next_index()) is not None:
                request = stream[index]
                sent = time.perf_counter()
                response = client.request(**request)
                latency = time.perf_counter() - sent
                result.answers[index] = (connection, latency, response)
        except BaseException as error:  # noqa: BLE001 — reported after join
            errors.append(error)

    cpu_before = harness.self_cpu_s()
    threads = [threading.Thread(target=drive, args=(c,)) for c in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.window = (started, time.perf_counter())
    result.client_cpu_s = harness.self_cpu_s() - cpu_before
    for client in clients:
        client.close()
    if errors:
        raise RuntimeError(f"client failed: {errors[0]!r}")
    return result


def check(loop: LoopResult, stream: list[dict], oracle: Oracle,
          outcome: catalogue.Outcome) -> None:
    sent = [stream[index] for index in sorted(loop.answers)]
    expected = oracle.expected(sent)
    for index in sorted(loop.answers):
        request = stream[index]
        _connection, _latency, response = loop.answers[index]
        key = spans.request_fingerprint(request)
        if not response.get("ok"):
            outcome.check(False, f"request {index} {key}: {response.get('error')}")
            continue
        got = answer_of(request, response["result"])
        outcome.check(got == expected[key],
                      f"request {index} {key}: got {got!r}, expected {expected[key]!r}")


def _committed() -> dict[str, Any]:
    report = json.loads(harness.COMMITTED_REPORT.read_text(encoding="utf-8"))
    return {record["task"]: record["result"] for record in report["tasks"]}


def run(seed: int, seconds: float, trace: bool) -> catalogue.Outcome:
    outcome = catalogue.Outcome()
    began = time.perf_counter()
    heavy = heavy_pairs(_committed())
    blocks = max(1, round(REQUESTS_PER_SECOND * seconds / BLOCK))
    stream = build_stream(seed, [request for request, _ in heavy], blocks)
    oracle = Oracle(heavy)
    generated = time.perf_counter() - began
    with harness.WorkDir() as work:
        setups = []
        store = work / "store-1" / "store.sqlite"
        store.parent.mkdir()
        started = time.perf_counter()
        warm_store(store, work / "warm-1.log")
        warmed = time.perf_counter()
        if trace:
            # The traced daemon gets its own copy: the first daemon
            # publishes to its store while it answers.
            shutil.copytree(store.parent, work / "store-traced")
        restarted = time.perf_counter()
        daemon = start_daemon(store, work / "daemon-1.log")
        setups.append(warmed - started + time.perf_counter() - restarted)
        if trace:
            return _traced(daemon, work / "store-traced" / store.name, work,
                           stream, oracle, outcome, seed)
        try:
            cpu_before = harness.proc_cpu_s(daemon.proc.pid)
            loop = closed_loop(daemon.port, stream)
            daemon_cpu = harness.proc_cpu_s(daemon.proc.pid) - cpu_before
            peak_rss = harness.proc_peak_rss_mb(daemon.proc.pid)
        finally:
            daemon.stop()
        # A second set-up, timed after the loop so it cannot disturb it.
        second = work / "store-2" / "store.sqlite"
        second.parent.mkdir()
        started = time.perf_counter()
        warm_store(second, work / "warm-2.log")
        start_daemon(second, work / "daemon-2.log").stop()
        setups.append(time.perf_counter() - started)
    began = time.perf_counter()
    check(loop, stream, oracle, outcome)
    outcome.details.append(
        f"phases: stream {generated:.2f}s, set-ups {sum(setups):.2f}s, loop "
        f"{loop.window[1] - loop.window[0]:.2f}s, oracle check "
        f"{time.perf_counter() - began:.2f}s"
    )

    latencies = [latency * 1000.0 for _, latency, _ in loop.answers.values()]
    window = loop.window[1] - loop.window[0]
    count = len(latencies)
    outcome.metrics["setup_s"] = benchstats.median(setups)
    outcome.notes["setup_s"] = f"median of {len(setups)} set-ups (warm store + daemon start)"
    per_kilo = 1000.0 / count
    outcome.metrics["wall_s"] = window * per_kilo
    outcome.notes["wall_s"] = f"wall per 1000 requests, {count} requests in {window:.2f}s"
    outcome.metrics["cpu_s"] = (daemon_cpu + loop.client_cpu_s) * per_kilo
    outcome.notes["cpu_s"] = (
        f"daemon {daemon_cpu:.2f}s + client {loop.client_cpu_s:.2f}s CPU, per 1000 requests"
    )
    outcome.metrics["peak_rss_mb"] = peak_rss
    outcome.notes["peak_rss_mb"] = "daemon VmHWM"
    outcome.metrics["latency_p50_ms"] = benchstats.median(latencies)
    outcome.notes["latency_p50_ms"] = f"median of {count} requests"
    value, pct, n = benchstats.tail(latencies)
    outcome.metrics["latency_p99_ms"] = value
    outcome.notes["latency_p99_ms"] = (
        f"p{pct:g} of {n} requests (tail rule)" if pct else f"max of {n} requests"
    )
    outcome.metrics["throughput_qps"] = count / window
    outcome.notes["throughput_qps"] = (
        f"closed loop, {CONNECTIONS} connections, {count} requests"
    )
    return outcome


def _traced(daemon: Daemon, store: Path, work: Path, stream: list[dict],
            oracle: Oracle, outcome: catalogue.Outcome, seed: int) -> catalogue.Outcome:
    """Untraced then traced daemon, each answering the first half of the
    stream."""
    stream = stream[: max(1, len(stream) // 2)]
    try:
        plain = closed_loop(daemon.port, stream)
    finally:
        daemon.stop()
    count = len(plain.answers)
    trace_dir = harness.OUT_ROOT / f"serve-mix-seed{seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / "daemon.json"
    traced_daemon = start_daemon(store, work / "daemon-traced.log", trace_out=trace_file)
    try:
        traced = closed_loop(traced_daemon.port, stream)
    finally:
        traced_daemon.stop()
    check(plain, stream, oracle, outcome)
    check(traced, stream, oracle, outcome)

    dump = json.loads(trace_file.read_text(encoding="utf-8"))
    counters = dump["counters"]
    lru = counters["lru"].get("ef.equivalence.solver_for") or {}
    values = catalogue.layer_metrics(
        spans.merge_aggregates([dump]),
        counters["solver"],
        counters["store"],
        (lru.get("hits") or 0, lru.get("misses") or 0),
    )
    by_op: dict[str, list[float]] = {}
    for op, _key, start, end, _thread in dump["ops"]:
        by_op.setdefault(op, []).append((end - start) * 1000.0)
    for op in catalogue.SERVE_OPS:
        values[f"serve.op.{op}.p50_ms"] = benchstats.median(by_op.get(op, [0.0]))
    wire = wire_ms(traced, stream, dump["ops"])
    values["serve.wire_ms_p50"] = benchstats.median(wire) if wire else 0.0
    plain_wall = plain.window[1] - plain.window[0]
    traced_wall = traced.window[1] - traced.window[0]
    values["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    covered = spans.covered_seconds([dump], traced.window)
    values["trace.unattributed_pct"] = 100.0 * max(0.0, 1.0 - covered / traced_wall)
    outcome.metrics = catalogue.zero_fill(values)
    outcome.details.append(
        f"trace: {len(dump['spans'])} spans kept, {dump['dropped']} dropped, "
        f"{count} requests each untraced ({plain_wall:.2f}s) and traced "
        f"({traced_wall:.2f}s), written to {trace_file.relative_to(harness.ROOT)}"
    )
    outcome.details.append(f"trace: {len(wire)} requests matched for wire time")
    return outcome


def wire_ms(loop: LoopResult, stream: list[dict], ops: list) -> list[float]:
    """Client latency minus daemon dispatch time, request by request.

    A daemon handler thread serves one connection in order, so a thread
    is matched to the connection whose request sequence it dispatched.
    """
    per_connection: dict[int, list[tuple[str, float]]] = {}
    for index in sorted(loop.answers):
        connection, latency, _ = loop.answers[index]
        per_connection.setdefault(connection, []).append(
            (spans.request_fingerprint(stream[index]), latency)
        )
    per_thread: dict[int, list[tuple[str, float]]] = {}
    for _op, key, start, end, thread in ops:
        per_thread.setdefault(thread, []).append((key, end - start))
    wire = []
    for sent in per_connection.values():
        keys = [key for key, _ in sent]
        for dispatched in per_thread.values():
            if [key for key, _ in dispatched] == keys:
                wire += [
                    (latency - spent) * 1000.0
                    for (_, latency), (_, spent) in zip(sent, dispatched)
                ]
                break
    return wire
