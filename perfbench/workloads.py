"""The benchmark's three workloads and the checks every request passes.

* ``plonk-mvm`` -- one closed-loop client proving the paper's ZKML
  statement ``y = M x`` (8x8 MVM circuit, 256 rows) with fresh ``M`` and
  ``x`` per request, then serializing and verifying the proof.
* ``stark-mvm-sharded`` -- one closed-loop client proving a 2^12-row
  MVM AIR trace through a 2-worker :class:`repro.parallel.ShardPool`.
* ``service-mix`` -- two closed-loop client threads against an
  in-process :class:`repro.service.ProvingService` with one proving
  worker, its default batching and its result cache.

Each workload is an object built from a seed; :meth:`setup_once`
measures one cold set-up, :meth:`warmup` runs the untimed, fully checked
first request of each shape, and :meth:`client_loop` is the measured
closed loop.  A request that raises, or fails any check, is counted in
``Tally.failed`` and contributes no timing sample.
"""

from __future__ import annotations

import dataclasses
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import parallel, protocols, tracing
from repro.field import gl64, goldilocks as gl
from repro.plonk import PlonkError, plan_for as plonk_plan_for
from repro.protocols import ProtocolSetup
from repro.serialize import proof_from_blob, proof_to_blob, read_result_envelope
from repro.service import JobSpec, ProvingService
from repro.stark import StarkError, plan_for as stark_plan_for
from repro.tracing import Span
from repro.workloads import by_name
from repro.workloads.mvm import MvmAir

from . import layers, modp


class CheckFailed(Exception):
    """A request's output failed one of the benchmark's own checks."""


@dataclass
class Tally:
    """What one run attempted, what failed, and the timing samples."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: One dict of per-layer numbers per traced proof.
    layer_rows: List[Dict[str, float]] = field(default_factory=list)
    #: Span roots of traced requests (written as a Chrome trace).
    spans: List[Span] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(self, **values: float) -> None:
        """Append one sample per named series."""
        with self.lock:
            for name, value in values.items():
                self.samples.setdefault(name, []).append(float(value))

    def attempt(self, fn: Callable[[], None]) -> None:
        """Run one request; any exception counts it as failed."""
        with self.lock:
            self.attempted += 1
        self.check(fn)

    def check(self, fn: Callable[[], None]) -> None:
        """Run a later check on an already attempted request; an
        exception counts that request as failed."""
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - a failed request is data
            with self.lock:
                self.failed += 1
                if len(self.errors) < 8:
                    self.errors.append(f"{type(exc).__name__}: {exc}")

    def median(self, name: str) -> Optional[float]:
        """Median of a series, ``None`` when it has no samples."""
        values = self.samples.get(name)
        return float(statistics.median(values)) if values else None


def in_fresh_thread(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` on a new thread (cold thread-local prover plans)."""
    box: Dict[str, Any] = {}

    def body() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the caller
            box["error"] = exc

    worker = threading.Thread(target=body, name="perfbench-setup")
    worker.start()
    worker.join()
    if "error" in box:
        raise box["error"]
    return box["value"]


def _rejects_off_by_one(system, psetup, proof, typed_error: type) -> None:
    """The proof with its last public output plus one must be rejected
    with the protocol's typed error."""
    publics = list(proof.public_inputs)
    publics[-1] = (publics[-1] + 1) % modp.P
    forged = dataclasses.replace(proof, public_inputs=publics)
    try:
        system.verify(psetup, forged)
    except typed_error:
        return
    raise CheckFailed("verifier accepted a proof whose public output is off by one")


class TimedShardPool(parallel.ShardPool):
    """A shard pool that adds up the wall time spent inside :meth:`run`."""

    run_s = 0.0

    def run(self, graph):
        t0 = time.perf_counter()
        try:
            return super().run(graph)
        finally:
            self.run_s += time.perf_counter() - t0


# -- direct workloads ------------------------------------------------------------


class DirectWorkload:
    """One client proving, serializing and verifying, serially."""

    name = "?"
    protocol = "?"
    typed_error: type = Exception
    #: Number of closed-loop client threads.
    clients = 1

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.system = protocols.get(self.protocol)
        self.config = self.system.make_config()
        self.requests = 0

    # hooks ---------------------------------------------------------------

    def new_request(self):
        """``(ProtocolSetup, expected public outputs)`` of a fresh request."""
        raise NotImplementedError

    def prove(self, psetup):
        """The measured prove call."""
        return self.system.prove(psetup)

    def expected_publics(self, *operands) -> list:
        """The benchmark's own mod-p computation of the public outputs."""
        raise NotImplementedError

    def warmup_checks(self, psetup, proof, blob: bytes) -> None:
        """Once-per-run checks on the warm-up request's proof."""
        _rejects_off_by_one(self.system, psetup, proof, self.typed_error)

    def decode(self, blob: bytes):
        """Blob -> proof (the verifier's side of the round trip)."""
        return proof_from_blob(blob, expected_protocol=self.protocol)[1]

    # request -------------------------------------------------------------

    def _request(self, tally: Tally, *, timed: bool, trace: bool, warmup: bool) -> None:
        psetup, expected = self.new_request()
        index = self.requests
        self.requests += 1
        extra: Dict[str, float] = {}
        if trace and timed:
            proof, prove_s = self._traced_variants(tally, psetup, index, extra)
        else:
            t0 = time.perf_counter()
            proof = self.prove(psetup)
            prove_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        blob = proof_to_blob(self.protocol, proof)
        t2 = time.perf_counter()
        decoded = self.decode(blob)
        t3 = time.perf_counter()
        self.system.verify(psetup, decoded)
        t4 = time.perf_counter()
        got = [int(v) for v in decoded.public_inputs]
        if got != expected:
            raise CheckFailed(f"public outputs {got[:3]}... != expected {expected[:3]}...")
        if warmup:
            self.warmup_checks(psetup, decoded, blob)
        if timed:
            tally.add(
                prove_s=prove_s,
                latency_s=prove_s + (t2 - t1),
                verify_s=t4 - t2,
                proof_bytes=len(blob),
                encode_s=t2 - t1,
                decode_s=t3 - t2,
                **extra,
            )

    def _traced_variants(self, tally: Tally, psetup, index: int, extra: Dict[str, float]):
        """Prove traced and untraced (alternating which goes first).

        Returns the untraced proof and its time; the traced proof's
        per-layer numbers land in ``tally.layer_rows``.
        """
        box: Dict[str, Any] = {}

        def traced():
            t0 = time.perf_counter()
            root, row = self.traced_prove(psetup)
            extra["prove_traced_s"] = time.perf_counter() - t0
            with tally.lock:
                tally.layer_rows.append(row)
                tally.spans.append(root)

        def untraced():
            t0 = time.perf_counter()
            box["proof"] = self.prove(psetup)
            box["s"] = time.perf_counter() - t0

        for step in (traced, untraced) if index % 2 else (untraced, traced):
            step()
        return box["proof"], box["s"]

    def traced_prove(self, psetup):
        """Prove under a trace session; ``(prove root span, layer row)``."""
        with tracing.trace() as session:
            self.prove(psetup)
        (root,) = [s for s in session.spans if s.name.startswith("prove:")]
        return root, layers.prove_breakdown(root)

    # phases --------------------------------------------------------------

    def warmup(self, tally: Tally, trace: bool) -> None:
        """The untimed first request, with the once-per-run checks."""
        tally.attempt(lambda: self._request(tally, timed=False, trace=trace, warmup=True))

    def client_loop(self, tally: Tally, deadline: float, trace: bool) -> None:
        """Closed loop: the next request starts when the last one ends."""
        while time.perf_counter() < deadline:
            tally.attempt(lambda: self._request(tally, timed=True, trace=trace, warmup=False))

    def after(self, tally: Tally, trace: bool) -> None:
        """Checks after the measured phase (none for direct workloads)."""

    def service_rows(self, tally: Tally) -> Dict[str, float]:
        """Service-layer numbers (no service on direct workloads)."""
        return {}

    def close(self) -> None:
        """Release processes and shared memory the workload holds."""


class PlonkMvm(DirectWorkload):
    """``y = M x`` over an 8x8 MVM circuit, fresh ``M``/``x`` per request."""

    name = "plonk-mvm"
    protocol = "plonk"
    typed_error = PlonkError
    dim = 8
    #: Merkle leaves per commitment batch == LDE length of the 256-row circuit.
    lde_size = 256 << 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.psetup: Optional[ProtocolSetup] = None

    def setup_once(self) -> float:
        """Cold protocol setup plus the prover's plan, timed in a fresh thread."""

        def body():
            t0 = time.perf_counter()
            psetup = self.system.setup(by_name("MVM"), self.dim, self.config)
            plonk_plan_for(psetup.rows, self.config.rate_bits)
            return time.perf_counter() - t0, psetup

        elapsed, self.psetup = in_fresh_thread(body)
        return elapsed

    def new_request(self):
        d = self.dim
        m = gl64.random((d, d), self.rng)
        x = gl64.random((d,), self.rng)
        y = gl64.matvec(m, x)  # the program's arithmetic makes the witness
        data, builder_inputs = self.psetup.data
        # The MVM builder assigns M row-major, then x, then the y publics.
        keys = list(builder_inputs)
        if len(keys) != d * d + 2 * d:
            raise CheckFailed(f"unexpected MVM circuit inputs ({len(keys)})")
        values = [int(v) for v in m.reshape(-1)] + [int(v) for v in x] + [int(v) for v in y]
        inputs = dict(zip(keys, values))
        psetup = dataclasses.replace(self.psetup, data=(data, inputs))
        return psetup, self.expected_publics(m.tolist(), x.tolist())

    def expected_publics(self, m, x) -> list:
        return modp.matvec(m, x)


class StarkMvmSharded(DirectWorkload):
    """A 2^12-row MVM AIR trace proved through a 2-worker shard pool."""

    name = "stark-mvm-sharded"
    protocol = "stark"
    typed_error = StarkError
    log_rows = 12
    workers = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool: Optional[TimedShardPool] = None
        self.lde_size = (1 << self.log_rows) << self.config.rate_bits

    def setup_once(self) -> float:
        """Cold prover plan (fresh thread) plus shard-pool start-up."""
        n = 1 << self.log_rows

        def body():
            t0 = time.perf_counter()
            stark_plan_for(n, self.config.rate_bits)
            pool = TimedShardPool(self.workers).start()
            return time.perf_counter() - t0, pool

        elapsed, pool = in_fresh_thread(body)
        if self.pool is not None:
            self.pool.close()
        self.pool = pool
        return elapsed

    def new_request(self):
        n = 1 << self.log_rows
        m = gl64.random((n,), self.rng)
        x = gl64.random((n,), self.rng)
        products = gl64.mul(m, x)
        acc = np.zeros(n, dtype=np.uint64)
        running = 0
        for row in range(n - 1):
            running = gl.add(running, int(products[row]))
            acc[row + 1] = running
        trace = np.stack([m, x, acc], axis=1)
        publics = [n - 1, int(acc[n - 1])]
        psetup = ProtocolSetup(
            protocol=self.protocol,
            workload="MVM",
            scale=self.log_rows,
            config=self.config,
            data=(MvmAir(), trace, publics),
            rows=n,
        )
        # The last row's accumulator excludes that row's own product.
        return psetup, self.expected_publics(m[: n - 1].tolist(), x[: n - 1].tolist())

    def expected_publics(self, m, x) -> list:
        return [len(m), modp.dot(m, x)]

    def prove(self, psetup):
        return self.system.prove(psetup, pool=self.pool)

    def serial_prove(self, psetup):
        """The same proof with sharding off."""
        with parallel.sharding(None):
            return self.system.prove(psetup)

    def warmup_checks(self, psetup, proof, blob: bytes) -> None:
        super().warmup_checks(psetup, proof, blob)
        serial = proof_to_blob(self.protocol, self.serial_prove(psetup))
        if serial != blob:
            raise CheckFailed("sharded proof differs from the serial proof of the same trace")

    def traced_prove(self, psetup):
        stats0, run0 = dict(self.pool.stats), self.pool.run_s
        root, row = super().traced_prove(psetup)
        row["parallel.graphs"] = self.pool.stats["graphs"] - stats0["graphs"]
        row["parallel.shards"] = self.pool.stats["shards"] - stats0["shards"]
        row["parallel.run_s"] = self.pool.run_s - run0
        row["parallel.efficiency"] = row["parallel.shard_busy_s"] / (
            self.workers * row["parallel.run_s"]
        )
        return root, row

    def _traced_variants(self, tally, psetup, index, extra):
        proof, prove_s = super()._traced_variants(tally, psetup, index, extra)
        t0 = time.perf_counter()
        self.serial_prove(psetup)
        extra["speedup"] = (time.perf_counter() - t0) / prove_s
        return proof, prove_s

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


# -- service-mix -----------------------------------------------------------------

#: (kind, workload, scale) of every job shape in the mix: STARK
#: Fibonacci/MVM at log-rows 6-9 and four small Plonk circuits, in the
#: fixed order a round issues them (costly and cheap shapes alternate).
SERVICE_SHAPES = [
    ("stark", "Fibonacci", 9), ("plonk", "Fibonacci", 8), ("stark", "MVM", 6),
    ("stark", "MVM", 8), ("plonk", "MVM", 3), ("stark", "Fibonacci", 7),
    ("stark", "MVM", 9), ("plonk", "Fibonacci", 16), ("stark", "Fibonacci", 6),
    ("stark", "Fibonacci", 8), ("plonk", "MVM", 2), ("stark", "MVM", 7),
]
#: Shapes of (nearly) equal cost -- same kind and row count -- in pairs.
SERVICE_PAIRS = [
    (("stark", "Fibonacci", lr), ("stark", "MVM", lr)) for lr in (6, 7, 8, 9)
] + [(("plonk", "Fibonacci", 8), ("plonk", "MVM", 2)), (("plonk", "Fibonacci", 16), ("plonk", "MVM", 3))]
#: Each round is one new spec of every shape plus this many exact repeats,
#: at these fixed positions of the round.
SERVICE_REPEATS = 3
SERVICE_ROUND = len(SERVICE_SHAPES) + SERVICE_REPEATS
SERVICE_REPEAT_AT = (4, 9, 14)
#: The two shapes of a pair alternate ``num_queries`` 4 and 5 round by
#: round (the seed picks which starts where), so every round asks each
#: pair for the same work; ``cap_height`` (every 2 rounds) and
#: ``proof_of_work_bits`` (every 4 rounds) toggle so that no spec repeats
#: within 8 rounds, and ``num_queries`` steps up by 2 every 8 rounds.
SERVICE_QUERIES = (4, 5)
#: Every run issues at least this many rounds, and ``proof_bytes`` is the
#: median over their new specs: rounds 0 and 1 give every shape both
#: ``num_queries`` values at the same ``cap_height`` and
#: ``proof_of_work_bits``, so the sizes measured are the same whatever the
#: seed and however many rounds the run lasts.
SERVICE_SIZE_ROUNDS = 2


def service_publics(spec: JobSpec) -> list:
    """Expected public outputs of a service spec, in plain integers.

    The MVM operands follow the workload builders' fixed generators
    (``default_rng(7)`` for the AIR, ``default_rng(99)`` for the
    circuit, 16-bit entries).
    """
    if spec.kind == "stark":
        n = 1 << spec.scale
        if spec.workload == "Fibonacci":
            return [n - 1, modp.fibonacci(n - 1)]
        rng = np.random.default_rng(7)
        m = rng.integers(0, 1 << 16, size=n).tolist()
        x = rng.integers(0, 1 << 16, size=n).tolist()
        return [n - 1, modp.dot(m[: n - 1], x[: n - 1])]
    if spec.workload == "Fibonacci":
        return [modp.fibonacci(spec.scale)]
    rng = np.random.default_rng(99)
    m = rng.integers(0, 1 << 16, size=(spec.scale, spec.scale)).tolist()
    x = rng.integers(0, 1 << 16, size=spec.scale).tolist()
    return modp.matvec(m, x)


class SpecStream:
    """The seeded job stream, issued in whole rounds.

    A round holds one new spec per shape, in the fixed order of
    ``SERVICE_SHAPES``, and ``SERVICE_REPEATS`` exact repeats at the
    fixed positions ``SERVICE_REPEAT_AT``.  The seed sets which shape of
    each pair starts on which ``num_queries``, and which earlier spec
    each repeat copies.  A new spec's cache key was never seen in the run.  A
    repeat copies a warm-up spec or a spec from two or more rounds back,
    so its first copy has finished and the repeat is a cache hit.
    """

    def __init__(self, rng: np.random.Generator, warmups: List[JobSpec]) -> None:
        self.rng = rng
        self.warmups = list(warmups)
        self.phase: Dict[tuple, int] = {}
        for pair in SERVICE_PAIRS:
            flip = int(rng.integers(2))
            self.phase[pair[0]], self.phase[pair[1]] = flip, 1 - flip
        self.specs: List[JobSpec] = []
        self.repeat: List[bool] = []
        self.issued = 0
        self.lock = threading.Lock()

    def _new_spec(self, shape: tuple, rnd: int) -> JobSpec:
        kind, workload, scale = shape
        defaults = protocols.get(kind).default_config()
        config = {
            "num_queries": SERVICE_QUERIES[(self.phase[shape] + rnd) % 2] + 2 * (rnd // 8),
            "cap_height": defaults["cap_height"] - (rnd // 2) % 2,
            "proof_of_work_bits": defaults["proof_of_work_bits"] + (rnd // 4) % 2,
        }
        return JobSpec(workload=workload, kind=kind, scale=scale, config=config)

    def _fill_round(self) -> None:
        start = len(self.specs)
        rnd = start // SERVICE_ROUND
        pool = self.warmups + self.specs[: max(0, start - SERVICE_ROUND)]
        new = iter(self._new_spec(shape, rnd) for shape in SERVICE_SHAPES)
        for pos in range(SERVICE_ROUND):
            if pos in SERVICE_REPEAT_AT:
                self.specs.append(pool[int(self.rng.integers(len(pool)))])
                self.repeat.append(True)
            else:
                self.specs.append(next(new))
                self.repeat.append(False)

    def take(self, deadline: float):
        """The next ``(index, spec)``, or ``None`` once the deadline has
        passed at a round boundary after the first
        ``SERVICE_SIZE_ROUNDS`` rounds."""
        with self.lock:
            if (
                self.issued % SERVICE_ROUND == 0
                and self.issued >= SERVICE_SIZE_ROUNDS * SERVICE_ROUND
                and time.perf_counter() >= deadline
            ):
                return None
            if self.issued == len(self.specs):
                self._fill_round()
            index = self.issued
            self.issued += 1
            return index, self.specs[index]


class ServiceMix:
    """Two clients against an in-process proving service."""

    name = "service-mix"
    clients = 2
    workers = 1
    #: Merkle leaves of the largest STARK shape in the mix (2^9 rows, blowup 2).
    lde_size = 512 << 1
    #: Specs proved again in-process after the measured phase.
    digest_samples = 2

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.service: Optional[ProvingService] = None
        # One default-config job per prover plan shape (kind, rows): the
        # other shape of each pair shares its plan.
        self.warmup_specs = [
            JobSpec(workload=wl, kind=kind, scale=scale) for (kind, wl, scale), _ in SERVICE_PAIRS
        ]
        self.warm_envelopes: Dict[str, bytes] = {}
        self.stream: Optional[SpecStream] = None
        #: cache key -> the first envelope seen for it.
        self.seen: Dict[str, bytes] = {}
        self.verifier_setups: Dict[str, Any] = {}
        #: (round, spec) of the measured phase, in order of first envelope.
        self.proved: List[tuple] = []
        self.stats0: Dict[str, Any] = {}
        self.job_rows: List[Dict[str, float]] = []

    def setup_once(self) -> float:
        """Start a fresh service and run the warm-up jobs."""
        if self.service is not None:
            self.service.close()
        t0 = time.perf_counter()
        service = ProvingService(workers=self.workers).start()
        ids = [service.submit(spec) for spec in self.warmup_specs]
        envelopes = [service.result(job_id, timeout_s=300).envelope for job_id in ids]
        elapsed = time.perf_counter() - t0
        self.service = service
        self.warm_envelopes = {s.cache_key: e for s, e in zip(self.warmup_specs, envelopes)}
        return elapsed

    # checks --------------------------------------------------------------

    def verifier_setup(self, spec: JobSpec):
        """The verifier's setup for a spec (built once, never timed)."""
        hit = self.verifier_setups.get(spec.cache_key)
        if hit is None:
            system = protocols.get(spec.kind)
            hit = system.setup(by_name(spec.workload), spec.scale, system.make_config(spec.config))
            self.verifier_setups[spec.cache_key] = hit
        return hit

    def decode(self, payload: bytes, kind: str):
        """Blob -> proof."""
        return proof_from_blob(payload, expected_protocol=kind)[1]

    def check_envelope(self, spec: JobSpec, envelope: bytes, tally: Optional[Tally], trace: bool):
        """Verify an envelope locally and check its public outputs.

        Returns the decoded proof and its decode-plus-verify time; the
        decode (and, traced, re-encode) samples go to ``tally``.
        """
        kind, workload, payload = read_result_envelope(envelope)
        if kind != f"{spec.kind}-proof" or workload != spec.workload:
            raise CheckFailed(f"envelope is {kind}/{workload}, expected {spec.kind}/{spec.workload}")
        psetup = self.verifier_setup(spec)
        t0 = time.perf_counter()
        proof = self.decode(payload, spec.kind)
        t1 = time.perf_counter()
        protocols.get(spec.kind).verify(psetup, proof)
        t2 = time.perf_counter()
        got = [int(v) for v in proof.public_inputs]
        if got != service_publics(spec):
            raise CheckFailed(f"{spec.canonical()}: public outputs {got} are wrong")
        if tally is not None:
            tally.add(decode_s=t1 - t0)
            if trace:
                t3 = time.perf_counter()
                proof_to_blob(spec.kind, proof)
                tally.add(encode_s=time.perf_counter() - t3)
        return proof, t2 - t0

    def warmup(self, tally: Tally, trace: bool) -> None:
        """Check the final set-up's warm-up envelopes (untimed), with the
        off-by-one rejection on one STARK and one Plonk proof."""
        tampered = set()
        for spec in self.warmup_specs:
            def one(spec=spec):
                envelope = self.warm_envelopes[spec.cache_key]
                proof, _ = self.check_envelope(spec, envelope, None, trace)
                self.seen[spec.cache_key] = envelope
                if spec.kind not in tampered:
                    tampered.add(spec.kind)
                    error = StarkError if spec.kind == "stark" else PlonkError
                    system = protocols.get(spec.kind)
                    _rejects_off_by_one(system, self.verifier_setup(spec), proof, error)

            tally.attempt(one)
        self.stream = SpecStream(self.rng, self.warmup_specs)
        self.stats0 = self.service.stats()

    def _request(self, tally: Tally, index: int, spec: JobSpec, trace: bool) -> None:
        service = self.service
        t0 = time.perf_counter()
        job_id = service.submit(spec)
        result = service.result(job_id, timeout_s=300)
        latency = time.perf_counter() - t0
        envelope = result.envelope
        key = spec.cache_key
        with tally.lock:
            first = self.seen.get(key)
            if first is None:
                self.seen[key] = envelope
                self.proved.append((index // SERVICE_ROUND, spec))
        if first is not None and envelope != first:
            raise CheckFailed(f"repeated spec {spec.canonical()} returned different bytes")
        tally.add(latency_s=latency)
        if index < SERVICE_SIZE_ROUNDS * SERVICE_ROUND and not self.stream.repeat[index]:
            tally.add(proof_bytes=len(read_result_envelope(envelope)[2]))
        if result.cache_hit:
            tally.add(cache_hit=1.0)
            return
        stats = service.job(job_id)
        roots = [Span.from_dict(d) for d in result.spans if d["name"].startswith("prove:")]
        if len(roots) != 1:
            raise CheckFailed(f"job {job_id} carries {len(roots)} prove spans")
        prove_s = roots[0].elapsed_s
        tally.add(
            prove_s=prove_s,
            queue_wait_s=stats["queue_wait_s"],
            run_s=stats["run_time_s"],
            overhead_s=stats["run_time_s"] - prove_s,
        )
        if trace:
            with tally.lock:
                tally.layer_rows.append(layers.prove_breakdown(roots[0]))
                tally.spans.append(roots[0])

    def client_loop(self, tally: Tally, deadline: float, trace: bool) -> None:
        """Closed loop over the shared seeded stream."""
        while True:
            item = self.stream.take(deadline)
            if item is None:
                return
            tally.attempt(lambda: self._request(tally, *item, trace))

    def after(self, tally: Tally, trace: bool) -> None:
        """Verify every distinct envelope of the measured phase, then
        prove sampled specs in-process; their digests must match.

        Verification waits until here so the clients' pure-Python
        verifiers do not compete with the service for the CPUs and the
        interpreter lock while it is being measured.  One ``verify_s``
        sample is a round's mean verify time: every round asks for the
        same work, while single verify times cluster by shape with a gap
        near their median that would make a per-proof median jump.
        """
        per_round: Dict[int, List[float]] = {}
        for rnd, spec in self.proved:
            def one(rnd=rnd, spec=spec):
                _, seconds = self.check_envelope(spec, self.seen[spec.cache_key], tally, trace)
                per_round.setdefault(rnd, []).append(seconds)

            tally.check(one)
        for times in per_round.values():
            tally.add(verify_s=statistics.fmean(times))
        for _, spec in self.proved[: self.digest_samples]:
            def one(spec=spec):
                system = protocols.get(spec.kind)
                _, _, payload = read_result_envelope(self.seen[spec.cache_key])
                served = self.decode(payload, spec.kind)
                local = system.prove(
                    system.setup(by_name(spec.workload), spec.scale, system.make_config(spec.config))
                )
                if system.digest(local) != system.digest(served):
                    raise CheckFailed(f"{spec.canonical()}: served proof differs from in-process proof")

            tally.check(one)

    def service_rows(self, tally: Tally) -> Dict[str, float]:
        """Service-layer numbers of the measured phase."""
        s0, s1 = self.stats0, self.service.stats()
        requests = len(tally.samples.get("latency_s", []))
        hits = s1["cache_completions"] - s0["cache_completions"]
        batches = s1["batches_dispatched"] - s0["batches_dispatched"]
        jobs = s1["jobs_dispatched"] - s0["jobs_dispatched"]
        return {
            "service.queue_wait_s": tally.median("queue_wait_s") or 0.0,
            "service.run_s": tally.median("run_s") or 0.0,
            "service.overhead_s": tally.median("overhead_s") or 0.0,
            "service.cache_hits": hits,
            "service.cache_hit_ratio": hits / requests if requests else 0.0,
            "service.batches": batches,
            "service.jobs_per_batch": jobs / batches if batches else 0.0,
            "service.retries": s1["retried"] - s0["retried"],
            "service.worker_restarts": s1["worker_restarts"],
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


WORKLOADS = {cls.name: cls for cls in (PlonkMvm, StarkMvmSharded, ServiceMix)}
