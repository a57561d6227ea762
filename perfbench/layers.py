"""Per-layer numbers: span self times, counter reads and kernel timings.

Everything here reads the program from outside: prover stage times come
from the ``repro.tracing`` spans the provers already emit, operation
counts from the counter deltas those spans carry, and the kernel rows
(Poseidon, NTT, field multiply) from timing calls into the public
kernel functions.

A stage's *self* time is its span's duration minus the time of its
nested stage spans, so no interval is counted twice.  ``shard:*`` spans
are the exception: they are kernel work a stage handed to the shard
pool while it waited, so they stay inside the stage that dispatched
them (their busy time is reported on its own as
``parallel.shard_busy_s``).
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Iterable, List

import numpy as np

from repro import ntt
from repro.field import gl64
from repro.hashing import WIDTH, permute
from repro.metrics import counting

#: Stage span name -> per-layer metric, keyed by prover protocol.
_STAGE_METRIC = {
    "witness": "plonk.witness_s",
    "permutation": "plonk.permutation_s",
    "quotient:intt": "pcs.quotient_intt_s",
    "open": "pcs.open_s",
    "fri:combine": "fri.combine_s",
    "fri:fold": "fri.fold_s",
    "fri:grind": "fri.grind_s",
    "fri:query": "fri.query_s",
}

#: Per-proof stage metrics, in report order.
STAGE_METRICS = (
    "pcs.commit_s",
    "pcs.quotient_intt_s",
    "pcs.open_s",
    "fri.combine_s",
    "fri.fold_s",
    "fri.grind_s",
    "fri.query_s",
    "plonk.witness_s",
    "plonk.permutation_s",
    "plonk.constraints_s",
    "stark.constraints_s",
    "prove.unattributed_s",
)


def _is_shard(span) -> bool:
    return span.name.startswith("shard:")


def self_time(span) -> float:
    """Span duration minus its nested stage spans (shard work stays in)."""
    nested = sum(c.elapsed_s for c in span.children if not _is_shard(c))
    return max(0.0, span.elapsed_s - nested)


def _stage_spans(span) -> Iterable:
    for child in span.children:
        if not _is_shard(child):
            yield child
            yield from _stage_spans(child)


def _shard_spans(span) -> Iterable:
    for s in span.walk():
        if _is_shard(s):
            yield s


def prove_breakdown(root) -> Dict[str, float]:
    """Per-layer numbers of one ``prove:*`` root span.

    Stage self times sum with ``prove.unattributed_s`` to the root's
    wall time; the counts are the root's counter deltas, which include
    the shard workers' work (the pool merges it back).
    """
    protocol = root.name.split(":", 1)[1]
    out = {name: 0.0 for name in STAGE_METRICS}
    for s in _stage_spans(root):
        if s.name.startswith("commit:"):
            key = "pcs.commit_s"
        elif s.name == "constraints":
            key = f"{protocol}.constraints_s"
        else:
            key = _STAGE_METRIC.get(s.name)
        if key is not None and key in out:
            out[key] += self_time(s)
    attributed = sum(v for k, v in out.items() if k != "prove.unattributed_s")
    out["prove.unattributed_s"] = max(0.0, root.elapsed_s - attributed)
    grind = sum(
        s.counters.get("challenger_permutations", 0)
        for s in _stage_spans(root)
        if s.name == "fri:grind"
    )
    c = root.counters
    out["hashing.sponge_permutations"] = c.get("sponge_permutations", 0)
    out["hashing.challenger_permutations"] = (
        c.get("challenger_permutations", 0) - grind
    )
    out["hashing.grind_permutations"] = grind
    out["ntt.butterflies"] = c.get("ntt_butterflies", 0)
    out["ntt.transforms"] = c.get("ntt_transforms", 0)
    out["parallel.shard_busy_s"] = sum(s.elapsed_s for s in _shard_spans(root))
    return out


def median_rows(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over a list of per-proof dicts."""
    keys = rows[0].keys() if rows else ()
    return {k: float(statistics.median(r[k] for r in rows)) for k in keys}


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_rows(rng: np.random.Generator, merkle_width: int, lde_size: int) -> Dict[str, float]:
    """Time the field, NTT and Poseidon kernels at a workload's sizes.

    ``merkle_width`` is the number of leaves hashed per Merkle level-0
    batch (the LDE length), ``lde_size`` the LDE vector length.
    """
    a = gl64.random((lde_size,), rng)
    b = gl64.random((lde_size,), rng)
    mul_s = _median_time(lambda: gl64.mul(a, b), 21)

    with counting() as c:
        ntt.ntt(a)
    butterflies = c.ntt_butterflies
    ntt_s = _median_time(lambda: ntt.ntt(a), 11)

    states = gl64.random((merkle_width, WIDTH), rng)
    perm_s = _median_time(lambda: permute(states), 5)
    return {
        "field.mul_ns": mul_s / lde_size * 1e9,
        "ntt.butterfly_ns": ntt_s / butterflies * 1e9,
        "hashing.permute_us": perm_s / merkle_width * 1e6,
    }
