"""The benchmark's own checks: each injected fault must fail a request.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.  Workload sizes are shrunk so every test proves only tiny
instances.
"""

from __future__ import annotations

import dataclasses

import pytest

from perfbench import modp
from perfbench.workloads import (
    SERVICE_REPEATS,
    SERVICE_ROUND,
    SERVICE_SHAPES,
    SERVICE_SIZE_ROUNDS,
    PlonkMvm,
    SpecStream,
    StarkMvmSharded,
    Tally,
    service_publics,
)
from repro.service import JobSpec
from repro.workloads import fibonacci, mvm


class SmallPlonk(PlonkMvm):
    dim = 2


class SmallStark(StarkMvmSharded):
    log_rows = 5


def _warmup(workload) -> Tally:
    tally = Tally()
    try:
        workload.setup_once()
        workload.warmup(tally, trace=False)
    finally:
        workload.close()
    return tally


@pytest.mark.parametrize("cls", [SmallPlonk, SmallStark])
def test_honest_warmup_passes_every_check(cls):
    tally = _warmup(cls(seed=3))
    assert (tally.attempted, tally.failed) == (1, 0), tally.errors


@pytest.mark.parametrize("cls", [SmallPlonk, SmallStark])
def test_wrong_expected_output_fails_the_request(cls, monkeypatch):
    honest = cls.expected_publics

    def off_by_one(self, *operands):
        out = honest(self, *operands)
        return out[:-1] + [(out[-1] + 1) % modp.P]

    monkeypatch.setattr(cls, "expected_publics", off_by_one)
    tally = _warmup(cls(seed=3))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "public outputs" in tally.errors[0]


@pytest.mark.parametrize("cls,error", [(SmallPlonk, "PlonkError"), (SmallStark, "StarkError")])
def test_tampered_public_input_fails_the_request(cls, error, monkeypatch):
    honest = cls.decode

    def tampered(self, blob):
        proof = honest(self, blob)
        publics = list(proof.public_inputs)
        publics[0] = (publics[0] + 1) % modp.P
        return dataclasses.replace(proof, public_inputs=publics)

    monkeypatch.setattr(cls, "decode", tampered)
    tally = _warmup(cls(seed=3))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.errors[0].startswith(error)


def test_serial_sharded_mismatch_fails_the_request(monkeypatch):
    def other_trace(self, psetup):
        other, _ = self.new_request()  # a proof of a different trace
        return self.system.prove(other)

    monkeypatch.setattr(SmallStark, "serial_prove", other_trace)
    tally = _warmup(SmallStark(seed=3))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "serial" in tally.errors[0]


def test_modp_against_known_values():
    assert modp.fibonacci(10) == 55
    assert modp.fibonacci(200) == fibonacci.fibonacci_mod_p(200)
    assert modp.dot([modp.P - 1], [modp.P - 1]) == 1
    assert modp.matvec([[2, 3], [4, 5]], [7, 11]) == [47, 83]


@pytest.mark.parametrize("scale", [2, 3])
def test_service_publics_match_the_mvm_builder(scale):
    _, _, publics = mvm.build_circuit(scale)
    spec = JobSpec(workload="MVM", kind="plonk", scale=scale)
    assert service_publics(spec) == publics
    _, _, air_publics = mvm.build_air(scale + 4)
    spec = JobSpec(workload="MVM", kind="stark", scale=scale + 4)
    assert service_publics(spec) == [int(v) for v in air_publics]


def test_spec_stream_rounds():
    import numpy as np

    warmups = [JobSpec(workload=wl, kind=k, scale=s) for k, wl, s in SERVICE_SHAPES]
    stream = SpecStream(np.random.default_rng(5), warmups)
    rounds = 4
    taken = [stream.take(deadline=float("inf"))[1] for _ in range(rounds * SERVICE_ROUND)]
    assert sum(stream.repeat) == rounds * SERVICE_REPEATS
    fresh = [s for s, rep in zip(taken, stream.repeat) if not rep]
    assert len({s.cache_key for s in fresh}) == len(fresh)
    assert not {s.cache_key for s in fresh} & {s.cache_key for s in warmups}
    for i, (spec, rep) in enumerate(zip(taken, stream.repeat)):
        if rep:
            start = i - i % SERVICE_ROUND
            earlier = warmups + taken[: max(0, start - SERVICE_ROUND)]
            assert spec in earlier
    # Same seed, same stream.
    again = SpecStream(np.random.default_rng(5), warmups)
    assert [again.take(float("inf"))[1] for _ in range(len(taken))] == taken


def test_sized_rounds_do_not_depend_on_seed_or_deadline():
    """``proof_bytes`` covers the same specs' shapes and configs on every seed,
    and a run that is already past its deadline still issues those rounds."""
    import numpy as np

    warmups = [JobSpec(workload=wl, kind=k, scale=s) for k, wl, s in SERVICE_SHAPES]
    sized = SERVICE_SIZE_ROUNDS * SERVICE_ROUND

    def sized_specs(seed):
        stream = SpecStream(np.random.default_rng(seed), warmups)
        taken = []
        while (item := stream.take(deadline=0.0)) is not None:
            taken.append(item[1])
        assert len(taken) == sized
        return sorted(s.canonical() for s, rep in zip(taken, stream.repeat) if not rep)

    assert sized_specs(1) == sized_specs(2) == sized_specs(3)


def test_reap_children_waits_for_orphaned_grandchildren():
    """A run leaves no process behind, not even one orphaned by its parent."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    script = (
        "import os, sys, time\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import run\n"
        "run.adopt_orphans()\n"
        "r, w = os.pipe()\n"
        "if os.fork() == 0:\n"
        "    pid = os.fork()\n"
        "    if pid == 0:\n"
        "        time.sleep(1.0)\n"
        "        os._exit(0)\n"
        "    os.write(w, str(pid).encode())\n"
        "    os._exit(0)\n"
        "grandchild = int(os.read(r, 32))\n"
        "run.reap_children()\n"
        "print(len(run._child_pids()), os.path.exists(f'/proc/{grandchild}'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=root, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "False"]
