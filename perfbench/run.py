"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plonk-mvm --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` runs the same workload with
each measured proof also proved under ``repro.tracing.trace()``, prints
every per-layer metric, and writes ``<out>/<workload>-seed<n>.layers.json``
and a Chrome trace ``<out>/<workload>-seed<n>.trace.json``.

The line before the last is ``run <json>``: the run record (seed, git
commit, effective CPUs, platform, Python and NumPy versions) with the
sample counts and any request errors.  The last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = {"plonk-mvm": 7, "stark-mvm-sharded": 9, "service-mix": 3}


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write(f"perfbench: no repro sources or BENCHMARK.json under {ROOT}\n")
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    # Plans use built-in defaults, never a tuning cache from the home
    # directory (the file named here does not exist).
    os.environ["REPRO_TUNING_CACHE"] = str(HERE / "out" / "no-tuning-cache.json")
    # NumPy asks for transparent huge pages on large arrays by default; whether
    # the kernel grants them depends on the host's free-memory fragmentation,
    # which made peak RSS jump between ~115 and ~162 MB on plonk-mvm from one
    # run to the next.  Read before NumPy is first imported.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def git_commit() -> str | None:
    """HEAD's commit id read from ``.git`` (``None`` outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_record(args) -> dict:
    """What a result row needs to be reproduced and compared."""
    import numpy

    from repro.parallel import effective_cpus

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "effective_cpus": effective_cpus(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus each live worker process it started."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A shard worker forked before the coordinator's multiprocessing
    resource tracker exists starts a tracker of its own on its first
    shared-memory attach; when the worker exits that tracker is
    orphaned.  As a child subreaper this process inherits such orphans,
    so :func:`reap_children` can wait for them.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _child_pids() -> list:
    """Pids whose parent is this process, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_children(timeout_s: float = 30.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Live worker processes are terminated, the resource tracker is told
    to stop (it finishes its clean-up first), and then every remaining
    child -- adopted orphans included -- is waited for; any still
    running after ``timeout_s`` is killed.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)  # noqa: SLF001
    if stop is not None:
        stop()
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.05)


def run_clients(loop, count: int) -> None:
    """Run ``count`` closed-loop clients (threads beyond the first)."""
    if count == 1:
        loop()
        return
    errors = []

    def body():
        try:
            loop()
        except BaseException as exc:  # re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=body, name=f"client-{i}") for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def measure(args, spec: dict) -> tuple:
    """Set up, warm up, run the measured phase.

    Returns ``(result object, run-record details, tally)``.
    """
    import numpy as np

    from perfbench import layers
    from perfbench.workloads import WORKLOADS, Tally

    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    try:
        setups = []
        for _ in range(SETUP_REPS[args.workload]):
            setups.append(workload.setup_once())
            gc.collect()  # free the last set-up's garbage now, not at a random later point
        workload.warmup(tally, bool(args.trace))
        t0 = time.perf_counter()
        deadline = t0 + args.seconds
        run_clients(lambda: workload.client_loop(tally, deadline, bool(args.trace)), workload.clients)
        elapsed = time.perf_counter() - t0
        rss = peak_rss_mb()
        completed = len(tally.samples.get("latency_s", []))
        workload.after(tally, bool(args.trace))
        service_rows = workload.service_rows(tally)
    finally:
        workload.close()

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if not args.trace:
        values = {
            "setup_s": statistics.median(setups),
            "prove_s": tally.median("prove_s"),
            "verify_s": tally.median("verify_s"),
            "latency_p50_s": tally.median("latency_s"),
            "proofs_per_s": completed / elapsed,
            "proof_bytes": tally.median("proof_bytes"),
            "peak_rss_mb": rss,
        }
    else:
        values = dict(layers.median_rows(tally.layer_rows)) if tally.layer_rows else {}
        rng = np.random.default_rng(args.seed)
        values.update(layers.kernel_rows(rng, workload.lde_size, workload.lde_size))
        values["serialize.encode_s"] = tally.median("encode_s")
        values["serialize.decode_s"] = tally.median("decode_s")
        traced, untraced = tally.median("prove_traced_s"), tally.median("prove_s")
        if traced is not None:
            values["tracing.overhead"] = traced / untraced
        if tally.samples.get("speedup"):
            values["parallel.speedup"] = tally.median("speedup")
        values.update(service_rows)

    missing = [n for n in names if n in values and values[n] is None]
    not_applicable = [n for n in names if n not in values]
    metrics = {}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    for n in names:
        v = values.get(n)
        metrics[n] = {"value": float(v) if v is not None else 0.0, "unit": units[n]}
    result = {
        "correct": not missing and tally.attempted > tally.failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    details = {
        "setup_samples_s": setups,
        "measured_s": elapsed,
        "samples": {k: len(v) for k, v in tally.samples.items()},
        "missing": missing,
        "not_applicable": not_applicable,
        "errors": tally.errors,
    }
    return result, details, tally


def main(argv=None) -> int:
    _bootstrap()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out", help="traced-run output directory")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    record = run_record(args)
    adopt_orphans()
    try:
        result, details, tally = measure(args, spec)
    finally:
        reap_children()
    record.update(details)
    if args.trace:
        from repro import tracing

        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        layers_path = args.out / f"{stem}.layers.json"
        layers_path.write_text(
            json.dumps({"record": record, "metrics": result["metrics"]}, indent=2) + "\n"
        )
        if tally.spans:
            tracing.write_spans_trace(tally.spans, args.out / f"{stem}.trace.json", **record)
    print("run " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
