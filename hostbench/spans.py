"""Host-clock spans around the calls into each layer of pimcrypt.

Each layer's public function is wrapped at the module attribute its caller
looks it up by, so the program itself is unchanged. A span records its
name, parent span, start and end on time.perf_counter; spans are kept in
flat arrays until the operation ends. The program is single-threaded and
synchronous, so a span's busy time is its duration and its self time is
that duration minus its direct children's; no layer waits.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array

# (span name, module, attribute the caller looks up, bytes-processed hook)
TARGETS = (
    ("cli.main", "pimcrypt.cli", "main", None),
    ("orchestrator.run_job", "pimcrypt.cli", "run_job", None),
    ("orchestrator.plan_job", "pimcrypt.orchestrator", "plan_job", None),
    ("orchestrator.plan_job", "pimcrypt.bench", "plan_job", None),
    ("orchestrator.partition_aes", "pimcrypt.orchestrator", "partition_aes", None),
    ("orchestrator.partition_sha", "pimcrypt.orchestrator", "partition_sha", None),
    ("orchestrator.validate_timeline", "pimcrypt.bench", "validate_timeline", None),
    ("aes.encrypt_buffer", "pimcrypt.orchestrator", "aes128_encrypt_buffer",
     lambda buffer, *_: len(buffer)),
    ("sha256.many", "pimcrypt.orchestrator", "sha256_many",
     lambda messages, *_: sum(map(len, messages))),
    ("machine.simulate_dpu_kernel", "pimcrypt.machine", "simulate_dpu_kernel", None),
    ("machine.simulate_rank_kernel", "pimcrypt.machine", "simulate_rank_kernel", None),
    ("machine.simulate_transfer", "pimcrypt.machine", "simulate_transfer", None),
    ("machine.phase_intervals", "pimcrypt.machine", "ExecutionTimeline.phase_intervals", None),
    ("machine.busy_time", "pimcrypt.machine", "busy_time", None),
    ("bench.run_experiment", "pimcrypt.bench", "run_experiment", None),
    ("bench.emit_csv", "pimcrypt.bench", "emit_csv", None),
)
SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))

# Spans each workload must produce; a refactor that moves a call shows up
# here as a missing span rather than as a silent zero.
_PLANNER = ("cli.main", "orchestrator.plan_job", "machine.simulate_dpu_kernel",
            "machine.simulate_rank_kernel", "machine.simulate_transfer",
            "machine.phase_intervals", "machine.busy_time")
EXPECTED = {
    "encrypt-bulk": _PLANNER + ("orchestrator.run_job", "orchestrator.partition_aes",
                                "aes.encrypt_buffer"),
    "hash-mixed": _PLANNER + ("orchestrator.run_job", "orchestrator.partition_sha",
                              "sha256.many"),
    "paper-sweep": _PLANNER + ("orchestrator.partition_aes", "orchestrator.partition_sha",
                               "orchestrator.validate_timeline", "bench.run_experiment",
                               "bench.emit_csv"),
}


def _resolve(module: str, attr: str) -> tuple[object, str]:
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self) -> None:
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.bytes = dict.fromkeys(SPAN_NAMES, 0)
        self.unresolved: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, size):
        name_id = SPAN_NAMES.index(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            if size is not None:
                self.bytes[name] += size(*args)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for name, module, attr, size in TARGETS:
            try:
                owner, leaf = _resolve(module, attr)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.unresolved.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name, size))
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def summary(self, speedup: float = 1.0) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy and self seconds times speedup, and bytes."""
        n = len(SPAN_NAMES)
        calls, busy, child = [0] * n, [0.0] * n, [0.0] * len(self.names)
        for i, (nid, parent) in enumerate(zip(self.names, self.parents)):
            duration = self.ends[i] - self.starts[i]
            calls[nid] += 1
            busy[nid] += duration
            if parent >= 0:
                child[parent] += duration
        covered = [0.0] * n
        for i, nid in enumerate(self.names):
            covered[nid] += child[i]
        return {
            name: {"calls": calls[k], "busy_s": busy[k] * speedup,
                   "self_s": (busy[k] - covered[k]) * speedup, "bytes": self.bytes[name]}
            for k, name in enumerate(SPAN_NAMES)
        }


def layer_metrics(summaries: list[dict], untraced_s: list[float],
                  traced_s: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced run: counts per operation, medians of times."""

    def med(name: str, key: str) -> float:
        return statistics.median(s[name][key] for s in summaries)

    def rate(name: str) -> float:
        busy = med(name, "busy_s")
        return med(name, "bytes") / busy / 1e6 if busy else 0.0

    first = summaries[0]
    return {
        "aes.encrypt_buffer.calls": first["aes.encrypt_buffer"]["calls"],
        "aes.encrypt_buffer.busy_s": med("aes.encrypt_buffer", "busy_s"),
        "aes.MBps": rate("aes.encrypt_buffer"),
        "sha256.many.calls": first["sha256.many"]["calls"],
        "sha256.many.busy_s": med("sha256.many", "busy_s"),
        "sha256.MBps": rate("sha256.many"),
        "orchestrator.run_job.self_s": med("orchestrator.run_job", "self_s"),
        "orchestrator.plan_job.calls": first["orchestrator.plan_job"]["calls"],
        "orchestrator.plan_job.busy_s": med("orchestrator.plan_job", "busy_s"),
        "orchestrator.plan_job.self_s": med("orchestrator.plan_job", "self_s"),
        "orchestrator.partition_sha.busy_s": med("orchestrator.partition_sha", "busy_s"),
        "orchestrator.partition_aes.busy_s": med("orchestrator.partition_aes", "busy_s"),
        "orchestrator.validate_timeline.busy_s":
            med("orchestrator.validate_timeline", "busy_s"),
        "machine.simulate_dpu_kernel.calls": first["machine.simulate_dpu_kernel"]["calls"],
        "machine.simulate_dpu_kernel.busy_s": med("machine.simulate_dpu_kernel", "busy_s"),
        "machine.simulate_rank_kernel.calls": first["machine.simulate_rank_kernel"]["calls"],
        "machine.simulate_rank_kernel.self_s": med("machine.simulate_rank_kernel", "self_s"),
        "machine.simulate_transfer.busy_s": med("machine.simulate_transfer", "busy_s"),
        "machine.phase_intervals.busy_s": med("machine.phase_intervals", "busy_s"),
        "machine.busy_time.busy_s": med("machine.busy_time", "busy_s"),
        "bench.run_experiment.self_s": med("bench.run_experiment", "self_s"),
        "bench.emit_csv.busy_s": med("bench.emit_csv", "busy_s"),
        "cli.main.self_s": med("cli.main", "self_s"),
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(untraced_s),
    }


def missing_spans(workload: str, summaries: list[dict]) -> list[str]:
    """Expected spans that did not fire in every traced operation."""
    return [name for name in EXPECTED[workload]
            if any(s[name]["calls"] == 0 for s in summaries)]


def unstable_counts(summaries: list[dict]) -> list[str]:
    """Span names whose call count differs between traced operations."""
    return [name for name in SPAN_NAMES
            if len({s[name]["calls"] for s in summaries}) > 1]
