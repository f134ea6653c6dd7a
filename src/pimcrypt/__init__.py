"""Near-memory AES-128/SHA-256 kernels, machine model and scaling harness.

The exported names load their submodule on first access (PEP 562), so a
command pays only for the modules it uses.
"""


def _import_numpy_without_blas_pool() -> None:
    """Import numpy with one OpenBLAS thread, unless the caller decides.

    Loading OpenBLAS starts a pool of one worker thread per extra core, which
    is about half of `import numpy` on a 2-core host and more on a larger
    one. pimcrypt calls no BLAS routine (tests/test_machine.py pins that):
    its kernels are gathers and element-wise ufuncs. So when numpy is not
    loaded yet and no thread variable is set, numpy loads with one thread.
    The variable is removed again, so later code and child processes see
    the caller's environment. A caller who imports numpy first or sets a
    variable gets numpy's own behaviour.
    """
    import os
    import sys

    if "numpy" in sys.modules or any(
        name in os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    ):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


# Before any submodule: every entry point (the console script, python -m
# pimcrypt, import pimcrypt.<module>) runs this file first.
_import_numpy_without_blas_pool()

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "aes": ("aes128_encrypt_block", "aes128_encrypt_buffer", "key_expansion"),
    "bench": (
        "ExperimentResult",
        "KernelCharacterization",
        "characterize_kernel",
        "emit_csv",
        "run_experiment",
        "run_host_baseline",
    ),
    "errors": (
        "AlignmentError",
        "CapacityError",
        "MramAccessError",
        "PimcryptError",
        "ProfileError",
    ),
    "machine": (
        "Config",
        "ExecutionTimeline",
        "ExperimentSpec",
        "HostProfile",
        "KernelCost",
        "MachineProfile",
        "Strategy",
        "bundled_default_config",
        "effective_ipc",
        "load_config",
        "mram_access_cycles",
        "simulate_dpu_kernel",
        "simulate_rank_kernel",
        "simulate_transfer",
    ),
    "orchestrator": (
        "AesWorkload",
        "JobResult",
        "PartitionPlan",
        "ShaWorkload",
        "partition_aes",
        "partition_sha",
        "plan_job",
        "run_job",
        "validate_timeline",
    ),
    "sha256": ("sha256_digest", "sha256_many", "sha256_pad"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
