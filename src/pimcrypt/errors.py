"""Exception types shared across the package."""


class PimcryptError(Exception):
    """Base class for all package-specific errors."""


class AlignmentError(PimcryptError, ValueError):
    """A byte length or offset violates an alignment constraint."""


class MramAccessError(PimcryptError, ValueError):
    """An MRAM access is misaligned or exceeds the maximum access size."""


class CapacityError(PimcryptError, ValueError):
    """A job needs more DPUs than are usable, or more MRAM than a DPU has."""


class ProfileError(PimcryptError, ValueError):
    """A machine profile or config document violates its invariants."""
