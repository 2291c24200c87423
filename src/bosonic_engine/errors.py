"""Error types shared across the package."""


class PhysicalityError(RuntimeError):
    """A trajectory point violated the symplectic uncertainty relation."""


class CycleConsistencyError(RuntimeError):
    """A stroke ledger broke the first law or failed to close the cycle."""
