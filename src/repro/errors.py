"""Exception hierarchy for the :mod:`repro` library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """A simulated process raised an unhandled exception."""


class CryptoError(ReproError):
    """Signing, verification, or key-management failure."""


class LedgerError(ReproError):
    """Hash-chain or database integrity violation."""


class CRDTError(ReproError):
    """Misuse of a CRDT API (wrong type, bad path, bad clock)."""


class PolicyError(ReproError):
    """An endorsement policy is malformed or cannot be satisfied."""


class ContractError(ReproError):
    """Smart-contract execution failure."""


class TransactionError(ReproError):
    """A transaction failed validation or assembly."""


class ConfigError(ReproError):
    """An experiment or network configuration is invalid."""


class SweepError(ReproError):
    """One or more points of a benchmark sweep failed to run."""
