"""Exception hierarchy for the cpes package."""


class CpesError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CpesError):
    pass


class EmptyInput(CpesError):
    pass


class IndexOutOfRange(CpesError):
    pass


class SelectionOutOfRange(CpesError):
    pass


class InfeasibleConfig(CpesError):
    pass


class InsufficientClasses(CpesError):
    pass


class InsufficientRecords(CpesError):
    pass


class NonFiniteGradient(CpesError):
    pass


class UnknownRecord(CpesError):
    pass


class StoreFormatError(CpesError):
    """Base for binary-format violations detected while reading files."""


class BadMagic(StoreFormatError):
    pass


class UnsupportedVersion(StoreFormatError):
    pass


class TruncatedFile(StoreFormatError):
    pass


class NonFiniteValue(StoreFormatError):
    pass


class TrailingBytes(StoreFormatError):
    pass


class InvalidRecord(StoreFormatError):
    """A record over 2 GiB, a label >= class_count, a ground-truth index >= M
    or a repeated record id."""
