"""Exception types shared across the package."""


class SeqSynthError(Exception):
    """Base class for all library errors."""


class ConfigError(SeqSynthError):
    """Invalid configuration value or combination."""


class DataFormatError(SeqSynthError):
    """Malformed or inconsistent input data."""

