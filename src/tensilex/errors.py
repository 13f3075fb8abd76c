"""Exception hierarchy shared across the package."""


class TensilexError(Exception):
    """Base class for all package errors."""


class MissingResource(TensilexError):
    """A required lexicon file or input file does not exist."""


class ParseError(TensilexError):
    """A data file line could not be parsed.

    Carries the 1-based line (or row) number and the file's path when known,
    and reads ``PATH: line N: message`` with both.
    """

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line, self.path = line, path


class DuplicateTerm(ParseError):
    """The same pattern appears twice within one term list."""


class UnknownTerm(TensilexError):
    """A pattern was referenced that is not present in the lexicon."""


class StrengthRangeError(ParseError):
    """A strength value lies outside the 1..5 magnitude range."""


class WriteError(TensilexError):
    """A lexicon or corpus was refused before writing: it would not read back.
    An operating-system failure while writing propagates as ``OSError``."""


class EmptyCorpus(TensilexError):
    """An operation requiring annotated examples received none."""


class EmptySeries(TensilexError):
    """A metric was asked for on a zero-length paired series."""


class InsufficientData(TensilexError):
    """Agreement cannot be computed: no item has two codeable values."""


class LengthError(TensilexError):
    """Two paired sequences differ in length."""


class TooSmall(TensilexError, ValueError):
    """A count is below its minimum: folds, repetitions, corpus size, or an
    optimizer setting."""


class DegenerateLabels(TensilexError):
    """Feature selection needs at least two distinct labels."""
