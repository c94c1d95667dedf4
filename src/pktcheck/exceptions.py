"""Exception types shared across the framework."""


class PktCheckError(Exception):
    """Base class for all framework errors."""


class ParseError(PktCheckError):
    """Raised when a header cannot be decoded from packet bytes."""


class EmitError(PktCheckError):
    """Raised when a header value violates its invariants on serialization."""


class RegistryError(PktCheckError):
    """Raised when a registry's codecs' chain rules do not check as it is
    built, on a lookup it cannot answer, and on an empty order."""


class ChainOrderError(PktCheckError):
    """A packet's header chain does not line up with an expected order.

    ``index`` is the position of the offending element; ``expected`` and
    ``found`` name the header types involved (``found`` may be None when
    the packet ran out of headers).

    Raised where a caller is meant to catch it: ``verify_order`` refusing
    an order at elaboration, and the reference walks ``parse_chain`` and
    ``match_chain``. A generated contract phase builds the same error for
    a packet its walk refuses and returns its order violation instead.
    """

    def __init__(self, index, expected, found, reason):
        self.index = index
        self.expected = expected
        self.found = found
        self.reason = reason
        super().__init__(reason)


class ContractSyntaxError(PktCheckError):
    """Contract text failed to parse or validate."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class ElaborationError(PktCheckError):
    """Contract elaboration failed: bad order, failed static assertion,
    or a dangling reference."""


class ConfigError(PktCheckError):
    """Invalid harness configuration."""


class PcapError(PktCheckError):
    """Malformed or unsupported pcap input."""
