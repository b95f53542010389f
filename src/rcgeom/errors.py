"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class MetricError(GeometryError):
    """Metric failed a structural requirement (symmetry, invertibility)."""


class SignatureError(MetricError):
    """Metric eigenvalue signs are not one positive, three negative."""


class ParseError(GeometryError):
    """Expression source could not be parsed."""

    def __init__(self, message, offset=None, expected=()):
        self.offset = offset
        self.expected = frozenset(expected)
        loc = f" at offset {offset}" if offset is not None else ""
        exp = f" (expected one of: {', '.join(sorted(self.expected))})" if expected else ""
        super().__init__(f"{message}{loc}{exp}")


class UnknownIdentifierError(ParseError):
    """Identifier is neither a chart coordinate nor a declared parameter."""


class EvalError(GeometryError):
    """Expression evaluation failed: division by zero, log or sqrt of a
    non-positive argument, overflow, or a non-finite intermediate."""


class DomainError(GeometryError):
    """Point lies outside the chart domain of the model."""


class SpacetimeFormatError(GeometryError):
    """A spacetime definition file is malformed."""

    def __init__(self, message, origin="<string>", line=None):
        self.origin = origin
        self.line = line
        loc = f"{origin}:{line}: " if line is not None else f"{origin}: "
        super().__init__(loc + message)


class ConsistencyError(GeometryError):
    """Two internally equivalent computation routes disagreed beyond
    tolerance; signals an implementation or convention bug, not bad data."""
