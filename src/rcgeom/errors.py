"""Exception types shared across the package."""

import numpy as np


def point_text(x):
    """A chart point for an error note, as a tuple of plain floats:
    ``(0.0, 4.0, 1.2, 0.5)``."""
    return repr(tuple(float(v) for v in x))


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


def batch_then_rows(batch, rows, row):
    """``batch()``, or, when it raises a GeometryError, ``[row(r) for r in rows]``.

    A batch meets the errors of all its points at once, and in its own
    order; its rows, run in order, meet them as a point-by-point run does,
    so the first bad row raises (or records) its own error.
    """
    try:
        return batch()
    except GeometryError:
        return [row(r) for r in rows]


def _quiet_float_errors(fn):
    """``fn`` with numpy's overflow and invalid-operation warnings off.

    A field that overflows leaves inf or NaN behind, which a finiteness check
    then turns into an ``EvalError`` naming the field and the point; numpy's
    warning would only repeat it.  The entry points that evaluate fields (a
    suite run, a worldline integration, a model's grid validation) run under
    it: one setting per call, not one per evaluation.
    """
    return np.errstate(over="ignore", invalid="ignore")(fn)
