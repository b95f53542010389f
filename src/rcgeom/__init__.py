"""Numerical verification engine for a torsionful spacetime geometry whose
contorsion is built from the electromagnetic potential."""

__version__ = "0.1.0"

from .catalog import (  # noqa: F401
    CATALOG_NAMES,
    DustModel,
    PhysicalConstants,
    SpacetimeModel,
    catalog_get,
    load_spacetime_file,
    parse_spacetime_text,
)
from .dynamics import (  # noqa: F401
    IntegratorConfig,
    WorldlineState,
    integrate_worldline,
    normalize_velocity,
)
from .engine import GeometrySnapshot  # noqa: F401
from .errors import (  # noqa: F401
    ConsistencyError,
    DomainError,
    EvalError,
    GeometryError,
    MetricError,
    ParseError,
    SignatureError,
    SpacetimeFormatError,
    UnknownIdentifierError,
)
from .expr import ChartSpec  # noqa: F401
from .fields import ExprField, finite_difference_derivatives  # noqa: F401
from .checks import gauge_invariance_suite  # noqa: F401
from .gauge import transform_potential  # noqa: F401
from .tensor import MetricAtPoint  # noqa: F401
