"""Exact multiple-cover invariants of the local rational curve with normal
bundle O(-1) + O(-1), by enumeration of torus-fixed configurations."""

from .exact import (
    AlphaMonomial,
    FactoredRational,
    alpha_flip,
    format_factored,
    parse_factored,
)
from .fixedpoints import (
    Chain,
    Configuration,
    Contact,
    Family,
    FixedMapKind,
    MonoH,
    MonoK,
    UnsupportedDegreeError,
    enumerate_chains,
    enumerate_configurations,
    source_tangent_weight,
    v4_weights,
)
from .contributions import (
    DegenerateNodeError,
    FactorBundle,
    base_contribution,
    end_contribution,
    node_smoothing,
    psi_integral,
    ruled_contribution,
)
from .localize import (
    ConfigurationReport,
    configuration_contribution,
    multiple_cover_invariant,
    side_sum,
)

__version__ = "1.0.0"
