"""lplab: Littlewood-Paley quasinorms of sampled periodic fields.

The package computes homogeneous smoothness quasinorms of functions sampled
on periodic grids three independent ways: frequency-side dyadic band sums,
iterated-difference integrals, and mean-difference maximal functions, and
ships a verification harness that checks the analytically forced relations
between them.
"""

from .errors import (
    BandOutOfRange,
    BandRangeEmpty,
    ConfigParseError,
    DimensionTooLow,
    EmptyDecomposition,
    GeometryViolated,
    GridMismatch,
    InvalidAxis,
    InvalidExponent,
    IoError,
    LplabError,
    MisalignedStep,
    NonFiniteSample,
    QuadratureTooCoarse,
    RangeTooNarrow,
    ShapeMismatch,
    UnknownTheoremId,
    UnresolvableSpec,
    UnresolvedEnergy,
)
from .fields import (
    GridSpec,
    SampledField,
    SpectralField,
    TestFunctionSpec,
    derivative,
    lp_norm,
    read_field,
    resolvable_band_range,
    sample_family,
    to_sampled,
    to_spectral,
    translate,
    write_field,
)
from .bands import (
    BandDecomposition,
    DyadicBandSystem,
    band_profile,
    band_project,
    build_band_system,
    decompose,
    dyadic_profile,
    reconstruct,
)
from .differences import (
    difference_coefficients,
    iterated_difference,
)
from .maximal import (
    annulus_mean_max,
    hardy_littlewood_max,
    peetre_max,
    sphere_mean_max,
    unit_sphere_nodes,
)
from .quasinorms import (
    CHARACTERIZATION_IDS,
    MAXIMAL_VARIANTS,
    QuadratureSpec,
    QuasinormResult,
    SpaceParams,
    Thresholds,
    WindowReport,
    axis_quasinorm,
    default_quadrature,
    gagliardo_seminorm,
    hypothesis_window,
    lp_band_quasinorm,
    maximal_quasinorm,
    maximal_quasinorm_set,
    quasinorm,
    thresholds,
)
from .verify import (
    DerivativeRatioReport,
    DivergenceReport,
    EquivalenceReport,
    KernelDecayReport,
    ScalingReport,
    SliceSupportReport,
    band_limited_profile,
    default_corpus,
    directional_window,
    divergence_probe,
    equivalence_experiment,
    kernel_decay_probe,
    ppn_probe,
    rescaled_dilate,
    scaling_experiment,
    slice_support_check,
)

__version__ = "0.1.0"
