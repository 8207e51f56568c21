"""Direct sampling reconstruction for 2D inverse elastic scattering.

Layers, bottom up: geometry (parameterized boundaries and quadrature),
elastic (medium, plane waves, Green tensor and tractions), forward (Nystrom
solver and MSR synthesis), indicators (sampling functionals), aperture
(limited-data machinery), harness (config grammar, presets, the pipeline
stages and the one artifact writer) and cli, a thin shell over the harness.
"""

from .geometry import (
    BoundaryCondition,
    BoundaryCurve,
    BoundaryKind,
    Scene,
    boundary_quadrature,
    curve_point,
    curve_tangent,
    scene_from_string,
)
from .elastic import (
    Medium,
    PlaneWave,
    PointSource,
    WaveMode,
    greens_tensor,
    perp,
    point_source_farfield,
)
from .forward import (
    MSRMatrix,
    MsrDimensionError,
    MsrFormatError,
    MsrVersionError,
    NumericError,
    add_noise,
    assemble_system,
    direction_grid,
    load_msr,
    save_msr,
    synthesize_msr,
)
from .indicators import (
    IndicatorField,
    IndicatorKind,
    SamplingGrid,
    indicator_fields,
    indicator_forms,
    indicator_values_at,
)
from .aperture import (
    MaskedMSR,
    antipode,
    apply_mask,
    limited_indicator,
    reciprocity_fill,
)
from .harness import (
    ExperimentConfig,
    RunManifest,
    build_preset,
    emit_config,
    parse_arcs,
    parse_config,
    parse_grid,
    parse_q,
    preset_names,
    render_heatmap,
    run_experiment,
    run_preset,
)

__version__ = "0.1.0"
