"""Zero-boundary Gaussian field on the square grid: exact samplers, the
killed-walk Green's function, harmonic decomposition over boxes, multiscale
starred partitions with shift covers, level sets and exceedance probes."""

from .decompose import harmonic_at, harmonic_measure
from .green import GreenOperator, dirichlet_extend, interior_laplacian
from .grid import (
    Box,
    CoverConstructionError,
    NestedPartitions,
    Schedule,
    ShiftCover,
    core_region,
    counting_check,
    flat_partition,
    nested_partitions,
    shift_cover,
    uniform_schedule,
)
from .levels import (
    GAMMA,
    CoarseTailProbe,
    DaviaudEstimate,
    DaviaudPoint,
    coarse_exceedance_probe,
    estimate_daviaud_exponent,
    expected_level_count,
    level_threshold,
    rounding_flip_bound,
)
from .sample import (
    sample_box,
    sample_box_bytes,
    sample_fields,
    sample_fields_bytes,
    sample_interiors_float32,
    sample_interiors_float32_bytes,
    sample_sites,
    sample_sites_bytes,
    spectral_scale,
)

__all__ = [
    "Box",
    "CoarseTailProbe",
    "CoverConstructionError",
    "DaviaudEstimate",
    "DaviaudPoint",
    "GAMMA",
    "GreenOperator",
    "NestedPartitions",
    "Schedule",
    "ShiftCover",
    "coarse_exceedance_probe",
    "core_region",
    "counting_check",
    "dirichlet_extend",
    "estimate_daviaud_exponent",
    "expected_level_count",
    "flat_partition",
    "harmonic_at",
    "harmonic_measure",
    "interior_laplacian",
    "level_threshold",
    "nested_partitions",
    "rounding_flip_bound",
    "sample_box",
    "sample_box_bytes",
    "sample_fields",
    "sample_fields_bytes",
    "sample_interiors_float32",
    "sample_interiors_float32_bytes",
    "sample_sites",
    "sample_sites_bytes",
    "shift_cover",
    "spectral_scale",
    "uniform_schedule",
]
