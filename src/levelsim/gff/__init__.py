"""Zero-boundary Gaussian field on the square grid: exact samplers, the
killed-walk Green's function, harmonic decomposition over boxes, multiscale
starred partitions with shift covers, level sets and exceedance probes."""

from .decompose import (
    HarmonicDecomposition,
    coarse_increments,
    coarse_values,
    decompose_box,
    harmonic_at,
    harmonic_measure,
)
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
    LevelSet,
    ProbeRefusedError,
    coarse_exceedance_probe,
    estimate_daviaud_exponent,
    expected_level_count,
    level_set,
    level_threshold,
)
from .sample import sample_fields, spectral_scale

__all__ = [
    "Box",
    "CoarseTailProbe",
    "CoverConstructionError",
    "DaviaudEstimate",
    "DaviaudPoint",
    "GAMMA",
    "GreenOperator",
    "HarmonicDecomposition",
    "LevelSet",
    "NestedPartitions",
    "ProbeRefusedError",
    "Schedule",
    "ShiftCover",
    "coarse_exceedance_probe",
    "coarse_increments",
    "coarse_values",
    "core_region",
    "counting_check",
    "decompose_box",
    "dirichlet_extend",
    "estimate_daviaud_exponent",
    "expected_level_count",
    "flat_partition",
    "harmonic_at",
    "harmonic_measure",
    "interior_laplacian",
    "level_set",
    "level_threshold",
    "nested_partitions",
    "sample_fields",
    "shift_cover",
    "spectral_scale",
    "uniform_schedule",
]
