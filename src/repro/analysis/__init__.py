"""Dataset analytics: property distributions (Figs 7/10), ablation (Fig 17)."""

from . import breakdown, properties, variants
from .breakdown import FIG17_LABELS, AblationResult, run_ablation
from .properties import (MappingRateReport, MappingRateSink,
                         PropertyAccumulator, PropertyReport, analyze)
from .variants import (QualityAccessReport, VariantCall, call_variants,
                       host_quality_headroom, pileup,
                       quality_block_access)

__all__ = ["breakdown", "properties", "variants", "FIG17_LABELS",
           "AblationResult", "run_ablation", "MappingRateReport",
           "MappingRateSink", "PropertyAccumulator", "PropertyReport",
           "analyze", "QualityAccessReport",
           "VariantCall", "call_variants", "host_quality_headroom",
           "pileup", "quality_block_access"]
