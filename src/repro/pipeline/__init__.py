"""End-to-end system model + the overlapped streaming executor."""

from . import accelerators, configs, endtoend, executor, stages
from .accelerators import (AnalysisAccelerator, ISFModel, gem,
                           measure_filter_fraction, software_mapper)
from .configs import (PREP_ORDER, PREP_TOOLS, DatasetModel,
                      dataset_from_paper, paper_dataset_models)
from .endtoend import (MAX_SIM_BATCHES, EndToEndResult, SystemConfig,
                       batches_for_dataset, build_stages, evaluate,
                       geometric_mean)
from .executor import (BACKENDS, CollectSink, ExecutorStats, FastqSink,
                       Sink, StreamExecutor)
from .stages import PipelineResult, Stage, simulate_pipeline

__all__ = [
    "accelerators", "configs", "endtoend", "executor", "stages",
    "AnalysisAccelerator", "ISFModel", "gem", "measure_filter_fraction",
    "software_mapper", "PREP_ORDER", "PREP_TOOLS", "DatasetModel",
    "dataset_from_paper", "paper_dataset_models", "MAX_SIM_BATCHES",
    "EndToEndResult", "SystemConfig", "batches_for_dataset",
    "build_stages", "evaluate", "geometric_mean",
    "BACKENDS", "CollectSink", "ExecutorStats",
    "FastqSink", "Sink", "StreamExecutor", "PipelineResult",
    "Stage", "simulate_pipeline",
]
