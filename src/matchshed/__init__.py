"""Shared-pattern sequential matching over event streams with
latency-bounded, cost-guided state reduction."""

from .model import (ConsumptionPolicy, DataElement, MatchRecord, Pattern,
                    PatternStep, SelectionPolicy, StepKind, Window,
                    WindowKind)
from .parser import PatternSyntaxError, format_pattern, parse_pattern
from .plan import ExecutionPlan, PlanError, compile_pattern, merge
from .engine import Engine, LatencyMonitor, golden_run, measure
from .psd import ClusterIndex, assess
from .cost import CostVectors, Sketch, attr_key, estimate, sketch_update
from .selector import budgets, select, trigger
from .runner import Metrics, RunConfig, recall, run

__all__ = [
    "ConsumptionPolicy", "DataElement", "MatchRecord", "Pattern",
    "PatternStep", "SelectionPolicy", "StepKind", "Window", "WindowKind",
    "PatternSyntaxError", "format_pattern", "parse_pattern",
    "ExecutionPlan", "PlanError", "compile_pattern", "merge",
    "Engine", "LatencyMonitor", "golden_run", "measure",
    "ClusterIndex", "assess",
    "CostVectors", "Sketch", "attr_key", "estimate", "sketch_update",
    "budgets", "select", "trigger",
    "Metrics", "RunConfig", "recall", "run",
]

__version__ = "0.1.0"
