"""Experiment harness: paper reference values, per-table drivers with
shape checks, table rendering, the run-everything runner, and its
parallel/cached execution machinery (pool, simjobs, cache)."""

from .cache import ResultCache, stable_hash
from .experiments import EXPERIMENTS, ExperimentResult, run_experiment
from .runner import load_result, resolve_ids, run_all, save_result
from .simjobs import SimConfig, run_sim_configs
from .tables import format_value, render_checks, render_table

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "run_experiment",
    "run_all",
    "save_result",
    "load_result",
    "resolve_ids",
    "ResultCache",
    "stable_hash",
    "SimConfig",
    "run_sim_configs",
    "render_table",
    "render_checks",
    "format_value",
]
