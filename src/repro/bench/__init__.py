"""Benchmark harness: workloads, metrics, and the experiment runner
that regenerates every table and figure of the paper's evaluation.

Entry point: :func:`repro.bench.runner.run_experiment` with an
:class:`repro.bench.config.ExperimentConfig`; the panel builders and
the one executor that runs them live in :mod:`repro.bench.experiments`,
registered by :mod:`repro.report.catalog`.
"""

from repro.bench.config import ExperimentConfig
from repro.bench.metrics import ExperimentResult, LatencyStats
from repro.bench.runner import run_experiment

__all__ = ["ExperimentConfig", "ExperimentResult", "LatencyStats", "run_experiment"]
