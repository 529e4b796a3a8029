"""Discrete-event timing simulation (the 'prototype' measurements)."""

from .closedloop import FioConfig, run_closed_loop
from .openloop import replay_trace
from .system import TimedSystem, TimingReport

__all__ = [
    "TimedSystem",
    "TimingReport",
    "replay_trace",
    "FioConfig",
    "run_closed_loop",
]
