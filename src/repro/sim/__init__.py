"""Trace-replay simulation of a traffic placement.

The paper's LDR controller *predicts* whether a placement will multiplex
without queueing; this subpackage provides the ground truth: replay the
aggregates' measured rate samples through the placement, evolve per-link
queues interval by interval, and report the transient queueing delays that
actually materialize.  Used by the validation bench and the LDR tests to
close the loop on the controller's promises.
"""

from repro.sim.replay import ReplayResult, replay_placement
from repro.sim.timeline import MinuteReport, TimelineSimulation

__all__ = [
    "ReplayResult",
    "replay_placement",
    "MinuteReport",
    "TimelineSimulation",
]
