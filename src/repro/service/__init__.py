"""Push-driven live monitoring on top of the incremental fold core.

The pull engine (:mod:`repro.core.streaming`) asks a feed for slabs; this
package inverts the arrow: per-tower window feeds *push*
:class:`~repro.data.window.StreamWindow` arrivals — bursty, out-of-order,
duplicated — at a :class:`~repro.service.session.MonitoringSession`, whose
:class:`~repro.core.incremental.IncrementalScorer` updates live per-stream
scores on every arrival and reassembles the batch engine's exact inputs for
the final verdicts. Delivery order is contractually invisible: the same
window set yields bitwise-identical final scores however it arrived.
"""

from repro.service.alerts import AlertSink, AuditRecord
from repro.service.feeds import arrival_schedule, simulated_feed
from repro.service.session import (
    SESSION_BACKPRESSURE_ENV_VAR,
    IngestionService,
    MonitoringSession,
    ReferenceFrame,
    frame_key,
    serve_windows,
    session_backpressure,
)

__all__ = [
    "AlertSink",
    "AuditRecord",
    "arrival_schedule",
    "simulated_feed",
    "SESSION_BACKPRESSURE_ENV_VAR",
    "IngestionService",
    "MonitoringSession",
    "ReferenceFrame",
    "frame_key",
    "serve_windows",
    "session_backpressure",
]
