"""Tracing: the raw signature-stream capture format behind
``repro.replay``, and the per-cycle views rendered from a captured
stream — VCD waveforms of the replayed monitor and pipeline text
traces."""

from .pipeline_trace import PipelineTracer, TraceLine
from .stream_trace import (
    TRACE_SCHEMA_VERSION,
    CoreSample,
    CycleSample,
    StreamRecorder,
    StreamTrace,
    TraceMeta,
)
from .vcd import VcdWriter, monitor_vcd

__all__ = [
    "CoreSample",
    "CycleSample",
    "PipelineTracer",
    "StreamRecorder",
    "StreamTrace",
    "TRACE_SCHEMA_VERSION",
    "TraceLine",
    "TraceMeta",
    "VcdWriter",
    "monitor_vcd",
]
