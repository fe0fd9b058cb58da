#pragma once
// analyze: unreached-ok (ROADMAP item 1: the run's report exports its timeline)
// Chrome trace_event exporter: dumps every registry's recorded timeline as
// complete ("X") events, one trace thread per rank, loadable in
// chrome://tracing or https://ui.perfetto.dev.
//
// Timelines are opt-in (Registry::set_timeline_enabled) because they grow
// with the number of phase entries; the phase tree alone cannot reconstruct
// per-instance timing.

#include <string>

namespace telemetry {

/// JSON string in Chrome trace_event format covering every registered
/// registry's timeline. tid is the registry's bound world rank (unbound
/// registries are numbered from 1000 in registration order).
std::string chrome_trace_json();

/// Write chrome_trace_json() to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace telemetry
