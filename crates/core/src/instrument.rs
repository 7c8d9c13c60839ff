//! The instrumentation bundle threaded through the issue loops.
//!
//! Everything observability-related a run can carry is one
//! [`Instruments`] value — [`crate::Run::instruments`] takes it, as do the
//! peak searches — so an addition extends one struct instead of
//! multiplying entry points:
//!
//! * a [`TraceSink`] for the simulated-time detail log, from which every
//!   windowed view of the run (`mlperf_analysis::heatmap`) is derived,
//! * an optional externally owned [`MetricsRegistry`], letting the caller
//!   share one registry between the LoadGen loop and device engines
//!   instead of the run creating a private one.

use mlperf_trace::{MetricsRegistry, NoopSink, TraceSink};

/// Observability hooks for one run. Cheap to construct; all fields borrow.
#[derive(Clone, Copy)]
pub struct Instruments<'a> {
    /// Destination for simulated-time trace events ([`NoopSink`] = off).
    pub(crate) sink: &'a dyn TraceSink,
    /// Optional shared metrics registry. When `None`, the run creates its
    /// own registry if (and only if) the sink is enabled.
    pub(crate) metrics: Option<&'a MetricsRegistry>,
}

impl std::fmt::Debug for Instruments<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instruments")
            .field("sink_enabled", &self.sink.enabled())
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl Default for Instruments<'static> {
    fn default() -> Self {
        Self::none()
    }
}

impl<'a> Instruments<'a> {
    /// No instrumentation: noop sink, no shared registry.
    pub fn none() -> Instruments<'static> {
        Instruments {
            sink: &NoopSink,
            metrics: None,
        }
    }

    /// Tracing only: a sink, and with it a run-private metrics registry.
    pub fn traced(sink: &'a dyn TraceSink) -> Self {
        Instruments {
            sink,
            metrics: None,
        }
    }

    /// Uses a caller-owned metrics registry instead of a run-private one.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &'a MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Whether the run needs a metrics registry at all: one was supplied,
    /// or the sink wants events.
    pub(crate) fn wants_metrics(&self) -> bool {
        self.metrics.is_some() || self.sink.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_inert() {
        let i = Instruments::default();
        assert!(!i.sink.enabled());
        assert!(i.metrics.is_none());
        assert!(!i.wants_metrics());
    }

    #[test]
    fn builders_arm_metrics_creation() {
        let registry = MetricsRegistry::new();
        assert!(Instruments::none().with_metrics(&registry).wants_metrics());
        let sink = mlperf_trace::RingBufferSink::unbounded();
        assert!(Instruments::traced(&sink).wants_metrics());
    }

    #[test]
    fn debug_is_informative() {
        let text = format!("{:?}", Instruments::default());
        assert!(text.contains("sink_enabled: false"), "{text}");
    }
}
