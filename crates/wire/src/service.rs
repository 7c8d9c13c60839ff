//! What a serving daemon exports: the [`WireService`] trait.
//!
//! The daemon side of the wire is deliberately wider than
//! [`RealtimeSut`]: a networked SUT can answer, answer with an error, or —
//! if it is cheating — not answer at all. [`WireService::serve`] expresses
//! all three, and every [`RealtimeSut`] is a `WireService` for free via the
//! blanket impl (answers map from [`IssueOutcome`]).
//!
//! [`IssueOutcome`]: mlperf_loadgen::sut::IssueOutcome

use mlperf_loadgen::query::{Query, SampleCompletion};
use mlperf_loadgen::sut::{IssueOutcome, RealtimeSut};

/// A served query's resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedReply {
    /// Per-sample completions (echoing the query's sample ids).
    pub samples: Vec<SampleCompletion>,
    /// Whether the query resolved as an error/drop.
    pub error: bool,
}

impl ServedReply {
    /// An errored reply echoing `query`'s sample ids with empty payloads,
    /// so the client's protocol checks still hold.
    pub fn errored(query: &Query) -> Self {
        ServedReply {
            samples: query
                .samples
                .iter()
                .map(|s| SampleCompletion {
                    sample_id: s.id,
                    payload: Default::default(),
                })
                .collect(),
            error: true,
        }
    }
}

/// Something a wire daemon can export.
///
/// Implementations must be internally synchronized: the daemon invokes
/// `serve` concurrently — from each closed-loop session's connection
/// thread (`wire-conn-*`: single-stream, multistream, offline) and from
/// each server-scenario session's worker pool (`wire-worker-*`). A `serve`
/// that panics costs the query it was handed, answered as errored, and
/// nothing else; the thread carries on calling it.
pub trait WireService: Send + Sync {
    /// Name reported in the handshake (lands in the client's run results).
    fn name(&self) -> &str;

    /// Resolves one query, blocking until done.
    ///
    /// `Some` replies travel back as completion frames (errored or not);
    /// `None` means the service produced *nothing* — the frame is silently
    /// dropped. Only deliberately cheating services return `None`; the
    /// TEST06 completeness audit exists to catch them.
    fn serve(&self, query: &Query) -> Option<ServedReply>;

    /// Called at each handshake: a new connection is a new run, so
    /// stateful services (simulated device queues) clear between runs.
    fn reset(&self) {}
}

impl<T: RealtimeSut + ?Sized> WireService for T {
    fn name(&self) -> &str {
        RealtimeSut::name(self)
    }

    fn serve(&self, query: &Query) -> Option<ServedReply> {
        match self.issue_outcome(query) {
            IssueOutcome::Completed(samples) => Some(ServedReply {
                samples,
                error: false,
            }),
            IssueOutcome::Errored => Some(ServedReply::errored(query)),
            // An honest realtime SUT losing a query has no one downstream
            // to tell; the daemon surfaces it as an errored reply rather
            // than silence (silence is reserved for cheats).
            IssueOutcome::Vanished => Some(ServedReply::errored(query)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_loadgen::query::QuerySample;
    use mlperf_loadgen::sut::SleepSut;
    use mlperf_loadgen::time::Nanos;

    #[test]
    fn realtime_suts_are_services() {
        let sut = SleepSut::new("s", std::time::Duration::ZERO);
        let service: &dyn WireService = &sut;
        let query = Query {
            id: 3,
            samples: vec![QuerySample { id: 30, index: 0 }],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        };
        let reply = service.serve(&query).expect("realtime SUTs always reply");
        assert!(!reply.error);
        assert_eq!(reply.samples.len(), 1);
        assert_eq!(service.name(), "s");
    }

    #[test]
    fn errored_reply_echoes_sample_ids() {
        let query = Query {
            id: 9,
            samples: vec![
                QuerySample { id: 90, index: 1 },
                QuerySample { id: 91, index: 2 },
            ],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        };
        let reply = ServedReply::errored(&query);
        assert!(reply.error);
        assert_eq!(
            reply
                .samples
                .iter()
                .map(|s| s.sample_id)
                .collect::<Vec<_>>(),
            vec![90, 91]
        );
    }
}
