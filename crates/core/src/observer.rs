//! One handle over every observation sink of a run.
//!
//! An [`Observer`] bundles the five sinks the stack reports into — the
//! trace [`Recorder`], the live-metrics [`Telemetry`] registry, the
//! convergence [`Journal`], the [`FlightRecorder`] and the span/memory
//! [`Profiler`] — so a caller wires all of them through one value:
//! [`crate::SearchOptions::observer`], `IlsOptions::observer`,
//! [`crate::GpuTwoOpt::with_observer`] and `SolverBuilder::observe`.
//! Every sink is detached by default; a detached sink costs one branch
//! per observation site and never changes what the search computes.

use tsp_prof::Profiler;
use tsp_replay::FlightRecorder;
use tsp_telemetry::{Journal, Telemetry};
use tsp_trace::Recorder;

/// The observation sinks of a run. Clones share the sinks' storage, so
/// cloning is cheap and every clone reports into the same place.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    /// Structured trace events: device kernels and transfers, stream
    /// schedules, descents, sweeps and ILS iterations.
    pub recorder: Recorder,
    /// Live metrics: the `tsp_gpu_*`, `tsp_pool_*`, `tsp_search_*` and
    /// `tsp_ils_*` families.
    pub telemetry: Telemetry,
    /// One record per ILS milestone (initial descent, each iteration,
    /// restarts, final summary).
    pub journal: Journal,
    /// Every search decision a replay needs: start digest, applied
    /// moves, RNG checkpoints, kicks and acceptance verdicts.
    pub flight: FlightRecorder,
    /// Structural spans (`solve`/`ils`/`iteration`/`sweep`/…), device
    /// leaves (`h2d`, `kernel:*`, `d2h`) and the device-memory ledger.
    pub prof: Profiler,
}

impl Observer {
    /// Every sink detached (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Use this trace recorder.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Use this metrics-registry handle (share it with a
    /// `tsp_telemetry::MetricsServer` to scrape a live run).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Use this convergence journal.
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }

    /// Use this flight recorder.
    pub fn with_flight(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// Use this span/memory profiler.
    pub fn with_prof(mut self, prof: Profiler) -> Self {
        self.prof = prof;
        self
    }

    /// A clone whose journal and flight recorder stamp `chain` on every
    /// entry (multistart chain `chain`).
    pub fn for_chain(&self, chain: u64) -> Observer {
        Observer {
            journal: self.journal.for_chain(chain),
            flight: self.flight.for_chain(chain),
            ..self.clone()
        }
    }

    /// A clone whose journal stamps `run_id` on every record.
    pub fn with_run_id(&self, run_id: impl Into<String>) -> Observer {
        Observer {
            journal: self.journal.with_run_id(run_id),
            ..self.clone()
        }
    }

    /// A clone whose journal stamps the distributed `trace_id` on every
    /// record (a recording packaged from this run inherits it).
    pub fn with_trace_id(&self, trace_id: impl Into<String>) -> Observer {
        Observer {
            journal: self.journal.with_trace_id(trace_id),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_replay::ReplayEvent;

    #[test]
    fn stamps_reach_the_journal_and_the_flight_recorder_together() {
        let base = Observer::none()
            .with_journal(Journal::attached())
            .with_flight(FlightRecorder::attached());
        let chain = base.with_trace_id("trace").with_run_id("run").for_chain(3);
        assert_eq!(chain.journal.chain(), 3);
        assert_eq!(chain.journal.run_id(), "run");
        assert_eq!(chain.journal.trace_id(), "trace");
        assert_eq!(chain.flight.chain(), 3);
        // The stamped clone reports into the base observer's storage.
        chain.flight.record_with(|| ReplayEvent::Restart {
            iteration: 1,
            tour_hash: 7,
        });
        assert_eq!(base.flight.chain_events(3).len(), 1);
        assert_eq!(base.journal.chain(), 0);
    }
}
