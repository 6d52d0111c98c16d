//! Record → replay through the [`Solver`] facade.
//!
//! A solver observed with a [`FlightRecorder`] ([`SolverBuilder::observe`])
//! logs every decision of the run into it; [`Solver::recording`] packages
//! the log with a header (instance digest, device-spec digest, full
//! solver configuration, chain 0's start tour) into a portable
//! [`Recording`]; [`Solver::replay`] re-executes a recording on an
//! identically-configured solver and bisects the event streams to the
//! first divergent event — clean when the run reproduced bit-for-bit.
//!
//! [`SolverBuilder::observe`]: crate::SolverBuilder::observe

use crate::solver::{EngineKind, Solution, Solver, SolverBuilder};
use crate::TspError;
use tsp_core::{Instance, Tour};
use tsp_replay::{
    compare_streams, digest_instance, FlightRecorder, Header, Recording, ReplayReport,
};

/// FNV-1a over a byte string — folds the config pairs into one u64 for
/// the run id (not a cryptographic digest; collisions only blur the
/// *correlation* id, never replay compatibility, which compares the
/// pairs verbatim).
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A recorded run must be free of wall-clock dependence: a real-time
/// budget truncates the loop at a nondeterministic iteration.
fn reject_wall_clock(cfg: &SolverBuilder) -> Result<(), TspError> {
    if cfg
        .ils
        .as_ref()
        .is_some_and(|o| o.max_host_seconds.is_some())
    {
        return Err(TspError::Replay(
            "max_host_seconds is wall-clock-dependent and cannot be recorded \
             or replayed deterministically; bound the run with max_iterations \
             or max_modeled_seconds instead"
                .into(),
        ));
    }
    if cfg.cancel.is_armed() {
        return Err(TspError::Replay(
            "an armed cancel token makes the run wall-clock-dependent and \
             cannot be recorded or replayed deterministically; bound the run \
             with max_iterations or max_modeled_seconds instead"
                .into(),
        ));
    }
    Ok(())
}

impl Solver {
    /// The full solver configuration as ordered key/value pairs — the
    /// `config` block of a recording header. Replay compares these
    /// verbatim, so every knob that affects the search is included.
    fn config_pairs(&self) -> Vec<(String, String)> {
        let cfg = &self.cfg;
        let mut pairs = vec![
            ("engine".into(), format!("{:?}", cfg.engine)),
            ("device".into(), cfg.spec.name.clone()),
            ("devices".into(), cfg.devices.to_string()),
            ("streams".into(), cfg.streams.to_string()),
            ("restarts".into(), cfg.restarts.to_string()),
            ("strategy".into(), format!("{:?}", cfg.strategy)),
            (
                "launch".into(),
                match cfg.launch {
                    Some((g, b)) => format!("{g}x{b}"),
                    None => "default".into(),
                },
            ),
            (
                "overlapped_transfers".into(),
                cfg.overlapped_transfers.to_string(),
            ),
            ("construction".into(), format!("{:?}", cfg.construction)),
            ("max_sweeps".into(), format!("{:?}", cfg.search.max_sweeps)),
        ];
        match &cfg.ils {
            None => pairs.push(("ils".into(), "off".into())),
            Some(o) => {
                pairs.push(("ils".into(), "on".into()));
                pairs.push((
                    "ils.max_iterations".into(),
                    format!("{:?}", o.max_iterations),
                ));
                pairs.push((
                    "ils.max_modeled_seconds".into(),
                    format!("{:?}", o.max_modeled_seconds),
                ));
                pairs.push(("ils.seed".into(), o.seed.to_string()));
                pairs.push(("ils.perturbation".into(), format!("{:?}", o.perturbation)));
                pairs.push(("ils.acceptance".into(), format!("{:?}", o.acceptance)));
                pairs.push((
                    "ils.stagnation_restart".into(),
                    format!("{:?}", o.stagnation_restart),
                ));
            }
        }
        pairs
    }

    /// The deterministic run id of `inst` under this configuration: a
    /// pure function of the instance digest, the device-spec digest
    /// and every solver knob (the same `config_pairs` the replay
    /// guards compare). Two runs share
    /// an id exactly when they are bit-for-bit the same search, so the
    /// id safely correlates the journal, recording, trace and profiler
    /// artifacts of one run across files and processes.
    pub fn run_id(&self, inst: &Instance) -> String {
        let cfg_digest = fnv1a(
            self.config_pairs()
                .iter()
                .flat_map(|(k, v)| {
                    // `=`/`;` separators keep ("a", "b=c") and
                    // ("a=b", "c") from folding identically.
                    k.bytes()
                        .chain([b'='])
                        .chain(v.bytes())
                        .chain([b';'])
                        .collect::<Vec<u8>>()
                })
                .collect::<Vec<u8>>(),
        );
        tsp_prof::run_id_from_parts(&[digest_instance(inst), self.spec_digest(), cfg_digest])
    }

    /// Package the attached flight recorder's log into a portable
    /// [`Recording`] for `inst` — call after [`Solver::run`]. Errors
    /// when the observer carries no flight recorder
    /// ([`SolverBuilder::observe`]), when nothing was recorded, or when
    /// the configuration is wall-clock dependent.
    ///
    /// [`SolverBuilder::observe`]: crate::SolverBuilder::observe
    pub fn recording(&self, inst: &Instance) -> Result<Recording, TspError> {
        reject_wall_clock(&self.cfg)?;
        let flight = &self.cfg.observer.flight;
        if !flight.is_enabled() {
            return Err(TspError::Replay(
                "no flight recorder attached; build the solver with \
                 .observe(Observer::none().with_flight(FlightRecorder::attached()))"
                    .into(),
            ));
        }
        if flight.is_empty() {
            return Err(TspError::Replay(
                "the flight recorder is empty; run the solver before packaging a recording".into(),
            ));
        }
        let header = Header {
            run_id: self.run_id(inst),
            // The serving layer stamps the distributed trace id onto
            // the journal handle; the recording inherits it from there.
            trace_id: self.cfg.observer.journal.trace_id().to_string(),
            instance_name: inst.name().to_string(),
            n: inst.len(),
            instance_digest: digest_instance(inst),
            spec_digest: self.spec_digest(),
            chains: self.cfg.restarts as u64,
            start: self.construct(inst, 0).as_slice().to_vec(),
            config: self.config_pairs(),
        };
        Ok(Recording::from_flight(header, flight))
    }

    /// The configured device spec's digest — zero for host engines,
    /// whose modeled times do not depend on the spec.
    fn spec_digest(&self) -> u64 {
        match self.cfg.engine {
            EngineKind::Gpu => self.cfg.spec.digest(),
            _ => 0,
        }
    }

    /// Re-execute `recording` on this solver and compare the live event
    /// stream against the recorded one, chain by chain. The header must
    /// match this solver's configuration, the instance digest, and (for
    /// GPU engines) the device-spec digest — a replay on different
    /// hardware parameters would silently diverge in modeled seconds.
    ///
    /// Returns the live run's [`Solution`] and a [`ReplayReport`]:
    /// [`ReplayReport::is_clean`] means every event — applied moves,
    /// RNG checkpoints, acceptance verdicts, tour digests, bit-exact
    /// modeled seconds — reproduced; otherwise
    /// [`ReplayReport::divergence`] pins the first disagreement.
    pub fn replay(
        &self,
        inst: &Instance,
        recording: &Recording,
    ) -> Result<(Solution, ReplayReport), TspError> {
        reject_wall_clock(&self.cfg)?;
        let header = &recording.header;
        if header.n != inst.len() || header.instance_digest != digest_instance(inst) {
            return Err(TspError::Replay(format!(
                "instance mismatch: recording was taken on '{}' (n={}, digest {:016x}), \
                 got '{}' (n={}, digest {:016x})",
                header.instance_name,
                header.n,
                header.instance_digest,
                inst.name(),
                inst.len(),
                digest_instance(inst),
            )));
        }
        if header.spec_digest != self.spec_digest() {
            return Err(TspError::Replay(format!(
                "device-spec mismatch: recording digest {:016x}, solver digest {:016x} \
                 (device '{}'); replaying on a different timing model would diverge",
                header.spec_digest,
                self.spec_digest(),
                self.cfg.spec.name,
            )));
        }
        let live_pairs = self.config_pairs();
        for (key, recorded) in &header.config {
            match live_pairs.iter().find(|(k, _)| k == key) {
                Some((_, live)) if live == recorded => {}
                Some((_, live)) => {
                    return Err(TspError::Replay(format!(
                        "config mismatch on '{key}': recorded '{recorded}', solver has '{live}'"
                    )));
                }
                None => {
                    return Err(TspError::Replay(format!(
                        "config mismatch: recorded key '{key}' is absent from this solver"
                    )));
                }
            }
        }
        if header.config.len() != live_pairs.len() {
            return Err(TspError::Replay(format!(
                "config mismatch: recording has {} keys, solver has {}",
                header.config.len(),
                live_pairs.len()
            )));
        }

        let live = FlightRecorder::attached();
        let mut cfg = self.cfg.clone();
        cfg.observer.flight = live.clone();
        let solver = Solver { cfg };
        let start = Tour::new(header.start.clone()).map_err(TspError::Core)?;
        let solution = solver.run_from(inst, start)?;
        let report = compare_streams(&recording.entries, &live.entries());
        Ok((solution, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Construction;
    use tsp_2opt::Observer;
    use tsp_ils::IlsOptions;
    use tsp_tsplib::{generate, Style};

    fn recorded_solver(flight: FlightRecorder) -> Solver {
        Solver::builder()
            .construction(Construction::Random(3))
            .ils(IlsOptions::default().with_max_iterations(5u64).with_seed(7))
            .observe(Observer::none().with_flight(flight))
            .build()
    }

    #[test]
    fn record_then_replay_is_clean() {
        let inst = generate("rr", 48, Style::Uniform, 2);
        let flight = FlightRecorder::attached();
        let solver = recorded_solver(flight.clone());
        let ran = solver.run(&inst).unwrap();
        let recording = solver.recording(&inst).unwrap();
        assert!(!recording.is_empty());

        let fresh = recorded_solver(FlightRecorder::detached());
        let (solution, report) = fresh.replay(&inst, &recording).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(solution.tour.as_slice(), ran.tour.as_slice());
        assert_eq!(
            solution.modeled_seconds().to_bits(),
            ran.modeled_seconds().to_bits()
        );
    }

    #[test]
    fn mismatched_configuration_is_rejected() {
        let inst = generate("rr-cfg", 40, Style::Uniform, 4);
        let flight = FlightRecorder::attached();
        let solver = recorded_solver(flight.clone());
        solver.run(&inst).unwrap();
        let recording = solver.recording(&inst).unwrap();

        // Different seed: refused before any work happens.
        let other = Solver::builder()
            .construction(Construction::Random(3))
            .ils(IlsOptions::default().with_max_iterations(5u64).with_seed(8))
            .build();
        let err = other.replay(&inst, &recording).unwrap_err();
        assert!(
            err.to_string().contains("ils.seed"),
            "unexpected error: {err}"
        );

        // Different instance: refused by digest.
        let other_inst = generate("rr-cfg2", 40, Style::Uniform, 5);
        let same = recorded_solver(FlightRecorder::detached());
        let err = same.replay(&other_inst, &recording).unwrap_err();
        assert!(matches!(err, TspError::Replay(_)), "{err}");
    }

    #[test]
    fn wall_clock_budgets_cannot_be_recorded() {
        let inst = generate("rr-wall", 32, Style::Uniform, 6);
        let solver = Solver::builder()
            .ils(IlsOptions::default().with_max_host_seconds(1.0))
            .observe(Observer::none().with_flight(FlightRecorder::attached()))
            .build();
        solver.run(&inst).unwrap();
        let err = solver.recording(&inst).unwrap_err();
        assert!(err.to_string().contains("wall-clock"), "{err}");
    }

    #[test]
    fn recording_requires_an_attached_recorder_with_events() {
        let inst = generate("rr-empty", 32, Style::Uniform, 7);
        let solver = Solver::builder().build();
        assert!(matches!(solver.recording(&inst), Err(TspError::Replay(_))));
        let solver = Solver::builder()
            .observe(Observer::none().with_flight(FlightRecorder::attached()))
            .build();
        let err = solver.recording(&inst).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }
}
