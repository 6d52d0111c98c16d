//! Convergence journals rendered per kernel strategy.
//!
//! Runs one short GPU ILS chain per [`Strategy`] with a
//! [`tsp_telemetry::Journal`] attached and renders every journal into
//! one CSV keyed by strategy — the `report` binary's
//! `reports/convergence.csv`. Because the modeled pipeline is
//! deterministic and every strategy returns bit-identical moves, the
//! *tour* columns agree across strategies while the modeled-seconds
//! column shows each strategy's cost profile: the journal makes that
//! comparison a one-file plot instead of a scripting exercise.

use gpu_sim::spec;
use tsp_2opt::{GpuTwoOpt, Observer, Strategy};
use tsp_core::Tour;
use tsp_ils::{iterated_local_search, IlsOptions};
use tsp_telemetry::{Journal, JournalRecord};
use tsp_tsplib::{generate, Style};

/// The strategies the convergence report sweeps, with stable labels
/// (column key of the CSV).
pub fn strategies() -> Vec<(String, Strategy)> {
    vec![
        ("auto".to_string(), Strategy::Auto),
        ("shared".to_string(), Strategy::Shared),
        ("tiled64".to_string(), Strategy::Tiled { tile: 64 }),
        ("global_only".to_string(), Strategy::GlobalOnly),
        ("device_resident".to_string(), Strategy::DeviceResident),
    ]
}

/// One strategy's journal.
#[derive(Debug, Clone)]
pub struct StrategyJournal {
    /// Stable strategy label.
    pub strategy: String,
    /// The chain's journal records, in emission order.
    pub records: Vec<JournalRecord>,
    /// Final best length (must agree across strategies).
    pub best_length: i64,
}

/// Run one journaled ILS chain per strategy on the same instance,
/// start and seed.
pub fn compute(n: usize, iterations: u64, seed: u64) -> Vec<StrategyJournal> {
    let inst = generate("convergence", n, Style::Clustered { clusters: 8 }, seed);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
    let start = Tour::random(n, &mut rng);

    strategies()
        .into_iter()
        .map(|(label, strategy)| {
            let journal = Journal::attached();
            let mut engine = GpuTwoOpt::new(spec::gtx_680_cuda()).with_strategy(strategy);
            let out = iterated_local_search(
                &mut engine,
                &inst,
                start.clone(),
                IlsOptions::new()
                    .with_max_iterations(iterations)
                    .with_seed(seed)
                    .with_observer(Observer::none().with_journal(journal.clone())),
            )
            .expect("generated instances are coordinate-based");
            StrategyJournal {
                strategy: label,
                records: journal.records(),
                best_length: out.best_length,
            }
        })
        .collect()
}

/// Render journals as one CSV keyed by strategy.
pub fn to_csv(journals: &[StrategyJournal]) -> String {
    let mut s = String::from(
        "strategy,chain,iteration,event,modeled_seconds,wall_seconds,tour_length,gap_to_best\n",
    );
    for j in journals {
        for r in &j.records {
            s += &format!(
                "{},{},{},{},{},{},{},{}\n",
                j.strategy,
                r.chain,
                r.iteration,
                r.event.as_str(),
                r.modeled_seconds,
                r.wall_seconds,
                r.tour_length,
                r.gap_to_best,
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_telemetry::JournalEvent;

    #[test]
    fn every_strategy_journals_the_same_search() {
        let journals = compute(96, 3, 11);
        assert_eq!(journals.len(), strategies().len());
        let first = &journals[0];
        assert!(!first.records.is_empty());
        for j in &journals {
            // Same search everywhere: identical lengths per record.
            assert_eq!(j.best_length, first.best_length);
            assert_eq!(j.records.len(), first.records.len());
            for (a, b) in j.records.iter().zip(&first.records) {
                assert_eq!(a.iteration, b.iteration);
                assert_eq!(a.tour_length, b.tour_length);
                assert_eq!(a.event, b.event);
            }
            assert_eq!(j.records[0].event, JournalEvent::Initial);
            assert_eq!(j.records.last().unwrap().event, JournalEvent::Final);
        }
        // But the modeled cost differs between e.g. shared and
        // global-only kernels.
        let shared = journals.iter().find(|j| j.strategy == "shared").unwrap();
        let global = journals
            .iter()
            .find(|j| j.strategy == "global_only")
            .unwrap();
        assert_ne!(
            shared.records.last().unwrap().modeled_seconds,
            global.records.last().unwrap().modeled_seconds,
        );
    }

    #[test]
    fn csv_has_one_row_per_record_plus_header() {
        let journals = compute(64, 2, 5);
        let csv = to_csv(&journals);
        let rows: usize = journals.iter().map(|j| j.records.len()).sum();
        assert_eq!(csv.lines().count(), rows + 1);
        assert!(csv.starts_with("strategy,chain,iteration,event,"));
        assert!(csv.contains("\nauto,0,0,initial,"));
    }
}
