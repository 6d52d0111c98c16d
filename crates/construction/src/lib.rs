//! # tsp-construction
//!
//! Initial-tour construction heuristics for the GPU 2-opt reproduction:
//!
//! * [`greedy::multiple_fragment`] — Bentley's Multiple Fragment (greedy
//!   edge) heuristic, the paper's Table II starting solution;
//! * [`nearest_neighbor::nearest_neighbor`] — classic NN;
//! * [`spacefill::space_filling`] — Hilbert-curve ordering, O(n log n);
//! * random tours come from [`tsp_core::Tour::random`] (the paper's ILS
//!   experiment assumes "the initial solution s0 is a random tour").
//!
//! Large coordinate instances take their k-nearest-neighbour lists from
//! [`tsp_core::neighbor`], the workspace's one k-NN builder; Multiple
//! Fragment never materialises all `n(n-1)/2` pairs.

pub mod greedy;
pub mod nearest_neighbor;
pub mod spacefill;

pub use greedy::{multiple_fragment, multiple_fragment_exact, multiple_fragment_knn};
pub use nearest_neighbor::nearest_neighbor;
pub use spacefill::space_filling;

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_tsplib::{generate, Style};

    #[test]
    fn construction_quality_ordering_holds() {
        // On uniform fields: MF < NN < random; Hilbert < random.
        let inst = generate("order", 400, Style::Uniform, 6);
        let mf = multiple_fragment(&inst).length(&inst);
        let nn = nearest_neighbor(&inst, 0).length(&inst);
        let sf = space_filling(&inst).length(&inst);
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(1);
        let rnd = tsp_core::Tour::random(400, &mut rng).length(&inst);
        assert!(mf < nn, "MF {mf} vs NN {nn}");
        assert!(nn < rnd, "NN {nn} vs random {rnd}");
        assert!(sf < rnd, "Hilbert {sf} vs random {rnd}");
    }
}
