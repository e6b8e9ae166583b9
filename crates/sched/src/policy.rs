//! Remote-execution placement policies.
//!
//! "When a process calls exec, the client library implements a scheduling
//! policy for deciding which core to pick; our prototype supports both a
//! random and a round-robin policy, with round-robin state propagated from
//! parent to child" (paper §3.5).

use hare_core::Placement;

/// Per-process placement state (the round-robin cursor, or the PRNG state
/// for random placement).
#[derive(Debug, Clone)]
pub struct PlacementState {
    policy: Placement,
    cursor: u64,
}

impl PlacementState {
    /// Initial state for the first process.
    pub fn new(policy: Placement, seed: u64) -> Self {
        PlacementState {
            policy,
            cursor: seed,
        }
    }

    /// Picks the next core from `app_cores`, advancing local state.
    pub fn pick(&mut self, app_cores: &[usize]) -> usize {
        assert!(!app_cores.is_empty());
        match self.policy {
            Placement::RoundRobin => {
                let core = app_cores[self.cursor as usize % app_cores.len()];
                self.cursor = self.cursor.wrapping_add(1);
                core
            }
            Placement::Random => {
                // SplitMix64 step: deterministic, seedable, well spread.
                self.cursor = self.cursor.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = self.cursor;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                app_cores[(z % app_cores.len() as u64) as usize]
            }
        }
    }

    /// The state a child inherits ("round-robin state propagated from
    /// parent to child").
    pub fn inherit(&self) -> PlacementState {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let cores = [3, 5, 7];
        let mut p = PlacementState::new(Placement::RoundRobin, 0);
        let picks: Vec<usize> = (0..6).map(|_| p.pick(&cores)).collect();
        assert_eq!(picks, vec![3, 5, 7, 3, 5, 7]);
    }

    #[test]
    fn round_robin_inheritance_continues_cycle() {
        let cores = [0, 1, 2, 3];
        let mut parent = PlacementState::new(Placement::RoundRobin, 0);
        parent.pick(&cores); // 0
        let mut child = parent.inherit();
        assert_eq!(child.pick(&cores), 1, "child continues the parent cursor");
    }

    #[test]
    fn random_is_deterministic_and_spread() {
        let cores: Vec<usize> = (0..8).collect();
        let mut a = PlacementState::new(Placement::Random, 42);
        let mut b = PlacementState::new(Placement::Random, 42);
        let pa: Vec<usize> = (0..64).map(|_| a.pick(&cores)).collect();
        let pb: Vec<usize> = (0..64).map(|_| b.pick(&cores)).collect();
        assert_eq!(pa, pb, "same seed, same sequence");
        let distinct: std::collections::HashSet<usize> = pa.into_iter().collect();
        assert!(distinct.len() >= 6, "random placement should spread");
    }
}
