//! Phase profiler: attributes campaign wall-clock to the engine's five
//! phases and renders the breakdown table that every perf PR starts
//! from.
//!
//! Workers accumulate per-phase microseconds into their own
//! [`PhaseTimes`] (inside a [`crate::MetricsShard`]); the shards merge
//! at join. Because workers overlap, *attributed* time is CPU time and
//! can exceed wall-clock — [`render_phase_table`] prints both.

use serde::{Deserialize, Serialize};

/// Where campaign wall-clock goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Booting a process from `_start` to the breakpoint (or to its
    /// natural stop): golden runs, checkpoint harvesters, from-scratch
    /// prefixes.
    Boot,
    /// Capturing process checkpoints.
    Snapshot,
    /// Executing the post-flip suffix of an injection run.
    Replay,
    /// Classifying a finished run against the golden run.
    Classify,
    /// Tallying outcomes and reassembling results in target order.
    Reassemble,
}

impl Phase {
    /// All phases, in rendering order.
    pub const ALL: [Phase; 5] = [
        Phase::Boot,
        Phase::Snapshot,
        Phase::Replay,
        Phase::Classify,
        Phase::Reassemble,
    ];

    /// Lower-case label used in tables and events.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Boot => "boot",
            Phase::Snapshot => "snapshot",
            Phase::Replay => "replay",
            Phase::Classify => "classify",
            Phase::Reassemble => "reassemble",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Microseconds attributed to each phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Per-phase totals, indexed in [`Phase::ALL`] order.
    pub micros: [u64; 5],
}

impl PhaseTimes {
    /// Attribute `micros` to `phase`.
    pub fn add(&mut self, phase: Phase, micros: u64) {
        self.micros[phase.index()] += micros;
    }

    /// Microseconds attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.micros[phase.index()]
    }

    /// Total attributed microseconds.
    pub fn total(&self) -> u64 {
        self.micros.iter().sum()
    }

    /// Fold another accumulation into this one (shard merge).
    pub fn merge(&mut self, other: &PhaseTimes) {
        for (a, b) in self.micros.iter_mut().zip(&other.micros) {
            *a += b;
        }
    }
}

fn secs(micros: u64) -> f64 {
    micros as f64 / 1e6
}

/// Render the phase breakdown. `wall_micros` is the campaign's
/// wall-clock; attributed time is summed across workers, so the two are
/// reported side by side rather than forced to add up.
pub fn render_phase_table(p: &PhaseTimes, wall_micros: u64) -> String {
    let total = p.total().max(1);
    let mut out = String::from("phase         time      share\n");
    for ph in Phase::ALL {
        let us = p.get(ph);
        out.push_str(&format!(
            "{:<11} {:>8.3}s  {:>6.1}%\n",
            ph.name(),
            secs(us),
            us as f64 * 100.0 / total as f64
        ));
    }
    out.push_str(&format!(
        "attributed  {:>8.3}s   (wall {:.3}s; workers overlap, so attributed time can exceed wall-clock)\n",
        secs(p.total()),
        secs(wall_micros)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_merge() {
        let mut a = PhaseTimes::default();
        a.add(Phase::Boot, 100);
        a.add(Phase::Replay, 300);
        let mut b = PhaseTimes::default();
        b.add(Phase::Replay, 200);
        b.add(Phase::Classify, 50);
        a.merge(&b);
        assert_eq!(a.get(Phase::Boot), 100);
        assert_eq!(a.get(Phase::Replay), 500);
        assert_eq!(a.get(Phase::Classify), 50);
        assert_eq!(a.total(), 650);
    }

    #[test]
    fn render_lists_every_phase() {
        let mut p = PhaseTimes::default();
        p.add(Phase::Replay, 750_000);
        p.add(Phase::Boot, 250_000);
        let s = render_phase_table(&p, 600_000);
        for ph in Phase::ALL {
            assert!(s.contains(ph.name()), "missing {}", ph.name());
        }
        assert!(s.contains("75.0%"), "{s}");
        assert!(s.contains("wall 0.600s"), "{s}");
    }

    #[test]
    fn render_survives_empty_profile() {
        let s = render_phase_table(&PhaseTimes::default(), 0);
        assert!(s.contains("attributed"));
    }
}
