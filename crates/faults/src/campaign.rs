//! Fault-injection campaigns: many runs, aggregated like Table 1.
//!
//! Each run owns a private simulation world, so runs parallelize across OS
//! threads through [`ftgm_sim::map_indexed`]; the per-run seed is
//! `campaign_seed + index`, making the whole campaign reproducible
//! regardless of thread count.

use std::collections::BTreeMap;

use ftgm_sim::map_indexed;

use crate::classify::Outcome;
use crate::inject::{run_one, RunConfig, RunResult};

/// Aggregated campaign results.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Per-run outcomes (indexed by run number).
    pub runs: Vec<RunResult>,
    /// Outcome → count.
    pub counts: BTreeMap<Outcome, u64>,
}

impl CampaignResult {
    /// Total runs.
    pub fn total(&self) -> u64 {
        self.runs.len() as u64
    }

    /// Count of one outcome.
    pub fn count(&self, o: Outcome) -> u64 {
        self.counts.get(&o).copied().unwrap_or(0)
    }

    /// Percentage of one outcome.
    #[expect(
        clippy::float_arithmetic,
        reason = "Table 1's percentages reach only the text tables, never a JSON report"
    )]
    pub fn percent(&self, o: Outcome) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.count(o) as f64 * 100.0 / self.runs.len() as f64
    }

    /// Runs whose interface hung (the §5.2 denominator).
    pub fn hangs(&self) -> u64 {
        self.count(Outcome::LocalInterfaceHung) + self.count(Outcome::RemoteInterfaceHung)
    }

    /// Of the hang runs, how many recovered cleanly (FTGM campaigns).
    pub fn hangs_recovered(&self) -> u64 {
        self.runs
            .iter()
            .filter(|r| r.outcome == Outcome::LocalInterfaceHung && r.recovered_clean)
            .count() as u64
    }

    /// Of the hang runs, how many were *detected* (a recovery attempt ran).
    pub fn hangs_detected(&self) -> u64 {
        self.runs
            .iter()
            .filter(|r| r.outcome == Outcome::LocalInterfaceHung && r.recoveries > 0)
            .count() as u64
    }

    /// Renders a Table 1-style comparison against the paper's columns.
    pub fn render_table1(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>12} {:>14}\n",
            "Failure Category", "ours (%)", "count", "paper (%)", "Iyer et al.(%)"
        ));
        for o in Outcome::ALL {
            out.push_str(&format!(
                "{:<24} {:>10.1} {:>10} {:>12.1} {:>14.1}\n",
                o.label(),
                self.percent(o),
                self.count(o),
                o.paper_percent(),
                o.iyer_percent()
            ));
        }
        out.push_str(&format!("total runs: {}\n", self.total()));
        out
    }
}

/// Runs `runs` injection experiments on `threads` worker threads.
///
/// Deterministic for a given `(config, seed, runs)` regardless of
/// `threads`.
pub fn run_campaign(config: &RunConfig, seed: u64, runs: u64, threads: usize) -> CampaignResult {
    let runs = map_indexed(runs as usize, threads, |i| {
        run_one(config, seed.wrapping_add(i as u64))
    });
    let mut counts = BTreeMap::new();
    for r in &runs {
        *counts.entry(r.outcome).or_insert(0) += 1;
    }
    CampaignResult { runs, counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgm_sim::SimDuration;

    fn quick_config() -> RunConfig {
        RunConfig {
            window: SimDuration::from_ms(100),
            ..RunConfig::table1()
        }
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let config = quick_config();
        let a = run_campaign(&config, 42, 8, 1);
        let b = run_campaign(&config, 42, 8, 4);
        let oa: Vec<_> = a.runs.iter().map(|r| (r.bit, r.outcome)).collect();
        let ob: Vec<_> = b.runs.iter().map(|r| (r.bit, r.outcome)).collect();
        assert_eq!(oa, ob);
    }

    #[test]
    fn counts_match_runs() {
        let config = quick_config();
        let c = run_campaign(&config, 1, 10, 4);
        assert_eq!(c.total(), 10);
        let sum: u64 = Outcome::ALL.iter().map(|o| c.count(*o)).sum();
        assert_eq!(sum, 10);
        let pct: f64 = Outcome::ALL.iter().map(|o| c.percent(*o)).sum();
        assert!((pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_all_rows() {
        let config = quick_config();
        let c = run_campaign(&config, 3, 4, 2);
        let table = c.render_table1();
        for o in Outcome::ALL {
            assert!(table.contains(o.label()), "{table}");
        }
    }
}
