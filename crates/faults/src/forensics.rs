//! Fault forensics: correlating flipped bits with outcomes.
//!
//! Beyond Table 1's bottom line, a campaign's per-run `(bit, outcome)`
//! pairs plus the pristine firmware image answer *why* the distribution
//! looks the way it does: which encoding fields turn into hangs (opcode
//! flips under the parity layout), which into corruption (register/
//! immediate flips on the data path), and which instructions are the most
//! fault-sensitive. The `forensics` benchmark binary prints these tables.

use std::collections::BTreeMap;

use ftgm_lanai::disasm::{locate_bit, FieldKind};

use crate::campaign::CampaignResult;
use crate::classify::Outcome;

/// Outcome counts per encoding field.
#[derive(Clone, Debug, Default)]
pub struct FieldMatrix {
    counts: BTreeMap<(FieldKind, Outcome), u64>,
    field_totals: BTreeMap<FieldKind, u64>,
}

impl FieldMatrix {
    /// Count for one `(field, outcome)` cell.
    pub fn count(&self, field: FieldKind, outcome: Outcome) -> u64 {
        self.counts.get(&(field, outcome)).copied().unwrap_or(0)
    }

    /// Total runs whose flipped bit landed in `field`.
    pub fn field_total(&self, field: FieldKind) -> u64 {
        self.field_totals.get(&field).copied().unwrap_or(0)
    }

    /// Renders the matrix as an aligned table (percent of the field's
    /// runs per outcome).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<8} {:>6}", "field", "runs"));
        for o in Outcome::ALL {
            out.push_str(&format!(" {:>9}", short(o)));
        }
        out.push('\n');
        for f in FieldKind::ALL {
            let total = self.field_total(f);
            out.push_str(&format!("{:<8} {total:>6}", f.label()));
            for o in Outcome::ALL {
                #[expect(
                    clippy::float_arithmetic,
                    reason = "a percentage for the text table; no JSON report carries it"
                )]
                let pct = if total == 0 {
                    0.0
                } else {
                    self.count(f, o) as f64 * 100.0 / total as f64
                };
                out.push_str(&format!(" {pct:>8.1}%"));
            }
            out.push('\n');
        }
        out
    }
}

fn short(o: Outcome) -> &'static str {
    match o {
        Outcome::LocalInterfaceHung => "hang",
        Outcome::MessagesCorrupted => "corrupt",
        Outcome::RemoteInterfaceHung => "rem.hang",
        Outcome::McpRestart => "restart",
        Outcome::HostComputerCrash => "hostcrash",
        Outcome::OtherErrors => "other",
        Outcome::NoImpact => "none",
    }
}

/// Per-instruction sensitivity: how often flips inside one instruction
/// word caused any impact.
#[derive(Clone, Debug)]
pub struct InstrSensitivity {
    /// Word index in the image.
    pub word_index: usize,
    /// Disassembly of the pristine word.
    pub instr: String,
    /// Runs that hit this word.
    pub runs: u64,
    /// Runs with a non-`NoImpact` outcome.
    pub impactful: u64,
}

/// Builds the field matrix and per-instruction table from a campaign run
/// against `image` (the pristine `send_chunk` bytes).
pub fn analyze(campaign: &CampaignResult, image: &[u8]) -> (FieldMatrix, Vec<InstrSensitivity>) {
    let mut matrix = FieldMatrix::default();
    let mut per_instr: BTreeMap<usize, InstrSensitivity> = BTreeMap::new();
    for run in &campaign.runs {
        let Some(locus) = locate_bit(image, run.bit) else {
            continue;
        };
        *matrix
            .counts
            .entry((locus.field, run.outcome))
            .or_insert(0) += 1;
        *matrix.field_totals.entry(locus.field).or_insert(0) += 1;
        let e = per_instr
            .entry(locus.word_index)
            .or_insert_with(|| InstrSensitivity {
                word_index: locus.word_index,
                instr: locus.instr.clone(),
                runs: 0,
                impactful: 0,
            });
        e.runs += 1;
        if run.outcome != Outcome::NoImpact {
            e.impactful += 1;
        }
    }
    let mut table: Vec<InstrSensitivity> = per_instr.into_values().collect();
    table.sort_by(|a, b| {
        (b.impactful, b.runs)
            .cmp(&(a.impactful, a.runs))
            .then(a.word_index.cmp(&b.word_index))
    });
    (matrix, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{run_one, RunConfig};
    use ftgm_sim::SimDuration;

    #[test]
    fn analysis_covers_every_run() {
        let config = RunConfig {
            window: SimDuration::from_ms(200),
            ..RunConfig::table1()
        };
        let runs: Vec<_> = (0..10u64).map(|s| run_one(&config, s)).collect();
        let mut counts = std::collections::BTreeMap::new();
        for r in &runs {
            *counts.entry(r.outcome).or_insert(0u64) += 1;
        }
        let campaign = crate::campaign::CampaignResult {
            runs,
            counts,
        };
        let image = ftgm_mcp::FirmwareImage::build().bytes().to_vec();
        let (matrix, table) = analyze(&campaign, &image);
        let total: u64 = FieldKind::ALL.iter().map(|f| matrix.field_total(*f)).sum();
        assert_eq!(total, 10, "every run located");
        let table_runs: u64 = table.iter().map(|t| t.runs).sum();
        assert_eq!(table_runs, 10);
        assert!(matrix.render().contains("opcode"));
    }

    #[test]
    fn opcode_flips_skew_to_hangs() {
        // A slightly larger sample: opcode-field flips in *executed* code
        // trap, so their hang share must exceed the imm field's. A trap
        // fires on the next send through the flipped word, so a short
        // window classifies every one of these runs as a long one does
        // (8/14 opcode vs 2/24 imm hangs at 100 ms and at 250 ms).
        let config = RunConfig {
            window: SimDuration::from_ms(100),
            ..RunConfig::table1()
        };
        let runs: Vec<_> = (0..60u64).map(|s| run_one(&config, s)).collect();
        let mut counts = std::collections::BTreeMap::new();
        for r in &runs {
            *counts.entry(r.outcome).or_insert(0u64) += 1;
        }
        let campaign = crate::campaign::CampaignResult { runs, counts };
        let image = ftgm_mcp::FirmwareImage::build().bytes().to_vec();
        let (matrix, _) = analyze(&campaign, &image);
        let hang_rate = |f: FieldKind| {
            let t = matrix.field_total(f).max(1);
            matrix.count(f, Outcome::LocalInterfaceHung) as f64 / t as f64
        };
        assert!(
            hang_rate(FieldKind::Opcode) > hang_rate(FieldKind::Imm),
            "opcode {:.2} vs imm {:.2}",
            hang_rate(FieldKind::Opcode),
            hang_rate(FieldKind::Imm)
        );
    }
}
