//! The paper's Table I: evaluation result at the start and the end of the
//! test.

use crate::assessment::{AssessError, Assessment};
use sramaging::compound_monthly_rate;
use std::fmt;

/// Which extreme counts as the *worst case* for a metric, matching the
/// paper's WC rows (largest WCHD, most biased HW, most stable cells, least
/// noise entropy, least distinguishable BCHD).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorstDirection {
    /// The maximum across devices is the worst case.
    Max,
    /// The minimum across devices is the worst case.
    Min,
}

/// One metric's Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Metric name as printed.
    pub name: String,
    /// Which device extreme is "worst".
    pub worst: WorstDirection,
    /// Average at the start of the test.
    pub start_avg: f64,
    /// Worst case at the start.
    pub start_wc: f64,
    /// Average at the end of the test.
    pub end_avg: f64,
    /// Worst case at the end.
    pub end_wc: f64,
}

impl MetricRow {
    /// Relative change of the average, `end/start − 1`.
    pub fn relative_change(&self) -> f64 {
        self.end_avg / self.start_avg - 1.0
    }

    /// Compound monthly change of the average over `months` months.
    pub fn monthly_change(&self, months: u32) -> f64 {
        compound_monthly_rate(self.start_avg, self.end_avg, months)
    }

    /// Relative change of the worst case.
    pub fn wc_relative_change(&self) -> f64 {
        self.end_wc / self.start_wc - 1.0
    }

    /// Compound monthly change of the worst case.
    pub fn wc_monthly_change(&self, months: u32) -> f64 {
        compound_monthly_rate(self.start_wc, self.end_wc, months)
    }

    /// Whether the paper would print the change as "negligible"
    /// (|relative| < 0.01 % per its footnote... in practice the paper uses
    /// "change is less than 0.01", i.e. 1 % relative on these scales).
    pub fn is_negligible(&self) -> bool {
        self.relative_change().abs() < 0.01
    }
}

/// The condensed two-year result, one row per metric (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Months between the start and end columns.
    pub months: u32,
    /// Within-class Hamming distance (reliability).
    pub wchd: MetricRow,
    /// Fractional Hamming weight (bias).
    pub hw: MetricRow,
    /// Stable-cell ratio (randomness).
    pub stable: MetricRow,
    /// Noise min-entropy (randomness).
    pub noise: MetricRow,
    /// Between-class Hamming distance (uniqueness).
    pub bchd: MetricRow,
    /// PUF min-entropy at the start (single cross-device value).
    pub puf_entropy_start: f64,
    /// PUF min-entropy at the end.
    pub puf_entropy_end: f64,
}

impl Table1 {
    /// Builds Table I from an assessment.
    ///
    /// # Errors
    ///
    /// [`AssessError::TooFewMonths`] if the assessment spans fewer than two
    /// months.
    pub fn from_assessment(assessment: &Assessment) -> Result<Self, AssessError> {
        let aggregates = assessment.aggregates();
        if aggregates.len() < 2 {
            return Err(AssessError::TooFewMonths {
                months: aggregates.len(),
            });
        }
        let start = &aggregates[0];
        let end = &aggregates[aggregates.len() - 1];
        let months = end.month_index - start.month_index;
        let row = |name: &str,
                   worst: WorstDirection,
                   s: &pufstats::Summary,
                   e: &pufstats::Summary| MetricRow {
            name: name.to_string(),
            worst,
            start_avg: s.mean,
            start_wc: match worst {
                WorstDirection::Max => s.max,
                WorstDirection::Min => s.min,
            },
            end_avg: e.mean,
            end_wc: match worst {
                WorstDirection::Max => e.max,
                WorstDirection::Min => e.min,
            },
        };
        Ok(Self {
            months,
            wchd: row("WCHD", WorstDirection::Max, &start.wchd, &end.wchd),
            hw: row("HW", WorstDirection::Max, &start.fhw, &end.fhw),
            stable: row(
                "Ratio of Stable Cells",
                WorstDirection::Max,
                &start.stable_ratio,
                &end.stable_ratio,
            ),
            noise: row(
                "Noise entropy",
                WorstDirection::Min,
                &start.noise_entropy,
                &end.noise_entropy,
            ),
            bchd: row("BCHD", WorstDirection::Min, &start.bchd, &end.bchd),
            puf_entropy_start: start.puf_entropy,
            puf_entropy_end: end.puf_entropy,
        })
    }

    /// All five device-resolved rows, in the paper's order.
    pub fn rows(&self) -> [&MetricRow; 5] {
        [&self.wchd, &self.hw, &self.stable, &self.noise, &self.bchd]
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "EVALUATION RESULT OF SRAM PUF QUALITIES AT THE START AND THE END OF THE TEST\n",
        );
        out.push_str(&format!(
            "{:<24}{:>5}  {:>9}  {:>9}  {:>10}  {:>9}\n",
            "Evaluation", "", "Start", "End", "Rel.Change", "Monthly"
        ));
        for row in self.rows() {
            let fmt_pct = |x: f64| format!("{:.2}%", x * 100.0);
            let (rel, monthly) = if row.is_negligible() {
                ("negligible".to_string(), "negligible".to_string())
            } else {
                (
                    format!("{:+.1}%", row.relative_change() * 100.0),
                    format!("{:+.2}%", row.monthly_change(self.months) * 100.0),
                )
            };
            out.push_str(&format!(
                "{:<24}{:>5}  {:>9}  {:>9}  {:>10}  {:>9}\n",
                row.name,
                "AVG.",
                fmt_pct(row.start_avg),
                fmt_pct(row.end_avg),
                rel,
                monthly,
            ));
            let (wc_rel, wc_monthly) = if (row.end_wc / row.start_wc - 1.0).abs() < 0.01 {
                ("negligible".to_string(), "negligible".to_string())
            } else {
                (
                    format!("{:+.1}%", row.wc_relative_change() * 100.0),
                    format!("{:+.2}%", row.wc_monthly_change(self.months) * 100.0),
                )
            };
            out.push_str(&format!(
                "{:<24}{:>5}  {:>9}  {:>9}  {:>10}  {:>9}\n",
                "",
                "WC.",
                fmt_pct(row.start_wc),
                fmt_pct(row.end_wc),
                wc_rel,
                wc_monthly,
            ));
        }
        let puf_rel = self.puf_entropy_end / self.puf_entropy_start - 1.0;
        out.push_str(&format!(
            "{:<24}{:>5}  {:>8.2}%  {:>8.2}%  {:>10}\n",
            "PUF entropy",
            "",
            self.puf_entropy_start * 100.0,
            self.puf_entropy_end * 100.0,
            if puf_rel.abs() < 0.01 {
                "negligible".to_string()
            } else {
                format!("{:+.1}%", puf_rel * 100.0)
            },
        ));
        out
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monthly::EvaluationProtocol;
    use puftestbed::{Campaign, CampaignConfig};

    fn assessment(months: u32) -> Assessment {
        let config = CampaignConfig {
            boards: 4,
            sram_bits: 2048,
            read_bits: 2048,
            months,
            reads_per_window: 30,
            ..CampaignConfig::default()
        };
        let dataset = Campaign::new(config, 60).run_in_memory();
        Assessment::from_dataset(
            &dataset,
            &EvaluationProtocol {
                reads_per_window: 30,
                ..EvaluationProtocol::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn table_reports_the_paper_directions() {
        let table = assessment(24).table1();
        assert_eq!(table.months, 24);
        assert!(table.wchd.relative_change() > 0.0, "wchd grows");
        assert!(table.noise.relative_change() > 0.0, "noise entropy grows");
        assert!(table.stable.relative_change() < 0.0, "stable cells shrink");
        assert!(table.hw.is_negligible(), "hw flat");
        assert!(table.bchd.is_negligible(), "bchd flat");
        assert!((table.puf_entropy_end - table.puf_entropy_start).abs() < 0.05);
    }

    #[test]
    fn a_single_month_is_a_typed_error() {
        let err = Table1::from_assessment(&assessment(0)).unwrap_err();
        assert_eq!(err, AssessError::TooFewMonths { months: 1 });
    }

    #[test]
    fn worst_case_brackets_the_average() {
        let table = assessment(6);
        let table = table.table1();
        assert!(table.wchd.start_wc >= table.wchd.start_avg);
        assert!(table.noise.start_wc <= table.noise.start_avg);
        assert!(table.bchd.start_wc <= table.bchd.start_avg);
        assert!(table.stable.start_wc >= table.stable.start_avg);
    }

    #[test]
    fn monthly_change_definition_matches_paper() {
        let row = MetricRow {
            name: "WCHD".into(),
            worst: WorstDirection::Max,
            start_avg: 0.0249,
            start_wc: 0.0272,
            end_avg: 0.0297,
            end_wc: 0.0325,
        };
        assert!((row.relative_change() - 0.193).abs() < 0.002);
        assert!((row.monthly_change(24) - 0.0074).abs() < 2e-4);
        assert!((row.wc_relative_change() - 0.195).abs() < 0.002);
        assert!((row.wc_monthly_change(24) - 0.0074).abs() < 2e-4);
    }

    #[test]
    fn render_includes_all_rows() {
        let rendered = assessment(2).table1().render();
        for name in [
            "WCHD",
            "HW",
            "Stable",
            "Noise entropy",
            "BCHD",
            "PUF entropy",
        ] {
            assert!(rendered.contains(name), "missing {name} in:\n{rendered}");
        }
        assert!(rendered.contains("AVG."));
        assert!(rendered.contains("WC."));
    }
}
