//! SRAM PUF long-term assessment: reliability, uniqueness, and randomness
//! evaluation protocols.
//!
//! This crate is the reproduction of the paper's primary contribution — the
//! evaluation methodology of its §IV applied to a two-year continuous
//! measurement campaign:
//!
//! * [`metrics`] — the three base metrics of §IV-A: within-class Hamming
//!   distance (reliability), between-class Hamming distance (uniqueness),
//!   and fractional Hamming weight (bias), plus their Fig. 5 histograms.
//! * [`entropy`] — PUF min-entropy across devices (§IV-B4) and noise
//!   min-entropy within a device (§IV-C2).
//! * [`monthly`] — the selection rule of §IV-B: "the first 1 000 consecutive
//!   measurements after midnight on the 8th of each month". Both workloads
//!   below admit records through it.
//! * [`assessment`] — the assessment's result: per-device monthly metrics
//!   and cross-device aggregates (Fig. 6), plus slice wrappers over the
//!   fold in [`streaming`].
//! * [`streaming`] — the one implementation of the assessment: records fold
//!   one at a time into per-(device, month) accumulators, so paper-scale
//!   campaigns assess in bounded memory without retaining read-outs.
//! * [`keylife`] — the key-lifetime workload: enroll a fuzzy-extractor key
//!   per device, replay every later device-month through reconstruction,
//!   and report observed monthly key-failure rates next to the analytic
//!   WCHD-derived bound. Also one streaming fold, with a slice wrapper.
//! * [`table1`] — the paper's Table I: start/end values, relative change,
//!   and compound monthly change, average and worst-case over devices.
//! * [`visualize`] — the start-up pattern raster of Fig. 4.
//! * [`report`] — text/CSV rendering of all of the above.
//!
//! # Quick start
//!
//! ```
//! use pufassess::{assessment::Assessment, monthly::EvaluationProtocol};
//! use puftestbed::{Campaign, CampaignConfig};
//!
//! // A miniature campaign (the full paper scale is the default config).
//! let config = CampaignConfig {
//!     boards: 4,
//!     sram_bits: 1024,
//!     read_bits: 1024,
//!     months: 3,
//!     reads_per_window: 30,
//!     ..CampaignConfig::default()
//! };
//! let dataset = Campaign::new(config, 11).run_in_memory();
//! let protocol = EvaluationProtocol { reads_per_window: 30, ..EvaluationProtocol::default() };
//! let assessment = Assessment::from_dataset(&dataset, &protocol)?;
//! assert_eq!(assessment.months(), 4); // months 0..=3
//! let table = assessment.table1();
//! assert!(table.wchd.end_avg > 0.0);
//! # Ok::<(), pufassess::assessment::AssessError>(())
//! ```

pub mod assessment;
pub mod entropy;
pub mod fit;
pub mod keylife;
pub mod metrics;
pub mod monthly;
pub mod report;
pub mod streaming;
pub mod table1;
pub mod visualize;

pub use assessment::{AssessError, Assessment, CoverageReport, MonthCoverage};
pub use keylife::ShardedKeyLife;
pub use keylife::{KeyLife, KeyLifeAccumulator, KeyLifeConfig, KeyLifeError, KeyProfile};
pub use monthly::EvaluationProtocol;
pub use streaming::WindowAccumulator;
pub use table1::Table1;
