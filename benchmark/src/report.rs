//! Result documents: the driver's one-line result, the detail line that
//! precedes it, and the multi-workload report `compare` reads.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

#[derive(Clone, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The last line of standard output of a single-workload run.
#[derive(Serialize, Deserialize)]
pub struct DriverLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

/// Printed on the line before [`DriverLine`], prefixed `detail `: what the
/// driver's format has no room for.
#[derive(Default, Serialize, Deserialize)]
pub struct Detail {
    pub workload: String,
    pub seed: u64,
    pub digest: String,
    /// Per-repetition values of the host-time end-to-end metrics.
    pub reps: BTreeMap<String, Vec<f64>>,
    /// Per-layer metrics that do not apply to this workload (the driver's
    /// line carries them as 0).
    pub not_applicable: Vec<String>,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

/// One workload's rows in a [`Report`].
#[derive(Serialize, Deserialize)]
pub struct WorkloadReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub end_to_end: BTreeMap<String, Metric>,
    /// Only the metrics that apply to the workload.
    pub per_layer: BTreeMap<String, Metric>,
    pub reps: BTreeMap<String, Vec<f64>>,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

/// What `lems-benchmark all` writes and `lems-benchmark compare` reads.
#[derive(Serialize, Deserialize)]
pub struct Report {
    pub seed: u64,
    pub smoke: bool,
    pub workloads: BTreeMap<String, WorkloadReport>,
}

/// Every metric by name with its unit, one per line.
pub fn print_table(title: &str, metrics: &BTreeMap<String, Metric>, skip: &[String]) {
    println!("{title}");
    for (name, m) in metrics {
        if skip.contains(name) {
            println!("  {name:<36} {:>18}", "n/a");
        } else {
            println!("  {name:<36} {:>18.6} {}", m.value, m.unit);
        }
    }
}
