//! `repro` — regenerates every table and figure of *"Designing Large
//! Electronic Mail Systems"* (Bahaa-El-Din & Yuen, ICDCS 1988) plus the
//! paper's quantitative claims; `DESIGN.md` §4 is the experiment index
//! (FIG1/FIG2, T1–T3, C1–C8, SCALE).
//!
//! ```sh
//! cargo run --release -p lems-bench -- [name ...]
//! ```
//!
//! `repro <name>` prints exactly `artifacts/repro-<name>.txt`; several
//! names print their artifacts back to back, in the order given, and no
//! name prints all twelve in the order of `cat artifacts/repro-*.txt`. An
//! unknown name prints the usage and exits 2. What is printed is a
//! function of the experiments' seeds: there is no option and no clock.

#![forbid(unsafe_code)]

mod assign_exp;
mod cache_exp;
mod getmail_exp;
mod locindep_exp;
mod mst_exp;
mod render;
mod scale_exp;
mod scorecard;
mod scorecard_exp;

use std::process::ExitCode;

use render::Report;

/// An experiment's name and the function that runs it.
type Experiment = (&'static str, fn() -> Report);

/// Every experiment under the name its artifact carries after `repro-`,
/// in the order `cat artifacts/repro-*.txt` lists them.
const EXPERIMENTS: [Experiment; 12] = [
    ("assign-ablate", assign_exp::ablate_report),
    ("attr-cost", mst_exp::attr_cost_report),
    ("cache", cache_exp::report),
    ("fig1", assign_exp::fig1_report),
    ("fig2", mst_exp::fig2_report),
    ("getmail", getmail_exp::report),
    ("locindep", locindep_exp::report),
    ("mst-cost", mst_exp::mst_cost_report),
    ("scale", scale_exp::report),
    ("scorecard", scorecard_exp::report),
    ("table1-2", assign_exp::table1_2_report),
    ("table3", assign_exp::table3_report),
];

fn usage() -> String {
    let names: Vec<String> = EXPERIMENTS
        .iter()
        .map(|(name, _)| format!("  {name}\n"))
        .collect();
    format!(
        "usage: repro [name ...]\n\nexperiments (all of them, in this order, when none is named):\n{}",
        names.concat()
    )
}

fn main() -> ExitCode {
    let mut runs = Vec::new();
    for name in std::env::args().skip(1) {
        match EXPERIMENTS.iter().find(|(known, _)| *known == name) {
            Some(&(_, run)) => runs.push(run),
            None => {
                eprint!("repro: unknown experiment `{name}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    if runs.is_empty() {
        runs = EXPERIMENTS.iter().map(|&(_, run)| run).collect();
    }
    for run in runs {
        run().print();
    }
    ExitCode::SUCCESS
}
