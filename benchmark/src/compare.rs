//! `lems-benchmark compare <a.json> <b.json>`: applies each end-to-end
//! metric's bound to two reports, `a` the parent and `b` the change.
//!
//! One row per workload × metric. A metric whose repetitions spread wider
//! than its bound is *unresolved*, not unchanged, unless every repetition
//! of `b` reads better than every repetition of `a`. Reports of one seed
//! must carry identical digests: simulated results may not drift when
//! only the simulator's speed was meant to change.

use std::process::ExitCode;

use crate::report::{Report, WorkloadReport};
use crate::spec::{EndToEnd, END_TO_END};

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn reps<'a>(w: &'a WorkloadReport, name: &str) -> &'a [f64] {
    w.reps.get(name).map_or(&[][..], Vec::as_slice)
}

/// `(max − min) / median` of a metric's repetitions; 0 for fewer than two.
fn spread(w: &WorkloadReport, name: &str) -> f64 {
    let reps = reps(w, name);
    if reps.len() < 2 {
        return 0.0;
    }
    let (lo, hi) = reps
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / crate::rep::median(reps).abs().max(f64::MIN_POSITIVE)
}

/// The verdict on one metric and how much worse `vb` is than `va`, as a
/// share of `va` (negative = better).
fn verdict(
    m: &EndToEnd,
    (a, va): (&WorkloadReport, f64),
    (b, vb): (&WorkloadReport, f64),
) -> (&'static str, f64) {
    let worse = if m.higher_is_better() {
        va - vb
    } else {
        vb - va
    } / va.abs().max(f64::MIN_POSITIVE);
    let noisy = spread(a, m.name).max(spread(b, m.name)) > m.bound;
    if noisy {
        let all_better = reps(a, m.name).iter().all(|&x| {
            reps(b, m.name)
                .iter()
                .all(|&y| if m.higher_is_better() { y > x } else { y < x })
        });
        return (if all_better { "improved" } else { "unresolved" }, worse);
    }
    let verdict = if worse > m.bound {
        "REGRESSION"
    } else if worse < -m.bound {
        "improved"
    } else {
        "unchanged"
    };
    (verdict, worse)
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let same_inputs = a.seed == b.seed && a.smoke == b.smoke;
    let mut regressions = 0;
    println!(
        "{:<18} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(name) else {
            println!("{name:<18} missing from {path_b}: REGRESSION");
            regressions += 1;
            continue;
        };
        if same_inputs && wa.digest != wb.digest {
            println!(
                "{name:<18} digest {} != {}: simulated results differ for one seed: REGRESSION",
                wa.digest, wb.digest
            );
            regressions += 1;
        }
        if !wb.correct {
            println!("{name:<18} output checks failed in {path_b}: REGRESSION");
            regressions += 1;
        }
        for m in END_TO_END {
            let (Some(ma), Some(mb)) = (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name))
            else {
                println!(
                    "{name:<18} {:<18} missing from a report: REGRESSION",
                    m.name
                );
                regressions += 1;
                continue;
            };
            let (verdict, worse) = verdict(m, (wa, ma.value), (wb, mb.value));
            println!(
                "{name:<18} {:<18} {:>16.4} {:>16.4} {:>8.2}% {:>6.1}%  {verdict}",
                m.name,
                ma.value,
                mb.value,
                worse * 100.0,
                m.bound * 100.0,
            );
            regressions += usize::from(verdict == "REGRESSION");
        }
    }
    if regressions > 0 {
        println!("{regressions} regression(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
