//! Corporate mail under failures: a System-1 deployment on the Fig. 1
//! network rides out random server outages; every message is either
//! retrieved or bounced with an error — never silently lost (§5).
//!
//! ```sh
//! cargo run --example corporate_mail
//! ```

use lems::net::generators::fig1;
use lems::sim::metrics::LogHistogram;
use lems::sim::rng::SimRng;
use lems::sim::time::{SimDuration, SimTime};
use lems::syntax::{Deployment, DeploymentConfig, ServerFailurePlan};

fn main() {
    let scenario = fig1();
    let mut mail = Deployment::build(
        &scenario.topology,
        &[2, 2, 2, 2, 2, 2],
        &DeploymentConfig {
            seed: 2024,
            ..DeploymentConfig::default()
        },
    );
    let users = mail.user_names();
    let mut rng = SimRng::seed(2024).fork("corporate");

    // Servers fail randomly: ~90% availability (MTBF 90, MTTR 10).
    let outages = ServerFailurePlan::random(
        &mut rng,
        &scenario.topology.servers(),
        SimDuration::from_units(90.0),
        SimDuration::from_units(10.0),
        SimTime::from_units(800.0),
    );
    let outage_count: usize = outages.outages.values().map(Vec::len).sum();
    mail.apply_server_failures(&outages);
    println!("injected {outage_count} server outages across 800 time units");

    // A workday of traffic: everyone mails colleagues, checks regularly.
    let mut t = 1.0;
    while t < 700.0 {
        let from = rng.index(users.len());
        let mut to = rng.index(users.len());
        if to == from {
            to = (to + 1) % users.len();
        }
        mail.send_at(
            SimTime::from_units(t),
            &users[from].clone(),
            &users[to].clone(),
        );
        t += rng.unit() * 5.0 + 0.5;
    }
    let mut t = 10.0;
    while t < 820.0 {
        for u in users.clone() {
            mail.check_at(SimTime::from_units(t + rng.unit()), &u);
        }
        t += 30.0;
    }
    // Final sweep after all outages have healed.
    for (i, u) in users.clone().iter().enumerate() {
        mail.check_at(SimTime::from_units(900.0 + i as f64), u);
        mail.check_at(SimTime::from_units(950.0 + i as f64), u);
    }
    assert!(
        mail.sim.run_to_quiescence_bounded(2_000_000),
        "the day did not quiesce within 2M events: a retry loop is livelocked"
    );

    let latency = mail.merged_metrics();
    let mean = |name: &str| latency.histogram(name).map_or(0.0, LogHistogram::mean);
    let st = mail.stats.borrow();
    println!("submitted:           {}", st.submitted);
    println!("retrieved:           {}", st.retrieved);
    println!("bounced (notified):  {}", st.bounced);
    println!("silently lost:       {}", st.outstanding());
    println!(
        "submit attempts/msg: {:.2}",
        st.submit_attempts as f64 / st.submitted as f64
    );
    println!("polls per check:     {:.3}", st.retrieval_polls.mean());
    println!(
        "delivery latency:    {:.2} units (mean), end-to-end {:.1} units",
        mean("delivery_latency"),
        mean("end_to_end")
    );
    assert_eq!(st.outstanding(), 0, "the paper's no-loss guarantee");
    println!("\nok: no message was silently lost despite {outage_count} outages.");
}
