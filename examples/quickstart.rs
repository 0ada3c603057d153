//! Quickstart: build the paper's Fig. 1 mail system, send a message,
//! retrieve it, and look at the run statistics.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lems::net::generators::fig1;
use lems::sim::metrics::LogHistogram;
use lems::sim::time::SimTime;
use lems::syntax::{Deployment, DeploymentConfig};

fn main() {
    // The worked example of the paper: 6 hosts, 3 servers, one region.
    let scenario = fig1();

    // Build a full System-1 deployment: the §3.1.1 assignment algorithm
    // places users on servers and derives each user's ordered
    // authority-server list; host and server actors are wired over the
    // deterministic simulator.
    let mut mail = Deployment::build(
        &scenario.topology,
        &[3, 3, 3, 3, 3, 3], // three users per host for the demo
        &DeploymentConfig::default(),
    );

    let users = mail.user_names();
    let alice = users[0].clone();
    let bob = users[users.len() - 1].clone();
    println!("deployment: {} users, e.g. {alice} and {bob}", users.len());

    // Alice writes to Bob at t=1; Bob checks his mail at t=50.
    mail.send_at(SimTime::from_units(1.0), &alice, &bob);
    mail.check_at(SimTime::from_units(50.0), &bob);
    // Bounded, so a livelocked protocol fails loudly instead of spinning.
    assert!(
        mail.sim.run_to_quiescence_bounded(100_000),
        "one send and one check did not quiesce within 100k events"
    );

    let end_to_end = mail
        .merged_metrics()
        .histogram("end_to_end")
        .map_or(0.0, LogHistogram::mean);
    let stats = mail.stats.borrow();
    println!("submitted: {}", stats.submitted);
    println!("deposited: {}", stats.deposited);
    println!("retrieved: {}", stats.retrieved);
    println!("end-to-end latency: {end_to_end:.2} time units");
    println!(
        "retrieval polls (first check walks the whole list): {}",
        stats.retrieval_polls.mean()
    );
    assert_eq!(stats.retrieved, 1);
    println!("\nok: the message made it.");
}
