//! §3.1.2's three request/response exchanges, probe by probe. Connection
//! setup walks the sender's authority list, forwarding cascades over the
//! recipient's servers, and GetMail probes one server after another; each
//! retransmits to a silent peer with backoff until its retry budget is
//! spent, then moves on. The span log records every probe as `(site, peer,
//! attempt)`, so these tests pin, on `fig1` with one server down, exactly
//! which peers each exchange tried, in what order, and how often — the
//! sequence any rewrite of the session layer has to reproduce. The last
//! one pins the one way a timer can outlive its probe: a server that
//! crashes and recovers within a forward's timeout.

use lems::core::{MailName, MessageId};
use lems::net::generators::fig1;
use lems::net::NodeId;
use lems::sim::span::{SpanId, SpanStage};
use lems::sim::time::SimTime;
use lems::store::{DurabilityConfig, WalConfig};
use lems::syntax::actors::TIMEOUT_SLACK;
use lems::syntax::{Deployment, DeploymentConfig, ServerFailurePlan};

/// Every scenario quiesces far below this; exhausting it means a stuck
/// retry loop, which must fail the test rather than hang it.
const EVENT_BUDGET: u64 = 2_000_000;

/// One probe as the span log saw it: `(site, peer, 0-based attempt)`.
type Probe = (u64, u64, u64);

fn t(u: f64) -> SimTime {
    SimTime::from_units(u)
}

fn deployment() -> Deployment {
    deployment_with(DurabilityConfig::default())
}

fn deployment_with(durability: DurabilityConfig) -> Deployment {
    let f = fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[2, 2, 2, 2, 2, 2],
        &DeploymentConfig {
            seed: 5,
            durability,
            ..DeploymentConfig::default()
        },
    );
    d.enable_spans();
    d
}

fn authorities(d: &Deployment, user: &MailName) -> Vec<NodeId> {
    d.directory
        .by_name(user)
        .expect("a generated user")
        .authorities
        .servers()
        .to_vec()
}

/// Every probe recorded on `span`, in record order.
fn probes(d: &Deployment, span: SpanId) -> Vec<Probe> {
    d.spans
        .borrow()
        .events()
        .iter()
        .filter(|e| e.span == span && e.stage == SpanStage::Probe)
        .map(|e| (e.site, e.peer, e.detail))
        .collect()
}

/// The span of the only message submitted so far.
fn message_span(d: &Deployment) -> SpanId {
    let id: MessageId = *d
        .stats
        .borrow()
        .ledger_submitted
        .iter()
        .next()
        .expect("one message submitted");
    d.spans.borrow().span_of(id.0).expect("a message span")
}

/// The check spans, in the order the checks started.
fn check_spans(d: &Deployment) -> Vec<SpanId> {
    d.spans
        .borrow()
        .events()
        .iter()
        .filter(|e| e.stage == SpanStage::CheckStarted)
        .map(|e| e.span)
        .collect()
}

/// A sender and a recipient with different primaries, the recipient's
/// secondary not the sender's primary: every hop is a Forward.
fn forward_pair(d: &Deployment) -> (MailName, MailName) {
    let names = d.user_names();
    names
        .iter()
        .flat_map(|a| names.iter().map(move |b| (a, b)))
        .find(|(a, b)| {
            let (la, lb) = (authorities(d, a), authorities(d, b));
            la[0] != lb[0] && lb[1] != la[0]
        })
        .map(|(a, b)| (a.clone(), b.clone()))
        .expect("fig1 has such a pair")
}

fn n(node: NodeId) -> u64 {
    node.0 as u64
}

/// Connection setup: the sender's primary is down, so the host sends it
/// all three attempts, then submits to the secondary, which accepts on the
/// first try and forwards on.
#[test]
fn a_submit_exhausts_a_downed_primary_and_fails_over() {
    let mut d = deployment();
    let names = d.user_names();
    let (alice, bob) = (names[0].clone(), names[1].clone());
    let list = authorities(&d, &alice);
    let host = d.directory.by_name(&alice).expect("alice").home_host;
    let mut plan = ServerFailurePlan::new();
    plan.add(list[0], t(0.5), t(100.0));
    d.apply_server_failures(&plan);

    d.send_at(t(1.0), &alice, &bob);
    d.check_at(t(200.0), &bob);
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    assert_eq!(d.stats.borrow().retrieved, 1);

    let probes = probes(&d, message_span(&d));
    let submits: Vec<Probe> = probes.iter().copied().filter(|p| p.0 == n(host)).collect();
    assert_eq!(
        submits,
        vec![
            (n(host), n(list[0]), 0),
            (n(host), n(list[0]), 1),
            (n(host), n(list[0]), 2),
            (n(host), n(list[1]), 0),
        ]
    );
    // Bob shares alice's primary, so the secondary that accepted walks
    // bob's list from that downed primary too, spends three attempts on
    // it, and deposits at itself.
    assert_eq!(
        probes,
        vec![
            (3, 0, 0),
            (3, 0, 1),
            (3, 0, 2),
            (3, 1, 0),
            (1, 0, 0),
            (1, 0, 1),
            (1, 0, 2),
        ]
    );
}

/// Forwarding: the recipient's primary is down, so the accepting server
/// spends all three attempts on it, then cascades to the next server of
/// the recipient's list.
#[test]
fn a_forward_cascades_past_a_downed_authority_server() {
    let mut d = deployment();
    let (alice, bob) = forward_pair(&d);
    let (la, lb) = (authorities(&d, &alice), authorities(&d, &bob));
    let host = d.directory.by_name(&alice).expect("alice").home_host;
    let mut plan = ServerFailurePlan::new();
    plan.add(lb[0], t(0.5), t(100.0));
    d.apply_server_failures(&plan);

    d.send_at(t(1.0), &alice, &bob);
    d.check_at(t(200.0), &bob);
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    assert_eq!(d.stats.borrow().retrieved, 1);

    let probes = probes(&d, message_span(&d));
    assert_eq!(
        probes[..5],
        [
            (n(host), n(la[0]), 0),
            (n(la[0]), n(lb[0]), 0),
            (n(la[0]), n(lb[0]), 1),
            (n(la[0]), n(lb[0]), 2),
            (n(la[0]), n(lb[1]), 0),
        ]
    );
    // The secondary that accepted walks bob's list from the top again, so
    // it too spends three attempts on the downed primary before it
    // deposits at itself.
    assert_eq!(
        probes,
        vec![
            (3, 0, 0),
            (0, 1, 0),
            (0, 1, 1),
            (0, 1, 2),
            (0, 2, 0),
            (2, 1, 0),
            (2, 1, 1),
            (2, 1, 2),
        ]
    );
}

/// GetMail: the recipient's secondary is down through the first check,
/// which walks the whole list and gives the secondary up after three
/// attempts. The primary has been up since, so the next check stops
/// after one poll of it — and sweeps the secondary it missed.
#[test]
fn a_retrieve_times_out_a_server_and_sweeps_it_on_the_next_check() {
    let mut d = deployment();
    let names = d.user_names();
    let bob = names[1].clone();
    let list = authorities(&d, &bob);
    let host = d.directory.by_name(&bob).expect("bob").home_host;
    let mut plan = ServerFailurePlan::new();
    plan.add(list[1], t(50.0), t(150.0));
    d.apply_server_failures(&plan);

    d.check_at(t(100.0), &bob);
    d.check_at(t(200.0), &bob);
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

    let checks = check_spans(&d);
    assert_eq!(checks.len(), 2);
    let h = n(host);
    assert_eq!(
        probes(&d, checks[0]),
        vec![
            (h, n(list[0]), 0),
            (h, n(list[1]), 0),
            (h, n(list[1]), 1),
            (h, n(list[1]), 2),
            (h, n(list[2]), 0),
        ]
    );
    assert_eq!(
        probes(&d, checks[1]),
        vec![(h, n(list[0]), 0), (h, n(list[1]), 0)]
    );
    assert_eq!(d.stats.borrow().retrieval_polls.count(), 2);
}

/// A forward's timer can outlive its probe: the accepting server crashes
/// just after forwarding to the recipient's downed primary and recovers
/// within the timeout. Its write-ahead log kept custody of the message, so
/// recovery forwards it again and arms a new timer — and the one armed
/// before the crash still fires. The exchange ignores that one: the
/// re-sent probe waits out a timeout of its own before it retransmits.
#[test]
fn a_timer_armed_before_a_crash_does_not_cut_the_recovered_forward_short() {
    let mut d = deployment_with(DurabilityConfig::Wal(WalConfig::default()));
    let (alice, bob) = forward_pair(&d);
    let (la, lb) = (authorities(&d, &alice), authorities(&d, &bob));
    let host = d.directory.by_name(&alice).expect("alice").home_host;
    let mut plan = ServerFailurePlan::new();
    plan.add(lb[0], t(0.5), t(100.0));
    d.apply_server_failures(&plan);

    d.send_at(t(1.0), &alice, &bob);
    let forwarded = |d: &Deployment| {
        d.spans
            .borrow()
            .events()
            .iter()
            .any(|e| e.stage == SpanStage::Forwarded)
    };
    while !forwarded(&d) {
        assert!(d.sim.step(), "the message is forwarded");
    }
    // The shortest timeout the probe can have armed; with 10 % jitter it
    // fires within 1.1 of these, so a recovery half-way is before it.
    let proc = DeploymentConfig::default().server_spec.proc_time;
    let base = 2.0 * d.transport.delay(la[0], lb[0]).as_units() + proc + TIMEOUT_SLACK;
    let sent = d.sim.now().as_units();
    let mut plan = ServerFailurePlan::new();
    plan.add(la[0], t(sent + 0.01), t(sent + base / 2.0));
    d.apply_server_failures(&plan);
    d.check_at(t(200.0), &bob);
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    assert_eq!(d.recoveries.borrow().len(), 2);
    assert_eq!(d.stats.borrow().retrieved, 1);

    let span = message_span(&d);
    assert_eq!(
        probes(&d, span)[..6],
        [
            (n(host), n(la[0]), 0),
            (n(la[0]), n(lb[0]), 0),
            (n(la[0]), n(lb[0]), 0),
            (n(la[0]), n(lb[0]), 1),
            (n(la[0]), n(lb[0]), 2),
            (n(la[0]), n(lb[1]), 0),
        ]
    );
    let at: Vec<f64> = d
        .spans
        .borrow()
        .events()
        .iter()
        .filter(|e| e.span == span && e.stage == SpanStage::Probe)
        .map(|e| e.at.as_units())
        .collect();
    assert_eq!(at[1], sent);
    assert!(at[2] >= sent + base / 2.0, "re-sent on recovery");
    assert!(
        at[3] >= at[2] + base,
        "the retransmit waits a full timeout after the re-sent probe"
    );
}
