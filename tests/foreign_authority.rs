//! A foreign authority, pinned: a known defect of §3.1.2b resolution as
//! built.
//!
//! When a user's authority list reaches outside their region, the server
//! outside it never holds their mail. `resolve` tests the name's region
//! before anything else, so that server forwards the user's mail into the
//! user's region like any other foreign server does, even when it is
//! itself the one authority still up. This test asserts the defect as it
//! stands, so it fails the moment anything moves it. The fix (ROADMAP:
//! "foreign authorities") must deliver every one of these messages.

use lems::core::message::BounceReason;
use lems::net::generators::{multi_region, MultiRegionConfig};
use lems::sim::rng::SimRng;
use lems::sim::span::{ResolveCode, SpanStage};
use lems::sim::time::SimTime;
use lems::syntax::actors::{Deployment, DeploymentConfig, ServerFailurePlan};

/// Every run here quiesces far below this.
const EVENT_BUDGET: u64 = 2_000_000;

fn t(u: f64) -> SimTime {
    SimTime::from_units(u)
}

/// Seed 5's three regions of three hosts and two servers, four users a
/// host: every authority list is the user's two regional servers, then
/// one server of another region. For each of the 36 owners, a fresh
/// deployment takes both of the owner's regional authorities down in
/// [5, 2000) and, at t = 10, the first user (in name order) of the third
/// authority's region mails the owner. Every message bounces
/// `AllServersDown`. In 24 of the 36 the sender's primary is that third
/// authority, which is up: it accepts the message, resolves the owner as
/// foreign and forwards into the dead region instead of depositing.
#[test]
fn a_foreign_authority_forwards_its_users_mail_into_their_dead_region() {
    let topology = multi_region(
        &mut SimRng::seed(5).fork("topology"),
        &MultiRegionConfig {
            regions: 3,
            hosts_per_region: 3,
            servers_per_region: 2,
            ..MultiRegionConfig::default()
        },
    );
    let users = vec![4; topology.hosts().len()];
    let build = || Deployment::build(&topology, &users, &DeploymentConfig::default());
    let wired = build();
    let names = wired.user_names();
    assert_eq!(names.len(), 36);
    let region_of_user = |name| topology.region(wired.directory.by_name(name).unwrap().home_host);

    let mut at_third = 0;
    for owner in &names {
        let list = wired.directory.by_name(owner).unwrap().authorities.clone();
        let home = region_of_user(owner);
        let regions: Vec<_> = list.servers().iter().map(|&s| topology.region(s)).collect();
        assert!(
            regions.len() == 3 && regions[..2] == [home, home] && regions[2] != home,
            "{owner}: {regions:?}"
        );
        let third = list.servers()[2];
        let sender = names
            .iter()
            .find(|&u| region_of_user(u) == regions[2])
            .unwrap();
        let primary = wired
            .directory
            .by_name(sender)
            .unwrap()
            .authorities
            .primary();

        let mut d = build();
        d.enable_spans();
        let mut plan = ServerFailurePlan::new();
        for &s in &list.servers()[..2] {
            plan.add(s, t(5.0), t(2000.0));
        }
        d.apply_server_failures(&plan);
        d.send_at(t(10.0), sender, owner);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(
            (st.submitted, st.deposited, st.bounced),
            (1, 0, 1),
            "{owner}"
        );
        let reasons: Vec<_> = st.ledger_bounced.values().copied().collect();
        assert_eq!(reasons, [BounceReason::AllServersDown], "{owner}");
        let resolved_at_third: Vec<u64> = d
            .spans
            .borrow()
            .events()
            .iter()
            .filter(|e| e.stage == SpanStage::Resolved && e.site == third.0 as u64)
            .map(|e| e.detail)
            .collect();
        if primary == third {
            at_third += 1;
            let forwarded = ResolveCode::ForwardToRegion.as_detail();
            assert_eq!(resolved_at_third, [forwarded], "{owner}");
        } else {
            assert_eq!(resolved_at_third, [] as [u64; 0], "{owner}");
        }
    }
    assert_eq!(at_third, 24, "of 36 owners");
}
