//! The store held to a plain model: a name-ordered map from owner to the
//! messages a store holds for them, in a mailbox and in a reservation
//! buffer.
//!
//! Four subjects run every script side by side, each wired with the same
//! roster (the owners a server's authority lists name) and each beside
//! its own copy of the model: a bare `StoreState`, which also takes
//! snapshot restores and a re-seeded roster; and a `Store` in each of its
//! three modes — a volatile one, whose crash empties its model too; a
//! stable one, whose crash leaves its model as it was; and a WAL one that
//! compacts often, is crashed and recovered, and after every step is
//! replayed from its log into a state that must equal the live one.
//! Owners on and off the roster are drained, deposited to and
//! acknowledged with hints drawn from the roster, as wiring hands them
//! out: right (the owner's rank, or for an owner off the roster the row
//! the store holds), stale (their rank before the roster was re-seeded),
//! another owner's rank, made up, out of range, or none; an
//! acknowledgement also lists another owner's reserved ids, as a forged
//! one would. A drain must report mail moved exactly when the model's
//! mailbox held some, and the WAL store must log it exactly then. After
//! every step each store must show the model's views in name order, with
//! no entry for an owner who holds nothing, and keep each roster owner in
//! the slot of their rank.

use std::collections::{BTreeMap, BTreeSet};

use lems_core::message::{Message, MessageId};
use lems_core::name::MailName;
use lems_core::store::{MailStore, Mailboxes, PendingDrain, StoreState, NO_OWNER_SLOT};
use lems_sim::time::SimTime;
use lems_store::{DurabilityConfig, Store, SyncPolicy, WalConfig};
use proptest::prelude::*;

const USERS: &[&str] = &[
    "east.vax1.alice",
    "east.vax1.bob",
    "east.vax2.carol",
    "north.pc1.dave",
    "north.pc1.erin",
    "south.pc2.frank",
    "west.sun1.grace",
    "west.sun1.heidi",
];

fn user(i: usize) -> MailName {
    USERS[i % USERS.len()].parse().unwrap()
}

/// The users whose bit is set in `mask`.
fn roster(mask: u8) -> Vec<MailName> {
    (0..USERS.len())
        .filter(|i| mask & (1 << i) != 0)
        .map(user)
        .collect()
}

/// What one owner holds, as the model keeps it.
#[derive(Clone, Debug, Default, PartialEq)]
struct Held {
    mailbox: Vec<Message>,
    reserved: Vec<Message>,
}

/// What a store holds: per owner, a mailbox and a reservation buffer; and
/// the ids ever deposited.
#[derive(Clone, Debug, Default)]
struct Model {
    owners: BTreeMap<MailName, Held>,
    deposited: BTreeSet<MessageId>,
}

impl Model {
    fn deposit(&mut self, m: &Message) -> bool {
        if !self.deposited.insert(m.id) {
            return false;
        }
        self.restore_chunk(&m.to, std::slice::from_ref(m));
        true
    }

    fn restore_chunk(&mut self, owner: &MailName, messages: &[Message]) {
        let held = self.owners.entry(owner.clone()).or_default();
        held.mailbox.extend(messages.iter().cloned());
    }

    /// The reserved list, and whether any mail moved into it.
    fn drain(&mut self, owner: &MailName) -> (Vec<Message>, bool) {
        let Some(held) = self.owners.get_mut(owner) else {
            return (Vec::new(), false);
        };
        let moved = !held.mailbox.is_empty();
        held.reserved.append(&mut held.mailbox);
        (held.reserved.clone(), moved)
    }

    fn release(&mut self, owner: &MailName, ids: &[MessageId]) -> u64 {
        let Some(held) = self.owners.get_mut(owner) else {
            return 0;
        };
        let before = held.reserved.len();
        held.reserved.retain(|m| !ids.contains(&m.id));
        (before - held.reserved.len()) as u64
    }

    /// The state a compaction snapshot of this model replays to.
    fn snapshot(&self) -> StoreState {
        let mut state = StoreState::default();
        for (owner, held) in &self.owners {
            state.restore_snapshot_chunk(owner, held.mailbox.clone());
            state.restore_snapshot_pending(owner, held.reserved.clone());
        }
        state.deposited.clone_from(&self.deposited);
        state
    }

    /// True when `owner` holds a message, in their mailbox or buffer.
    fn holds(&self, owner: &MailName) -> bool {
        self.owners
            .get(owner)
            .is_some_and(|held| !held.mailbox.is_empty() || !held.reserved.is_empty())
    }

    /// The reserved messages of `owner`, if any.
    fn reserved(&self, owner: &MailName) -> Vec<MessageId> {
        self.owners
            .get(owner)
            .map(|held| held.reserved.iter().map(|m| m.id).collect())
            .unwrap_or_default()
    }
}

/// A store's two views against the model: both in name order, each
/// listing only the owners who hold messages of its kind.
fn assert_views(mailboxes: &Mailboxes<'_>, pending: &PendingDrain<'_>, model: &Model, who: &str) {
    let boxes: Vec<(&MailName, &[Message])> = mailboxes
        .iter()
        .map(|(owner, mb)| (owner, mb.peek()))
        .collect();
    let want: Vec<(&MailName, &[Message])> = model
        .owners
        .iter()
        .filter(|(_, held)| !held.mailbox.is_empty())
        .map(|(owner, held)| (owner, &held.mailbox[..]))
        .collect();
    assert_eq!(boxes, want, "{who}: mailboxes");

    let buffers: Vec<(&MailName, &Vec<Message>)> = pending.iter().collect();
    let want: Vec<(&MailName, &Vec<Message>)> = model
        .owners
        .iter()
        .filter(|(_, held)| !held.reserved.is_empty())
        .map(|(owner, held)| (owner, &held.reserved))
        .collect();
    assert_eq!(buffers, want, "{who}: reservation buffers");
}

/// Every user's row against the roster: a roster owner is in the slot of
/// their rank, an owner off it who holds mail in a slot past the roster,
/// and anyone else in no slot or one past the roster.
fn assert_slots(state: &StoreState, model: &Model, roster: &[MailName], who: &str) {
    for i in 0..USERS.len() {
        let owner = user(i);
        let slot = state.slot_of(&owner).map(|slot| slot as usize);
        match roster.iter().position(|n| *n == owner) {
            Some(rank) => assert_eq!(slot, Some(rank), "{who}: {owner} keeps its roster slot"),
            None if model.holds(&owner) => {
                assert!(slot >= Some(roster.len()), "{who}: {owner} has a row");
            }
            None => assert!(slot.is_none_or(|s| s >= roster.len()), "{who}: {owner}"),
        }
    }
}

/// One scripted step, `(op, user, val)`.
type Op = (u8, usize, u32);

struct Run {
    roster: Vec<MailName>,
    /// The roster before the last re-seed, for stale hints.
    old_roster: Vec<MailName>,
    next_id: u64,
    /// The last message deposited, for a duplicate delivery.
    last: Option<Message>,
    state: StoreState,
    /// The stores of subjects [`VOLATILE`], [`STABLE`] and [`WAL`], in
    /// that order.
    stores: [Store; 3],
    /// Each subject's model, by subject.
    models: [Model; 4],
}

const STATE: usize = 0;
const VOLATILE: usize = 1;
const STABLE: usize = 2;
const WAL: usize = 3;
/// The subjects that are stores.
const STORES: [usize; 3] = [VOLATILE, STABLE, WAL];

impl Run {
    fn new(mask: u8) -> Self {
        let roster = roster(mask);
        let mut state = StoreState::default();
        state.seed_roster(&roster);
        let cfg = WalConfig {
            segment_bytes: 256,
            chunk_messages: 2,
            max_segments: 2,
            sync: SyncPolicy::PerRecord,
            ..WalConfig::default()
        };
        let mut stores = [
            DurabilityConfig::Volatile,
            DurabilityConfig::Ideal,
            DurabilityConfig::Wal(cfg),
        ]
        .map(|cfg| Store::new(&cfg));
        for store in &mut stores {
            store.seed_roster(&mut roster.iter());
        }
        Run {
            old_roster: roster.clone(),
            roster,
            next_id: 0,
            last: None,
            state,
            stores,
            models: Default::default(),
        }
    }

    /// The store of subject `i`, one of [`STORES`].
    fn store(&mut self, i: usize) -> &mut Store {
        &mut self.stores[i - 1]
    }

    /// The state of subject `i`.
    fn state_of(&self, i: usize) -> &StoreState {
        match i {
            STATE => &self.state,
            _ => self.stores[i - 1].state(),
        }
    }

    /// The hint an operation on `who` carries at subject `i`, by `kind`:
    /// the right one (the roster rank wiring hands out, or for an owner
    /// off the roster the row the subject holds), a stale one (the rank
    /// before the last re-seed), another owner's rank, none, a made-up
    /// one, or one past any slot a store of these users can have.
    fn hint(&self, i: usize, who: usize, kind: u8, val: u32) -> u32 {
        let rank = |roster: &[MailName], u: usize| {
            let at = roster.iter().position(|n| *n == user(u));
            at.map(|rank| rank as u32)
        };
        match kind % 6 {
            0 => rank(&self.roster, who).or_else(|| self.state_of(i).slot_of(&user(who))),
            1 => rank(&self.old_roster, who),
            2 => rank(
                &self.roster,
                (who + 1 + val as usize % (USERS.len() - 1)) % USERS.len(),
            ),
            3 => None,
            4 => Some(val),
            _ => Some(USERS.len() as u32 + val),
        }
        .unwrap_or(NO_OWNER_SLOT)
    }

    fn step(&mut self, (op, who, val): Op) {
        let owner = user(who);
        let now = SimTime::from_units(f64::from(val % 50));
        match op {
            // Deposits dominate, as in real traffic; a few are duplicates.
            // Half carry no hint, half one of any kind.
            0..=3 => {
                let m = match (&self.last, val % 7) {
                    (Some(last), 0) => last.clone(),
                    _ => {
                        self.next_id += 1;
                        Message::new(
                            MessageId(self.next_id),
                            user(who + 1),
                            owner.clone(),
                            "s",
                            "b",
                            now,
                        )
                    }
                };
                let hinted = op >= 2;
                for i in [STATE].into_iter().chain(STORES) {
                    let hint = self.hint(i, who, op + (val % 5) as u8, val % 12);
                    let fresh = self.models[i].deposit(&m);
                    let got = match (i, hinted) {
                        (STATE, false) => self.state.deposit_at(m.clone(), NO_OWNER_SLOT),
                        (STATE, true) => self.state.deposit_at(m.clone(), hint),
                        (_, false) => self.stores[i - 1].deposit(m.clone(), now),
                        (_, true) => self.stores[i - 1].deposit_at(m.clone(), now, hint),
                    };
                    assert_eq!(got, fresh, "subject {i}: deposit to {owner}");
                }
                self.last = Some(m);
            }
            // A drain with a hint of some kind; mail moves only out of a
            // mailbox that holds some, and a second drain moves nothing.
            4..=6 => {
                let kind = op + (val % 3) as u8;
                let hint = self.hint(STATE, who, kind, val % 12);
                let want = self.models[STATE].drain(&owner);
                let got = self.state.drain_reserve_at(&owner, hint);
                assert_eq!(got, want, "state: drain of {owner}");
                let again = self.state.drain_reserve_at(&owner, hint);
                assert_eq!(again, (got.0, false), "state: drain of {owner} again");
                for i in STORES {
                    let hint = self.hint(i, who, kind, val % 12);
                    let (want, moved) = self.models[i].drain(&owner);
                    let store = &mut self.stores[i - 1];
                    let appended = store.store_metrics().appended_records;
                    assert_eq!(
                        store.drain_reserve_at(&owner, hint),
                        want,
                        "store {i}: drain of {owner}"
                    );
                    if i == WAL {
                        let logged = store.store_metrics().appended_records > appended;
                        assert_eq!(
                            logged, moved,
                            "wal: a drain of {owner} is logged iff mail moved"
                        );
                    }
                }
            }
            // An acknowledgement of part of the buffer, ids it never held
            // and, as a forged one would, ids of another owner's buffer;
            // without a hint, or with one of any kind.
            7 | 14 => {
                let other = user(who + 1 + val as usize % (USERS.len() - 1));
                for i in [STATE].into_iter().chain(STORES) {
                    let hint = self.hint(i, who, (val % 6) as u8, val % 12);
                    let model = &mut self.models[i];
                    let mut ids = model.reserved(&owner);
                    ids.truncate(1 + val as usize % 3);
                    ids.push(MessageId(u64::from(val) + 1_000));
                    ids.extend(model.reserved(&other));
                    let want = model.release(&owner, &ids);
                    let got = match (i, op) {
                        (STATE, 7) => self.state.release_drained_at(&owner, &ids, NO_OWNER_SLOT),
                        (STATE, _) => self.state.release_drained_at(&owner, &ids, hint),
                        (_, 7) => self.stores[i - 1].release_drained(&owner, &ids),
                        (_, _) => self.stores[i - 1].release_drained_at(&owner, &ids, hint),
                    };
                    assert_eq!(got, want, "subject {i}: release for {owner}");
                }
            }
            // Snapshot restores, as a replay applies them.
            8 => {
                self.next_id += 1;
                let m = Message::new(
                    MessageId(self.next_id),
                    user(who + 1),
                    owner.clone(),
                    "s",
                    "b",
                    now,
                );
                let chunk = vec![m];
                self.models[STATE].restore_chunk(&owner, &chunk);
                self.state.restore_snapshot_chunk(&owner, chunk);
            }
            // A buffer chunk: empty, which restores nothing, or a message
            // reserved for someone who may hold no mailbox.
            9 => {
                let mut messages = Vec::new();
                if val % 3 != 0 {
                    self.next_id += 1;
                    let id = MessageId(self.next_id);
                    messages.push(Message::new(
                        id,
                        user(who + 1),
                        owner.clone(),
                        "s",
                        "b",
                        now,
                    ));
                }
                let entry = self.models[STATE].owners.entry(owner.clone());
                entry.or_default().reserved.extend(messages.iter().cloned());
                self.state.restore_snapshot_pending(&owner, messages);
            }
            // Wired again, with another roster: contents stay.
            10 => {
                self.old_roster = std::mem::replace(&mut self.roster, roster(val as u8));
                self.state.seed_roster(&self.roster);
                for store in &mut self.stores {
                    store.seed_roster(&mut self.roster.iter());
                }
            }
            // The volatile store forgets everything but its roster; the
            // stable one, nothing.
            11 => {
                for i in [VOLATILE, STABLE] {
                    let store = self.store(i);
                    store.crash(now);
                    let (report, unsettled) = store.recover(now);
                    assert!(unsettled.is_empty(), "store {i}: no forwards");
                    if i == STABLE {
                        assert_eq!(report.lost_messages, 0);
                    }
                }
                self.models[VOLATILE] = Model::default();
            }
            // The WAL store comes back as its log says.
            _ => {
                let wal = self.store(WAL);
                wal.crash(now);
                let (report, _) = wal.recover(now);
                assert_eq!(report.lost_messages, 0);
            }
        }
        self.check();
    }

    fn check(&mut self) {
        // Rows that hold nothing, the roster and the slots are no part of
        // what a state is: the model written as a snapshot, with no
        // roster, is the same state.
        assert_eq!(self.state, self.models[STATE].snapshot());
        let model = &self.models[STATE];
        assert_views(
            &self.state.mailboxes(),
            &self.state.pending(),
            model,
            "state",
        );
        assert_slots(&self.state, model, &self.roster, "state");
        for i in STORES {
            let (store, model) = (&self.stores[i - 1], &self.models[i]);
            let who = store.backend();
            assert_views(&store.mailboxes(), &store.pending_drain(), model, who);
            assert_slots(store.state(), model, &self.roster, who);
        }
        // The log replays to the live state.
        let wal = self.store(WAL);
        let live = wal.state().clone();
        assert!(wal.persist_restore().is_some());
        assert_eq!(wal.state(), &live, "replayed state");
    }
}

proptest! {
    #[test]
    fn the_store_is_its_model(
        mask in 0u8..=255,
        ops in proptest::collection::vec((0u8..15, 0usize..8, 0u32..64), 1..48),
    ) {
        let mut run = Run::new(mask);
        for op in ops {
            run.step(op);
        }
    }
}
