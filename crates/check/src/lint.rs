//! Scope-aware static lint pass over the workspace sources (engine v4).
//!
//! Two dependency-free layers (the build is offline): [`crate::lex`]
//! turns each file into a token stream with line spans — raw strings,
//! nested block comments, char-vs-lifetime, `r#` idents all handled —
//! and [`crate::items`] recovers the item shape on top of it:
//! module/fn/impl nesting, `#[cfg(test)]` inheritance, `# Panics` doc
//! contracts, enum definitions, `type Msg` protocol declarations, and
//! `match` arms. Every rule is a token or scope check over those two.
//!
//! The engine fences perimeters; it does not track flows. What v3's
//! statement parser, CFG builder and taint framework approximated is now
//! either a fact the compiler checks or a ban on naming the source at
//! all, each at least as strict as the flow rule it replaced:
//!
//! * durable mailbox/ledger state moves only through `MailStore`
//!   because `Mailbox`'s constructor and mutators are `pub(crate)` in
//!   `lems-core` (pinned by `compile_fail` doctests on `Mailbox`);
//! * a store/WAL `Result` dropped as a bare statement is a build error
//!   (`#![deny(unused_must_use)]` on `lems-core` and `lems-store`), and
//!   the two shapes `must_use` cannot see are banned by
//!   `no-ignored-store-errors` below;
//! * no nondeterministic value can reach a simulation sink because no
//!   nondeterminism source can be named in sim-driven code
//!   (`no-wall-clock`, `no-hash-collections`).
//!
//! ## Rules
//!
//! * **`no-panic`** — non-test library code must not contain
//!   `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`, or
//!   `unimplemented!`. A crashed simulation loses a whole experiment;
//!   fallible lookups return `Result` (see `lems_net::NetError`).
//!   `assert!`-family guards are allowed: they document invariants
//!   rather than handle input. Two exemptions: binary entry points
//!   (`src/main.rs`, `src/bin/**`) and the `lems-bench` driver crate
//!   may fail fast; and a panic site inside a function whose doc
//!   comment carries a `# Panics` section is vetted by that documented
//!   contract (the inverse of `clippy::missing_panics_doc`).
//! * **`no-wall-clock`**, **`no-hash-collections`**,
//!   **`no-ambient-parallelism`** — the rows of [`BANNED_IDENTS`]: in
//!   non-test code of the crates that run *inside* the simulation
//!   (`sim`, `syntax`, `locindep`, `mst`) these identifiers may not
//!   appear at all. Time comes from `sim::time`, randomness from the
//!   seeded `sim::rng`, collections are ordered, and nothing fans out
//!   over threads — or replays diverge.
//! * **`no-partial-cmp-sort`** — a `.sort*(…)` call whose comparator
//!   mentions `partial_cmp` panics on NaN or invites
//!   `unwrap_or(Ordering::Equal)` hacks that destroy total order; use
//!   `f64::total_cmp` or an `Ord` key. Applies to test code too, and
//!   across line breaks inside the call.
//! * **`no-unbounded-run`** — outside the `sim` crate, drive
//!   simulations with `run_to_quiescence_bounded(budget)`, never the
//!   unbounded `run_to_quiescence()`. Applies to test code too.
//! * **`rng-fork-discipline`** — every RNG in a sim-driven crate must
//!   descend from the deployment's seeded fork tree: a bare
//!   `SimRng::seed(…)` in non-test code that is not immediately
//!   `.fork(label)`-chained is a finding. A helper can only hand out
//!   such a root if its own body holds one, and that site is the
//!   finding. `sim/src/rng.rs` itself is the trusted module and exempt.
//! * **`event-match-exhaustive`** — for every protocol enum named by a
//!   non-test `type Msg = E;` actor impl, the handler file's non-test
//!   `match`es over `E` must name every variant: a catch-all arm
//!   silently swallowing unnamed variants is exactly how a new event
//!   kind gets dropped on the floor. Variants never constructed
//!   anywhere in the scanned sources are flagged as dead. Intentionally
//!   ignored variants are spelled `E::A { .. } | … => {}` so the ignore
//!   list is visible and compiler-checked.
//! * **`no-ignored-store-errors`** — in non-test code of the store
//!   perimeter (`crates/store/src/**` and `crates/core/src/store.rs`,
//!   the only files where a `SegmentIo`/`Wal` `Result` exists), `_ =`
//!   discards and `.ok()` are banned outright, whatever the receiver: a
//!   swallowed store error silently diverges the durable state from the
//!   log. Count it (`io_errors`) or propagate it.
//!
//! Vetted exceptions live in `lint-allow.txt` at the workspace root;
//! see [`Allowlist`] for the `rule@version` entry format. Entries that
//! no longer match any source line — or that pin an outdated rule
//! version — are *stale* and fail the pass, so the list cannot rot.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::items::ParsedFile;
use crate::lex::{Tok, TokKind};

/// Rule identifier: no panicking constructs in non-test library code.
pub const RULE_NO_PANIC: &str = "no-panic";
/// Rule identifier: no wall-clock or ambient randomness in sim-driven code.
pub const RULE_NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule identifier: no hash-ordered collections in sim-driven code.
pub const RULE_NO_HASH: &str = "no-hash-collections";
/// Rule identifier: no sorting through `partial_cmp` (use `total_cmp`/`Ord`).
pub const RULE_NO_PARTIAL_CMP_SORT: &str = "no-partial-cmp-sort";
/// Rule identifier: no unbounded `run_to_quiescence()` outside the sim crate.
pub const RULE_NO_UNBOUNDED_RUN: &str = "no-unbounded-run";
/// Rule identifier: no unaudited thread fan-out in sim-driven crates.
pub const RULE_NO_AMBIENT_PAR: &str = "no-ambient-parallelism";
/// Rule identifier: RNG draws must descend from the seeded fork tree.
pub const RULE_RNG_FORK: &str = "rng-fork-discipline";
/// Rule identifier: protocol-enum matches must name every variant.
pub const RULE_EVENT_MATCH: &str = "event-match-exhaustive";
/// Rule identifier: no `_ =` / `.ok()` discards in the store perimeter.
pub const RULE_IGNORED_STORE_ERR: &str = "no-ignored-store-errors";

/// Every rule id with its current version. Allowlist entries pin a
/// version (`rule@version`); when a rule's analysis changes enough that
/// old waivers need re-vetting, its version bumps here and the stale
/// entries fail the pass until re-audited.
pub fn rule_versions() -> &'static [(&'static str, u32)] {
    &[
        (RULE_NO_PANIC, 2),
        (RULE_NO_WALL_CLOCK, 3),
        (RULE_NO_HASH, 4),
        (RULE_NO_PARTIAL_CMP_SORT, 2),
        (RULE_NO_UNBOUNDED_RUN, 2),
        (RULE_NO_AMBIENT_PAR, 2),
        (RULE_RNG_FORK, 2),
        (RULE_EVENT_MATCH, 1),
        (RULE_IGNORED_STORE_ERR, 2),
    ]
}

fn version_of(rule: &str) -> u32 {
    rule_versions()
        .iter()
        .find(|&&(r, _)| r == rule)
        .map_or(0, |&(_, v)| v)
}

/// Crates whose code runs under the deterministic simulation clock.
const SIM_DRIVEN_CRATES: &[&str] = &["sim", "syntax", "locindep", "mst"];

/// The trusted RNG module: defines the seeded fork tree itself.
const RNG_MODULE: &str = "crates/sim/src/rng.rs";

/// The trusted profiler module: its wall-clock side channel (`Wall`) is
/// the one deliberate `Instant` in the sim crate, and by construction it
/// never flows into simulation state or exported bytes —
/// `tests/prof_digest.rs` pins that trace digests are identical with
/// profiling on and off.
const PROF_MODULE: &str = "crates/sim/src/prof.rs";

/// The only files where a `SegmentIo`/`Wal` `Result` exists
/// (`MailStore`'s own methods return none).
const STORE_PERIMETER: &[&str] = &["crates/store/src/", "crates/core/src/store.rs"];

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The rule that fired (`RULE_*` constant).
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Rule-specific explanation of why this site was flagged.
    pub note: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} — {}",
            self.path, self.line, self.rule, self.excerpt, self.note
        )
    }
}

/// Vetted exceptions, loaded from `lint-allow.txt`.
///
/// Format, one exception per line:
///
/// ```text
/// # comment
/// <rule>@<version> <path-suffix> <substring of the offending line>
/// ```
///
/// A violation is waived when all four match: the rule id, the entry's
/// pinned version equals the rule's *current* version, the violation's
/// path ends with `<path-suffix>`, and the raw source line contains the
/// substring. Entries that never waive anything — including entries
/// pinning an outdated rule version — are *stale* and fail the pass.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

#[derive(Clone, Debug)]
struct AllowEntry {
    rule: String,
    version: u32,
    path_suffix: String,
    needle: String,
    used: std::cell::Cell<u32>,
}

impl Allowlist {
    /// An empty allowlist (everything reported).
    pub fn empty() -> Self {
        Allowlist::default()
    }

    /// Parses the allowlist format; unparseable lines are errors.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line when an entry is
    /// malformed, names an unknown rule, or omits the `@version` pin.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (rule_field, path, needle) = match (parts.next(), parts.next(), parts.next()) {
                (Some(r), Some(p), Some(n)) if !n.trim().is_empty() => {
                    (r.to_owned(), p.to_owned(), n.trim().to_owned())
                }
                _ => {
                    return Err(format!(
                        "lint-allow.txt:{}: expected `<rule>@<version> <path-suffix> <needle>`",
                        i + 1
                    ))
                }
            };
            let Some((rule, ver)) = rule_field.split_once('@') else {
                return Err(format!(
                    "lint-allow.txt:{}: entry must pin a rule version (`{rule_field}@N`)",
                    i + 1
                ));
            };
            let Ok(version) = ver.parse::<u32>() else {
                return Err(format!(
                    "lint-allow.txt:{}: bad version `{ver}` in `{rule_field}`",
                    i + 1
                ));
            };
            if !rule_versions().iter().any(|&(r, _)| r == rule) {
                return Err(format!("lint-allow.txt:{}: unknown rule `{rule}`", i + 1));
            }
            entries.push(AllowEntry {
                rule: rule.to_owned(),
                version,
                path_suffix: path,
                needle,
                used: std::cell::Cell::new(0),
            });
        }
        Ok(Allowlist { entries })
    }

    /// Loads `lint-allow.txt` from `root`; a missing file is an empty list.
    ///
    /// # Errors
    ///
    /// Returns a message on unreadable files or malformed entries.
    pub fn load(root: &Path) -> Result<Self, String> {
        match fs::read_to_string(root.join("lint-allow.txt")) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Self::empty()),
            Err(e) => Err(format!("reading lint-allow.txt: {e}")),
        }
    }

    /// Number of exceptions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no exceptions are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn waives(&self, v: &Violation, raw_line: &str) -> bool {
        self.entries.iter().any(|e| {
            e.rule == v.rule
                && e.version == version_of(v.rule)
                && v.path.ends_with(&e.path_suffix)
                && raw_line.contains(&e.needle)
                && {
                    e.used.set(e.used.get() + 1);
                    true
                }
        })
    }

    /// Entries that waived nothing in the last run (stale exceptions —
    /// vetted code gone, or the entry pins an outdated rule version).
    /// An entry pinning an outdated version says so, naming the current
    /// version to re-vet against.
    pub fn unused(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| e.used.get() == 0)
            .map(|e| {
                let cur = version_of(&e.rule);
                let hint = if e.version == cur {
                    String::new()
                } else {
                    format!(" (rule is now at v{cur}; re-vet and re-pin)")
                };
                format!(
                    "{}@{} {} {}{hint}",
                    e.rule, e.version, e.path_suffix, e.needle
                )
            })
            .collect()
    }
}

/// Outcome of a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Violations not covered by the allowlist.
    pub violations: Vec<Violation>,
    /// Allowlist entries that matched nothing. These fail the pass: a
    /// stale exception means the vetted code is gone and the waiver now
    /// silently covers whatever lands on that line next.
    pub stale_allows: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the run found nothing to report — no violations *and*
    /// no stale allowlist entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allows.is_empty()
    }
}

fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
}

/// One file prepared for analysis.
struct Ctx {
    rel: String,
    krate: String,
    sim_driven: bool,
    panic_exempt: bool,
    pf: ParsedFile,
    lines: Vec<String>,
}

impl Ctx {
    fn new(rel: &str, source: &str) -> Ctx {
        let krate = crate_of(rel).unwrap_or("").to_owned();
        Ctx {
            sim_driven: SIM_DRIVEN_CRATES.contains(&krate.as_str()),
            panic_exempt: krate == "bench"
                || rel.contains("/src/bin/")
                || rel.ends_with("/src/main.rs"),
            pf: ParsedFile::parse(source),
            lines: source.lines().map(str::to_owned).collect(),
            rel: rel.to_owned(),
            krate,
        }
    }

    fn violation(&self, rule: &'static str, line: u32, note: String) -> Violation {
        Violation {
            path: self.rel.clone(),
            line,
            rule,
            excerpt: self
                .lines
                .get(line.saturating_sub(1) as usize)
                .map(|l| l.trim().to_owned())
                .unwrap_or_default(),
            note,
        }
    }
}

/// Next non-comment token index after `i`.
fn nc_next(toks: &[Tok], i: usize) -> Option<usize> {
    toks.iter()
        .enumerate()
        .skip(i + 1)
        .find(|(_, t)| t.kind != TokKind::Comment)
        .map(|(j, _)| j)
}

/// Previous non-comment token index before `i`.
fn nc_prev(toks: &[Tok], i: usize) -> Option<usize> {
    toks[..i].iter().rposition(|t| t.kind != TokKind::Comment)
}

/// Index of the `)` matching the `(` at `open`, or `toks.len()`.
fn close_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// True when `toks[i]` begins the path `a::b`; returns the index of `b`.
fn path2(toks: &[Tok], i: usize, a: &str, b: &str) -> Option<usize> {
    if !toks[i].is_ident(a) {
        return None;
    }
    let c1 = nc_next(toks, i)?;
    let c2 = nc_next(toks, c1)?;
    let name = nc_next(toks, c2)?;
    (toks[c1].is_punct(':') && toks[c2].is_punct(':') && toks[name].is_ident(b)).then_some(name)
}

/// `no-partial-cmp-sort`: applies to test code too — a NaN-panicking
/// comparator is as hazardous in a test as in the library.
fn partial_cmp_rule(ctx: &Ctx) -> Vec<Violation> {
    let toks = &ctx.pf.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !t.text.starts_with("sort") {
            continue;
        }
        let prev_dot = nc_prev(toks, i).is_some_and(|j| toks[j].is_punct('.'));
        let Some(open) = nc_next(toks, i).filter(|&j| toks[j].is_punct('(')) else {
            continue;
        };
        if !prev_dot {
            continue;
        }
        let close = close_paren(toks, open);
        if toks[open..close].iter().any(|a| a.is_ident("partial_cmp")) {
            out.push(
                ctx.violation(
                    RULE_NO_PARTIAL_CMP_SORT,
                    t.line,
                    "sort comparator built on partial_cmp: panics on NaN or silently breaks \
                 total order; use total_cmp or an Ord key"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

/// `no-unbounded-run`: applies to test code too — an unbounded drive
/// hangs a test run just as hard.
fn unbounded_run_rule(ctx: &Ctx) -> Vec<Violation> {
    if ctx.krate == "sim" {
        return Vec::new();
    }
    let toks = &ctx.pf.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("run_to_quiescence")
            && nc_next(toks, i).is_some_and(|j| toks[j].is_punct('('))
        {
            out.push(
                ctx.violation(
                    RULE_NO_UNBOUNDED_RUN,
                    t.line,
                    "unbounded simulation drive: use run_to_quiescence_bounded(budget) so \
                 non-converging retry loops fail instead of hanging"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

/// `no-panic`: panic sites in non-test, non-exempt library code.
fn no_panic_rule(ctx: &Ctx) -> Vec<Violation> {
    if ctx.panic_exempt {
        return Vec::new();
    }
    let toks = &ctx.pf.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || ctx.pf.is_test_at(i) {
            continue;
        }
        let next_is = |c: char| nc_next(toks, i).is_some_and(|j| toks[j].is_punct(c));
        let prev_is = |c: char| nc_prev(toks, i).is_some_and(|j| toks[j].is_punct(c));
        let bang_macro = ["panic", "unreachable", "todo", "unimplemented"]
            .contains(&t.text.as_str())
            && next_is('!');
        let method =
            ["unwrap", "expect"].contains(&t.text.as_str()) && prev_is('.') && next_is('(');
        if (bang_macro || method) && !ctx.pf.panics_documented_at(i) {
            out.push(
                ctx.violation(
                    RULE_NO_PANIC,
                    t.line,
                    "panic site in non-test library code with no `# Panics` doc contract \
                 on the enclosing fn"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

/// One row of the banned-identifier table: in non-test code of
/// [`SIM_DRIVEN_CRATES`], outside the `exempt` modules, none of `idents`
/// may appear — whatever the surrounding expression does with it.
struct Ban {
    rule: &'static str,
    /// Bare identifiers, or `a::b` for a two-segment path.
    idents: &'static [&'static str],
    /// Trusted modules the ban does not reach.
    exempt: &'static [&'static str],
    note: &'static str,
}

/// `no-wall-clock`, `no-hash-collections`, `no-ambient-parallelism`.
/// Nothing in the workspace can name `rayon` or a parallel iterator any
/// more (CI greps `cargo tree` for it), so those idents need no row.
const BANNED_IDENTS: &[Ban] = &[
    Ban {
        rule: RULE_NO_WALL_CLOCK,
        idents: &["SystemTime", "Instant", "thread_rng"],
        exempt: &[PROF_MODULE],
        note: "wall-clock/ambient-randomness source in a sim-driven crate: time comes \
               from sim::time, randomness from the seeded sim::rng",
    },
    Ban {
        rule: RULE_NO_HASH,
        idents: &["HashMap", "HashSet"],
        exempt: &[],
        note: "hash-ordered collection in a sim-driven crate: iteration order is \
               nondeterministic; use BTreeMap/BTreeSet",
    },
    Ban {
        rule: RULE_NO_AMBIENT_PAR,
        idents: &["thread::spawn", "available_parallelism"],
        exempt: &[],
        note: "thread fan-out in a sim-driven crate: the simulation is \
               single-threaded by construction",
    },
];

/// The banned-identifier rules: every [`BANNED_IDENTS`] row that
/// reaches this file, checked in one pass over its identifiers.
fn banned_ident_rule(ctx: &Ctx) -> Vec<Violation> {
    if !ctx.sim_driven {
        return Vec::new();
    }
    let bans: Vec<&Ban> = BANNED_IDENTS
        .iter()
        .filter(|ban| !ban.exempt.iter().any(|m| ctx.rel.ends_with(m)))
        .collect();
    let toks = &ctx.pf.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        for ban in &bans {
            let named = ban.idents.iter().any(|id| match id.split_once("::") {
                Some((a, b)) => t.text == a && path2(toks, i, a, b).is_some(),
                None => t.text == *id,
            });
            if named && !ctx.pf.is_test_at(i) {
                out.push(ctx.violation(ban.rule, t.line, ban.note.to_owned()));
            }
        }
    }
    out
}

/// `rng-fork-discipline`: bare `SimRng::seed(…)` roots, not
/// `.fork(…)`-chained, in non-test sim-driven code.
fn rng_rule(ctx: &Ctx) -> Vec<Violation> {
    if !ctx.sim_driven || ctx.rel.ends_with(RNG_MODULE) {
        return Vec::new();
    }
    let toks = &ctx.pf.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Some(seed) = path2(toks, i, "SimRng", "seed") else {
            continue;
        };
        let Some(open) = nc_next(toks, seed).filter(|&j| toks[j].is_punct('(')) else {
            continue;
        };
        let close = close_paren(toks, open);
        let chained = nc_next(toks, close)
            .filter(|&j| toks[j].is_punct('.'))
            .and_then(|j| nc_next(toks, j))
            .is_some_and(|j| toks[j].is_ident("fork"));
        if !chained && !ctx.pf.is_test_at(i) {
            out.push(
                ctx.violation(
                    RULE_RNG_FORK,
                    toks[i].line,
                    "fresh RNG root: SimRng::seed(..) without .fork(label) does not descend \
                 from the deployment's seeded fork tree, so replays diverge"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

/// `no-ignored-store-errors`: `_ =` discards and `.ok()` in non-test
/// code of the store perimeter. Lex-only: the receiver's type is
/// unknown and unneeded, because inside these files nothing else is
/// worth discarding either.
fn ignored_store_errors_rule(ctx: &Ctx) -> Vec<Violation> {
    if !STORE_PERIMETER.iter().any(|p| ctx.rel.starts_with(p)) {
        return Vec::new();
    }
    let toks = &ctx.pf.tokens;
    let next_punct = |i: usize, c: char| nc_next(toks, i).filter(|&j| toks[j].is_punct(c));
    let prev_is = |i: usize, c: char| nc_prev(toks, i).is_some_and(|j| toks[j].is_punct(c));
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        // `_ = expr` and `let _ = expr`, but not the `_ =>` match arm;
        // `let _: T = expr` too.
        let discard = t.is_ident("_")
            && (next_punct(i, '=').is_some_and(|eq| next_punct(eq, '>').is_none())
                || (next_punct(i, ':').is_some()
                    && nc_prev(toks, i).is_some_and(|j| toks[j].is_ident("let"))));
        let ok_call = t.is_ident("ok") && prev_is(i, '.') && next_punct(i, '(').is_some();
        if !(discard || ok_call) || ctx.pf.is_test_at(i) {
            continue;
        }
        out.push(
            ctx.violation(
                RULE_IGNORED_STORE_ERR,
                t.line,
                if discard {
                    "`_ =` discards a value in the store perimeter: handle or propagate the \
                 StoreError — a silently failed store op diverges durable state from the log"
                } else {
                    "`.ok()` swallows an error in the store perimeter: a store failure must \
                 surface (propagate with `?` or count it via io_errors), not vanish into \
                 an Option"
                }
                .to_owned(),
            ),
        );
    }
    out
}

/// `event-match-exhaustive`: protocol-enum variants vs handler `match`
/// arms, plus dead-variant detection. See the module docs.
fn event_rule(ctxs: &[Ctx]) -> Vec<Violation> {
    let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, c) in ctxs.iter().enumerate() {
        if c.rel.starts_with("crates/") {
            by_crate.entry(&c.krate).or_default().push(i);
        }
    }

    let mut out = Vec::new();
    for files in by_crate.values() {
        // Non-test enum definitions of this crate, by name.
        let mut enums: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for &fi in files {
            for (ei, e) in ctxs[fi].pf.enums.iter().enumerate() {
                if !e.is_test {
                    enums.entry(&e.name).or_insert((fi, ei));
                }
            }
        }

        let mut dead_checked: BTreeSet<&str> = BTreeSet::new();
        for &fi in files {
            let declared: BTreeSet<&str> =
                ctxs[fi].pf.msg_types.iter().map(String::as_str).collect();
            for tname in declared {
                let Some(&(ef, ei)) = enums.get(tname) else {
                    continue; // struct protocol (e.g. an envelope type)
                };
                let variants = &ctxs[ef].pf.enums[ei].variants;

                // Handler matches: non-test matches in the declaring
                // file whose arms name `T::…` paths.
                for m in &ctxs[fi].pf.matches {
                    if ctxs[fi].pf.is_test_at(m.tok) {
                        continue;
                    }
                    let toks = &ctxs[fi].pf.tokens;
                    let mut named: BTreeSet<&str> = BTreeSet::new();
                    let mut catch_all_line = None;
                    for arm in &m.arms {
                        if arm.catch_all && catch_all_line.is_none() {
                            catch_all_line = Some(arm.line);
                        }
                        for i in arm.pat.0..arm.pat.1 {
                            for (vname, _) in variants {
                                if path2(toks, i, tname, vname).is_some() {
                                    named.insert(vname);
                                }
                            }
                        }
                    }
                    if named.is_empty() {
                        continue; // not a match over this enum
                    }
                    let missing: Vec<&str> = variants
                        .iter()
                        .map(|(v, _)| v.as_str())
                        .filter(|v| !named.contains(v))
                        .collect();
                    if missing.is_empty() {
                        continue;
                    }
                    let list = missing.join(", ");
                    if let Some(line) = catch_all_line {
                        out.push(ctxs[fi].violation(
                            RULE_EVENT_MATCH,
                            line,
                            format!(
                                "match on {tname} swallows variants through this catch-all \
                                 arm: {list}; name them explicitly (`{tname}::X {{ .. }} | \
                                 … => {{}}`) so new event kinds cannot vanish silently"
                            ),
                        ));
                    } else {
                        out.push(ctxs[fi].violation(
                            RULE_EVENT_MATCH,
                            m.line,
                            format!("match on {tname} does not handle: {list}"),
                        ));
                    }
                }

                // Dead variants: never constructed in expression position
                // anywhere in the scanned set (crate-crossing drivers
                // included).
                if dead_checked.insert(tname) {
                    for (vname, vline) in variants {
                        let constructed = ctxs.iter().any(|c| {
                            let toks = &c.pf.tokens;
                            (0..toks.len()).any(|i| {
                                path2(toks, i, tname, vname).is_some_and(|vi| !c.pf.in_pattern(vi))
                            })
                        });
                        if !constructed {
                            out.push(ctxs[ef].violation(
                                RULE_EVENT_MATCH,
                                *vline,
                                format!(
                                    "dead variant: {tname}::{vname} is never constructed in \
                                     the scanned sources — no actor can ever receive it"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Analyses a set of sources together (`event-match-exhaustive` looks
/// across the files of a crate). Each entry is `(workspace-relative
/// path, source text)`.
pub fn analyze_sources(files: &[(&str, &str)]) -> Vec<Violation> {
    const PER_FILE: &[fn(&Ctx) -> Vec<Violation>] = &[
        no_panic_rule,
        banned_ident_rule,
        partial_cmp_rule,
        unbounded_run_rule,
        rng_rule,
        ignored_store_errors_rule,
    ];
    let ctxs: Vec<Ctx> = files.iter().map(|&(rel, src)| Ctx::new(rel, src)).collect();
    let mut out = event_rule(&ctxs);
    for ctx in &ctxs {
        out.extend(PER_FILE.iter().flat_map(|rule| rule(ctx)));
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out
}

/// Scans one file's contents; `rel_path` is workspace-relative with
/// forward slashes (e.g. `crates/sim/src/actor.rs`). Cross-file rules
/// run with just this file in view.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Violation> {
    analyze_sources(&[(rel_path, source)])
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src` tree under `root`, applying `allow`.
///
/// # Errors
///
/// Returns I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> io::Result<LintReport> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut sources: Vec<(String, String)> = Vec::new();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        for file in files {
            let text = fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            sources.push((rel, text));
        }
    }

    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    let mut report = LintReport {
        files_scanned: sources.len(),
        ..LintReport::default()
    };
    for v in analyze_sources(&refs) {
        let raw = sources
            .iter()
            .find(|(r, _)| *r == v.path)
            .and_then(|(_, s)| s.lines().nth(v.line.saturating_sub(1) as usize))
            .unwrap_or("");
        if !allow.waives(&v, raw) {
            report.violations.push(v);
        }
    }
    report.stale_allows = allow.unused();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_unwrap_and_panic_in_lib_code() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\nfn g() {\n    panic!(\"boom\");\n}\n";
        let vs = scan_source("crates/core/src/lib.rs", src);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].rule, RULE_NO_PANIC);
        assert_eq!(vs[0].line, 2);
        assert_eq!(vs[1].line, 5);
    }

    #[test]
    fn expect_and_todo_and_unreachable_fire() {
        let src = "fn f() {\n    let _ = std::env::var(\"X\").expect(\"set\");\n    todo!()\n}\nfn h() { unreachable!() }\n";
        let vs = scan_source("crates/net/src/x.rs", src);
        let lines: Vec<u32> = vs.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 3, 5]);
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0) + x.unwrap_or_default() + x.unwrap_or_else(|| 1)\n}\n";
        assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn comments_strings_and_doc_examples_are_ignored() {
        let src = concat!(
            "//! Doc: call `.unwrap()` freely in examples.\n",
            "/// ```\n",
            "/// let x = maybe().unwrap();\n",
            "/// ```\n",
            "fn f() {\n",
            "    // panic!(\"not real\")\n",
            "    let s = \".unwrap() panic! SystemTime\";\n",
            "    let c = '\\'';\n",
            "    let _ = (s, c); /* .expect( */\n",
            "}\n",
        );
        assert!(scan_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = concat!(
            "pub fn lib() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() {\n",
            "        Some(1).unwrap();\n",
            "        panic!(\"fine in tests\");\n",
            "    }\n",
            "}\n",
        );
        assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn code_after_a_test_block_is_still_linted() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests { fn t() { Some(1).unwrap(); } }\n",
            "pub fn lib(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        let vs = scan_source("crates/core/src/lib.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn nested_test_mods_stay_exempt_but_siblings_do_not() {
        // The v1 line mask lost track of nesting like this; the scope
        // tree carries #[cfg(test)] down arbitrarily deep.
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    mod inner {\n",
            "        mod deeper {\n",
            "            fn helper() { Some(1).unwrap(); }\n",
            "        }\n",
            "    }\n",
            "}\n",
            "pub fn lib(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        let vs = scan_source("crates/core/src/lib.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 9);
    }

    #[test]
    fn panics_doc_contract_exempts_the_documented_fn() {
        let src = concat!(
            "/// Looks up a bound name.\n",
            "///\n",
            "/// # Panics\n",
            "///\n",
            "/// Panics when `name` was never registered.\n",
            "pub fn lookup(m: &Map, name: &str) -> u32 {\n",
            "    *m.get(name).expect(\"unknown name\")\n",
            "}\n",
            "pub fn bare(m: &Map, name: &str) -> u32 {\n",
            "    *m.get(name).expect(\"unknown name\")\n",
            "}\n",
        );
        let vs = scan_source("crates/core/src/lib.rs", src);
        assert_eq!(vs.len(), 1, "only the undocumented fn fires");
        assert_eq!(vs[0].line, 10);
    }

    #[test]
    fn wall_clock_fires_only_in_sim_driven_crates() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    let r = rand::thread_rng();\n    let _ = (t, r);\n}\n";
        let in_sim = scan_source("crates/syntax/src/x.rs", src);
        assert_eq!(in_sim.len(), 2);
        assert!(in_sim.iter().all(|v| v.rule == RULE_NO_WALL_CLOCK));
        // The eval crate post-processes results outside the simulation.
        assert!(scan_source("crates/eval/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_collections_fire_in_every_sim_driven_file() {
        let src = concat!(
            "use std::collections::HashMap;\n",
            "struct S { m: HashMap<u32, u32> }\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { let _ = std::collections::HashSet::<u32>::new(); } }\n",
        );
        for rel in ["crates/syntax/src/actors.rs", "crates/mst/src/ghs.rs"] {
            let vs = scan_source(rel, src);
            assert_eq!(vs.len(), 2, "{rel}: test code stays exempt");
            assert!(vs.iter().all(|v| v.rule == RULE_NO_HASH));
        }
        // Setup-time crates outside the simulation hash freely.
        assert!(scan_source("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn binaries_and_bench_drivers_are_panic_exempt() {
        let src = "fn main() { run().expect(\"setup\"); }\n";
        assert!(scan_source("crates/bench/src/cache_exp.rs", src).is_empty());
        assert!(scan_source("crates/check/src/main.rs", src).is_empty());
        assert!(scan_source("crates/bench/src/bin/repro-all.rs", src).is_empty());
        // ...but the wall-clock rule still applies to sim-driven binaries.
        let clock = "fn main() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(scan_source("crates/sim/src/bin/x.rs", clock).len(), 1);
    }

    #[test]
    fn partial_cmp_sort_fires_even_in_test_code() {
        let src = concat!(
            "fn f(mut v: Vec<f64>) {\n",
            "    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(mut v: Vec<(f64, u32)>) {\n",
            "        v.sort_by_key(|x| x.1);\n",
            "        v.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());\n",
            "    }\n",
            "}\n",
        );
        let vs: Vec<_> = scan_source("crates/eval/src/x.rs", src)
            .into_iter()
            .filter(|v| v.rule == RULE_NO_PARTIAL_CMP_SORT)
            .collect();
        let lines: Vec<u32> = vs.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 8]);
    }

    #[test]
    fn partial_cmp_sort_caught_across_line_breaks() {
        // v1 matched needle-per-line and missed exactly this layout.
        let src = concat!(
            "fn f(mut v: Vec<f64>) {\n",
            "    v.sort_by(|a, b| {\n",
            "        a.partial_cmp(b)\n",
            "            .unwrap_or(std::cmp::Ordering::Equal)\n",
            "    });\n",
            "}\n",
        );
        let vs: Vec<_> = scan_source("crates/eval/src/x.rs", src)
            .into_iter()
            .filter(|v| v.rule == RULE_NO_PARTIAL_CMP_SORT)
            .collect();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 2, "reported at the .sort_by call");
    }

    #[test]
    fn total_cmp_sorts_and_partial_cmp_impls_do_not_fire() {
        let src = concat!(
            "fn f(mut v: Vec<f64>) {\n",
            "    v.sort_by(f64::total_cmp);\n",
            "    v.sort_by(|a, b| a.total_cmp(b));\n",
            "}\n",
            "impl PartialOrd for W {\n",
            "    fn partial_cmp(&self, o: &W) -> Option<Ordering> { self.0.partial_cmp(&o.0) }\n",
            "}\n",
        );
        assert!(scan_source("crates/eval/src/x.rs", src)
            .iter()
            .all(|v| v.rule != RULE_NO_PARTIAL_CMP_SORT));
    }

    #[test]
    fn unbounded_run_fires_outside_sim_crate_including_tests() {
        let src = concat!(
            "pub fn drive(sim: &mut S) {\n",
            "    sim.run_to_quiescence();\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(sim: &mut S) {\n",
            "        sim.run_to_quiescence();\n",
            "        assert!(sim.run_to_quiescence_bounded(1_000));\n",
            "    }\n",
            "}\n",
        );
        let vs: Vec<_> = scan_source("crates/syntax/src/x.rs", src)
            .into_iter()
            .filter(|v| v.rule == RULE_NO_UNBOUNDED_RUN)
            .collect();
        let lines: Vec<u32> = vs.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 7]);
        // The sim crate defines (and may call) the unbounded variant.
        assert!(scan_source("crates/sim/src/x.rs", src)
            .iter()
            .all(|v| v.rule != RULE_NO_UNBOUNDED_RUN));
    }

    #[test]
    fn ambient_parallelism_fires_only_in_sim_driven_crates() {
        let src = concat!(
            "use rayon::prelude::*;\n",
            "fn f(v: &[u32]) -> Vec<u32> {\n",
            "    let h = std::thread::spawn(|| 1);\n",
            "    let _ = (h, std::thread::available_parallelism());\n",
            "    v.par_iter().map(|&x| x + 1).collect()\n",
            "}\n",
        );
        // `rayon`/`par_iter` need no row: no workspace crate can name
        // them, which CI checks on `cargo tree`.
        let vs = scan_source("crates/syntax/src/x.rs", src);
        let lines: Vec<u32> = vs.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![3, 4]);
        assert!(vs.iter().all(|v| v.rule == RULE_NO_AMBIENT_PAR));
        // Non-sim-driven crates (net, bench, check) fan out freely.
        assert!(scan_source("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn token_boundaries_respected() {
        let src = "fn f() { my_thread_rng(); not_a_panic!simulated(); }\n";
        assert!(scan_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "fn f() -> &'static str { r#\"contains .unwrap() and panic!\"# }\n";
        assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
    }

    // --- rng-fork-discipline ---

    #[test]
    fn bare_seed_site_fires_in_sim_driven_lib_code() {
        let src = concat!(
            "use lems_sim::rng::SimRng;\n",
            "pub fn jitter(seed: u64) -> u64 {\n",
            "    let mut rng = SimRng::seed(seed);\n",
            "    rng.range(0, 10)\n",
            "}\n",
        );
        let vs = scan_source("crates/syntax/src/x.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_RNG_FORK);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn forked_root_and_test_seeds_are_fine() {
        let src = concat!(
            "use lems_sim::rng::SimRng;\n",
            "pub fn build(seed: u64) -> SimRng {\n",
            "    SimRng::seed(seed).fork(\"deploy\")\n",
            "}\n",
            "pub fn build_split(seed: u64) -> SimRng {\n",
            "    SimRng::seed(seed)\n",
            "        .fork(\"deploy\")\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { let _ = super::SimRng::seed(7); }\n",
            "}\n",
        );
        assert!(scan_source("crates/syntax/src/x.rs", src).is_empty());
    }

    #[test]
    fn seed_outside_sim_driven_crates_is_fine() {
        let src = "pub fn f() -> SimRng { SimRng::seed(1) }\n";
        assert!(scan_source("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn root_returning_helper_is_flagged_at_its_direct_site() {
        // A helper can only launder a bare root its own body holds, and
        // that site is the finding; the call site needs no second one.
        let src = concat!(
            "use lems_sim::rng::SimRng;\n",
            "fn fresh() -> SimRng {\n",
            "    SimRng::seed(42)\n",
            "}\n",
            "pub fn shuffle_order(xs: &mut Vec<u32>) {\n",
            "    let mut rng = fresh();\n",
            "    rng.shuffle(xs);\n",
            "}\n",
        );
        let vs = scan_source("crates/locindep/src/x.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!((vs[0].rule, vs[0].line), (RULE_RNG_FORK, 3));
    }

    #[test]
    fn rng_module_itself_is_exempt() {
        let src = "pub fn reseed() -> SimRng { SimRng::seed(0) }\n";
        assert!(scan_source("crates/sim/src/rng.rs", src).is_empty());
    }

    #[test]
    fn prof_module_wall_side_channel_is_exempt() {
        // The profiler's wall-clock side channel is the one sanctioned
        // `Instant` in the sim crate; the same source anywhere else in a
        // sim-driven crate still fires.
        let src = "pub fn tick() { let _ = std::time::Instant::now(); }\n";
        assert!(scan_source("crates/sim/src/prof.rs", src).is_empty());
        let vs = scan_source("crates/sim/src/kernel.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_NO_WALL_CLOCK);
    }

    // --- event-match-exhaustive ---

    const PROTO: &str = concat!(
        "pub enum MailMsg {\n",
        "    Submit { body: u32 },\n",
        "    SubmitAck,\n",
        "    Notify,\n",
        "}\n",
        "fn traffic(n: &mut Node) {\n",
        "    n.send(MailMsg::Submit { body: 1 });\n",
        "    n.send(MailMsg::SubmitAck);\n",
        "    n.send(MailMsg::Notify);\n",
        "}\n",
    );

    #[test]
    fn wildcard_swallowed_variant_is_flagged() {
        let src = format!(
            "{PROTO}impl Actor for Host {{\n    type Msg = MailMsg;\n    fn on_message(&mut self, m: MailMsg) {{\n        match m {{\n            MailMsg::Submit {{ .. }} => {{}}\n            MailMsg::SubmitAck => {{}}\n            _ => {{}}\n        }}\n    }}\n}}\n"
        );
        let vs = scan_source("crates/syntax/src/actors.rs", &src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_EVENT_MATCH);
        assert!(
            vs[0].note.contains("Notify"),
            "note names the swallowed variant"
        );
        assert_eq!(vs[0].line, 17, "reported at the catch-all arm");
    }

    #[test]
    fn explicit_ignore_arms_lint_clean() {
        let src = format!(
            "{PROTO}impl Actor for Host {{\n    type Msg = MailMsg;\n    fn on_message(&mut self, m: MailMsg) {{\n        match m {{\n            MailMsg::Submit {{ .. }} => {{}}\n            MailMsg::SubmitAck | MailMsg::Notify => {{}}\n        }}\n    }}\n}}\n"
        );
        assert!(scan_source("crates/syntax/src/actors.rs", &src).is_empty());
    }

    #[test]
    fn unhandled_variant_without_catch_all_is_flagged() {
        let src = format!(
            "{PROTO}impl Actor for Host {{\n    type Msg = MailMsg;\n    fn on_message(&mut self, m: MailMsg) {{\n        match m {{\n            MailMsg::Submit {{ .. }} => {{}}\n            MailMsg::SubmitAck => {{}}\n        }}\n    }}\n}}\n"
        );
        let vs = scan_source("crates/syntax/src/actors.rs", &src);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].note.contains("does not handle"));
        assert!(vs[0].note.contains("Notify"));
    }

    #[test]
    fn dead_variant_is_flagged_at_its_definition() {
        // Notify is handled but nothing ever constructs it.
        let src = concat!(
            "pub enum MailMsg {\n",
            "    Submit,\n",
            "    Notify,\n",
            "}\n",
            "fn traffic(n: &mut Node) { n.send(MailMsg::Submit); }\n",
            "impl Actor for Host {\n",
            "    type Msg = MailMsg;\n",
            "    fn on_message(&mut self, m: MailMsg) {\n",
            "        match m { MailMsg::Submit => {}, MailMsg::Notify => {} }\n",
            "    }\n",
            "}\n",
        );
        let vs = scan_source("crates/syntax/src/actors.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_EVENT_MATCH);
        assert_eq!(vs[0].line, 3);
        assert!(vs[0].note.contains("dead variant"));
    }

    #[test]
    fn test_scope_matches_and_plain_enums_are_ignored() {
        // A wildcard match in a test mod, and a match over an enum that
        // is not a `type Msg` protocol, are both out of scope.
        let src = concat!(
            "pub enum Color { Red, Green }\n",
            "pub fn pick(c: Color) -> u32 { match c { Color::Red => 1, _ => 2 } }\n",
            "pub enum MailMsg { Submit }\n",
            "fn traffic(n: &mut N) { n.send(MailMsg::Submit); }\n",
            "impl Actor for Host {\n",
            "    type Msg = MailMsg;\n",
            "    fn on_message(&mut self, m: MailMsg) { match m { MailMsg::Submit => {} } }\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(m: super::MailMsg) { match m { _ => {} } }\n",
            "}\n",
        );
        assert!(scan_source("crates/syntax/src/actors.rs", src).is_empty());
    }

    // --- allowlist v2 ---

    #[test]
    fn allowlist_waives_and_reports_stale_entries() {
        let allow = Allowlist::parse(
            "# vetted\nno-panic@2 crates/core/src/lib.rs expect(\"generated names\nno-panic@2 crates/net/src/never.rs nothing here\n",
        )
        .unwrap();
        let v = Violation {
            path: "crates/core/src/lib.rs".into(),
            line: 1,
            rule: RULE_NO_PANIC,
            excerpt: String::new(),
            note: String::new(),
        };
        assert!(allow.waives(
            &v,
            "let x = name.parse().expect(\"generated names are valid\");"
        ));
        assert!(!allow.waives(&v, "let x = other.unwrap();"));
        assert_eq!(allow.unused().len(), 1);
    }

    #[test]
    fn version_mismatched_entries_never_waive_and_go_stale() {
        let allow = Allowlist::parse("no-panic@1 crates/core/src/lib.rs .expect(\"x\")\n").unwrap();
        let v = Violation {
            path: "crates/core/src/lib.rs".into(),
            line: 1,
            rule: RULE_NO_PANIC,
            excerpt: String::new(),
            note: String::new(),
        };
        assert!(
            !allow.waives(&v, "m.get(k).expect(\"x\")"),
            "v1-pinned entry must not waive a v2 finding"
        );
        assert_eq!(
            allow.unused(),
            vec![
                "no-panic@1 crates/core/src/lib.rs .expect(\"x\") \
                 (rule is now at v2; re-vet and re-pin)"
            ],
            "stale message names the current version to re-pin against"
        );
    }

    #[test]
    fn stale_allowlist_entries_fail_the_pass() {
        let clean = LintReport::default();
        assert!(clean.is_clean());
        let stale = LintReport {
            stale_allows: vec!["no-panic@2 crates/net/src/never.rs nothing".into()],
            ..LintReport::default()
        };
        assert!(!stale.is_clean());
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("no-panic onlytwo").is_err());
        assert!(
            Allowlist::parse("no-panic crates/x/src/lib.rs needle").is_err(),
            "version pin is mandatory"
        );
        assert!(
            Allowlist::parse("no-panik@2 crates/x/src/lib.rs needle").is_err(),
            "unknown rules are typos, not waivers"
        );
        assert!(Allowlist::parse("").unwrap().is_empty());
    }

    #[test]
    fn lint_workspace_on_this_repo_smoke() {
        // The real tree must scan without I/O errors; cleanliness is
        // asserted by the CI invocation, not here (tests must not depend
        // on the allowlist's current contents).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_workspace(&root, &Allowlist::empty()).unwrap();
        assert!(report.files_scanned > 30);
    }

    // ---- the engine-v3 flow fixtures, re-run against the perimeter ----

    /// The sources the deleted flow rules (`determinism-taint`,
    /// `store-mutation-discipline`, `no-ignored-store-errors` v1) were
    /// tested on, kept as inputs: each one a flow rule flagged must
    /// still be flagged by a surviving rule *at the line that names the
    /// source*, before any flow starts. The `Mailbox` shapes are not
    /// here: they are `compile_fail` doctests on `lems_core::Mailbox`.
    /// `(test the source came from, path scanned as, source, findings)`.
    type Fixture = (
        &'static str,
        &'static str,
        &'static str,
        &'static [(u32, &'static str)],
    );

    const FLOW_FIXTURES: &[Fixture] = &[
        (
            "wall_clock_taint_through_helper_fn_reaches_send",
            "crates/mst/src/x.rs",
            concat!(
                "fn stamp() -> u64 {\n",
                "    let t = std::time::Instant::now();\n",
                "    t.elapsed().as_nanos() as u64\n",
                "}\n",
                "impl Host {\n",
                "    fn beat(&mut self, ctx: &mut Ctx) {\n",
                "        let v = stamp();\n",
                "        self.send(ctx, v);\n",
                "    }\n",
                "}\n",
            ),
            &[(2, RULE_NO_WALL_CLOCK)],
        ),
        (
            "laundering_through_identity_wrapper_still_fires",
            "crates/syntax/src/x.rs",
            concat!(
                "fn launder(x: u64) -> u64 {\n",
                "    x\n",
                "}\n",
                "impl Host {\n",
                "    fn beat(&mut self, ctx: &mut Ctx) {\n",
                "        let t = std::time::Instant::now().elapsed().as_nanos() as u64;\n",
                "        let v = launder(t);\n",
                "        self.send(ctx, v);\n",
                "    }\n",
                "}\n",
            ),
            &[(6, RULE_NO_WALL_CLOCK)],
        ),
        (
            "hash_iteration_order_taints_scheduled_values",
            "crates/locindep/src/x.rs",
            concat!(
                "use std::collections::HashMap;\n",
                "impl Host {\n",
                "    fn fanout(&mut self, ctx: &mut Ctx) {\n",
                "        let peers: HashMap<u64, u64> = HashMap::new();\n",
                "        for (p, w) in peers.iter() {\n",
                "            self.send(ctx, *p, *w);\n",
                "        }\n",
                "    }\n",
                "}\n",
            ),
            &[(1, RULE_NO_HASH), (4, RULE_NO_HASH), (4, RULE_NO_HASH)],
        ),
        (
            // Was the *clean* fixture: the flow rule let a keyed-only
            // `HashMap` through. It flips to flagged on purpose — the
            // perimeter does not ask how the map is used (the one hot
            // keyed map, `sim/actor.rs`'s `last_arrival`, is the single
            // vetted `lint-allow.txt` entry).
            "untainted_and_keyed_flows_stay_clean",
            "crates/mst/src/x.rs",
            concat!(
                "use std::collections::{BTreeMap, HashMap};\n",
                "impl Host {\n",
                "    fn fanout(&mut self, ctx: &mut Ctx, now: SimTime) {\n",
                "        let peers: BTreeMap<u64, u64> = BTreeMap::new();\n",
                "        for (p, w) in peers.iter() {\n",
                "            self.send(ctx, *p, *w);\n",
                "        }\n",
                "        let cache: HashMap<u64, u64> = HashMap::new();\n",
                "        if let Some(v) = cache.get(&7) {\n",
                "            self.send_at(ctx, now, *v);\n",
                "        }\n",
                "    }\n",
                "}\n",
            ),
            &[(1, RULE_NO_HASH), (8, RULE_NO_HASH), (8, RULE_NO_HASH)],
        ),
        (
            "taint_rule_skips_test_code",
            "crates/syntax/src/x.rs",
            concat!(
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    fn t(h: &mut Host, ctx: &mut Ctx) {\n",
                "        let t = std::time::Instant::now().elapsed().as_nanos() as u64;\n",
                "        h.send(ctx, t);\n",
                "    }\n",
                "}\n",
            ),
            &[],
        ),
        (
            // The eval crate post-processes results outside the simulation.
            "taint_rule_skips_non_sim_crates",
            "crates/eval/src/x.rs",
            concat!(
                "fn emit(h: &mut Host, ctx: &mut Ctx) {\n",
                "    let t = std::time::Instant::now().elapsed().as_nanos() as u64;\n",
                "    h.send(ctx, t);\n",
                "}\n",
            ),
            &[],
        ),
        (
            "mailstore_calls_are_clean",
            "crates/syntax/src/x.rs",
            concat!(
                "use lems_core::store::MailStore;\n",
                "fn purge(store: &mut dyn MailStore, owner: &MailName, id: MessageId) {\n",
                "    store.remove(owner, id);\n",
                "}\n",
            ),
            &[],
        ),
        (
            "ok_swallowed_wal_sync_is_flagged",
            "crates/store/src/x.rs",
            concat!(
                "fn flush<S: SegmentIo>(io: &mut S) {\n",
                "    io.sync(0).ok();\n",
                "}\n",
            ),
            &[(2, RULE_IGNORED_STORE_ERR)],
        ),
        (
            // Line 3, the bare statement, is the compiler's now:
            // `#![deny(unused_must_use)]` on lems-store and lems-core.
            "discarded_and_dropped_store_results_are_flagged",
            "crates/store/src/x.rs",
            concat!(
                "fn churn<S: SegmentIo>(io: &mut S, data: &[u8]) {\n",
                "    let _ = io.append(0, data);\n",
                "    io.truncate(0, 0);\n",
                "}\n",
            ),
            &[(2, RULE_IGNORED_STORE_ERR)],
        ),
        (
            // Also a former clean fixture: `.ok().map(..)` on line 5
            // still loses the error, and the token ban says so.
            "propagated_and_inspected_store_results_are_clean",
            "crates/store/src/x.rs",
            concat!(
                "fn flush<S: SegmentIo>(io: &mut S, data: &[u8]) -> Result<(), StoreError> {\n",
                "    io.append(0, data)?;\n",
                "    let r = io.sync(0);\n",
                "    note_io(&r);\n",
                "    io.read(0).ok().map(|b| b.len());\n",
                "    io.sync(0)\n",
                "}\n",
            ),
            &[(5, RULE_IGNORED_STORE_ERR)],
        ),
        (
            "ignored_store_errors_skips_test_code",
            "crates/store/src/x.rs",
            concat!(
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    fn t<S: SegmentIo>(io: &mut S) {\n",
                "        io.sync(0).ok();\n",
                "        let _ = io.truncate(0, 0);\n",
                "    }\n",
                "}\n",
            ),
            &[],
        ),
    ];

    #[test]
    fn nothing_the_flow_engine_caught_gets_through() {
        for &(name, rel, src, want) in FLOW_FIXTURES {
            let got: Vec<(u32, &str)> = scan_source(rel, src)
                .iter()
                .map(|v| (v.line, v.rule))
                .collect();
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn store_perimeter_is_the_store_crate_and_core_store_only() {
        let src = concat!(
            "fn f(r: Result<u32, E>, m: Option<u32>) {\n",
            "    let _ = r;\n",
            "    let _: Option<u32> = r.ok();\n",
            "    _ = m;\n",
            "    match m { Some(_) => {} _ => {} }\n",
            "}\n",
        );
        for rel in ["crates/store/src/wal.rs", "crates/core/src/store.rs"] {
            let lines: Vec<u32> = scan_source(rel, src).iter().map(|v| v.line).collect();
            assert_eq!(
                lines,
                vec![2, 3, 3, 4],
                "{rel}: `_ =>` arms are not discards"
            );
        }
        assert!(scan_source("crates/core/src/mailbox.rs", src).is_empty());
        assert!(scan_source("crates/syntax/src/x.rs", src).is_empty());
    }
}
