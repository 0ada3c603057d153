//! The two perimeter shapes no clippy lint sees (DESIGN.md §10): a `let`-less
//! `_ = expr;` discard in the store perimeter, and any `partial_cmp` call (it
//! panics on NaN or invites order-destroying fallbacks: `total_cmp`/`Ord` key).
use std::{fs, path::Path};

fn flagged(file: &str, line: &str) -> bool {
    let store = file.starts_with("crates/store/src/") || file == "crates/core/src/store.rs";
    let rest = line.trim_start().strip_prefix("_ =");
    (store && rest.is_some_and(|r| !r.starts_with('>')))
        || (line.contains("partial_cmp(") && !line.contains("fn partial_cmp("))
}

/// Collects the flagged lines of every `.rs` file under `path` but this one.
fn scan(root: &Path, path: &Path, hits: &mut Vec<String>) {
    if path.is_dir() {
        for entry in fs::read_dir(path).unwrap() {
            scan(root, &entry.unwrap().path(), hits);
        }
    } else if path.extension().is_some_and(|x| x == "rs") && !path.ends_with(file!()) {
        let file = path.strip_prefix(root).unwrap().to_str().unwrap();
        let text = fs::read_to_string(path).unwrap();
        let lines = text.lines().enumerate().filter(|(_, l)| flagged(file, l));
        hits.extend(lines.map(|(i, l)| format!("{file}:{}: {}", i + 1, l.trim())));
    }
}

#[test]
fn no_bare_discard_in_the_store_perimeter_and_no_partial_cmp_call() {
    let (wal, name) = ("crates/store/src/wal.rs", "crates/core/src/name.rs");
    let sort = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());";
    assert!(flagged(wal, "    _ = self.io.sync(0);") && !flagged(wal, "    _ => 0,"));
    assert!(flagged(name, sort) && !flagged(name, "fn partial_cmp(&self, o: &Self)"));
    assert!(!flagged(name, "_ = f();"));
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut hits = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        scan(root, &root.join(dir), &mut hits);
    }
    assert!(hits.is_empty(), "{hits:#?}");
}
