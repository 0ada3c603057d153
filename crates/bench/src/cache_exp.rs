//! Experiment C8: the §4.1 "caching capability" — resolution-cache hit
//! rates under Zipf-skewed recipient popularity, and the cost of
//! reconfiguration-driven invalidation.

use lems_core::name::MailName;
use lems_core::user::AuthorityList;
use lems_net::graph::NodeId;
use lems_sim::rng::SimRng;
use lems_sim::time::{SimDuration, SimTime};
use lems_syntax::cache::ResolutionCache;

use crate::render::{f3, Report, Table};

/// One row of the cache sweep.
#[derive(Clone, Copy, Debug)]
struct CacheRow {
    /// Cache capacity as a fraction of the name population.
    capacity_fraction: f64,
    /// Zipf exponent of recipient popularity.
    zipf: f64,
    /// Measured hit rate.
    hit_rate: f64,
    /// Evictions per 1000 lookups.
    evictions_per_k: f64,
}

/// Sweeps cache capacity × popularity skew over a synthetic lookup
/// stream: `lookups` resolutions against a population of `names` users.
fn sweep(
    names: usize,
    lookups: usize,
    capacity_fractions: &[f64],
    zipfs: &[f64],
    seed: u64,
) -> Vec<CacheRow> {
    let population: Vec<MailName> = (0..names)
        .map(|i| format!("east.h{}.user{i}", i % 13).parse().expect("valid"))
        .collect();

    let mut rows = Vec::new();
    for &zipf in zipfs {
        // Zipf weights over a seed-stable permutation.
        let mut rng = SimRng::seed(seed).fork(&format!("zipf{zipf}"));
        let mut perm: Vec<usize> = (0..names).collect();
        rng.shuffle(&mut perm);
        let mut weights = vec![0.0; names];
        for (rank, &idx) in perm.iter().enumerate() {
            weights[idx] = 1.0 / ((rank + 1) as f64).powf(zipf);
        }

        for &frac in capacity_fractions {
            let capacity = ((names as f64 * frac) as usize).max(1);
            let mut cache = ResolutionCache::new(capacity, SimDuration::from_units(1e9));
            let mut lookup_rng = rng.fork(&format!("cap{frac}"));
            for k in 0..lookups {
                let idx = lookup_rng.weighted_index(&weights);
                let now = SimTime::from_units(k as f64);
                if cache.get(&population[idx], now).is_none() {
                    // Miss: resolve the slow way and remember the answer.
                    cache.put(
                        population[idx].clone(),
                        AuthorityList::new(vec![NodeId(idx % 7)]),
                        now,
                    );
                }
            }
            let st = cache.stats();
            rows.push(CacheRow {
                capacity_fraction: frac,
                zipf,
                hit_rate: st.hit_rate(),
                evictions_per_k: st.evictions as f64 * 1000.0 / lookups as f64,
            });
        }
    }
    rows
}

/// Invalidation cost: fraction of a warm cache lost when one server of a
/// `servers`-wide rotation is removed (§3.1.3c reconfiguration).
fn invalidation_cost(names: usize, servers: usize) -> f64 {
    let mut cache = ResolutionCache::new(names, SimDuration::from_units(1e9));
    for i in 0..names {
        let name: MailName = format!("east.h1.user{i}").parse().expect("valid");
        cache.put(
            name,
            AuthorityList::new(vec![NodeId(i % servers), NodeId((i + 1) % servers)]),
            SimTime::ZERO,
        );
    }
    let dropped = cache.invalidate_server(NodeId(0));
    dropped as f64 / names as f64
}

/// C8: the §4.1 "caching capability" — resolution-cache hit rates under
/// Zipf-skewed recipient popularity, and what reconfiguration-driven
/// invalidation costs.
pub(crate) fn report() -> Report {
    let mut report = Report::new("C8 — resolution caching (500 names, 20k lookups per point)");
    let rows = sweep(
        500,
        20_000,
        &[0.02, 0.05, 0.1, 0.25, 0.5],
        &[0.0, 0.8, 1.2],
        1,
    );
    let mut t = Table::new(vec!["capacity frac", "zipf", "hit rate", "evictions/1k"]);
    for r in &rows {
        t.row(vec![
            f3(r.capacity_fraction),
            f3(r.zipf),
            f3(r.hit_rate),
            f3(r.evictions_per_k),
        ]);
    }
    report.table(&t);
    report.note("shape checks:");
    report.note("  - hit rate rises with capacity at fixed skew;");
    report.note("  - skewed (Zipf) popularity makes small caches effective —");
    report.note("    'a list of both frequently and recently used names' (§4.1)");

    report.note("invalidation on removing 1 of 3 servers from a warm cache:");
    let frac = invalidation_cost(300, 3);
    report.note(format!(
        "  {:.1}% of entries dropped (every cached list naming the dead server)",
        100.0 * frac
    ));

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_and_capacity_raise_hit_rate() {
        let rows = sweep(500, 20_000, &[0.05, 0.5], &[0.0, 1.2], 1);
        let find = |frac: f64, z: f64| {
            rows.iter()
                .find(|r| r.capacity_fraction == frac && r.zipf == z)
                .copied()
                .unwrap()
        };
        // More capacity helps at fixed skew.
        assert!(find(0.5, 0.0).hit_rate > find(0.05, 0.0).hit_rate);
        // More skew helps at fixed (small) capacity.
        assert!(find(0.05, 1.2).hit_rate > find(0.05, 0.0).hit_rate + 0.05);
        // A large cache with skewed traffic is nearly all hits.
        assert!(find(0.5, 1.2).hit_rate > 0.8);
    }

    #[test]
    fn invalidation_drops_the_right_fraction() {
        // Two slots of a 3-server rotation mention server 0: 2/3 of
        // entries must go.
        let frac = invalidation_cost(300, 3);
        assert!((frac - 2.0 / 3.0).abs() < 0.02, "got {frac}");
    }
}
