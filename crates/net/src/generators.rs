//! Topology generators: the paper's worked examples plus synthetic
//! multi-region networks for scaling experiments.

use lems_sim::rng::SimRng;

use crate::graph::{NodeId, Weight};
use crate::topology::{RegionId, Topology};

/// The worked example of Fig. 1 / Tables 1–2: six hosts, three servers in
/// one region, every link costing one time unit.
///
/// The figure itself is not legible in surviving copies of the paper; this
/// reconstruction is the minimal topology consistent with the text:
/// all links cost one unit, `H2`'s shortest path to `S1` is two units
/// (§3.1.1's example), the nearest-server initialisation reproduces
/// Table 1's loads (S1=100, S2=150, S3=20), and the user population is
/// 50/60/50/50/40/20 across `H1..H6`.
#[derive(Clone, Debug)]
pub struct Fig1Scenario {
    /// The network.
    pub topology: Topology,
    /// Hosts `H1..H6` in order.
    pub hosts: Vec<NodeId>,
    /// Servers `S1..S3` in order.
    pub servers: Vec<NodeId>,
    /// Users per host, aligned with `hosts`.
    pub users_per_host: Vec<u32>,
}

/// Builds the Fig. 1 scenario.
///
/// # Examples
///
/// ```
/// let fig1 = lems_net::generators::fig1();
/// assert_eq!(fig1.hosts.len(), 6);
/// assert_eq!(fig1.users_per_host.iter().sum::<u32>(), 270);
/// ```
pub fn fig1() -> Fig1Scenario {
    let mut t = Topology::new();
    let r = RegionId(0);
    let s1 = t.add_server(r, "S1");
    let s2 = t.add_server(r, "S2");
    let s3 = t.add_server(r, "S3");
    let h1 = t.add_host(r, "H1");
    let h2 = t.add_host(r, "H2");
    let h3 = t.add_host(r, "H3");
    let h4 = t.add_host(r, "H4");
    let h5 = t.add_host(r, "H5");
    let h6 = t.add_host(r, "H6");
    let w = Weight::UNIT;
    // Hosts hang off their nearest server; servers form a chain S1-S2-S3.
    t.link(h1, s1, w);
    t.link(h3, s1, w);
    t.link(h2, s2, w);
    t.link(h4, s2, w);
    t.link(h5, s2, w);
    t.link(h6, s3, w);
    t.link(s1, s2, w);
    t.link(s2, s3, w);
    Fig1Scenario {
        topology: t,
        hosts: vec![h1, h2, h3, h4, h5, h6],
        servers: vec![s1, s2, s3],
        users_per_host: vec![50, 60, 50, 50, 40, 20],
    }
}

/// The second worked example (Table 3): three hosts with 100/100/20 users,
/// one server adjacent to each, servers chained `S1-S2-S3`, unit links.
pub fn table3() -> Fig1Scenario {
    let mut t = Topology::new();
    let r = RegionId(0);
    let s1 = t.add_server(r, "S1");
    let s2 = t.add_server(r, "S2");
    let s3 = t.add_server(r, "S3");
    let h1 = t.add_host(r, "H1");
    let h2 = t.add_host(r, "H2");
    let h3 = t.add_host(r, "H3");
    let w = Weight::UNIT;
    t.link(h1, s1, w);
    t.link(h2, s2, w);
    t.link(h3, s3, w);
    t.link(s1, s2, w);
    t.link(s2, s3, w);
    Fig1Scenario {
        topology: t,
        hosts: vec![h1, h2, h3],
        servers: vec![s1, s2, s3],
        users_per_host: vec![100, 100, 20],
    }
}

/// Parameters for [`multi_region`].
#[derive(Clone, Copy, Debug)]
pub struct MultiRegionConfig {
    /// Number of regions (>= 1).
    pub regions: usize,
    /// Hosts per region (>= 1).
    pub hosts_per_region: usize,
    /// Servers per region (>= 1).
    pub servers_per_region: usize,
    /// Inclusive range of intra-region link weights, in time units.
    pub intra_weight: (f64, f64),
    /// Inclusive range of inter-region link weights, in time units
    /// (typically much larger — long-haul links).
    pub inter_weight: (f64, f64),
    /// Number of extra random intra-region links per region beyond the
    /// spanning structure (adds path diversity).
    pub extra_links_per_region: usize,
    /// Number of extra inter-region links beyond the region ring.
    pub extra_inter_links: usize,
}

impl Default for MultiRegionConfig {
    fn default() -> Self {
        MultiRegionConfig {
            regions: 4,
            hosts_per_region: 6,
            servers_per_region: 3,
            intra_weight: (1.0, 3.0),
            inter_weight: (5.0, 15.0),
            extra_links_per_region: 2,
            extra_inter_links: 1,
        }
    }
}

/// Generates a connected multi-region topology:
///
/// * each region's servers form a ring (or a single node / an edge for
///   tiny regions) with random intra-region weights;
/// * each host links to a uniformly chosen server of its region;
/// * regions are joined in a ring through randomly chosen gateway servers
///   with (heavier) inter-region weights, plus optional chord links.
///
/// The result is always connected; weights are drawn uniformly from the
/// configured ranges (0.25-unit granularity so MST tie-breaking stays
/// interesting).
///
/// # Examples
///
/// ```
/// use lems_net::generators::{multi_region, MultiRegionConfig};
/// use lems_sim::rng::SimRng;
///
/// let mut rng = SimRng::seed(1);
/// let t = multi_region(&mut rng, &MultiRegionConfig::default());
/// assert!(t.is_connected());
/// assert_eq!(t.region_ids().len(), 4);
/// ```
///
/// # Panics
///
/// Panics if any count is zero or a weight range is inverted/negative.
pub fn multi_region(rng: &mut SimRng, cfg: &MultiRegionConfig) -> Topology {
    assert!(cfg.regions >= 1, "need at least one region");
    assert!(
        cfg.hosts_per_region >= 1,
        "need at least one host per region"
    );
    assert!(
        cfg.servers_per_region >= 1,
        "need at least one server per region"
    );
    for (lo, hi) in [cfg.intra_weight, cfg.inter_weight] {
        assert!(lo > 0.0 && hi >= lo, "invalid weight range ({lo}, {hi})");
    }

    let draw = |rng: &mut SimRng, (lo, hi): (f64, f64)| {
        // Quantize to quarter units: realistic-looking, still collision-prone
        // enough to exercise deterministic tie-breaking.
        let steps = ((hi - lo) / 0.25).round() as u64;
        let k = if steps == 0 { 0 } else { rng.range(0..=steps) };
        Weight::from_units(lo + k as f64 * 0.25)
    };

    let mut t = Topology::new();
    let mut servers_by_region: Vec<Vec<NodeId>> = Vec::with_capacity(cfg.regions);

    for r in 0..cfg.regions {
        let region = RegionId(r);
        let servers: Vec<NodeId> = (0..cfg.servers_per_region)
            .map(|i| t.add_server(region, &format!("r{r}-S{i}")))
            .collect();
        // Ring of servers (or single edge / nothing for small regions).
        match servers.len() {
            1 => {}
            2 => {
                let w = draw(rng, cfg.intra_weight);
                t.link(servers[0], servers[1], w);
            }
            n => {
                for i in 0..n {
                    let w = draw(rng, cfg.intra_weight);
                    t.link(servers[i], servers[(i + 1) % n], w);
                }
            }
        }
        for i in 0..cfg.hosts_per_region {
            let h = t.add_host(region, &format!("r{r}-H{i}"));
            let s = *rng.pick(&servers);
            let w = draw(rng, cfg.intra_weight);
            t.link(h, s, w);
        }
        // Extra intra-region server-server chords.
        let mut attempts = 0;
        let mut added = 0;
        while added < cfg.extra_links_per_region && attempts < 50 {
            attempts += 1;
            if servers.len() < 2 {
                break;
            }
            let a = *rng.pick(&servers);
            let b = *rng.pick(&servers);
            if a != b && t.graph().edge_between(a, b).is_none() {
                let w = draw(rng, cfg.intra_weight);
                t.link(a, b, w);
                added += 1;
            }
        }
        servers_by_region.push(servers);
    }

    // Ring of regions through random gateway servers.
    if cfg.regions > 1 {
        for r in 0..cfg.regions {
            let next = (r + 1) % cfg.regions;
            if cfg.regions == 2 && r == 1 {
                break; // avoid a duplicate edge on two regions
            }
            let a = *rng.pick(&servers_by_region[r]);
            let b = *rng.pick(&servers_by_region[next]);
            let w = draw(rng, cfg.inter_weight);
            if t.graph().edge_between(a, b).is_none() {
                t.link(a, b, w);
            }
        }
        // Chords across non-adjacent regions.
        let mut attempts = 0;
        let mut added = 0;
        while added < cfg.extra_inter_links && attempts < 50 {
            attempts += 1;
            let r1 = rng.index(cfg.regions);
            let r2 = rng.index(cfg.regions);
            if r1 == r2 {
                continue;
            }
            let a = *rng.pick(&servers_by_region[r1]);
            let b = *rng.pick(&servers_by_region[r2]);
            if t.graph().edge_between(a, b).is_none() {
                let w = draw(rng, cfg.inter_weight);
                t.link(a, b, w);
                added += 1;
            }
        }
    }

    debug_assert!(t.is_connected());
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest_path::dijkstra;

    #[test]
    fn fig1_matches_paper_constraints() {
        let f = fig1();
        assert!(f.topology.is_connected());
        assert_eq!(f.users_per_host.iter().sum::<u32>(), 270);
        // H2 -> S1 shortest path is two units (the paper's example).
        let sp = dijkstra(f.topology.graph(), f.hosts[1]);
        assert_eq!(sp.distance(f.servers[0]), Weight::from_units(2.0));
        // Every link is one unit.
        assert!(f
            .topology
            .graph()
            .edges()
            .iter()
            .all(|e| e.weight == Weight::UNIT));
        // All in one region.
        assert_eq!(f.topology.region_ids().len(), 1);
    }

    #[test]
    fn table3_loads() {
        let f = table3();
        assert_eq!(f.users_per_host, vec![100, 100, 20]);
        assert_eq!(f.hosts.len(), 3);
        assert!(f.topology.is_connected());
    }

    #[test]
    fn multi_region_is_connected_and_partitioned() {
        let mut rng = SimRng::seed(3);
        let cfg = MultiRegionConfig {
            regions: 6,
            hosts_per_region: 4,
            servers_per_region: 2,
            ..MultiRegionConfig::default()
        };
        let t = multi_region(&mut rng, &cfg);
        assert!(t.is_connected());
        assert_eq!(t.region_ids().len(), 6);
        assert_eq!(t.hosts().len(), 24);
        assert_eq!(t.servers().len(), 12);
        assert!(!t.gateways().is_empty());
        assert!(!t.inter_region_edges().is_empty());
    }

    #[test]
    fn multi_region_deterministic_per_seed() {
        let cfg = MultiRegionConfig::default();
        let t1 = multi_region(&mut SimRng::seed(9), &cfg);
        let t2 = multi_region(&mut SimRng::seed(9), &cfg);
        assert_eq!(t1.graph().edge_count(), t2.graph().edge_count());
        for (a, b) in t1.graph().edges().iter().zip(t2.graph().edges()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn two_region_config_has_no_duplicate_ring_edge() {
        let mut rng = SimRng::seed(5);
        let cfg = MultiRegionConfig {
            regions: 2,
            servers_per_region: 1,
            hosts_per_region: 1,
            extra_inter_links: 0,
            extra_links_per_region: 0,
            ..MultiRegionConfig::default()
        };
        let t = multi_region(&mut rng, &cfg);
        assert!(t.is_connected());
    }
}
