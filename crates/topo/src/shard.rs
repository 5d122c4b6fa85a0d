//! Partitioning one fabric simulation into parallel shards.
//!
//! A [`ShardPlan`] maps every switch (and with it every host, scheduler
//! domain, per-link IP lane, and flow event) to one *logical process* of
//! the conservative parallel engine (`edm_sim::sharded`). Two properties
//! make a partition valid:
//!
//! * **Positive lookahead** — the windows of the conservative protocol
//!   are bounded by the minimum latency of any cross-shard chunk flight.
//!   A trunk with zero propagation delay would give zero lookahead, so
//!   zero-latency trunks are *contracted* first (union–find): switches
//!   joined by them always land in the same shard. When contraction
//!   collapses the whole fabric into one component (in particular any
//!   single-switch topology, which has no trunks at all), the plan
//!   degenerates to one shard, which runs as a plain sequential loop.
//! * **Determinism** — the assignment is a pure function of the topology
//!   and the requested shard count: components are placed by
//!   longest-processing-time-first over their port counts (a load
//!   proxy), ties broken by lowest member switch id.
//!
//! The plan's [`lookahead`](ShardPlan::lookahead) adds the protocol's
//! minimum store-and-forward slack on top of the minimum cross-shard
//! trunk propagation: every cross-shard chunk pays at least the granting
//! switch's turnaround (`forward_latency`, or the full pipeline at hop
//! 0) before it even reaches the trunk, so windows can be that much
//! wider at no risk — fewer barriers for the same bit-identical result.

use crate::topology::{Endpoint, Topology};
use crate::world::TopoEdmConfig;
use edm_sim::Duration;

/// A deterministic switch → shard assignment with its lookahead bound.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard id per switch.
    assign: Vec<u32>,
    /// Number of shards actually used (≤ requested).
    shards: u32,
    /// Conservative window bound; [`Duration::MAX`] when no trunk
    /// crosses shards (fully independent shards).
    lookahead: Duration,
}

/// Union–find with path halving.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

impl ShardPlan {
    /// The trivial one-shard plan (every sequential run's view).
    pub fn solo(switch_count: usize) -> Self {
        ShardPlan {
            assign: vec![0; switch_count],
            shards: 1,
            lookahead: Duration::MAX,
        }
    }

    /// Plans `requested` shards over `topo`, degenerating to fewer (down
    /// to one) when the topology cannot support them — fewer switches
    /// than shards, or zero-latency trunks contracting everything
    /// together.
    pub fn new(topo: &Topology, cfg: &TopoEdmConfig, requested: usize) -> Self {
        let n = topo.switch_count();
        let requested = requested.clamp(1, n);
        if requested == 1 {
            return ShardPlan::solo(n);
        }
        // 1. Contract zero-propagation trunks: their endpoints must
        //    share a shard or the lookahead would be zero.
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for link in topo.links() {
            if !link.is_trunk() || link.params.propagation > Duration::ZERO {
                continue;
            }
            if let (Endpoint::Port { switch: a, .. }, Endpoint::Port { switch: b, .. }) =
                (link.a, link.b)
            {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    // Deterministic union: smaller root wins.
                    let (lo, hi) = (ra.min(rb), ra.max(rb));
                    parent[hi as usize] = lo;
                }
            }
        }
        // 2. Components, keyed by root, weighted by port count.
        let mut comp_of: Vec<u32> = (0..n as u32).map(|s| find(&mut parent, s)).collect();
        let mut comps: Vec<(u32, u64)> = Vec::new(); // (root, weight)
        for (s, &root) in comp_of.iter().enumerate() {
            match comps.iter_mut().find(|(r, _)| *r == root) {
                Some((_, w)) => *w += topo.switch_ports(s as u32) as u64,
                None => comps.push((root, topo.switch_ports(s as u32) as u64)),
            }
        }
        // 3. LPT placement: heaviest component into the lightest bin;
        //    ties by lowest root / lowest bin index.
        comps.sort_by_key(|&(root, w)| (std::cmp::Reverse(w), root));
        let bins = requested.min(comps.len());
        let mut bin_load = vec![0u64; bins];
        let mut bin_of_root: Vec<(u32, u32)> = Vec::with_capacity(comps.len());
        for (root, w) in comps {
            let bin = (0..bins)
                .min_by_key(|&b| (bin_load[b], b))
                .expect("at least one bin");
            bin_load[bin] += w;
            bin_of_root.push((root, bin as u32));
        }
        for c in comp_of.iter_mut() {
            let (_, bin) = bin_of_root
                .iter()
                .find(|(root, _)| root == c)
                .expect("every root placed");
            *c = *bin;
        }
        let shards = bins as u32;
        if shards <= 1 {
            return ShardPlan::solo(n);
        }
        // 4. Lookahead: minimum cross-shard trunk propagation plus the
        //    protocol's minimum pre-trunk turnaround. Hop-0 grants pay
        //    the full pipeline (grant flight + chunk ingress) and
        //    store-and-forward hops pay `forward_latency` before the
        //    chunk reaches any trunk.
        let slack = cfg.forward_latency.min(cfg.pipeline_latency);
        let mut min_prop = Duration::MAX;
        for link in topo.links() {
            if !link.is_trunk() {
                continue;
            }
            if let (Endpoint::Port { switch: a, .. }, Endpoint::Port { switch: b, .. }) =
                (link.a, link.b)
            {
                if comp_of[a as usize] != comp_of[b as usize] {
                    min_prop = min_prop.min(link.params.propagation);
                }
            }
        }
        let lookahead = if min_prop == Duration::MAX {
            Duration::MAX // disjoint shards: windows bounded by cuts only
        } else {
            debug_assert!(min_prop > Duration::ZERO, "zero-prop trunks are contracted");
            min_prop + slack
        };
        ShardPlan {
            assign: comp_of,
            shards,
            lookahead,
        }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard owning `switch` (and its attached hosts and links).
    pub fn shard_of(&self, switch: u32) -> u32 {
        self.assign[switch as usize]
    }

    /// The conservative window bound for this plan.
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LeafSpine, LinkParams, Topology};

    #[test]
    fn single_switch_degenerates_to_one_shard() {
        let t = Topology::single_switch(8, LinkParams::default());
        let plan = ShardPlan::new(&t, &TopoEdmConfig::default(), 4);
        assert_eq!(plan.shards(), 1);
    }

    #[test]
    fn leaf_spine_splits_and_balances() {
        let t = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 8, 2));
        let plan = ShardPlan::new(&t, &TopoEdmConfig::default(), 4);
        assert_eq!(plan.shards(), 4);
        // Deterministic: planning twice yields the same assignment.
        let again = ShardPlan::new(&t, &TopoEdmConfig::default(), 4);
        for sw in 0..t.switch_count() as u32 {
            assert_eq!(plan.shard_of(sw), again.shard_of(sw));
        }
        // Lookahead = trunk propagation (10 ns) + min(forward, pipeline).
        let cfg = TopoEdmConfig::default();
        assert_eq!(
            plan.lookahead(),
            LinkParams::default().propagation + cfg.forward_latency.min(cfg.pipeline_latency)
        );
    }

    #[test]
    fn zero_latency_trunks_are_contracted() {
        let zero = LinkParams {
            propagation: Duration::ZERO,
            ..LinkParams::default()
        };
        // Every trunk is zero-latency: the whole fabric contracts into
        // one component and the plan degenerates to one shard.
        let t = Topology::leaf_spine(LeafSpine {
            trunk: zero,
            ..LeafSpine::symmetric(2, 2, 4, 1)
        });
        let plan = ShardPlan::new(&t, &TopoEdmConfig::default(), 4);
        assert_eq!(plan.shards(), 1);
    }

    #[test]
    fn more_shards_than_switches_clamps() {
        let t = Topology::leaf_spine(LeafSpine::symmetric(2, 1, 2, 1));
        let plan = ShardPlan::new(&t, &TopoEdmConfig::default(), 16);
        assert!(plan.shards() <= t.switch_count());
        assert!(plan.shards() >= 2);
    }
}
