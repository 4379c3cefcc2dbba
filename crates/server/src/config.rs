//! The cache's configuration: the allocation scheme, the hosted tenants,
//! the shard count and the budget-balancing knobs that
//! [`crate::CacheServer::start`] hands to the shared-nothing data plane.
//!
//! Budgets start weight-proportional across tenants and even across
//! shards, then move on three levels, all driven by the shadow-queue
//! gradient signal (paper §4.1): the Cliffhanger hill climber inside each
//! engine, the per-tenant cross-shard rebalancer
//! ([`BackendConfig::rebalance`]) and the cross-tenant arbiter
//! ([`BackendConfig::tenant_balance`]).

use crate::hotkey::HotKeyConfig;
use cache_core::{SlabConfig, TenantDirectory};
use cliffhanger::{ShardBalanceConfig, TenantBalanceConfig};

/// Which allocation scheme the server runs (Tables 6–7 compare these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendMode {
    /// Stock Memcached behaviour: first-come-first-serve slab allocation.
    Default,
    /// Hill climbing only (Algorithm 1).
    HillClimbing,
    /// The full Cliffhanger system (both algorithms).
    Cliffhanger,
}

/// One hosted application and its reservation weight.
///
/// Budgets start proportional to the weights (a weight-2 tenant reserves
/// twice the bytes of a weight-1 tenant) and then move under arbitration
/// unless [`TenantBalanceConfig::enabled`] is off.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// The application name clients select with `app <name>`. Must satisfy
    /// [`TenantDirectory::valid_name`].
    pub name: String,
    /// Relative reservation weight; must be at least 1.
    pub weight: u64,
}

impl TenantSpec {
    /// A tenant with the given name and weight.
    pub fn new(name: impl Into<String>, weight: u64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight,
        }
    }
}

/// Sharding below this per-engine budget hurts more than it helps (the slab
/// classes no longer fit), so auto-detection caps the shard count to keep
/// every tenant's engine on every shard at least this large (at even
/// weights).
const MIN_SHARD_BYTES: u64 = 1 << 20;

/// Upper bound on auto-detected shards; explicit configuration may exceed it.
const MAX_AUTO_SHARDS: usize = 64;

/// Returns the number of shards auto-detection would pick for this host:
/// one per available CPU (`num_cpus`-style), capped at `MAX_AUTO_SHARDS`.
pub fn detect_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_AUTO_SHARDS)
}

/// Backend configuration.
#[derive(Clone, Debug)]
pub struct BackendConfig {
    /// Total cache memory in bytes, split across tenants by weight and then
    /// evenly across the shards.
    pub total_bytes: u64,
    /// Which allocation scheme to run.
    pub mode: BackendMode,
    /// Slab-class geometry.
    pub slab: SlabConfig,
    /// Number of independent shards; `0` auto-detects from the host's
    /// available parallelism. Both explicit and detected counts are capped
    /// so every tenant's engine keeps at least 1 MB of budget — the clamp is
    /// logged at start-up and exposed as the `shards_requested` stats line;
    /// check [`crate::PlaneHandle::shard_count`] (or
    /// [`BackendConfig::resolved_shards`]) for the count actually running.
    pub shards: usize,
    /// Per-tenant cross-shard budget rebalancing. Enabled by default; only
    /// effective with more than one shard and a managed (non-`Default`)
    /// allocator, since the gradient signal comes from the Cliffhanger
    /// shadow queues.
    pub rebalance: ShardBalanceConfig,
    /// Applications hosted besides the always-present `default` tenant.
    /// Empty reproduces the single-tenant server exactly.
    pub tenants: Vec<TenantSpec>,
    /// Cross-tenant budget arbitration. Enabled by default; only effective
    /// with more than one tenant and a managed allocator. Off reproduces
    /// Memcachier's static reservations.
    pub tenant_balance: TenantBalanceConfig,
    /// Online miss-ratio-curve sampling rate denominator: on average one in
    /// `mrc_sample` GETs is profiled (rounded up to a power of two; `0`
    /// disables profiling).
    pub mrc_sample: u64,
    /// Hot-key detection and per-loop replication. Disabled by default.
    pub hot_key: HotKeyConfig,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            total_bytes: 64 << 20,
            mode: BackendMode::Cliffhanger,
            slab: SlabConfig::default(),
            shards: 0,
            rebalance: ShardBalanceConfig::default(),
            tenants: Vec::new(),
            tenant_balance: TenantBalanceConfig::default(),
            mrc_sample: 64,
            hot_key: HotKeyConfig::default(),
        }
    }
}

impl BackendConfig {
    /// The tenant directory this configuration resolves to: `default` at
    /// index 0, configured tenants after it in order (duplicates collapse).
    pub fn tenant_directory(&self) -> TenantDirectory {
        let names: Vec<&str> = self.tenants.iter().map(|t| t.name.as_str()).collect();
        TenantDirectory::from_names(&names)
    }

    /// Per-tenant reservation weights aligned with
    /// [`BackendConfig::tenant_directory`] indices. The default tenant's
    /// weight is 1 unless it is listed explicitly.
    pub(crate) fn tenant_weights(&self, directory: &TenantDirectory) -> Vec<u64> {
        directory
            .names()
            .iter()
            .map(|name| {
                let weight = self
                    .tenants
                    .iter()
                    .find(|t| &t.name == name)
                    .map(|t| t.weight)
                    .unwrap_or(1);
                assert!(weight >= 1, "tenant {name:?} weight must be at least 1");
                weight
            })
            .collect()
    }

    /// The shard count this configuration asks for, before the budget cap:
    /// the explicit value, or CPU-count detection when `shards == 0`.
    pub fn requested_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            detect_shards()
        }
    }

    /// The spatial-sampling shift the configured MRC rate resolves to:
    /// `Some(s)` profiles one in `2^s` keys (`mrc_sample` rounded up to a
    /// power of two), `None` disables profiling entirely.
    pub fn mrc_shift(&self) -> Option<u32> {
        match self.mrc_sample {
            0 => None,
            n => Some(n.next_power_of_two().trailing_zeros()),
        }
    }

    /// The shard count this configuration resolves to: the explicit value,
    /// or CPU-count detection when `shards == 0`, in both cases capped so no
    /// tenant engine drops below `MIN_SHARD_BYTES` at even weights.
    pub fn resolved_shards(&self) -> usize {
        let tenants = self.tenant_directory().len() as u64;
        let budget_cap = (self.total_bytes / (MIN_SHARD_BYTES * tenants)).max(1) as usize;
        self.requested_shards().clamp(1, budget_cap.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_auto_detection_is_budget_capped() {
        let tiny = BackendConfig {
            total_bytes: 2 << 20,
            shards: 0,
            ..BackendConfig::default()
        };
        assert!(tiny.resolved_shards() <= 2, "2 MB cannot exceed 2 shards");
        let explicit = BackendConfig {
            total_bytes: 64 << 20,
            shards: 8,
            ..BackendConfig::default()
        };
        assert_eq!(explicit.resolved_shards(), 8);
        let zero = BackendConfig {
            total_bytes: 64 << 20,
            shards: 0,
            ..BackendConfig::default()
        };
        assert!(zero.resolved_shards() >= 1);
        // Tenants tighten the cap: every tenant engine needs its megabyte.
        let tenanted = BackendConfig {
            total_bytes: 8 << 20,
            shards: 8,
            tenants: vec![
                TenantSpec::new("a", 1),
                TenantSpec::new("b", 1),
                TenantSpec::new("c", 1),
            ],
            ..BackendConfig::default()
        };
        assert_eq!(tenanted.resolved_shards(), 2, "8 MB / 4 tenants / 1 MB");
    }
}
