//! The per-(shard, tenant) cache engine and the key-routing arithmetic.
//!
//! The server's shared-nothing data plane (`crate::plane`) gives each event
//! loop outright ownership of its shards' engines, so no lock exists on the
//! request path. Keeping the engine operations (exact-match lookup
//! semantics, charge accounting, budget grow/shrink) and the routing
//! function here lets the paper's overhead tables drive an [`Engine`] with
//! the exact calls an event loop makes.

use crate::config::{BackendConfig, BackendMode};
use bytes::Bytes;
use cache_core::key::mix64;
use cache_core::store::AllocationMode;
use cache_core::{hash_bytes, CacheStats, Key, PolicyKind, SlabCache, SlabCacheConfig};
use cliffhanger::{Cliffhanger, CliffhangerConfig, EventSink};
use std::sync::Arc;

/// A value as stored by the server.
#[derive(Clone, Debug)]
pub(crate) struct StoredValue {
    /// The full byte-string key (for exact-match verification).
    pub(crate) key: Bytes,
    /// Client flags.
    pub(crate) flags: u32,
    /// The payload.
    pub(crate) data: Bytes,
}

impl StoredValue {
    pub(crate) fn new(key: &[u8], flags: u32, data: Bytes) -> StoredValue {
        StoredValue {
            key: Bytes::copy_from_slice(key),
            flags,
            data,
        }
    }
}

/// The bytes an item is charged against its engine's budget.
pub(crate) fn charge_size(key: &[u8], data: &[u8]) -> u64 {
    (key.len() + data.len()) as u64
}

/// Routes a byte-string key of one tenant to its shard index and 64-bit
/// cache key.
///
/// The shard selector re-mixes the FNV hash so that shard membership is
/// decorrelated from the bits the per-shard engines use; non-default
/// tenants fold a per-tenant salt in (the backend-side form of key
/// prefixing) so their key populations spread independently, while the
/// default tenant routes exactly as the single-tenant server did.
pub fn route_key(tenant: usize, key: &[u8], shards: usize) -> (usize, Key) {
    let hash = hash_bytes(key);
    let salt = if tenant == 0 { 0 } else { mix64(tenant as u64) };
    let index = (mix64(hash ^ salt) % shards as u64) as usize;
    (index, Key::new(hash))
}

/// Splits `total` into weight-proportional integer shares that sum exactly
/// to `total` (the remainder lands on the first share).
pub(crate) fn weighted_split(total: u64, weights: &[u64]) -> Vec<u64> {
    let sum: u128 = weights.iter().map(|&w| w as u128).sum();
    let mut shares: Vec<u64> = weights
        .iter()
        .map(|&w| ((total as u128 * w as u128) / sum.max(1)) as u64)
        .collect();
    let assigned: u64 = shares.iter().sum();
    shares[0] += total - assigned;
    shares
}

/// Splits `total` into `parts` even integer shares summing exactly to
/// `total` (remainder on the first share).
pub(crate) fn even_split(total: u64, parts: usize) -> Vec<u64> {
    let share = total / parts as u64;
    let mut out = vec![share; parts];
    out[0] += total - share * parts as u64;
    out
}

/// One tenant's cache engine on one shard: a plain slab cache in
/// `Default` mode, a Cliffhanger-managed cache otherwise. The engine has
/// no lock of its own: the event loop that owns its shard is the only
/// thread that touches it.
pub struct Engine(Inner);

enum Inner {
    Plain(Box<SlabCache<StoredValue>>),
    Managed(Box<Cliffhanger<StoredValue>>),
}

impl Engine {
    /// Builds an engine of `config.mode` with a `engine_bytes` budget.
    pub fn build(config: &BackendConfig, engine_bytes: u64) -> Engine {
        match config.mode {
            BackendMode::Default => {
                Engine(Inner::Plain(Box::new(SlabCache::new(SlabCacheConfig {
                    slab: config.slab.clone(),
                    total_bytes: engine_bytes,
                    policy: PolicyKind::Lru,
                    mode: AllocationMode::FirstComeFirstServe { page_size: 1 << 20 },
                    shadow_bytes: 0,
                    tail_region_items: 0,
                }))))
            }
            BackendMode::HillClimbing | BackendMode::Cliffhanger => {
                let cfg = CliffhangerConfig {
                    slab: config.slab.clone(),
                    total_bytes: engine_bytes,
                    enable_hill_climbing: true,
                    enable_cliff_scaling: config.mode == BackendMode::Cliffhanger,
                    ..CliffhangerConfig::default()
                };
                Engine(Inner::Managed(Box::new(Cliffhanger::new(cfg))))
            }
        }
    }

    /// Installs a decision-event sink on a managed engine (the flight
    /// recorder hook); a plain slab cache makes no decisions to narrate.
    pub(crate) fn set_event_sink(&mut self, sink: Arc<dyn EventSink + Send + Sync>) {
        if let Inner::Managed(cache) = &mut self.0 {
            cache.set_event_sink(sink);
        }
    }

    pub(crate) fn value(&self, id: Key) -> Option<&StoredValue> {
        match &self.0 {
            Inner::Plain(cache) => cache.value(id),
            Inner::Managed(cache) => cache.value(id),
        }
    }

    /// Whether `key` is resident with an exact byte-string match.
    pub(crate) fn contains_exact(&self, id: Key, key: &[u8]) -> bool {
        self.value(id).map(|s| s.key == key).unwrap_or(false)
    }

    /// A wire-level GET: records the access (feeding the shadow queues in
    /// managed mode) and returns `(flags, data)` on an exact byte-string
    /// match. A 64-bit hash collision is a miss for the colliding key,
    /// never a wrong value.
    pub fn wire_get(&mut self, id: Key, key: &[u8]) -> Option<(u32, Bytes)> {
        let found = match &mut self.0 {
            Inner::Plain(cache) => {
                let hit = cache.get_untyped(id).result.hit;
                if hit {
                    cache.value(id).cloned()
                } else {
                    None
                }
            }
            Inner::Managed(cache) => {
                let (_, event) = cache.get_untyped(id);
                if event.hit {
                    cache.value(id).cloned()
                } else {
                    None
                }
            }
        };
        match found {
            Some(stored) if stored.key == key => Some((stored.flags, stored.data)),
            _ => None,
        }
    }

    /// A wire-level store: charges `key + data` bytes and admits the item.
    /// Returns `false` only if the item could not be admitted (e.g. larger
    /// than the largest slab class).
    pub fn wire_set(&mut self, id: Key, key: &[u8], flags: u32, data: Bytes) -> bool {
        let size = charge_size(key, &data);
        let stored = StoredValue::new(key, flags, data);
        self.set(id, size, stored)
    }

    pub(crate) fn set(&mut self, id: Key, size: u64, stored: StoredValue) -> bool {
        match &mut self.0 {
            Inner::Plain(cache) => cache
                .set(id, size, stored)
                .map(|(_, r)| r.admitted)
                .unwrap_or(false),
            Inner::Managed(cache) => cache
                .set(id, size, stored)
                .map(|(_, admitted)| admitted)
                .unwrap_or(false),
        }
    }

    /// Deletes `id`; returns whether it was present.
    pub(crate) fn delete(&mut self, id: Key) -> bool {
        match &mut self.0 {
            Inner::Plain(cache) => cache.delete(id),
            Inner::Managed(cache) => cache.delete(id),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        match &self.0 {
            Inner::Plain(cache) => cache.stats(),
            Inner::Managed(cache) => cache.stats(),
        }
    }

    /// Grows the engine's total budget (managed engines only; a plain slab
    /// cache has no dynamic-budget path and is never rebalanced).
    pub(crate) fn grow_total(&mut self, bytes: u64) {
        if let Inner::Managed(cache) = &mut self.0 {
            cache.grow_total(bytes);
        }
    }

    /// Releases `bytes` of the engine's budget, evicting as needed. Returns
    /// whether the release happened.
    pub(crate) fn shrink_total(&mut self, bytes: u64) -> bool {
        match &mut self.0 {
            Inner::Plain(_) => false,
            Inner::Managed(cache) => cache.shrink_total(bytes),
        }
    }

    pub(crate) fn used_bytes(&self) -> u64 {
        match &self.0 {
            Inner::Plain(cache) => cache.used_bytes(),
            Inner::Managed(cache) => cache.used_bytes(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match &self.0 {
            Inner::Plain(cache) => cache.len(),
            Inner::Managed(cache) => cache.len(),
        }
    }
}
