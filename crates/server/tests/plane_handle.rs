//! The cache's semantics and its budget balancers, driven in-process
//! through [`PlaneHandle`] — the same event loops and control thread that
//! serve the wire, so the rebalancer and the arbiter are tested on the code
//! that moves budget under real traffic.
//!
//! Every test runs at one event loop and at two: with one loop the control
//! thread's shrink and grow messages all go to the same owner; with two,
//! shards (and so the halves of every transfer) live on different loops.

use bytes::Bytes;
use cache_server::{
    route_key, BackendConfig, BackendMode, CacheServer, PlaneHandle, ServerConfig, TenantSpec,
};
use cliffhanger::{ShardBalanceConfig, TenantBalanceConfig};
use std::collections::HashMap;

/// The event-loop counts every test runs at.
const LOOPS: [usize; 2] = [1, 2];

/// Runs `check` against a fresh server at every count in [`LOOPS`], passing
/// it the server's plane handle and the loop count.
fn on_each_plane(backend: BackendConfig, check: impl Fn(&PlaneHandle, usize)) {
    for loops in LOOPS {
        let server = CacheServer::start(ServerConfig {
            workers: loops,
            backend: backend.clone(),
            ..ServerConfig::default()
        })
        .expect("server must start");
        check(server.cache(), loops);
    }
}

fn stats_map(c: &PlaneHandle) -> HashMap<String, String> {
    c.stats().into_iter().collect()
}

fn config(mode: BackendMode) -> BackendConfig {
    BackendConfig {
        total_bytes: 4 << 20,
        mode,
        shards: 2,
        ..BackendConfig::default()
    }
}

fn two_tenants(total: u64, shards: usize) -> BackendConfig {
    BackendConfig {
        total_bytes: total,
        mode: BackendMode::Cliffhanger,
        shards,
        tenants: vec![TenantSpec::new("alpha", 1), TenantSpec::new("beta", 1)],
        ..BackendConfig::default()
    }
}

/// A 16 MB, 2-shard server hosting `tenants` besides `default`, with small
/// arbitration credits and a low gradient gap so a dozen rounds are enough
/// to move budget.
fn eager_arbiter(tenants: &[&str]) -> BackendConfig {
    BackendConfig {
        total_bytes: 16 << 20,
        mode: BackendMode::Cliffhanger,
        shards: 2,
        tenants: tenants
            .iter()
            .map(|&name| TenantSpec::new(name, 1))
            .collect(),
        tenant_balance: TenantBalanceConfig {
            credit_bytes: 256 << 10,
            min_tenant_bytes: 1 << 20,
            min_gradient_gap: 4,
            ..TenantBalanceConfig::default()
        },
        ..BackendConfig::default()
    }
}

/// The shard a byte-string key of the default tenant routes to.
fn shard_of(key: &[u8], shards: usize) -> usize {
    route_key(0, key, shards).0
}

#[test]
fn rebalancer_moves_budget_toward_the_starved_shard() {
    let total = 8u64 << 20;
    // Shard 0 cycles a working set just past its 4 MB slice — roughly
    // 11k items fit, so a 13k-key cycle makes every re-request miss the
    // physical queue and land in the ~4k-entry shadow queue (a pure
    // gradient signal); shard 1 idles on a handful of keys.
    let shard0_keys: Vec<String> = (0..)
        .map(|i: u64| format!("hot-{i}"))
        .filter(|k| shard_of(k.as_bytes(), 2) == 0)
        .take(13_000)
        .collect();
    let shard1_keys: Vec<String> = (0..)
        .map(|i: u64| format!("cold-{i}"))
        .filter(|k| shard_of(k.as_bytes(), 2) == 1)
        .take(50)
        .collect();
    let payload = Bytes::from(vec![0u8; 200]);
    let backend = BackendConfig {
        total_bytes: total,
        mode: BackendMode::Cliffhanger,
        shards: 2,
        rebalance: ShardBalanceConfig {
            credit_bytes: 128 << 10,
            min_shard_bytes: 1 << 20,
            min_gradient_gap: 4,
            ..ShardBalanceConfig::default()
        },
        ..BackendConfig::default()
    };
    on_each_plane(backend, |c, loops| {
        for _ in 0..12 {
            for key in shard0_keys.iter().chain(&shard1_keys) {
                if c.get(key.as_bytes()).is_none() {
                    c.set(key.as_bytes(), 0, payload.clone());
                }
            }
            c.rebalance_now();
        }
        let budgets = c.shard_budgets();
        assert_eq!(
            budgets.iter().sum::<u64>(),
            total,
            "rebalancing must conserve the total budget: {budgets:?}"
        );
        assert!(
            budgets[0] > budgets[1],
            "{loops} loop(s): the starved shard should have gained budget: {budgets:?}"
        );
        let stats = stats_map(c);
        assert_eq!(stats["rebalance:enabled"], "1");
        assert!(stats["rebalance:transfers"].parse::<u64>().unwrap() > 0);
        assert!(stats["rebalance:bytes_moved"].parse::<u64>().unwrap() > 0);
        assert_eq!(stats["shard:0:budget"], budgets[0].to_string());
    });
}

#[test]
fn rebalance_disabled_keeps_static_budgets() {
    let backend = BackendConfig {
        total_bytes: 8 << 20,
        mode: BackendMode::Cliffhanger,
        shards: 2,
        rebalance: ShardBalanceConfig::disabled(),
        ..BackendConfig::default()
    };
    on_each_plane(backend, |c, _| {
        for i in 0..30_000u32 {
            let key = format!("k{i}");
            if c.get(key.as_bytes()).is_none() {
                c.set(key.as_bytes(), 0, Bytes::from("v"));
            }
        }
        assert_eq!(c.shard_budgets(), vec![4 << 20, 4 << 20]);
        let stats = stats_map(c);
        assert_eq!(stats["rebalance:enabled"], "0");
        assert_eq!(stats["rebalance:runs"], "0");
    });
}

#[test]
fn default_mode_never_rebalances() {
    on_each_plane(config(BackendMode::Default), |c, _| {
        c.set(b"a", 0, Bytes::from("1"));
        c.rebalance_now();
        c.arbitrate_now();
        let stats = stats_map(c);
        assert_eq!(stats["rebalance:enabled"], "0");
        assert_eq!(stats["rebalance:runs"], "0");
        assert_eq!(stats["arbiter:enabled"], "0");
        assert_eq!(stats["arbiter:runs"], "0");
    });
}

#[test]
fn flush_tenant_resplits_budgets_and_resets_baseline() {
    on_each_plane(config(BackendMode::Cliffhanger), |c, _| {
        for i in 0..5_000u32 {
            c.set(format!("k{i}").as_bytes(), 0, Bytes::from("v"));
        }
        c.rebalance_now();
        c.flush_tenant(0);
        assert_eq!(c.shard_budgets(), vec![2 << 20, 2 << 20]);
        let stats = stats_map(c);
        assert_eq!(stats["curr_items"], "0");
        assert_eq!(stats["shard:0:budget"], (2u64 << 20).to_string());
    });
}

#[test]
fn stats_expose_requested_and_effective_shards() {
    // 2 MB of budget clamps a requested 8 shards to 2 (1 MB floor).
    let backend = BackendConfig {
        total_bytes: 2 << 20,
        mode: BackendMode::Cliffhanger,
        shards: 8,
        ..BackendConfig::default()
    };
    on_each_plane(backend, |c, _| {
        assert_eq!(c.shard_count(), 2);
        let stats = stats_map(c);
        assert_eq!(stats["shard_count"], "2");
        assert_eq!(stats["shards_requested"], "8");
    });
}

#[test]
fn set_get_delete_roundtrip_all_modes() {
    for mode in [
        BackendMode::Default,
        BackendMode::HillClimbing,
        BackendMode::Cliffhanger,
    ] {
        on_each_plane(config(mode), |c, _| {
            assert!(c.get(b"missing").is_none());
            assert!(c.set(b"hello", 7, Bytes::from("world")));
            let (flags, value) = c.get(b"hello").expect("must hit");
            assert_eq!(flags, 7);
            assert_eq!(value, Bytes::from("world"));
            assert!(c.delete(b"hello"));
            assert!(!c.delete(b"hello"));
            assert!(c.get(b"hello").is_none());
        });
    }
}

#[test]
fn add_and_replace_semantics() {
    on_each_plane(config(BackendMode::Cliffhanger), |c, _| {
        assert!(c.add(b"k", 0, Bytes::from("1")));
        assert!(!c.add(b"k", 0, Bytes::from("2")), "add must not overwrite");
        assert_eq!(c.get(b"k").unwrap().1, Bytes::from("1"));
        assert!(c.replace(b"k", 0, Bytes::from("3")));
        assert_eq!(c.get(b"k").unwrap().1, Bytes::from("3"));
        assert!(!c.replace(b"absent", 0, Bytes::from("x")));
    });
}

#[test]
fn eviction_under_pressure_keeps_running() {
    let backend = BackendConfig {
        total_bytes: 256 << 10,
        mode: BackendMode::Cliffhanger,
        shards: 1,
        ..BackendConfig::default()
    };
    on_each_plane(backend, |c, _| {
        let payload = Bytes::from(vec![0u8; 1_000]);
        for i in 0..2_000u32 {
            assert!(c.set(format!("key{i}").as_bytes(), 0, payload.clone()));
        }
        // Recent keys should be resident; the cache stays within budget.
        let stats = stats_map(c);
        let bytes: u64 = stats["bytes"].parse().unwrap();
        assert!(bytes <= 256 << 10);
        let hits_recent = (1_990..2_000)
            .filter(|i| c.get(format!("key{i}").as_bytes()).is_some())
            .count();
        assert!(
            hits_recent >= 5,
            "recent keys mostly resident, got {hits_recent}"
        );
    });
}

#[test]
fn flush_tenant_clears_everything() {
    on_each_plane(config(BackendMode::Default), |c, _| {
        c.set(b"a", 0, Bytes::from("1"));
        c.flush_tenant(0);
        assert!(c.get(b"a").is_none());
        let stats = stats_map(c);
        assert_eq!(stats["curr_items"], "0");
    });
}

#[test]
fn stats_report_wire_counters() {
    on_each_plane(config(BackendMode::HillClimbing), |c, _| {
        c.set(b"a", 0, Bytes::from("1"));
        c.get(b"a");
        c.get(b"b");
        let stats = stats_map(c);
        assert_eq!(stats["cmd_get"], "2");
        assert_eq!(stats["get_hits"], "1");
        assert_eq!(stats["get_misses"], "1");
        assert_eq!(stats["cmd_set"], "1");
        assert_eq!(stats["allocator"], "hillclimbing");
        assert_eq!(stats["shard_count"], "2");
        assert_eq!(stats["tenant_count"], "1");
    });
}

#[test]
fn per_shard_stats_sum_to_aggregates() {
    let backend = BackendConfig {
        total_bytes: 16 << 20,
        mode: BackendMode::Cliffhanger,
        shards: 4,
        ..BackendConfig::default()
    };
    on_each_plane(backend, |c, _| {
        assert_eq!(c.shard_count(), 4);
        for i in 0..500u32 {
            assert!(c.set(format!("key-{i}").as_bytes(), 0, Bytes::from("v")));
        }
        for i in 0..250u32 {
            c.get(format!("key-{i}").as_bytes());
            c.get(format!("absent-{i}").as_bytes());
        }
        let stats = stats_map(c);
        for counter in ["cmd_get", "cmd_set", "get_hits", "curr_items", "bytes"] {
            let total: u64 = stats[counter].parse().unwrap();
            let summed: u64 = (0..4)
                .map(|i| {
                    stats[&format!("shard:{i}:{counter}")]
                        .parse::<u64>()
                        .unwrap()
                })
                .sum();
            assert_eq!(total, summed, "{counter} must equal the per-shard sum");
        }
        // The router must actually spread keys: no shard holds everything.
        let max_shard_items: u64 = (0..4)
            .map(|i| stats[&format!("shard:{i}:curr_items")].parse().unwrap())
            .max()
            .unwrap();
        let total_items: u64 = stats["curr_items"].parse().unwrap();
        assert_eq!(total_items, 500);
        assert!(
            max_shard_items < total_items,
            "keys must be spread across shards (max shard has {max_shard_items})"
        );
    });
}

#[test]
fn shards_are_independent_for_flush_scoped_load() {
    let backend = BackendConfig {
        total_bytes: 8 << 20,
        mode: BackendMode::Default,
        shards: 8,
        ..BackendConfig::default()
    };
    on_each_plane(backend, |c, _| {
        for i in 0..1_000u32 {
            assert!(c.set(format!("ind-{i}").as_bytes(), 0, Bytes::from("x")));
        }
        c.flush_tenant(0);
        for i in 0..1_000u32 {
            assert!(c.get(format!("ind-{i}").as_bytes()).is_none());
        }
    });
}

#[test]
fn tenants_resolve_and_namespace_keys() {
    on_each_plane(two_tenants(8 << 20, 2), |c, _| {
        assert_eq!(c.tenant_count(), 3);
        assert_eq!(c.tenant_index("default"), Some(0));
        let a = c.tenant_index("alpha").unwrap();
        let b = c.tenant_index("beta").unwrap();
        assert_eq!(c.tenant_index("gamma"), None);
        // The same wire key is three distinct items in three namespaces.
        assert!(c.set(b"k", 1, Bytes::from("default-v")));
        assert!(c.set_for(a, b"k", 2, Bytes::from("alpha-v")));
        assert!(c.set_for(b, b"k", 3, Bytes::from("beta-v")));
        assert_eq!(c.get(b"k").unwrap(), (1, Bytes::from("default-v")));
        assert_eq!(c.get_for(a, b"k").unwrap(), (2, Bytes::from("alpha-v")));
        assert_eq!(c.get_for(b, b"k").unwrap(), (3, Bytes::from("beta-v")));
        // Deleting in one namespace leaves the others.
        assert!(c.delete_for(a, b"k"));
        assert!(c.get_for(a, b"k").is_none());
        assert_eq!(c.get(b"k").unwrap().1, Bytes::from("default-v"));
        assert_eq!(c.get_for(b, b"k").unwrap().1, Bytes::from("beta-v"));
    });
}

#[test]
fn tenant_budgets_follow_weights() {
    let backend = BackendConfig {
        total_bytes: 16 << 20,
        mode: BackendMode::Cliffhanger,
        shards: 2,
        tenants: vec![TenantSpec::new("heavy", 2), TenantSpec::new("light", 1)],
        ..BackendConfig::default()
    };
    on_each_plane(backend, |c, _| {
        let budgets = c.tenant_budgets();
        assert_eq!(budgets.iter().sum::<u64>(), 16 << 20);
        // default:1, heavy:2, light:1 over 16 MB = 4/8/4 MB.
        assert_eq!(budgets[1], 8 << 20);
        assert_eq!(budgets[2], 4 << 20);
        let stats = stats_map(c);
        assert_eq!(stats["tenant_count"], "3");
        assert_eq!(stats["tenant:heavy:budget"], (8u64 << 20).to_string());
    });
}

#[test]
fn flush_tenant_clears_only_that_tenant_and_conserves_budget() {
    on_each_plane(two_tenants(8 << 20, 2), |c, _| {
        let a = c.tenant_index("alpha").unwrap();
        let b = c.tenant_index("beta").unwrap();
        for i in 0..500u32 {
            assert!(c.set_for(a, format!("a{i}").as_bytes(), 0, Bytes::from("va")));
            assert!(c.set_for(b, format!("b{i}").as_bytes(), 0, Bytes::from("vb")));
        }
        let total_before: u64 = c.tenant_budgets().iter().sum();
        c.flush_tenant(a);
        for i in 0..500u32 {
            assert!(c.get_for(a, format!("a{i}").as_bytes()).is_none());
            assert!(
                c.get_for(b, format!("b{i}").as_bytes()).is_some(),
                "beta's keys must survive alpha's flush"
            );
        }
        assert_eq!(c.tenant_budgets().iter().sum::<u64>(), total_before);
        let stats = stats_map(c);
        assert_eq!(stats["tenant:alpha:curr_items"], "0");
        assert_eq!(stats["tenant:beta:curr_items"], "500");
    });
}

#[test]
fn per_tenant_stats_sum_to_aggregates() {
    on_each_plane(two_tenants(8 << 20, 2), |c, _| {
        let a = c.tenant_index("alpha").unwrap();
        for i in 0..100u32 {
            assert!(c.set(format!("d{i}").as_bytes(), 0, Bytes::from("v")));
            assert!(c.set_for(a, format!("a{i}").as_bytes(), 0, Bytes::from("v")));
        }
        for i in 0..50u32 {
            c.get(format!("d{i}").as_bytes());
            c.get_for(a, format!("missing{i}").as_bytes());
        }
        let stats = stats_map(c);
        for counter in ["cmd_get", "cmd_set", "get_hits", "curr_items", "bytes"] {
            let total: u64 = stats[counter].parse().unwrap();
            let summed: u64 = ["default", "alpha", "beta"]
                .iter()
                .map(|name| {
                    stats[&format!("tenant:{name}:{counter}")]
                        .parse::<u64>()
                        .unwrap()
                })
                .sum();
            assert_eq!(total, summed, "{counter} must equal the per-tenant sum");
        }
        assert_eq!(stats["tenant:alpha:get_misses"], "50");
        assert_eq!(stats["tenant:default:get_hits"], "50");
        assert_eq!(stats["tenant:beta:cmd_get"], "0");
    });
}

/// The starved tenant's half of one round: cycle a working set past its
/// ~5.3 MB share, sized so the cycle's reuse distance lands beyond each
/// engine's physical capacity (~9k items) but inside physical + shadow
/// (~13k). Every re-request then misses the cache and hits the shadow
/// queue, the pure form of the gradient.
fn cycle_past_share(c: &PlaneHandle, tenant: usize, payload: &Bytes) {
    for i in 0..20_000u32 {
        let key = format!("s{i}");
        if c.get_for(tenant, key.as_bytes()).is_none() {
            c.set_for(tenant, key.as_bytes(), 0, payload.clone());
        }
    }
}

/// The idle tenant's half of one round: a handful of keys.
fn touch_a_few(c: &PlaneHandle, tenant: usize, payload: &Bytes) {
    for i in 0..50u32 {
        let key = format!("i{i}");
        if c.get_for(tenant, key.as_bytes()).is_none() {
            c.set_for(tenant, key.as_bytes(), 0, payload.clone());
        }
    }
}

#[test]
fn arbiter_moves_budget_toward_the_starved_tenant() {
    let payload = Bytes::from(vec![0u8; 200]);
    on_each_plane(eager_arbiter(&["starved", "idle"]), |c, loops| {
        let starved = c.tenant_index("starved").unwrap();
        let idle = c.tenant_index("idle").unwrap();
        for _ in 0..12 {
            cycle_past_share(c, starved, &payload);
            touch_a_few(c, idle, &payload);
            c.arbitrate_now();
        }
        let budgets = c.tenant_budgets();
        assert_eq!(
            budgets.iter().sum::<u64>(),
            16 << 20,
            "arbitration must conserve the total budget: {budgets:?}"
        );
        assert!(
            budgets[starved] > budgets[idle],
            "{loops} loop(s): the starved tenant should have gained budget: {budgets:?}"
        );
        let stats = stats_map(c);
        assert_eq!(stats["arbiter:enabled"], "1");
        assert!(stats["arbiter:transfers"].parse::<u64>().unwrap() > 0);
        assert!(stats["arbiter:bytes_moved"].parse::<u64>().unwrap() > 0);
        assert_eq!(stats["tenant:starved:budget"], budgets[starved].to_string());
    });
}

#[test]
fn arbitration_survives_another_tenants_flush_storm() {
    // Regression: flush_tenant used to reset the *global* arbiter
    // baseline, so any tenant flushing more often than the arbitration
    // interval suppressed cross-tenant arbitration for everyone, forever.
    // The gradient engine re-baselines on backwards counters by itself, so
    // a flush must cost at most one observation round.
    let payload = Bytes::from(vec![0u8; 200]);
    on_each_plane(eager_arbiter(&["starved", "flusher"]), |c, loops| {
        let starved = c.tenant_index("starved").unwrap();
        let flusher = c.tenant_index("flusher").unwrap();
        for round in 0..12 {
            cycle_past_share(c, starved, &payload);
            for i in 0..50u32 {
                c.set_for(
                    flusher,
                    format!("f{round}-{i}").as_bytes(),
                    0,
                    payload.clone(),
                );
            }
            // The storm: a flush before every arbitration round.
            c.flush_tenant(flusher);
            c.arbitrate_now();
        }
        let budgets = c.tenant_budgets();
        assert_eq!(budgets.iter().sum::<u64>(), 16 << 20);
        assert!(
            budgets[starved] > budgets[flusher],
            "{loops} loop(s): arbitration must keep working through the flush storm: {budgets:?}"
        );
        let stats = stats_map(c);
        assert!(stats["arbiter:transfers"].parse::<u64>().unwrap() > 0);
    });
}

#[test]
fn create_tenant_carves_budget_and_isolates() {
    let total = 8u64 << 20;
    on_each_plane(two_tenants(total, 2), |c, _| {
        assert_eq!(c.tenant_count(), 3);
        // Populate the default namespace first; the carve-out will shrink
        // its engines with real evictions.
        for i in 0..2_000u32 {
            c.set(format!("d{i}").as_bytes(), 0, Bytes::from(vec![0u8; 200]));
        }
        let gamma = c.create_tenant("gamma", 1).expect("create must succeed");
        assert_eq!(c.tenant_count(), 4);
        assert_eq!(c.tenant_index("gamma"), Some(gamma));
        // Budget conserved: the new tenant's share came out of the others.
        let budgets = c.tenant_budgets();
        assert_eq!(budgets.iter().sum::<u64>(), total, "{budgets:?}");
        assert!(budgets[gamma] > 0, "carve-out must be nonzero: {budgets:?}");
        // The new namespace works and is isolated.
        assert!(c.set_for(gamma, b"k", 1, Bytes::from("gamma-v")));
        assert_eq!(c.get_for(gamma, b"k").unwrap().1, Bytes::from("gamma-v"));
        assert!(c.get(b"k").is_none(), "default must not see gamma's key");
        // Rejections: duplicates (including built-ins), bad names, weight 0.
        assert!(c.create_tenant("gamma", 1).is_err());
        assert!(c.create_tenant("default", 1).is_err());
        assert!(c.create_tenant("bad:name", 1).is_err());
        assert!(c.create_tenant("", 1).is_err());
        assert!(c.create_tenant("fine", 0).is_err());
        assert_eq!(c.tenant_count(), 4);
        // The listing reflects the live state.
        let apps = c.app_list();
        assert_eq!(apps.len(), 4);
        assert_eq!(apps[gamma].0, "gamma");
        assert_eq!(apps[gamma].2, budgets[gamma]);
        // Stats carry the new tenant's section; its flush keeps the tenant
        // and its carve-out budget.
        let stats = stats_map(c);
        assert_eq!(stats["tenant_count"], "4");
        assert_eq!(stats["tenant:gamma:budget"], budgets[gamma].to_string());
        c.flush_tenant(gamma);
        assert!(c.get_for(gamma, b"k").is_none());
        assert_eq!(c.tenant_budgets().iter().sum::<u64>(), total);
        assert_eq!(c.tenant_count(), 4);
    });
}

#[test]
fn created_tenant_joins_arbitration() {
    // A tenant onboarded live must be a first-class arbitration citizen:
    // starve it and the arbiter should move budget toward it. Same
    // dimensions as `arbiter_moves_budget_toward_the_starved_tenant`,
    // except the starved tenant arrives via `app_create` instead of
    // deployment configuration.
    let payload = Bytes::from(vec![0u8; 200]);
    on_each_plane(eager_arbiter(&["idle"]), |c, loops| {
        let idle = c.tenant_index("idle").unwrap();
        let late = c.create_tenant("latecomer", 1).unwrap();
        assert_eq!(
            c.tenant_budgets().iter().sum::<u64>(),
            16 << 20,
            "carve-out conserves the total"
        );
        for _ in 0..12 {
            cycle_past_share(c, late, &payload);
            touch_a_few(c, idle, &payload);
            c.arbitrate_now();
        }
        let budgets = c.tenant_budgets();
        assert_eq!(budgets.iter().sum::<u64>(), 16 << 20);
        assert!(
            budgets[late] > budgets[idle],
            "{loops} loop(s): the starved latecomer should have gained budget: {budgets:?}"
        );
    });
}

#[test]
fn arbiter_disabled_keeps_static_reservations() {
    let backend = BackendConfig {
        total_bytes: 8 << 20,
        mode: BackendMode::Cliffhanger,
        shards: 2,
        tenants: vec![TenantSpec::new("a", 1)],
        tenant_balance: TenantBalanceConfig::disabled(),
        ..BackendConfig::default()
    };
    on_each_plane(backend, |c, _| {
        let a = c.tenant_index("a").unwrap();
        for i in 0..20_000u32 {
            let key = format!("k{i}");
            if c.get_for(a, key.as_bytes()).is_none() {
                c.set_for(a, key.as_bytes(), 0, Bytes::from("v"));
            }
            if i % 1_000 == 0 {
                c.arbitrate_now();
            }
        }
        assert_eq!(c.tenant_budgets(), vec![4 << 20, 4 << 20]);
        let stats = stats_map(c);
        assert_eq!(stats["arbiter:enabled"], "0");
        assert_eq!(stats["arbiter:runs"], "0");
    });
}

#[test]
fn single_tenant_server_reports_inactive_arbiter() {
    on_each_plane(config(BackendMode::Cliffhanger), |c, _| {
        c.arbitrate_now();
        let stats = stats_map(c);
        assert_eq!(stats["arbiter:enabled"], "0", "one tenant cannot arbitrate");
        assert_eq!(stats["arbiter:runs"], "0");
    });
}
