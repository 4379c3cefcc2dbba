//! The three workloads and the request stream they drive.
//!
//! Every server setting is fixed here, never derived from the host (no
//! `default_event_loops()`, no `detect_shards()`), so two hosts run the
//! same workload. The request stream is a pure function of the seed and of
//! the replies: the wire client and the in-process replay share
//! [`Traffic`], so a replay that sees the same hits and misses as the wire
//! sends exactly the same operations in the same order.

use cache_server::{BackendConfig, BackendMode, HotKeyConfig, ServerConfig, TenantSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use workloads::zipf::PopularitySampler;
use workloads::{KeyPopularity, SizeDistribution};

/// One connection's traffic: the tenant it selects and its request shape.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Tenant name (`None` stays in the `default` namespace).
    pub tenant: Option<&'static str>,
    /// The tenant's index in the server's tenant directory.
    pub tenant_index: usize,
    /// The hit-ratio population (0 hot, 1 cold) all of this stream's GETs
    /// count towards; `None` splits them into the prefilled ranks (hot) and
    /// the rest (cold).
    pub population: Option<usize>,
    pub keys: KeyPopularity,
    pub sizes: SizeDistribution,
    pub get_fraction: f64,
    /// Every GET miss is followed by a SET of the missed key.
    pub fill_on_miss: bool,
    /// Ranks `0..prefill` are SET during set-up.
    pub prefill: u64,
    /// Generated requests per pass; demand fills ride on top.
    pub requests: u64,
}

/// A workload: server settings, the pipeline depth every connection keeps
/// full (closed loop), and one stream per connection.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub backend: BackendConfig,
    pub pipeline: usize,
    pub streams: Vec<Stream>,
}

/// Wall time one pass takes on the reference host (2 vCPUs); sets how many
/// passes fit into `--seconds`.
const PASS_S: f64 = 5.0;

/// The ETC value-size fit, capped at 16 KB (mean about 330 B).
fn etc_sizes() -> SizeDistribution {
    SizeDistribution::GeneralizedPareto {
        location: 0.0,
        scale: 214.476,
        shape: 0.348_468,
        cap: 16 << 10,
    }
}

/// Every workload's server runs one event loop over one shard. With two
/// loops on a 2-vCPU host, GET throughput ranged from 66k to 121k req/s
/// over ten runs; with two shards, the rebalancer's asynchronous transfers
/// made hit ratios timing-dependent. The plane probe of a traced run
/// measures the two-loop path on its own.
fn backend(total_mb: u64, tenants: Vec<TenantSpec>) -> BackendConfig {
    BackendConfig {
        total_bytes: total_mb << 20,
        mode: BackendMode::Cliffhanger,
        shards: 1,
        tenants,
        mrc_sample: 64,
        hot_key: HotKeyConfig {
            enabled: false,
            ..HotKeyConfig::default()
        },
        ..BackendConfig::default()
    }
}

pub const NAMES: [&str; 3] = ["cache_aside", "set_burst_deep", "tenants_closed"];

pub fn by_name(name: &str) -> Option<Workload> {
    let workload = match name {
        "cache_aside" => Workload {
            name: "cache_aside",
            backend: backend(64, Vec::new()),
            pipeline: 16,
            streams: vec![Stream {
                tenant: None,
                tenant_index: 0,
                population: None,
                keys: KeyPopularity::Zipf {
                    num_keys: 1_000_000,
                    exponent: 0.99,
                },
                sizes: etc_sizes(),
                get_fraction: 0.9,
                fill_on_miss: true,
                prefill: 100_000,
                requests: 600_000,
            }],
        },
        "set_burst_deep" => Workload {
            name: "set_burst_deep",
            backend: backend(256, Vec::new()),
            pipeline: 256,
            streams: vec![Stream {
                tenant: None,
                tenant_index: 0,
                population: None,
                keys: KeyPopularity::Zipf {
                    num_keys: 100_000,
                    exponent: 0.99,
                },
                sizes: SizeDistribution::Fixed(1024),
                get_fraction: 0.1,
                fill_on_miss: false,
                prefill: 20_000,
                requests: 450_000,
            }],
        },
        "tenants_closed" => {
            let tenant = |name: &'static str, index: usize, exponent: f64| Stream {
                tenant: Some(name),
                tenant_index: index,
                population: Some(index - 1),
                keys: KeyPopularity::Zipf {
                    num_keys: 300_000,
                    exponent,
                },
                sizes: etc_sizes(),
                get_fraction: 0.9,
                fill_on_miss: true,
                prefill: 30_000,
                requests: 450_000,
            };
            Workload {
                name: "tenants_closed",
                backend: backend(
                    32,
                    vec![TenantSpec::new("hot", 1), TenantSpec::new("cold", 1)],
                ),
                pipeline: 16,
                // Directory order: `default` is index 0, then hot, cold.
                streams: vec![tenant("hot", 1, 1.1), tenant("cold", 2, 0.8)],
            }
        }
        _ => return None,
    };
    Some(workload)
}

impl Workload {
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_connections: 64,
            idle_timeout: None,
            slow_op_micros: 0,
            backend: self.backend.clone(),
        }
    }

    /// Passes that fit into `seconds` on the reference host, at least one.
    pub fn passes(&self, seconds: u64) -> usize {
        ((seconds as f64 / PASS_S).round() as usize).max(1)
    }

    /// Whether the engine replay must reproduce the wire's counts exactly:
    /// no tenant arbiter moves budget behind the client's back.
    pub fn replay_is_exact(&self) -> bool {
        self.backend.tenants.is_empty()
    }
}

/// The wire key of a rank (the repository load generator's format).
pub fn key_for_rank(rank: u64, out: &mut Vec<u8>) {
    use std::io::Write;
    let _ = write!(out, "k{rank:013x}");
}

/// Size of the shared pattern the values are cut from.
const POOL_BYTES: usize = 64 << 10;

/// Deterministic value bytes: each (tenant, rank, generation) reads its own
/// window of a fixed pseudo-random pattern, so a reply carrying another
/// key's value, another tenant's, or an older write of the same key
/// compares unequal (two windows coincide with probability 1 in 64 Ki).
pub struct ValuePool {
    pool: Vec<u8>,
}

impl ValuePool {
    pub fn new() -> ValuePool {
        let mut state = 0x5EED_F00D_u64;
        let pool = (0..POOL_BYTES + (16 << 10))
            .map(|_| {
                state = cache_core::key::mix64(state);
                b'a' + (state % 26) as u8
            })
            .collect();
        ValuePool { pool }
    }

    /// The bytes of the `generation`-th write of `rank` (generations count
    /// from 1; the length follows `size` alone).
    pub fn value(&self, tenant: usize, rank: u64, generation: u32, size: usize) -> &[u8] {
        let tag = rank ^ ((tenant as u64) << 56) ^ (u64::from(generation) << 32);
        let offset = (cache_core::key::mix64(tag) % POOL_BYTES as u64) as usize;
        &self.pool[offset..offset + size]
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Set,
    /// A demand fill after a GET miss.
    Fill,
}

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: OpKind,
    pub rank: u64,
    pub size: usize,
    /// Which write of the key a SET carries (from 1); the wire client
    /// assigns it when it sends the SET, and GETs leave it 0.
    pub generation: u32,
}

/// One connection's request stream for one pass: `requests` operations,
/// plus a fill for every GET miss when the stream fills. Batches put the
/// pending fills first and top up with generated requests to the pipeline
/// depth. A fill pending when the budget runs out is still sent.
pub struct Traffic {
    sampler: PopularitySampler,
    sizes: SizeDistribution,
    get_fraction: f64,
    fill_on_miss: bool,
    rng: StdRng,
    remaining: u64,
    fills: VecDeque<u64>,
}

impl Traffic {
    /// The stream of connection `conn` for `seed`; every pass replays it.
    pub fn new(stream: &Stream, sampler: PopularitySampler, seed: u64, conn: usize) -> Traffic {
        Traffic {
            sampler,
            sizes: stream.sizes.clone(),
            get_fraction: stream.get_fraction,
            fill_on_miss: stream.fill_on_miss,
            rng: StdRng::seed_from_u64(cache_core::key::mix64(seed ^ (conn as u64 + 1))),
            remaining: stream.requests,
            fills: VecDeque::new(),
        }
    }

    fn size_for_rank(&self, rank: u64) -> usize {
        size_for_rank(&self.sizes, rank)
    }

    /// Appends the next batch of up to `depth` operations; false when the
    /// pass is over.
    pub fn next_batch(&mut self, depth: usize, out: &mut Vec<Op>) -> bool {
        out.clear();
        while out.len() < depth {
            if let Some(rank) = self.fills.pop_front() {
                out.push(Op {
                    kind: OpKind::Fill,
                    rank,
                    size: self.size_for_rank(rank),
                    generation: 0,
                });
                continue;
            }
            if self.remaining == 0 {
                break;
            }
            self.remaining -= 1;
            let rank = self.sampler.sample(&mut self.rng);
            let kind = if self.rng.gen_bool(self.get_fraction) {
                OpKind::Get
            } else {
                OpKind::Set
            };
            out.push(Op {
                kind,
                rank,
                size: self.size_for_rank(rank),
                generation: 0,
            });
        }
        !out.is_empty()
    }

    /// Feeds back a GET's outcome; a miss queues a fill for the next batch.
    pub fn on_get(&mut self, rank: u64, hit: bool) {
        if self.fill_on_miss && !hit {
            self.fills.push_back(rank);
        }
    }
}

/// The value size of a rank. Sizes belong to the data set, not to the
/// request stream, so they do not follow the seed: every seed draws its
/// requests over the same items.
pub fn size_for_rank(sizes: &SizeDistribution, rank: u64) -> usize {
    sizes.size_for_key(rank, 0x51CE).clamp(1, 16 << 10) as usize
}
