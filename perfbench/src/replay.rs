//! Per-layer costs measured from outside each layer: the workload's own
//! request bytes are replayed, batch by batch at the workload's pipeline
//! depth, through `protocol::Parser::parse`, a `cliffhanger::Cliffhanger`
//! engine per (tenant, shard) built the way one server shard is, and
//! `protocol::encode_response`. The replay feeds its hits and misses back
//! into the same [`Traffic`] the wire client uses, so with one shard, one
//! loop and no tenant arbiter it sends exactly the operations the wire run
//! sent.
//!
//! When tracing, every call is wrapped in a span (name, start, end, parent,
//! request id). Spans stay in memory and are written out at the end.

use crate::alloc;
use crate::wire::encode_op;
use crate::workload::{size_for_rank, Op, OpKind, Traffic, ValuePool, Workload};
use bytes::{Bytes, BytesMut};
use cache_core::key::mix64;
use cache_core::{hash_bytes, Key};
use cache_server::protocol::{encode_response, Command, ParseOutcome, Parser, Response, Value};
use cache_server::BackendMode;
use cliffhanger::{Cliffhanger, CliffhangerConfig};
use std::io::Write;
use std::time::Instant;
use workloads::zipf::PopularitySampler;

/// Span names; the index is the aggregate slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    Batch,
    Parse,
    EngineGet,
    EngineSet,
    Encode,
    PlaneGet,
    PlaneSet,
    StatsJson,
}

const SPAN_NAMES: [&str; 8] = [
    "replay.batch",
    "protocol.parse",
    "engine.get",
    "engine.set",
    "protocol.encode",
    "plane.get",
    "plane.set",
    "control.stats_json",
];

pub struct Span {
    pub name: Name,
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// An in-memory span recorder with per-name aggregates. Raw spans are kept
/// for one request in `keep_every`; the aggregates cover every span.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    keep_every: u64,
    next_id: u32,
    pub spans: Vec<Span>,
    count: [u64; 8],
    total_ns: [u64; 8],
    self_ns: [u64; 8],
}

impl Tracer {
    pub fn new(on: bool, keep_every: u64) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            keep_every: keep_every.max(1),
            next_id: 0,
            spans: Vec::new(),
            count: [0; 8],
            total_ns: [0; 8],
            self_ns: [0; 8],
        }
    }

    /// Opens a span: its id and start time (0 when tracing is off).
    pub fn open(&mut self) -> (u32, u64) {
        if !self.on {
            return (ROOT, 0);
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        (id, self.epoch.elapsed().as_nanos() as u64)
    }

    /// Closes a span; `children_ns` is the part of it its children cover.
    /// Returns the span's duration.
    pub fn close(
        &mut self,
        name: Name,
        (id, start_ns): (u32, u64),
        parent: u32,
        request: u64,
        children_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let duration = end_ns - start_ns;
        let slot = name as usize;
        self.count[slot] += 1;
        self.total_ns[slot] += duration;
        self.self_ns[slot] += duration.saturating_sub(children_ns);
        if request.is_multiple_of(self.keep_every) {
            self.spans.push(Span {
                name,
                id,
                parent,
                request,
                start_ns,
                end_ns,
            });
        }
        duration
    }

    /// Mean duration of one span of `name` in ns (0 when none).
    pub fn mean_ns(&self, name: Name) -> f64 {
        let slot = name as usize;
        if self.count[slot] == 0 {
            0.0
        } else {
            self.total_ns[slot] as f64 / self.count[slot] as f64
        }
    }

    pub fn total_ns(&self, name: Name) -> u64 {
        self.total_ns[name as usize]
    }

    pub fn spans_recorded(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Writes the kept spans as tab-separated lines and the per-name
    /// aggregates (count, total and self time) as a trailing comment block.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\tid\tparent\trequest\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                SPAN_NAMES[s.name as usize], s.id, parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        for (slot, name) in SPAN_NAMES.iter().enumerate() {
            writeln!(
                out,
                "# {name}\tcount={}\ttotal_ns={}\tself_ns={}",
                self.count[slot], self.total_ns[slot], self.self_ns[slot]
            )?;
        }
        Ok(())
    }
}

/// What the server stores per item.
struct Stored {
    key: Bytes,
    flags: u32,
    data: Bytes,
}

/// The engines of the replayed server: one per (tenant, shard), with the
/// budgets and the key routing the server's plane starts with.
struct Engines {
    cells: Vec<Vec<Cliffhanger<Stored>>>,
    shards: usize,
}

fn split(total: u64, weights: &[u64]) -> Vec<u64> {
    let sum: u64 = weights.iter().sum();
    let mut shares: Vec<u64> = weights.iter().map(|&w| total * w / sum.max(1)).collect();
    let assigned: u64 = shares.iter().sum();
    shares[0] += total - assigned;
    shares
}

impl Engines {
    fn new(workload: &Workload) -> Engines {
        let config = &workload.backend;
        assert!(
            config.mode != BackendMode::Default,
            "the replay models managed engines only"
        );
        let shards = config.shards;
        let mut weights = vec![1];
        weights.extend(config.tenants.iter().map(|t| t.weight));
        let cells = split(config.total_bytes, &weights)
            .into_iter()
            .map(|share| {
                split(share.max(1), &vec![1; shards])
                    .into_iter()
                    .map(|bytes| {
                        Cliffhanger::new(CliffhangerConfig {
                            slab: config.slab.clone(),
                            total_bytes: bytes,
                            enable_hill_climbing: true,
                            enable_cliff_scaling: config.mode == BackendMode::Cliffhanger,
                            ..CliffhangerConfig::default()
                        })
                    })
                    .collect()
            })
            .collect();
        Engines { cells, shards }
    }

    fn engine(&mut self, tenant: usize, key: &[u8]) -> (&mut Cliffhanger<Stored>, Key) {
        let hash = hash_bytes(key);
        let salt = if tenant == 0 { 0 } else { mix64(tenant as u64) };
        let shard = (mix64(hash ^ salt) % self.shards as u64) as usize;
        (&mut self.cells[tenant][shard], Key(hash))
    }

    fn totals(&self) -> EngineTotals {
        let mut t = EngineTotals::default();
        for engine in self.cells.iter().flatten() {
            let stats = engine.stats();
            t.evictions += stats.evictions;
            t.shadow_hits += stats.shadow_hits + stats.cliff_shadow_hits;
            t.transfers += engine.transfers();
        }
        t
    }
}

#[derive(Clone, Copy, Default, Debug)]
struct EngineTotals {
    evictions: u64,
    shadow_hits: u64,
    transfers: u64,
}

/// Outcome of one replay.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Measured-window requests (prefill excluded), fills included.
    pub requests: u64,
    pub gets: u64,
    pub hits: u64,
    pub not_admitted: u64,
    pub evictions: u64,
    pub shadow_hits: u64,
    pub transfers: u64,
    /// Commands parsed and bytes the parser allocated for them (traced
    /// replays only).
    pub parsed: u64,
    pub parse_alloc_bytes: u64,
    /// Wall time of the measured window.
    pub wall_ns: u64,
}

struct Session {
    parser: Parser,
    input: BytesMut,
    output: Vec<u8>,
    tenant: usize,
}

/// Parses, executes and encodes one batch of request bytes; returns
/// whether each GET hit, in order, and counts NOT_STORED replies.
fn serve_batch(
    engines: &mut Engines,
    session: &mut Session,
    tracer: &mut Tracer,
    first_request: u64,
    outcomes: &mut Vec<Option<bool>>,
    not_admitted: &mut u64,
    parse_alloc: &mut u64,
) -> Result<(), String> {
    outcomes.clear();
    session.output.clear();
    let batch = tracer.open();
    let mut children = 0;
    let mut request = first_request;
    loop {
        let span = tracer.open();
        if tracer.on {
            alloc::counting(true);
        }
        let before = alloc::counted();
        let outcome = session.parser.parse(&mut session.input);
        if tracer.on {
            alloc::counting(false);
            *parse_alloc += alloc::counted() - before;
        }
        let command = match outcome {
            ParseOutcome::Complete(command) => command,
            ParseOutcome::Incomplete if session.input.is_empty() => break,
            other => return Err(format!("replayed request did not parse: {other:?}")),
        };
        children += tracer.close(Name::Parse, span, batch.0, request, 0);
        let span = tracer.open();
        let (name, response) = match command {
            Command::Get { keys } => {
                let key = &keys[0];
                let (engine, id) = engines.engine(session.tenant, key);
                let (_, event) = engine.get_untyped(id);
                let found = if event.hit {
                    engine.value(id).filter(|s| s.key == *key).map(|s| Value {
                        key: key.clone(),
                        flags: s.flags,
                        data: s.data.clone(),
                    })
                } else {
                    None
                };
                outcomes.push(Some(found.is_some()));
                (
                    Name::EngineGet,
                    Response::Values(found.into_iter().collect()),
                )
            }
            Command::Store {
                key, flags, data, ..
            } => {
                let (engine, id) = engines.engine(session.tenant, &key);
                let size = (key.len() + data.len()) as u64;
                let admitted = engine
                    .set(id, size, Stored { key, flags, data })
                    .map(|(_, admitted)| admitted)
                    .unwrap_or(false);
                outcomes.push(None);
                if admitted {
                    (Name::EngineSet, Response::Stored)
                } else {
                    *not_admitted += 1;
                    (Name::EngineSet, Response::NotStored)
                }
            }
            other => return Err(format!("unexpected replayed command {other:?}")),
        };
        children += tracer.close(name, span, batch.0, request, 0);
        let span = tracer.open();
        encode_response(&response, &mut session.output);
        children += tracer.close(Name::Encode, span, batch.0, request, 0);
        request += 1;
    }
    tracer.close(Name::Batch, batch, ROOT, first_request, children);
    Ok(())
}

/// Replays the workload's set-up and one pass through the engines. With
/// `tracer.on`, every call is timed and the parser's allocations counted.
pub fn run(
    workload: &Workload,
    samplers: &[PopularitySampler],
    pool: &ValuePool,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let mut engines = Engines::new(workload);
    let mut sessions: Vec<Session> = workload
        .streams
        .iter()
        .map(|s| Session {
            parser: Parser::new(),
            input: BytesMut::new(),
            output: Vec::new(),
            tenant: s.tenant_index,
        })
        .collect();
    let mut outcomes = Vec::new();
    let mut request_bytes = Vec::new();
    let (mut prefill_not_admitted, mut prefill_alloc) = (0, 0);
    // Set-up: the same pipelined prefill the wire client sends.
    for (stream, session) in workload.streams.iter().zip(sessions.iter_mut()) {
        let mut rank = 0;
        while rank < stream.prefill {
            let end = (rank + 64).min(stream.prefill);
            request_bytes.clear();
            for r in rank..end {
                let op = Op {
                    kind: OpKind::Set,
                    rank: r,
                    size: size_for_rank(&stream.sizes, r),
                    generation: 1,
                };
                encode_op(
                    &op,
                    pool.value(stream.tenant_index, r, 1, op.size),
                    &mut request_bytes,
                );
            }
            session.input.extend_from_slice(&request_bytes);
            let mut off = Tracer::new(false, 1);
            serve_batch(
                &mut engines,
                session,
                &mut off,
                0,
                &mut outcomes,
                &mut prefill_not_admitted,
                &mut prefill_alloc,
            )?;
            rank = end;
        }
    }
    let before = engines.totals();
    let mut result = Replay::default();
    let started = Instant::now();
    let depth = workload.pipeline;
    let mut ops = Vec::with_capacity(depth);
    for (conn, (stream, session)) in workload.streams.iter().zip(sessions.iter_mut()).enumerate() {
        let mut traffic = Traffic::new(stream, samplers[conn].clone(), seed, conn);
        // Request ids are unique across connections.
        let mut request = (conn as u64) << 40;
        while traffic.next_batch(depth, &mut ops) {
            request_bytes.clear();
            // The replay's SETs all carry first-write bytes: the parser and
            // the engine see only their lengths.
            for op in &ops {
                encode_op(
                    op,
                    pool.value(stream.tenant_index, op.rank, 1, op.size),
                    &mut request_bytes,
                );
            }
            session.input.extend_from_slice(&request_bytes);
            serve_batch(
                &mut engines,
                session,
                tracer,
                request,
                &mut outcomes,
                &mut result.not_admitted,
                &mut result.parse_alloc_bytes,
            )?;
            for (op, outcome) in ops.iter().zip(outcomes.iter()) {
                if let Some(hit) = *outcome {
                    result.gets += 1;
                    result.hits += u64::from(hit);
                    traffic.on_get(op.rank, hit);
                }
            }
            result.requests += ops.len() as u64;
            request += ops.len() as u64;
        }
    }
    result.wall_ns = started.elapsed().as_nanos() as u64;
    result.parsed = if tracer.on { result.requests } else { 0 };
    let after = engines.totals();
    result.evictions = after.evictions - before.evictions;
    result.shadow_hits = after.shadow_hits - before.shadow_hits;
    result.transfers = after.transfers - before.transfers;
    Ok(result)
}
