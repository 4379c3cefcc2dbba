//! The per-connection state machine the reactor drives.
//!
//! Each connection owns a non-blocking socket, a read buffer, a resumable
//! [`Parser`] and a pending-output buffer. The reactor calls
//! [`Connection::on_ready`] with the epoll readiness it observed; the
//! connection reads whatever the socket has, executes every complete
//! command, and writes as much of the accumulated response bytes as the
//! socket accepts. Nothing here ever blocks:
//!
//! * a *read* that would block simply ends the fill pass — the loop's
//!   level-triggered `EPOLLIN` re-arms it;
//! * a *write* that would block parks the unsent bytes and switches the
//!   connection onto `EPOLLOUT` (write backpressure) — and once more than
//!   [`OUT_HIGH_WATERMARK`] bytes are parked, the connection also stops
//!   reading and parsing, so a client that requests faster than it reads
//!   responses is throttled by TCP instead of ballooning server memory.
//!
//! # Routing and parking
//!
//! This is where the shared-nothing data plane routes: every key is hashed
//! to its shard *before* any engine is touched. A key whose shard the
//! connection's own loop owns executes inline — plain field accesses on
//! loop-owned state, zero shared locks. A key owned by another loop is
//! forwarded as a [`DataOp`] message and the connection *parks*: it stops
//! parsing (keeping per-connection program order, exactly as if the
//! commands executed inline) and drops `EPOLLIN` interest until the
//! [`crate::plane::LoopMsg::DataReply`] arrives. Admin commands (`stats`,
//! `flush_all`, `app_create`, `app_list`) park the same way while the
//! control thread runs them — the event loop keeps serving every sibling
//! connection meanwhile, which is what ended admin head-of-line blocking.
//!
//! The command semantics (and every byte on the wire) are identical to the
//! old blocking handler; only the scheduling changed.

use crate::plane::{
    AdminOp, AdminResult, DataOp, DataOutcome, DataReplyTo, DataVerb, LoopMsg, LoopState,
};
use crate::protocol::{encode_response, Command, ParseOutcome, Parser, Response, StoreVerb, Value};
use bytes::{Bytes, BytesMut};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use crate::reactor::{EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Pending-output bytes above which the connection stops reading and
/// parsing until the socket drains (and above which a pipelined batch is
/// cut, matching the old handler's flush threshold).
pub(crate) const OUT_HIGH_WATERMARK: usize = 256 * 1024;
/// Bytes read from the socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;
/// Bytes buffered per fill pass before yielding back to the loop, so one
/// fire-hosing connection cannot starve its siblings (level-triggered
/// epoll re-schedules it immediately).
const IN_FILL_BUDGET: usize = 256 * 1024;

/// What a connection needs from its event loop to execute commands: the
/// loop-owned state (engines, tenant table, outbound queues) and its own
/// token, so forwarded operations can find their way back.
pub(crate) struct Ctx<'a> {
    pub(crate) state: &'a mut LoopState,
    pub(crate) token: u64,
}

/// What the reactor should do with the connection after a readiness pass.
pub(crate) enum Drive {
    /// Keep it registered with this interest set.
    Keep {
        /// Desired epoll interest bits.
        interest: u32,
        /// Whether they differ from the currently registered set.
        changed: bool,
    },
    /// Deregister and drop it.
    Close,
}

/// How an I/O pass left the socket.
#[derive(PartialEq)]
enum Flow {
    /// Still usable.
    Open,
    /// The peer closed its writing half (serve what is buffered, then
    /// close).
    Eof,
    /// Hard I/O error: close now.
    Broken,
}

/// An operation in flight on another thread; the connection does not parse
/// until it resolves.
enum Pending {
    /// A (multi-)get with at least one remotely owned key. Local keys fill
    /// their slots immediately; remote slots fill as replies arrive.
    Get {
        seq: u64,
        keys: Vec<Bytes>,
        /// Outer `None` = reply outstanding; inner option = hit/miss.
        results: Vec<Option<Option<(u32, Bytes)>>>,
        remaining: usize,
    },
    /// A store verb forwarded to the owning loop.
    Store { seq: u64, noreply: bool },
    /// A delete forwarded to the owning loop.
    Delete { seq: u64, noreply: bool },
    /// An admin command running on the control thread.
    Admin { seq: u64 },
}

/// One client connection: socket, buffers, parser and session state.
pub(crate) struct Connection {
    stream: TcpStream,
    parser: Parser,
    inbuf: BytesMut,
    out: Vec<u8>,
    /// Bytes of `out` already written to the socket.
    out_pos: usize,
    /// The session's tenant namespace (`app <name>` switches it; index 0 —
    /// the default tenant — until then).
    tenant: usize,
    /// The interest set currently registered with epoll.
    interest: u32,
    /// Quit or EOF observed: flush the remaining output, then close.
    draining: bool,
    /// The operation the connection is parked on, if any.
    pending: Option<Pending>,
    /// Monotone sequence stamped on every parked operation, so a reply
    /// can never resolve the wrong one.
    op_seq: u64,
    /// Last time the peer gave us bytes or an operation resolved — the
    /// idle reaper's clock.
    last_activity: Instant,
}

/// What one parse-and-execute pass produced.
enum Step {
    /// Number of commands executed (0 = waiting for bytes, parked, or
    /// backpressured).
    Parsed(usize),
    /// The client sent `quit`.
    Quit,
}

impl Connection {
    /// Takes ownership of a freshly accepted socket, making it non-blocking.
    pub(crate) fn adopt(stream: TcpStream) -> std::io::Result<Connection> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            stream,
            parser: Parser::new(),
            inbuf: BytesMut::with_capacity(READ_CHUNK),
            out: Vec::with_capacity(READ_CHUNK),
            out_pos: 0,
            tenant: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            draining: false,
            pending: None,
            op_seq: 0,
            last_activity: Instant::now(),
        })
    }

    /// The socket's fd, for epoll registration.
    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// The currently desired epoll interest set.
    pub(crate) fn interest(&self) -> u32 {
        self.interest
    }

    /// Whether an operation is in flight on another thread.
    pub(crate) fn is_parked(&self) -> bool {
        self.pending.is_some()
    }

    /// How long the connection has been silent, for the idle reaper.
    pub(crate) fn idle_for(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.last_activity)
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// One readiness pass: flush, fill, then parse/execute/flush until
    /// quiescent or parked.
    pub(crate) fn on_ready(&mut self, readable: bool, writable: bool, ctx: &mut Ctx<'_>) -> Drive {
        if readable || writable {
            self.last_activity = Instant::now();
        }
        if writable && self.flush() == Flow::Broken {
            return Drive::Close;
        }
        if readable && !self.draining {
            match self.fill() {
                Flow::Broken => return Drive::Close,
                Flow::Eof => self.draining = true,
                Flow::Open => {}
            }
        }
        // Parsing can be resumed by a flush that drains the output below
        // the watermark, so alternate the two until neither makes progress.
        loop {
            let parsed = match self.process(ctx) {
                Step::Parsed(n) => n,
                Step::Quit => {
                    // Commands pipelined after `quit` are never parsed,
                    // exactly like the blocking handler's early return.
                    self.draining = true;
                    self.inbuf.clear();
                    0
                }
            };
            if self.flush() == Flow::Broken {
                return Drive::Close;
            }
            if parsed == 0 || self.pending_out() > 0 {
                break;
            }
        }
        if self.draining && self.pending_out() == 0 && self.pending.is_none() {
            return Drive::Close;
        }
        let mut want = 0;
        if self.pending_out() > 0 {
            want |= EPOLLOUT;
        }
        // A parked connection reads nothing: per-connection order requires
        // the in-flight operation to resolve before the next command runs,
        // so there is no point waking on input we would not parse.
        if !self.draining && self.pending.is_none() && self.pending_out() < OUT_HIGH_WATERMARK {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        let changed = want != self.interest;
        self.interest = want;
        Drive::Keep {
            interest: want,
            changed,
        }
    }

    /// A [`DataOutcome`] arrived for a forwarded operation. Returns whether
    /// the parked operation completed (the loop should re-drive us).
    pub(crate) fn on_data_reply(&mut self, seq: u64, slot: usize, outcome: DataOutcome) -> bool {
        self.last_activity = Instant::now();
        let done = match &mut self.pending {
            Some(Pending::Get {
                seq: pending_seq,
                results,
                remaining,
                ..
            }) if *pending_seq == seq => {
                if slot < results.len() && results[slot].is_none() {
                    results[slot] = Some(match outcome {
                        DataOutcome::Value(found) => found,
                        DataOutcome::Flag(_) => None,
                    });
                    *remaining -= 1;
                }
                *remaining == 0
            }
            Some(Pending::Store {
                seq: pending_seq,
                noreply,
            }) if *pending_seq == seq => {
                if !*noreply {
                    let stored = matches!(outcome, DataOutcome::Flag(true));
                    let response = if stored {
                        Response::Stored
                    } else {
                        Response::NotStored
                    };
                    encode_response(&response, &mut self.out);
                }
                true
            }
            Some(Pending::Delete {
                seq: pending_seq,
                noreply,
            }) if *pending_seq == seq => {
                if !*noreply {
                    let deleted = matches!(outcome, DataOutcome::Flag(true));
                    let response = if deleted {
                        Response::Deleted
                    } else {
                        Response::NotFound
                    };
                    encode_response(&response, &mut self.out);
                }
                true
            }
            // A reply for an operation that is no longer pending (the seq
            // guard): drop it.
            _ => return false,
        };
        if !done {
            return false;
        }
        if let Some(Pending::Get { keys, results, .. }) = self.pending.take() {
            self.emit_get(keys, results);
        }
        true
    }

    /// The control thread finished an admin command this connection
    /// forwarded. Returns whether we were parked on it.
    pub(crate) fn on_admin_done(&mut self, seq: u64, result: AdminResult) -> bool {
        self.last_activity = Instant::now();
        match &self.pending {
            Some(Pending::Admin { seq: pending_seq }) if *pending_seq == seq => {}
            _ => return false,
        }
        self.pending = None;
        let response = match result {
            AdminResult::Stats(lines) => Response::Stats(lines),
            AdminResult::Blob(payload) => Response::Blob(payload),
            AdminResult::Flushed => Response::Ok,
            AdminResult::Created(Ok(_)) => Response::Ok,
            AdminResult::Created(Err(reason)) => Response::ClientError(reason),
            AdminResult::Apps(apps) => Response::Apps(
                apps.into_iter()
                    .map(|(name, weight, budget_bytes)| crate::protocol::AppEntry {
                        name,
                        weight,
                        budget_bytes,
                    })
                    .collect(),
            ),
        };
        encode_response(&response, &mut self.out);
        true
    }

    /// Reads whatever the socket has (bounded per pass).
    fn fill(&mut self) -> Flow {
        let mut chunk = [0u8; READ_CHUNK];
        let mut taken = 0usize;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Flow::Eof,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    taken += n;
                    if taken >= IN_FILL_BUDGET {
                        return Flow::Open;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flow::Open,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Flow::Broken,
            }
        }
    }

    /// Parses and executes buffered commands until the input runs dry, an
    /// operation parks the connection, the output backs up past the
    /// watermark, or the client quits.
    fn process(&mut self, ctx: &mut Ctx<'_>) -> Step {
        let mut parsed = 0;
        while self.pending.is_none() && self.pending_out() < OUT_HIGH_WATERMARK {
            match self.parser.parse(&mut self.inbuf) {
                ParseOutcome::Complete(Command::Quit) => return Step::Quit,
                ParseOutcome::Complete(command) => {
                    parsed += 1;
                    self.dispatch(command, ctx);
                }
                ParseOutcome::Invalid(message) => {
                    parsed += 1;
                    encode_response(&Response::ClientError(message), &mut self.out);
                }
                ParseOutcome::Incomplete => break,
            }
        }
        // Consuming input keeps the buffer's allocation, so after a burst
        // or one large value let a drained buffer go back to its read-sized
        // start instead of pinning the peak (as `flush` does for `out`).
        if self.inbuf.is_empty() && self.inbuf.capacity() > IN_FILL_BUDGET + READ_CHUNK {
            self.inbuf = BytesMut::with_capacity(READ_CHUNK);
        }
        Step::Parsed(parsed)
    }

    fn next_seq(&mut self) -> u64 {
        self.op_seq += 1;
        self.op_seq
    }

    /// Executes one command: route by key hash, run locally when this loop
    /// owns the shard, forward and park otherwise.
    fn dispatch(&mut self, command: Command, ctx: &mut Ctx<'_>) {
        match command {
            Command::Get { keys } => {
                let seq = self.next_seq();
                let mut results: Vec<Option<Option<(u32, Bytes)>>> = vec![None; keys.len()];
                let mut remaining = 0usize;
                for (slot, key) in keys.iter().enumerate() {
                    let (shard, id, route) = ctx.state.route(self.tenant, key);
                    match route {
                        Ok(local) => {
                            let outcome =
                                ctx.state
                                    .apply_local(local, self.tenant, id, key, &DataVerb::Get);
                            results[slot] = Some(match outcome {
                                DataOutcome::Value(found) => found,
                                DataOutcome::Flag(_) => None,
                            });
                        }
                        Err(owner) => {
                            // Promoted hot keys serve from the loop-local
                            // replica cache: no forward, no park.
                            if let Some(found) = ctx.state.replica_get(shard, self.tenant, id, key)
                            {
                                results[slot] = Some(Some(found));
                                continue;
                            }
                            // A replica miss on a promoted key rides the
                            // normal forward but asks the owner to fill us.
                            let hot_fill = ctx.state.wants_hot_fill(self.tenant, id);
                            remaining += 1;
                            let op = DataOp {
                                shard,
                                tenant: self.tenant,
                                id,
                                key: key.clone(),
                                verb: DataVerb::Get,
                                enqueued: Instant::now(),
                                reply: DataReplyTo::Conn {
                                    origin: ctx.state.index,
                                    token: ctx.token,
                                    seq,
                                    slot,
                                },
                                hot_fill,
                            };
                            ctx.state.forward(owner, LoopMsg::Data(op));
                        }
                    }
                }
                if remaining == 0 {
                    self.emit_get(keys, results);
                } else {
                    self.pending = Some(Pending::Get {
                        seq,
                        keys,
                        results,
                        remaining,
                    });
                }
            }
            Command::Store {
                verb,
                key,
                flags,
                data,
                noreply,
                ..
            } => {
                let verb = match verb {
                    StoreVerb::Set => DataVerb::Set { flags, data },
                    StoreVerb::Add => DataVerb::Add { flags, data },
                    StoreVerb::Replace => DataVerb::Replace { flags, data },
                };
                let (shard, id, route) = ctx.state.route(self.tenant, &key);
                match route {
                    Ok(local) => {
                        let outcome = ctx.state.apply_local(local, self.tenant, id, &key, &verb);
                        if !noreply {
                            let stored = matches!(outcome, DataOutcome::Flag(true));
                            let response = if stored {
                                Response::Stored
                            } else {
                                Response::NotStored
                            };
                            encode_response(&response, &mut self.out);
                        }
                    }
                    Err(owner) => {
                        let seq = self.next_seq();
                        let op = DataOp {
                            shard,
                            tenant: self.tenant,
                            id,
                            key,
                            verb,
                            enqueued: Instant::now(),
                            reply: DataReplyTo::Conn {
                                origin: ctx.state.index,
                                token: ctx.token,
                                seq,
                                slot: 0,
                            },
                            hot_fill: false,
                        };
                        ctx.state.forward(owner, LoopMsg::Data(op));
                        // Parked even on noreply: the next command must
                        // observe this store, so program order requires the
                        // reply before parsing resumes.
                        self.pending = Some(Pending::Store { seq, noreply });
                    }
                }
            }
            Command::Delete { key, noreply } => {
                let (shard, id, route) = ctx.state.route(self.tenant, &key);
                match route {
                    Ok(local) => {
                        let outcome =
                            ctx.state
                                .apply_local(local, self.tenant, id, &key, &DataVerb::Delete);
                        if !noreply {
                            let deleted = matches!(outcome, DataOutcome::Flag(true));
                            let response = if deleted {
                                Response::Deleted
                            } else {
                                Response::NotFound
                            };
                            encode_response(&response, &mut self.out);
                        }
                    }
                    Err(owner) => {
                        let seq = self.next_seq();
                        let op = DataOp {
                            shard,
                            tenant: self.tenant,
                            id,
                            key,
                            verb: DataVerb::Delete,
                            enqueued: Instant::now(),
                            reply: DataReplyTo::Conn {
                                origin: ctx.state.index,
                                token: ctx.token,
                                seq,
                                slot: 0,
                            },
                            hot_fill: false,
                        };
                        ctx.state.forward(owner, LoopMsg::Data(op));
                        self.pending = Some(Pending::Delete { seq, noreply });
                    }
                }
            }
            Command::App { id } => {
                let response = match std::str::from_utf8(&id)
                    .ok()
                    .and_then(|name| ctx.state.tenant_lookup(name))
                {
                    Some(index) => {
                        self.tenant = index;
                        Response::Ok
                    }
                    None => Response::ClientError(format!(
                        "unknown app {:?} (hosted: {})",
                        String::from_utf8_lossy(&id),
                        ctx.state.tenant_names().join(", ")
                    )),
                };
                encode_response(&response, &mut self.out);
            }
            Command::AppCreate { name, weight } => match std::str::from_utf8(&name) {
                Ok(name) => self.forward_admin(
                    AdminOp::CreateTenant {
                        name: name.to_string(),
                        weight,
                    },
                    ctx,
                ),
                Err(_) => encode_response(
                    &Response::ClientError("app names must be UTF-8".to_string()),
                    &mut self.out,
                ),
            },
            Command::AppList => self.forward_admin(AdminOp::AppList, ctx),
            Command::Stats { format } => self.forward_admin(AdminOp::Stats { format }, ctx),
            Command::Version => encode_response(
                &Response::Version("cliffhanger-cache 0.1.0".to_string()),
                &mut self.out,
            ),
            Command::FlushAll => {
                // Tenant-scoped: one application flushing its namespace
                // must never wipe another application's working set. On a
                // single-tenant server this clears everything, as before.
                self.forward_admin(
                    AdminOp::FlushTenant {
                        tenant: self.tenant,
                    },
                    ctx,
                )
            }
            Command::Quit => encode_response(&Response::Ok, &mut self.out),
        }
    }

    /// Hands an admin command to the control thread and parks until the
    /// [`crate::plane::LoopMsg::AdminDone`] comes back.
    fn forward_admin(&mut self, op: AdminOp, ctx: &mut Ctx<'_>) {
        let seq = self.next_seq();
        if ctx.state.forward_admin(op, ctx.token, seq) {
            self.pending = Some(Pending::Admin { seq });
        } else {
            // The control thread is gone: the server is shutting down and
            // this connection is about to be torn down with its loop.
            encode_response(
                &Response::ClientError("server is shutting down".to_string()),
                &mut self.out,
            );
        }
    }

    /// Encodes a completed (multi-)get: hits in request order, misses
    /// omitted, exactly like the inline path.
    fn emit_get(&mut self, keys: Vec<Bytes>, results: Vec<Option<Option<(u32, Bytes)>>>) {
        let values: Vec<Value> = keys
            .into_iter()
            .zip(results)
            .filter_map(|(key, result)| {
                result
                    .flatten()
                    .map(|(flags, data)| Value { key, flags, data })
            })
            .collect();
        encode_response(&Response::Values(values), &mut self.out);
    }

    /// Writes as much parked output as the socket accepts.
    fn flush(&mut self) -> Flow {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Flow::Broken,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Flow::Broken,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
            self.out.shrink_to(OUT_HIGH_WATERMARK);
        } else if self.out_pos >= OUT_HIGH_WATERMARK {
            // Reclaim the written prefix so a long-parked connection does
            // not hold both the sent and unsent halves forever.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Flow::Open
    }
}
