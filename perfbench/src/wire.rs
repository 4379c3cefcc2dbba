//! The load generator: one TCP connection per stream, all driven in closed
//! loop from one thread (a pipelined batch per connection at a time). Every
//! reply is classified, every GET hit is checked byte for byte against the
//! latest write the server acknowledged, and no failed operation is retried
//! or dropped.

use crate::probe;
use crate::workload::ValuePool;
use crate::workload::{key_for_rank, size_for_rank, Op, OpKind, Stream, Traffic};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use telemetry::Histogram;

/// Outcomes of one connection's measured operations, by kind.
#[derive(Clone, Default)]
pub struct Tally {
    /// Operations sent, demand fills included.
    pub attempted: u64,
    /// GETs and GET hits, split into the hot (index 0) and cold (index 1)
    /// population.
    pub gets: [u64; 2],
    pub hits: [u64; 2],
    /// SETs, demand fills included, and the fills alone.
    pub sets: u64,
    pub fills: u64,
    pub not_stored: u64,
    pub server_error: u64,
    /// The operation during which the connection broke or a reply could
    /// not be framed.
    pub conn_error: u64,
    /// Operations of a broken batch that never got a reply.
    pub missing_reply: u64,
    /// GET hits whose key or bytes differ from the latest acknowledged
    /// write of the key.
    pub wrong_value: u64,
    /// Latency of every measured operation in ns, from its batch's send.
    pub latency: Histogram,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for i in 0..2 {
            self.gets[i] += other.gets[i];
            self.hits[i] += other.hits[i];
        }
        self.sets += other.sets;
        self.fills += other.fills;
        self.not_stored += other.not_stored;
        self.server_error += other.server_error;
        self.conn_error += other.conn_error;
        self.missing_reply += other.missing_reply;
        self.wrong_value += other.wrong_value;
        self.latency.merge(&other.latency);
    }

    /// Operations that got no valid reply, or a wrong one.
    pub fn errors(&self) -> u64 {
        self.server_error + self.conn_error + self.missing_reply + self.wrong_value
    }

    /// Operations answered as intended: errors and NOT_STORED excluded.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.errors() - self.not_stored
    }
}

/// A parsed reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    Hit,
    Miss,
    Stored,
    NotStored,
    ServerError,
    WrongValue,
}

/// A connection with a read buffer the replies are framed from, and the
/// write generations of its stream's keys.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    out: Vec<u8>,
    key: Vec<u8>,
    tenant: usize,
    /// SETs sent per rank: the generation of the next SET is one more.
    sent: Vec<u32>,
    /// Per rank, the generation of the latest SET the server answered
    /// `STORED` (0: never stored). A GET hit must carry exactly it.
    acked: Vec<u32>,
}

fn framing(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Conn {
    /// Connects and, for a tenant stream, selects the tenant's namespace.
    pub fn open(addr: SocketAddr, stream_spec: &Stream) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut conn = Conn {
            stream,
            buf: vec![0; 256 << 10],
            start: 0,
            end: 0,
            out: Vec::with_capacity(512 << 10),
            key: Vec::with_capacity(32),
            tenant: stream_spec.tenant_index,
            sent: vec![0; stream_spec.keys.num_keys() as usize],
            acked: vec![0; stream_spec.keys.num_keys() as usize],
        };
        if let Some(name) = stream_spec.tenant {
            conn.stream
                .write_all(format!("app {name}\r\n").as_bytes())?;
            let (s, e) = conn.line()?;
            if &conn.buf[s..e] != b"OK" {
                return Err(framing(format!("app {name} refused")));
            }
        }
        Ok(conn)
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.end += n;
        Ok(())
    }

    /// The next CRLF-terminated line, as a range of `buf` without the CRLF.
    fn line(&mut self) -> io::Result<(usize, usize)> {
        let mut from = self.start;
        loop {
            if let Some(pos) = self.buf[from..self.end]
                .windows(2)
                .position(|w| w == b"\r\n")
            {
                let line = (self.start, from + pos);
                self.start = from + pos + 2;
                return Ok(line);
            }
            let scanned = self.end.saturating_sub(1).max(self.start) - self.start;
            self.fill()?;
            from = self.start + scanned;
        }
    }

    /// The next `n` bytes, as a range of `buf`.
    fn take(&mut self, n: usize) -> io::Result<(usize, usize)> {
        while self.end - self.start < n {
            self.fill()?;
        }
        let range = (self.start, self.start + n);
        self.start += n;
        Ok(range)
    }

    /// Reads a GET reply and checks a hit against `key` and `expected`
    /// (`None`: no write of the key was acknowledged, so any hit is wrong).
    pub fn read_get(&mut self, key: &[u8], expected: Option<&[u8]>) -> io::Result<Reply> {
        let (s, e) = self.line()?;
        let line = &self.buf[s..e];
        if line == b"END" {
            return Ok(Reply::Miss);
        }
        if line.starts_with(b"SERVER_ERROR") {
            return Ok(Reply::ServerError);
        }
        let bad = || framing(format!("bad GET reply {:?}", String::from_utf8_lossy(line)));
        let mut fields = line
            .strip_prefix(b"VALUE ")
            .ok_or_else(bad)?
            .split(|&b| b == b' ');
        let (Some(got_key), Some(flags), Some(len), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(bad());
        };
        let header_right = got_key == key && flags == b"0";
        let len: usize = std::str::from_utf8(len)
            .ok()
            .and_then(|l| l.parse().ok())
            .ok_or_else(bad)?;
        let (ds, de) = self.take(len + 2)?;
        if &self.buf[de - 2..de] != b"\r\n" {
            return Err(framing("value block without CRLF".to_string()));
        }
        let right = header_right && expected == Some(&self.buf[ds..de - 2]);
        let (s, e) = self.line()?;
        if &self.buf[s..e] != b"END" {
            return Err(framing("GET reply without END".to_string()));
        }
        Ok(if right { Reply::Hit } else { Reply::WrongValue })
    }

    /// Reads a SET reply.
    pub fn read_set(&mut self) -> io::Result<Reply> {
        let (s, e) = self.line()?;
        match &self.buf[s..e] {
            b"STORED" => Ok(Reply::Stored),
            b"NOT_STORED" => Ok(Reply::NotStored),
            line if line.starts_with(b"SERVER_ERROR") => Ok(Reply::ServerError),
            line => Err(framing(format!(
                "bad SET reply {:?}",
                String::from_utf8_lossy(line)
            ))),
        }
    }

    /// Appends the wire form of `op` to the output buffer; a SET takes the
    /// key's next write generation, which is stored in `op`.
    fn encode(&mut self, pool: &ValuePool, op: &mut Op) {
        if op.kind != OpKind::Get {
            let sent = &mut self.sent[op.rank as usize];
            *sent += 1;
            op.generation = *sent;
        }
        encode_op(
            op,
            pool.value(self.tenant, op.rank, op.generation, op.size),
            &mut self.out,
        );
    }

    fn send(&mut self) -> io::Result<()> {
        let result = self.stream.write_all(&self.out);
        self.out.clear();
        result
    }

    /// Reads the reply to `op`. Replies come in send order, so a GET is
    /// checked against every earlier SET's outcome.
    fn reply(&mut self, pool: &ValuePool, op: &Op) -> io::Result<Reply> {
        match op.kind {
            OpKind::Get => {
                self.key.clear();
                key_for_rank(op.rank, &mut self.key);
                let key = std::mem::take(&mut self.key);
                let expected = match self.acked[op.rank as usize] {
                    0 => None,
                    generation => Some(pool.value(self.tenant, op.rank, generation, op.size)),
                };
                let reply = self.read_get(&key, expected);
                self.key = key;
                reply
            }
            OpKind::Set | OpKind::Fill => {
                let reply = self.read_set()?;
                if reply == Reply::Stored {
                    self.acked[op.rank as usize] = op.generation;
                }
                Ok(reply)
            }
        }
    }
}

/// Appends the wire form of `op` (`value` is its SET payload) to `out`.
pub fn encode_op(op: &Op, value: &[u8], out: &mut Vec<u8>) {
    match op.kind {
        OpKind::Get => {
            out.extend_from_slice(b"get ");
            key_for_rank(op.rank, out);
            out.extend_from_slice(b"\r\n");
        }
        OpKind::Set | OpKind::Fill => {
            out.extend_from_slice(b"set ");
            key_for_rank(op.rank, out);
            let _ = write!(out, " 0 0 {}\r\n", value.len());
            out.extend_from_slice(value);
            out.extend_from_slice(b"\r\n");
        }
    }
}

/// Which population a rank's GETs count towards: a tenant stream is one
/// population as a whole; a single-tenant stream splits into the prefilled
/// hottest ranks and the rest.
pub fn population(stream: &Stream, rank: u64) -> usize {
    stream
        .population
        .unwrap_or(usize::from(rank >= stream.prefill))
}

fn record(tally: &mut Tally, stream: &Stream, op: &Op, reply: Reply) {
    tally.attempted += 1;
    match op.kind {
        OpKind::Get => tally.gets[population(stream, op.rank)] += 1,
        OpKind::Fill => {
            tally.fills += 1;
            tally.sets += 1;
        }
        OpKind::Set => tally.sets += 1,
    }
    match reply {
        Reply::Hit => tally.hits[population(stream, op.rank)] += 1,
        Reply::Miss | Reply::Stored => {}
        Reply::NotStored => tally.not_stored += 1,
        Reply::ServerError => tally.server_error += 1,
        Reply::WrongValue => tally.wrong_value += 1,
    }
}

/// A broken connection: the failing operation and every other one sent
/// but not answered are counted, none is re-sent.
fn record_break(tally: &mut Tally, unanswered: u64) {
    tally.attempted += unanswered;
    tally.conn_error += 1;
    tally.missing_reply += unanswered - 1;
}

/// Segments each pass is cut into.
pub const SEGMENTS: u64 = 12;

/// One segment of a pass: its throughput, its median latency and the host
/// steal time charged while it ran.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub rate: f64,
    pub p50_ns: u64,
    pub steal_ticks: u64,
}

/// Cuts a pass into segments of `size` operations.
struct Segmenter {
    size: u64,
    ops: u64,
    started: Instant,
    steal: u64,
    latency: Histogram,
    done: Vec<Segment>,
}

impl Segmenter {
    fn new(size: u64, started: Instant) -> Segmenter {
        Segmenter {
            size: size.max(1),
            ops: 0,
            started,
            steal: probe::steal_ticks(),
            latency: Histogram::new(),
            done: Vec::new(),
        }
    }

    fn record(&mut self, latency_ns: u64) {
        self.ops += 1;
        self.latency.record(latency_ns);
    }

    /// Closes the segment once it holds `size` operations, or at the end
    /// of the pass if it holds at least half that.
    fn cut(&mut self, last: bool) {
        if self.ops >= self.size || (last && self.ops >= self.size / 2) {
            let now = Instant::now();
            let steal = probe::steal_ticks();
            self.done.push(Segment {
                rate: self.ops as f64 / (now - self.started).as_secs_f64(),
                p50_ns: self.latency.value_at_percentile(50.0),
                steal_ticks: steal.saturating_sub(self.steal),
            });
            self.ops = 0;
            self.started = now;
            self.steal = steal;
            self.latency = Histogram::new();
        }
    }
}

/// Drives one closed-loop pass on every connection in lockstep from the
/// calling thread: each round writes a batch of up to `pipeline` operations
/// to every connection with traffic left, then reads the replies of each
/// batch in order. Latency runs from the batch's send.
pub fn run_closed(
    conns: &mut [Conn],
    traffic: &mut [Traffic],
    pool: &ValuePool,
    streams: &[Stream],
    pipeline: usize,
    tally: &mut Tally,
) -> Result<Vec<Segment>, String> {
    let total: u64 = streams.iter().map(|s| s.requests).sum();
    let mut batches: Vec<Vec<Op>> = vec![Vec::with_capacity(pipeline); conns.len()];
    let mut sent = vec![Instant::now(); conns.len()];
    let mut segments = Segmenter::new(total / SEGMENTS, Instant::now());
    // Operations sent on connections `from..` but not yet answered.
    let unread = |batches: &[Vec<Op>], from: usize| -> u64 {
        batches[from..].iter().map(|b| b.len() as u64).sum()
    };
    loop {
        let mut active = false;
        for i in 0..conns.len() {
            if !traffic[i].next_batch(pipeline, &mut batches[i]) {
                continue;
            }
            active = true;
            for op in batches[i].iter_mut() {
                conns[i].encode(pool, op);
            }
            sent[i] = Instant::now();
            if let Err(err) = conns[i].send() {
                let unanswered = unread(&batches, 0) - unread(&batches, i + 1);
                record_break(tally, unanswered);
                return Err(format!("send failed: {err}"));
            }
        }
        if !active {
            break;
        }
        for i in 0..conns.len() {
            for (j, op) in batches[i].iter().enumerate() {
                match conns[i].reply(pool, op) {
                    Ok(reply) => {
                        let latency = sent[i].elapsed().as_nanos() as u64;
                        tally.latency.record(latency);
                        segments.record(latency);
                        record(tally, &streams[i], op, reply);
                        if op.kind == OpKind::Get {
                            traffic[i].on_get(op.rank, reply == Reply::Hit);
                        }
                    }
                    Err(err) => {
                        let unanswered = (batches[i].len() - j) as u64 + unread(&batches, i + 1);
                        record_break(tally, unanswered);
                        return Err(format!("reply failed: {err}"));
                    }
                }
            }
        }
        segments.cut(false);
    }
    segments.cut(true);
    Ok(segments.done)
}

/// Set-up counts: SETs of the prefill that were stored or not admitted.
#[derive(Clone, Copy, Default, Debug)]
pub struct Prefill {
    pub sets: u64,
    pub not_stored: u64,
}

/// SETs ranks `0..stream.prefill` in pipelined batches of 64.
pub fn prefill(conn: &mut Conn, pool: &ValuePool, stream: &Stream) -> io::Result<Prefill> {
    let mut counts = Prefill::default();
    let mut ops = Vec::with_capacity(64);
    let mut rank = 0;
    while rank < stream.prefill {
        let batch = (stream.prefill - rank).min(64);
        ops.clear();
        for r in rank..rank + batch {
            let mut op = Op {
                kind: OpKind::Set,
                rank: r,
                size: size_for_rank(&stream.sizes, r),
                generation: 0,
            };
            conn.encode(pool, &mut op);
            ops.push(op);
        }
        conn.send()?;
        for op in &ops {
            match conn.reply(pool, op)? {
                Reply::Stored => {}
                Reply::NotStored => counts.not_stored += 1,
                other => return Err(framing(format!("prefill SET answered {other:?}"))),
            }
            counts.sets += 1;
        }
        rank += batch;
    }
    Ok(counts)
}

/// Reads back a fixed sample of ranks; every hit must carry exactly the
/// bytes of the key's latest acknowledged write. Returns (reads, hits,
/// wrong values).
pub fn read_back(
    conn: &mut Conn,
    pool: &ValuePool,
    stream: &Stream,
    ranks: &[u64],
) -> io::Result<(u64, u64, u64)> {
    let (mut hits, mut wrong) = (0, 0);
    for chunk in ranks.chunks(64) {
        let mut ops: Vec<Op> = chunk
            .iter()
            .map(|&rank| Op {
                kind: OpKind::Get,
                rank,
                size: size_for_rank(&stream.sizes, rank),
                generation: 0,
            })
            .collect();
        for op in &mut ops {
            conn.encode(pool, op);
        }
        conn.send()?;
        for op in &ops {
            match conn.reply(pool, op)? {
                Reply::Hit => hits += 1,
                Reply::Miss => {}
                _ => wrong += 1,
            }
        }
    }
    Ok((ranks.len() as u64, hits, wrong))
}
