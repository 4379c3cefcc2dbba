//! The Memcached ASCII protocol (the subset the paper's benchmarks use).
//!
//! Supported commands: `get` / `gets` (multi-key), `set`, `add`, `replace`,
//! `delete`, `stats`, `version`, `flush_all`, `quit`, and the multi-tenant
//! extensions `app <name>`, `app_create <name> <weight>` and `app_list`.
//! Parsing is incremental over a byte buffer so a connection handler can
//! feed it whatever the socket delivers.
//!
//! Two parsing entry points share the same grammar:
//!
//! * [`parse_command`] — stateless: a store command whose data block has not
//!   fully arrived consumes nothing and returns
//!   [`ParseOutcome::Incomplete`], so the caller re-parses the header line
//!   on every new read.
//! * [`Parser`] — stateful and resumable: the store header line is consumed
//!   the moment it is complete and the parser remembers it, so a value that
//!   trickles in over many reads costs one header parse total and the
//!   parser only ever waits for the exact number of data bytes outstanding.
//!   This is what the event-driven connection state machine uses.
//!
//! # The `app` extension
//!
//! Memcachier-style servers host many applications on one cache; the paper's
//! §3 analysis is entirely about how their memory shares should be divided.
//! `app <name>` selects the application *namespace* for the rest of the
//! session — equivalent to transparently prefixing every subsequent key with
//! `<name>:`, but enforced server-side (per-tenant engines and budgets), so
//! one tenant can never read, overwrite or evict another tenant's keys and
//! `flush_all` only clears the selected namespace. A connection that never
//! sends `app` runs in the `default` namespace and observes exactly the
//! pre-extension protocol.

use bytes::{Buf, Bytes, BytesMut};

/// A parsed client command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `get <key>+` — fetch one or more keys.
    Get {
        /// Requested keys.
        keys: Vec<Bytes>,
    },
    /// `set` / `add` / `replace` — store a value.
    Store {
        /// Which store verb was used.
        verb: StoreVerb,
        /// The key being stored.
        key: Bytes,
        /// Opaque client flags echoed back on GET.
        flags: u32,
        /// Expiration time in seconds (0 = never); stored but not enforced.
        exptime: u32,
        /// The value payload.
        data: Bytes,
        /// Whether the client asked to suppress the reply.
        noreply: bool,
    },
    /// `delete <key>`.
    Delete {
        /// The key to remove.
        key: Bytes,
        /// Whether the client asked to suppress the reply.
        noreply: bool,
    },
    /// `app <name>` — select the application namespace for this session.
    App {
        /// The application name (validated against the server's tenant
        /// directory by the executor, not the parser).
        id: Bytes,
    },
    /// `app_create <name> <weight>` — host a new application namespace
    /// live, carving its budget out of the existing tenants.
    AppCreate {
        /// The application name (validated by the executor).
        name: Bytes,
        /// Reservation weight; the parser guarantees it is at least 1.
        weight: u64,
    },
    /// `app_list` — list the hosted applications.
    AppList,
    /// `stats`, `stats json` or `stats prom`.
    Stats {
        /// Which rendering the client asked for (`stats` alone is the
        /// legacy `STAT` line format).
        format: StatsFormat,
    },
    /// `version`.
    Version,
    /// `flush_all` — drop every item.
    FlushAll,
    /// `quit` — close the connection.
    Quit,
}

/// The rendering a `stats` command asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StatsFormat {
    /// Legacy `STAT <name> <value>` lines (plain `stats`).
    #[default]
    Text,
    /// One-line versioned JSON document (`stats json`).
    Json,
    /// Prometheus text exposition (`stats prom`).
    Prom,
}

/// The store verbs of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreVerb {
    /// Store unconditionally.
    Set,
    /// Store only if the key is absent.
    Add,
    /// Store only if the key is present.
    Replace,
}

/// A server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Values followed by `END` (the reply to `get`).
    Values(Vec<Value>),
    /// `STORED`.
    Stored,
    /// `NOT_STORED`.
    NotStored,
    /// `DELETED`.
    Deleted,
    /// `NOT_FOUND`.
    NotFound,
    /// `OK`.
    Ok,
    /// `VERSION <text>`.
    Version(String),
    /// `STAT <name> <value>` lines followed by `END`.
    Stats(Vec<(String, String)>),
    /// A machine-readable stats payload (JSON or Prometheus text)
    /// followed by `END` on its own line (the reply to `stats json` /
    /// `stats prom`).
    Blob(String),
    /// `APP <name> <weight> <budget>` lines followed by `END` (the reply to
    /// `app_list`).
    Apps(Vec<AppEntry>),
    /// `CLIENT_ERROR <message>`.
    ClientError(String),
    /// `SERVER_ERROR <message>` — the server, not the client, is the reason
    /// (e.g. the accept gate shedding load past `max_connections`).
    ServerError(String),
    /// `ERROR`.
    Error,
}

/// One hosted application in an `app_list` reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppEntry {
    /// The application name.
    pub name: String,
    /// Its reservation weight.
    pub weight: u64,
    /// Its live byte budget.
    pub budget_bytes: u64,
}

/// One value in a GET response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Value {
    /// The key.
    pub key: Bytes,
    /// Client flags stored with the item.
    pub flags: u32,
    /// The payload.
    pub data: Bytes,
}

/// The outcome of trying to parse one command from a buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseOutcome {
    /// A complete command was parsed and consumed from the buffer.
    Complete(Command),
    /// More bytes are needed.
    Incomplete,
    /// The buffer starts with something that is not a valid command; the
    /// offending line has been consumed.
    Invalid(String),
}

/// A store command whose header line has been parsed but whose data block
/// has not fully arrived.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PendingStore {
    verb: StoreVerb,
    key: Bytes,
    flags: u32,
    exptime: u32,
    bytes: usize,
    noreply: bool,
}

impl PendingStore {
    /// Completes the store with its data block.
    fn complete(self, data: Bytes) -> Command {
        Command::Store {
            verb: self.verb,
            key: self.key,
            flags: self.flags,
            exptime: self.exptime,
            data,
            noreply: self.noreply,
        }
    }
}

/// The outcome of parsing one complete command line (without its data
/// block, for store verbs).
enum LineOutcome {
    Complete(Command),
    Store(PendingStore),
    Invalid(String),
}

/// Parses one command line (CRLF excluded). Shared by the stateless
/// [`parse_command`] and the resumable [`Parser`], so the two entry points
/// cannot drift apart.
///
/// The line is split as bytes, on the same ASCII whitespace set as
/// `str::split_ascii_whitespace`, so keys stay byte-exact: two keys that
/// differ only in non-UTF-8 bytes never collapse into one.
fn parse_line(line: &[u8]) -> LineOutcome {
    let mut parts = line
        .split(u8::is_ascii_whitespace)
        .filter(|field| !field.is_empty());
    let Some(verb) = parts.next() else {
        return LineOutcome::Invalid("empty command".to_string());
    };
    match verb {
        b"get" | b"gets" => {
            let keys: Vec<Bytes> = parts.map(Bytes::copy_from_slice).collect();
            if keys.is_empty() {
                LineOutcome::Invalid("get requires at least one key".to_string())
            } else {
                LineOutcome::Complete(Command::Get { keys })
            }
        }
        b"set" | b"add" | b"replace" => {
            let verb = match verb {
                b"set" => StoreVerb::Set,
                b"add" => StoreVerb::Add,
                _ => StoreVerb::Replace,
            };
            let key = parts.next();
            let flags = parts.next().and_then(parse_number::<u32>);
            let exptime = parts.next().and_then(parse_number::<u32>);
            let bytes = parts.next().and_then(parse_number::<usize>);
            let noreply = parts.next() == Some(b"noreply");
            let (Some(key), Some(flags), Some(exptime), Some(bytes)) = (key, flags, exptime, bytes)
            else {
                return LineOutcome::Invalid("bad store command".to_string());
            };
            LineOutcome::Store(PendingStore {
                verb,
                key: Bytes::copy_from_slice(key),
                flags,
                exptime,
                bytes,
                noreply,
            })
        }
        b"delete" => {
            let key = parts.next();
            let noreply = parts.next() == Some(b"noreply");
            match key {
                Some(key) => LineOutcome::Complete(Command::Delete {
                    key: Bytes::copy_from_slice(key),
                    noreply,
                }),
                None => LineOutcome::Invalid("delete requires a key".to_string()),
            }
        }
        b"app" => {
            let id = parts.next();
            let extra = parts.next().is_some();
            match id {
                Some(id) if !extra => LineOutcome::Complete(Command::App {
                    id: Bytes::copy_from_slice(id),
                }),
                Some(_) => LineOutcome::Invalid("app takes exactly one name".to_string()),
                None => LineOutcome::Invalid("app requires a name".to_string()),
            }
        }
        b"app_create" => {
            let name = parts.next();
            let weight = parts.next().and_then(parse_number::<u64>);
            let extra = parts.next().is_some();
            match (name, weight) {
                (Some(name), Some(weight)) if weight >= 1 && !extra => {
                    LineOutcome::Complete(Command::AppCreate {
                        name: Bytes::copy_from_slice(name),
                        weight,
                    })
                }
                _ => LineOutcome::Invalid(
                    "app_create takes a name and an integer weight >= 1".to_string(),
                ),
            }
        }
        b"app_list" => LineOutcome::Complete(Command::AppList),
        b"stats" => {
            let format = match (parts.next(), parts.next()) {
                (None, _) => Some(StatsFormat::Text),
                (Some(b"json"), None) => Some(StatsFormat::Json),
                (Some(b"prom"), None) => Some(StatsFormat::Prom),
                _ => None,
            };
            match format {
                Some(format) => LineOutcome::Complete(Command::Stats { format }),
                None => LineOutcome::Invalid("stats takes at most one of: json, prom".to_string()),
            }
        }
        b"version" => LineOutcome::Complete(Command::Version),
        b"flush_all" => LineOutcome::Complete(Command::FlushAll),
        b"quit" => LineOutcome::Complete(Command::Quit),
        other => LineOutcome::Invalid(format!(
            "unknown command {}",
            String::from_utf8_lossy(other)
        )),
    }
}

/// Parses a numeric field; a field that is not UTF-8 is not a number.
fn parse_number<T: std::str::FromStr>(field: &[u8]) -> Option<T> {
    std::str::from_utf8(field).ok()?.parse().ok()
}

/// Attempts to parse one command from the front of `buffer`, consuming the
/// bytes it used. A store command whose data block is not fully buffered
/// consumes nothing (see [`Parser`] for the resumable alternative).
pub fn parse_command(buffer: &mut BytesMut) -> ParseOutcome {
    let Some(line_end) = find_crlf(buffer, 0) else {
        return ParseOutcome::Incomplete;
    };
    match parse_line(&buffer[..line_end]) {
        LineOutcome::Complete(command) => {
            buffer.advance_checked(line_end + 2);
            ParseOutcome::Complete(command)
        }
        LineOutcome::Invalid(message) => {
            buffer.advance_checked(line_end + 2);
            ParseOutcome::Invalid(message)
        }
        LineOutcome::Store(pending) => {
            // The data block is <bytes> bytes followed by CRLF.
            let needed = line_end + 2 + pending.bytes + 2;
            if buffer.len() < needed {
                return ParseOutcome::Incomplete;
            }
            let data = Bytes::copy_from_slice(&buffer[line_end + 2..line_end + 2 + pending.bytes]);
            let ok = &buffer[line_end + 2 + pending.bytes..needed] == b"\r\n";
            buffer.advance_checked(needed);
            if !ok {
                return ParseOutcome::Invalid("bad data chunk terminator".to_string());
            }
            ParseOutcome::Complete(pending.complete(data))
        }
    }
}

/// The largest data block the resumable parser will buffer. Values past
/// the largest slab class can never be admitted anyway, so buffering more
/// than this only serves memory-exhaustion attacks; the parser swallows
/// the declared bytes without storing them and reports
/// `object too large` (Memcached's `-I` behaviour). Comfortably above any
/// slab geometry the backend configures.
pub const MAX_DATA_BYTES: usize = 16 << 20;
/// The longest command line the resumable parser will buffer before
/// declaring it malformed and discarding through to its CRLF.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// What the resumable parser is in the middle of.
#[derive(Debug, Default)]
enum ParseState {
    /// At a command-line boundary.
    #[default]
    Idle,
    /// A store header was consumed; waiting for its data block.
    Data(PendingStore),
    /// Swallowing an oversized data block (plus CRLF) without buffering it;
    /// reports the error once fully discarded, keeping the stream in sync.
    DiscardData {
        remaining: usize,
        message: &'static str,
    },
    /// Swallowing an over-long command line through to its CRLF.
    DiscardLine,
}

/// A resumable incremental parser.
///
/// Produces exactly the same command stream as repeated [`parse_command`]
/// calls over the same bytes, but consumes a store command's header line as
/// soon as it is complete and remembers it across calls: a `set` whose value
/// arrives over many reads costs one header parse total, and the buffer
/// never has to hold header and value contiguously from scratch on every
/// poll. One `Parser` per connection; it carries the mid-command state.
///
/// Unlike the stateless [`parse_command`], the parser also bounds what it
/// will buffer: a data block past [`MAX_DATA_BYTES`] or a command line past
/// [`MAX_LINE_BYTES`] is *discarded in stride* (consumed without being
/// stored) and answered with a single `CLIENT_ERROR`, so a hostile or
/// broken client cannot balloon server memory with one declared-enormous
/// `set` or an endless CRLF-less line.
#[derive(Debug, Default)]
pub struct Parser {
    state: ParseState,
}

impl Parser {
    /// A parser with no mid-command state.
    pub fn new() -> Parser {
        Parser::default()
    }

    /// Whether the parser is mid-command (the front of the buffer is value
    /// bytes or discard-in-progress, not a command line).
    pub fn mid_command(&self) -> bool {
        !matches!(self.state, ParseState::Idle)
    }

    /// Attempts to parse one command from the front of `buffer`, consuming
    /// the bytes it used and stashing mid-command state on `self`.
    pub fn parse(&mut self, buffer: &mut BytesMut) -> ParseOutcome {
        loop {
            match std::mem::take(&mut self.state) {
                ParseState::Data(pending) => {
                    let needed = pending.bytes + 2;
                    if buffer.len() < needed {
                        self.state = ParseState::Data(pending);
                        return ParseOutcome::Incomplete;
                    }
                    let data = Bytes::copy_from_slice(&buffer[..pending.bytes]);
                    let ok = &buffer[pending.bytes..needed] == b"\r\n";
                    buffer.advance_checked(needed);
                    return if ok {
                        ParseOutcome::Complete(pending.complete(data))
                    } else {
                        ParseOutcome::Invalid("bad data chunk terminator".to_string())
                    };
                }
                ParseState::DiscardData { remaining, message } => {
                    let drop = remaining.min(buffer.len());
                    buffer.advance_checked(drop);
                    if drop < remaining {
                        self.state = ParseState::DiscardData {
                            remaining: remaining - drop,
                            message,
                        };
                        return ParseOutcome::Incomplete;
                    }
                    return ParseOutcome::Invalid(message.to_string());
                }
                ParseState::DiscardLine => match find_crlf(buffer, 0) {
                    Some(line_end) => {
                        buffer.advance_checked(line_end + 2);
                        return ParseOutcome::Invalid("command line too long".to_string());
                    }
                    None => {
                        discard_keeping_split_cr(buffer);
                        self.state = ParseState::DiscardLine;
                        return ParseOutcome::Incomplete;
                    }
                },
                ParseState::Idle => {
                    let Some(line_end) = find_crlf(buffer, 0) else {
                        if buffer.len() > MAX_LINE_BYTES {
                            discard_keeping_split_cr(buffer);
                            self.state = ParseState::DiscardLine;
                        }
                        return ParseOutcome::Incomplete;
                    };
                    let outcome = parse_line(&buffer[..line_end]);
                    buffer.advance_checked(line_end + 2);
                    match outcome {
                        LineOutcome::Complete(command) => return ParseOutcome::Complete(command),
                        LineOutcome::Invalid(message) => return ParseOutcome::Invalid(message),
                        LineOutcome::Store(pending) if pending.bytes > MAX_DATA_BYTES => {
                            // Swallow the declared block + CRLF unbuffered.
                            self.state = ParseState::DiscardData {
                                remaining: pending.bytes + 2,
                                message: "object too large for cache",
                            };
                        }
                        // Header consumed and remembered; loop to the data.
                        LineOutcome::Store(pending) => self.state = ParseState::Data(pending),
                    }
                }
            }
        }
    }
}

/// Serialises a response into the wire format.
pub fn encode_response(response: &Response, out: &mut Vec<u8>) {
    match response {
        Response::Values(values) => {
            for v in values {
                out.extend_from_slice(b"VALUE ");
                out.extend_from_slice(&v.key);
                out.extend_from_slice(format!(" {} {}\r\n", v.flags, v.data.len()).as_bytes());
                out.extend_from_slice(&v.data);
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"END\r\n");
        }
        Response::Stored => out.extend_from_slice(b"STORED\r\n"),
        Response::NotStored => out.extend_from_slice(b"NOT_STORED\r\n"),
        Response::Deleted => out.extend_from_slice(b"DELETED\r\n"),
        Response::NotFound => out.extend_from_slice(b"NOT_FOUND\r\n"),
        Response::Ok => out.extend_from_slice(b"OK\r\n"),
        Response::Version(v) => out.extend_from_slice(format!("VERSION {v}\r\n").as_bytes()),
        Response::Stats(stats) => {
            for (name, value) in stats {
                out.extend_from_slice(format!("STAT {name} {value}\r\n").as_bytes());
            }
            out.extend_from_slice(b"END\r\n");
        }
        Response::Blob(payload) => {
            out.extend_from_slice(payload.as_bytes());
            if !payload.ends_with('\n') {
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"END\r\n");
        }
        Response::Apps(apps) => {
            for app in apps {
                out.extend_from_slice(
                    format!("APP {} {} {}\r\n", app.name, app.weight, app.budget_bytes).as_bytes(),
                );
            }
            out.extend_from_slice(b"END\r\n");
        }
        Response::ClientError(msg) => {
            out.extend_from_slice(format!("CLIENT_ERROR {msg}\r\n").as_bytes())
        }
        Response::ServerError(msg) => {
            out.extend_from_slice(format!("SERVER_ERROR {msg}\r\n").as_bytes())
        }
        Response::Error => out.extend_from_slice(b"ERROR\r\n"),
    }
}

/// Discards a CRLF-less buffer, retaining a trailing `\r`: the line's
/// terminator may straddle a read boundary (`…\r` now, `\n` next read),
/// and dropping the `\r` would make the discard overrun into the *next*
/// command's line — desynchronizing every later pipelined response.
fn discard_keeping_split_cr(buffer: &mut BytesMut) {
    let keep = usize::from(buffer.last() == Some(&b'\r'));
    let drop = buffer.len() - keep;
    buffer.advance(drop);
}

fn find_crlf(buffer: &[u8], from: usize) -> Option<usize> {
    buffer[from..]
        .windows(2)
        .position(|w| w == b"\r\n")
        .map(|p| p + from)
}

trait AdvanceChecked {
    fn advance_checked(&mut self, n: usize);
}

impl AdvanceChecked for BytesMut {
    fn advance_checked(&mut self, n: usize) {
        let n = n.min(self.len());
        self.advance(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(data: &[u8]) -> BytesMut {
        BytesMut::from(data)
    }

    #[test]
    fn parses_get_with_multiple_keys() {
        let mut b = buf(b"get foo bar\r\n");
        match parse_command(&mut b) {
            ParseOutcome::Complete(Command::Get { keys }) => {
                assert_eq!(keys, vec![Bytes::from("foo"), Bytes::from("bar")]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(b.is_empty());
    }

    #[test]
    fn parses_set_with_data_block() {
        let mut b = buf(b"set foo 7 0 5\r\nhello\r\nget foo\r\n");
        match parse_command(&mut b) {
            ParseOutcome::Complete(Command::Store {
                verb,
                key,
                flags,
                data,
                noreply,
                ..
            }) => {
                assert_eq!(verb, StoreVerb::Set);
                assert_eq!(key, Bytes::from("foo"));
                assert_eq!(flags, 7);
                assert_eq!(data, Bytes::from("hello"));
                assert!(!noreply);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The following command is still in the buffer.
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Get { .. })
        ));
    }

    #[test]
    fn incomplete_input_waits_for_more() {
        let mut b = buf(b"set foo 0 0 10\r\nhel");
        assert_eq!(parse_command(&mut b), ParseOutcome::Incomplete);
        // Nothing consumed.
        assert_eq!(&b[..3], b"set");
        let mut partial_line = buf(b"get fo");
        assert_eq!(parse_command(&mut partial_line), ParseOutcome::Incomplete);
    }

    #[test]
    fn binary_safe_values() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"set bin 0 0 4\r\n");
        b.extend_from_slice(&[0, 255, 13, 10]);
        b.extend_from_slice(b"\r\n");
        match parse_command(&mut b) {
            ParseOutcome::Complete(Command::Store { data, .. }) => {
                assert_eq!(&data[..], &[0, 255, 13, 10]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_utf8_keys_stay_distinct_and_byte_exact() {
        let mut b = buf(b"get \xff\r\nget \xfe a\xffb\r\nset \xff 0 0 1\r\nx\r\ndelete \xfe\r\n");
        let mut parsed = Vec::new();
        while let ParseOutcome::Complete(command) = parse_command(&mut b) {
            parsed.push(command);
        }
        assert!(b.is_empty(), "every command parses");
        let key = |bytes: &[u8]| Bytes::copy_from_slice(bytes);
        assert_eq!(
            parsed[0],
            Command::Get {
                keys: vec![key(b"\xff")]
            }
        );
        assert_eq!(
            parsed[1],
            Command::Get {
                keys: vec![key(b"\xfe"), key(b"a\xffb")]
            }
        );
        assert!(matches!(&parsed[2], Command::Store { key: k, .. } if k == &key(b"\xff")));
        assert!(matches!(&parsed[3], Command::Delete { key: k, .. } if k == &key(b"\xfe")));
    }

    #[test]
    fn error_messages_render_non_utf8_input_lossily() {
        let mut b = buf(b"bo\xffgus x\r\nset k \xff 0 1\r\n");
        assert_eq!(
            parse_command(&mut b),
            ParseOutcome::Invalid("unknown command bo\u{FFFD}gus".to_string())
        );
        assert_eq!(
            parse_command(&mut b),
            ParseOutcome::Invalid("bad store command".to_string())
        );
    }

    #[test]
    fn invalid_commands_are_consumed_and_reported() {
        let mut b = buf(b"bogus thing\r\nversion\r\n");
        assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Version)
        ));
        let mut b = buf(b"set missingargs\r\n");
        assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
        let mut b = buf(b"get\r\n");
        assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
    }

    #[test]
    fn parses_delete_add_replace_and_admin() {
        let mut b = buf(b"delete foo noreply\r\nadd k 0 0 1\r\nx\r\nreplace k 0 0 1\r\ny\r\nstats\r\nflush_all\r\nquit\r\n");
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Delete { noreply: true, .. })
        ));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Store {
                verb: StoreVerb::Add,
                ..
            })
        ));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Store {
                verb: StoreVerb::Replace,
                ..
            })
        ));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Stats {
                format: StatsFormat::Text
            })
        ));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::FlushAll)
        ));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Quit)
        ));
    }

    #[test]
    fn parses_app_selector() {
        let mut b = buf(b"app tenant-a\r\nget foo\r\n");
        match parse_command(&mut b) {
            ParseOutcome::Complete(Command::App { id }) => {
                assert_eq!(id, Bytes::from("tenant-a"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Get { .. })
        ));
        let mut b = buf(b"app\r\n");
        assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
        let mut b = buf(b"app one two\r\n");
        assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
    }

    #[test]
    fn parses_app_create_and_app_list() {
        let mut b = buf(b"app_create tenant-x 3\r\napp_list\r\n");
        match parse_command(&mut b) {
            ParseOutcome::Complete(Command::AppCreate { name, weight }) => {
                assert_eq!(name, Bytes::from("tenant-x"));
                assert_eq!(weight, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::AppList)
        ));
        for bad in [
            &b"app_create\r\n"[..],
            b"app_create lonely\r\n",
            b"app_create name 0\r\n",
            b"app_create name nope\r\n",
            b"app_create name 1 extra\r\n",
        ] {
            let mut b = buf(bad);
            assert!(
                matches!(parse_command(&mut b), ParseOutcome::Invalid(_)),
                "{:?} must be invalid",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn resumable_parser_consumes_the_header_once() {
        let mut parser = Parser::new();
        let mut b = buf(b"set foo 7 0 5\r\nhe");
        assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
        // The header line is consumed and remembered; only value bytes wait.
        assert!(parser.mid_command());
        assert_eq!(&b[..], b"he");
        b.extend_from_slice(b"llo");
        assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
        b.extend_from_slice(b"\r\nget foo\r\n");
        match parser.parse(&mut b) {
            ParseOutcome::Complete(Command::Store {
                verb, key, data, ..
            }) => {
                assert_eq!(verb, StoreVerb::Set);
                assert_eq!(key, Bytes::from("foo"));
                assert_eq!(data, Bytes::from("hello"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!parser.mid_command());
        assert!(matches!(
            parser.parse(&mut b),
            ParseOutcome::Complete(Command::Get { .. })
        ));
        assert!(b.is_empty());
    }

    #[test]
    fn resumable_parser_rejects_a_bad_terminator_and_recovers() {
        let mut parser = Parser::new();
        let mut b = buf(b"set foo 0 0 2\r\nxxYYversion\r\n");
        assert!(matches!(parser.parse(&mut b), ParseOutcome::Invalid(_)));
        assert!(!parser.mid_command());
        assert!(matches!(
            parser.parse(&mut b),
            ParseOutcome::Complete(Command::Version)
        ));
    }

    #[test]
    fn resumable_parser_discards_oversized_data_blocks_in_stride() {
        let mut parser = Parser::new();
        let huge = MAX_DATA_BYTES + 10;
        let mut b = buf(format!("set big 0 0 {huge}\r\n").as_bytes());
        // The header alone produces no outcome and buffers nothing.
        assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
        assert!(parser.mid_command());
        assert!(b.is_empty());
        // Feed the declared block in chunks; the parser consumes each chunk
        // whole without accumulating it.
        let mut sent = 0usize;
        let chunk = vec![b'x'; 1 << 20];
        while sent + chunk.len() <= huge {
            b.extend_from_slice(&chunk);
            sent += chunk.len();
            assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
            assert!(b.is_empty(), "discard must not buffer the block");
        }
        b.extend_from_slice(&vec![b'x'; huge - sent]);
        b.extend_from_slice(b"\r\nversion\r\n");
        match parser.parse(&mut b) {
            ParseOutcome::Invalid(message) => assert!(message.contains("too large"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        // The stream is still in sync afterwards.
        assert!(matches!(
            parser.parse(&mut b),
            ParseOutcome::Complete(Command::Version)
        ));
    }

    #[test]
    fn resumable_parser_discards_endless_lines() {
        let mut parser = Parser::new();
        let mut b = BytesMut::new();
        // A CRLF-less firehose: consumed, never accumulated.
        for _ in 0..4 {
            b.extend_from_slice(&vec![b'a'; MAX_LINE_BYTES]);
            assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
        }
        assert!(b.len() <= MAX_LINE_BYTES, "long line must not accumulate");
        assert!(parser.mid_command());
        b.extend_from_slice(b"zzz\r\nstats\r\n");
        match parser.parse(&mut b) {
            ParseOutcome::Invalid(message) => assert!(message.contains("too long"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parser.parse(&mut b),
            ParseOutcome::Complete(Command::Stats { .. })
        ));
    }

    #[test]
    fn parses_stats_formats() {
        for (line, format) in [
            (&b"stats\r\n"[..], StatsFormat::Text),
            (b"stats json\r\n", StatsFormat::Json),
            (b"stats prom\r\n", StatsFormat::Prom),
        ] {
            let mut b = buf(line);
            match parse_command(&mut b) {
                ParseOutcome::Complete(Command::Stats { format: got }) => assert_eq!(got, format),
                other => panic!("unexpected {other:?}"),
            }
        }
        for bad in [&b"stats yaml\r\n"[..], b"stats json extra\r\n"] {
            let mut b = buf(bad);
            assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
        }
    }

    #[test]
    fn encodes_blob_responses() {
        // A single-line JSON document gains its own CRLF before END.
        let mut out = Vec::new();
        encode_response(&Response::Blob("{\"schema\":\"x\"}".into()), &mut out);
        assert_eq!(out, b"{\"schema\":\"x\"}\r\nEND\r\n");
        // Newline-terminated Prometheus text is not double-terminated.
        let mut out = Vec::new();
        encode_response(&Response::Blob("a 1\nb 2\n".into()), &mut out);
        assert_eq!(out, b"a 1\nb 2\nEND\r\n");
    }

    #[test]
    fn oversized_line_discard_handles_a_split_crlf() {
        // The over-long line's terminating CRLF straddles a read boundary:
        // the discard must not eat the '\r' and overrun into the next
        // command (which would desynchronize the pipelined session).
        let mut parser = Parser::new();
        let mut b = BytesMut::new();
        b.extend_from_slice(&vec![b'a'; MAX_LINE_BYTES + 10]);
        b.extend_from_slice(b"\r");
        assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
        assert!(parser.mid_command());
        b.extend_from_slice(b"\nget foo\r\n");
        match parser.parse(&mut b) {
            ParseOutcome::Invalid(message) => assert!(message.contains("too long"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        match parser.parse(&mut b) {
            ParseOutcome::Complete(Command::Get { keys }) => {
                assert_eq!(keys, vec![Bytes::from("foo")], "next command intact");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resumable_parser_matches_parse_command_on_a_pipelined_stream() {
        let stream: &[u8] =
            b"set a 1 0 3\r\nabc\r\nget a b\r\ndelete a noreply\r\nbogus\r\napp t1\r\nquit\r\n";
        let mut all_at_once = buf(stream);
        let mut one_byte_at_a_time = BytesMut::new();
        let mut parser = Parser::new();
        let mut resumed = Vec::new();
        for &byte in stream {
            one_byte_at_a_time.extend_from_slice(&[byte]);
            loop {
                match parser.parse(&mut one_byte_at_a_time) {
                    ParseOutcome::Incomplete => break,
                    outcome => resumed.push(outcome),
                }
            }
        }
        let mut reference = Vec::new();
        loop {
            match parse_command(&mut all_at_once) {
                ParseOutcome::Incomplete => break,
                outcome => reference.push(outcome),
            }
        }
        assert_eq!(resumed, reference);
    }

    #[test]
    fn encodes_responses() {
        let mut out = Vec::new();
        encode_response(
            &Response::Values(vec![Value {
                key: Bytes::from("foo"),
                flags: 3,
                data: Bytes::from("hello"),
            }]),
            &mut out,
        );
        assert_eq!(out, b"VALUE foo 3 5\r\nhello\r\nEND\r\n");
        let mut out = Vec::new();
        encode_response(&Response::Stored, &mut out);
        assert_eq!(out, b"STORED\r\n");
        let mut out = Vec::new();
        encode_response(
            &Response::Stats(vec![("gets".into(), "10".into())]),
            &mut out,
        );
        assert_eq!(out, b"STAT gets 10\r\nEND\r\n");
        let mut out = Vec::new();
        encode_response(&Response::ClientError("nope".into()), &mut out);
        assert!(out.starts_with(b"CLIENT_ERROR"));
        let mut out = Vec::new();
        encode_response(
            &Response::ServerError("out of connections".into()),
            &mut out,
        );
        assert_eq!(out, b"SERVER_ERROR out of connections\r\n");
        let mut out = Vec::new();
        encode_response(
            &Response::Apps(vec![AppEntry {
                name: "alpha".into(),
                weight: 2,
                budget_bytes: 1024,
            }]),
            &mut out,
        );
        assert_eq!(out, b"APP alpha 2 1024\r\nEND\r\n");
    }
}
