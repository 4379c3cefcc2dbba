//! Wire-protocol costs: parsing and encoding the Memcached ASCII protocol.
//!
//! The single-command cases time one parse in isolation; the pipelined
//! cases parse a whole burst from one read buffer, as a connection does,
//! so a per-command cost that grows with pipeline depth shows up as a lower
//! Melem/s than the single-command case of the same verb.

use bytes::BytesMut;
use cache_server::protocol::{
    encode_response, parse_command, ParseOutcome, Parser, Response, Value,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_parse");
    group.throughput(Throughput::Elements(1));

    group.bench_function("get", |b| {
        b.iter(|| {
            let mut buf = BytesMut::from(&b"get user:12345:profile\r\n"[..]);
            black_box(parse_command(&mut buf))
        });
    });

    group.bench_function("set_1kb", |b| {
        let mut template = Vec::new();
        template.extend_from_slice(b"set user:12345:profile 0 0 1024\r\n");
        template.extend_from_slice(&vec![0x61u8; 1024]);
        template.extend_from_slice(b"\r\n");
        b.iter(|| {
            let mut buf = BytesMut::from(&template[..]);
            black_box(parse_command(&mut buf))
        });
    });
    group.finish();
}

/// Commands per pipelined burst in [`bench_parse_pipelined`].
const DEPTH: usize = 256;

fn bench_parse_pipelined(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_parse_depth256");
    group.throughput(Throughput::Elements(DEPTH as u64));

    let get: Vec<u8> = (0..DEPTH)
        .flat_map(|i| format!("get user:{i:05}:profile\r\n").into_bytes())
        .collect();
    let mut set_1kb = Vec::new();
    for i in 0..DEPTH {
        set_1kb.extend_from_slice(format!("set user:{i:05}:profile 0 0 1024\r\n").as_bytes());
        set_1kb.extend_from_slice(&[0x61u8; 1024]);
        set_1kb.extend_from_slice(b"\r\n");
    }
    for (name, burst) in [("get", get), ("set_1kb", set_1kb)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut buf = BytesMut::from(&burst[..]);
                let mut parser = Parser::new();
                let mut parsed = 0usize;
                while let ParseOutcome::Complete(command) = parser.parse(&mut buf) {
                    black_box(command);
                    parsed += 1;
                }
                assert_eq!(parsed, DEPTH);
            });
        });
    }
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_encode");
    group.throughput(Throughput::Elements(1));

    group.bench_function("value_1kb", |b| {
        let response = Response::Values(vec![Value {
            key: bytes::Bytes::from_static(b"user:12345:profile"),
            flags: 0,
            data: bytes::Bytes::from(vec![0x61u8; 1024]),
        }]);
        let mut out = Vec::with_capacity(2048);
        b.iter(|| {
            out.clear();
            encode_response(&response, &mut out);
            black_box(out.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_parse, bench_parse_pipelined, bench_encode);
criterion_main!(benches);
