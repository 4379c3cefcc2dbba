//! Integration tests of the TCP server driven through the client with the
//! Facebook-ETC-like workload — the setup behind the paper's
//! micro-benchmarks, scaled down to test size.

use bytes::Bytes;
use cliffhanger_repro::prelude::*;
use cliffhanger_repro::workloads::{etc_workload, EtcConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn start(mode: BackendMode, total_bytes: u64) -> CacheServer {
    CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        backend: BackendConfig {
            total_bytes,
            mode,
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start")
}

#[test]
fn etc_workload_over_the_wire_produces_hits() {
    let server = start(BackendMode::Cliffhanger, 16 << 20);
    let mut client = CacheClient::connect(server.local_addr()).unwrap();

    let workload = etc_workload(
        &EtcConfig {
            num_keys: 2_000,
            ..EtcConfig::default()
        },
        10_000,
    );
    let mut local_hits = 0u64;
    let mut local_gets = 0u64;
    for request in workload.iter() {
        let key = format!("etc:{}", request.key.raw());
        match request.op {
            Op::Get => {
                local_gets += 1;
                match client.get(key.as_bytes()).unwrap() {
                    Some(_) => local_hits += 1,
                    None => {
                        // Demand fill, as a look-aside client would.
                        let value = vec![0x42u8; request.size as usize];
                        assert!(client.set(key.as_bytes(), 0, &value).unwrap());
                    }
                }
            }
            Op::Set => {
                let value = vec![0x42u8; request.size as usize];
                assert!(client.set(key.as_bytes(), 0, &value).unwrap());
            }
            Op::Delete => {
                let _ = client.delete(key.as_bytes()).unwrap();
            }
        }
    }
    assert!(local_gets > 5_000);
    let hit_rate = local_hits as f64 / local_gets as f64;
    assert!(
        hit_rate > 0.5,
        "a 16 MB cache should absorb a 2k-key ETC workload, hit rate {hit_rate:.3}"
    );

    // The server-side statistics agree with what the client observed.
    let stats: HashMap<String, String> = client.stats().unwrap().into_iter().collect();
    let server_gets: u64 = stats["cmd_get"].parse().unwrap();
    let server_hits: u64 = stats["get_hits"].parse().unwrap();
    assert_eq!(server_gets, local_gets);
    assert_eq!(server_hits, local_hits);
}

#[test]
fn all_backend_modes_serve_the_same_semantics() {
    for mode in [
        BackendMode::Default,
        BackendMode::HillClimbing,
        BackendMode::Cliffhanger,
    ] {
        let server = start(mode, 8 << 20);
        let mut client = CacheClient::connect(server.local_addr()).unwrap();
        assert!(client.set(b"alpha", 3, b"one").unwrap());
        assert!(client.add(b"beta", 0, b"two").unwrap());
        assert!(!client.add(b"beta", 0, b"three").unwrap());
        assert!(client.replace(b"alpha", 0, b"uno").unwrap());
        assert_eq!(client.get(b"alpha").unwrap().unwrap().1, b"uno");
        assert_eq!(client.get(b"beta").unwrap().unwrap().1, b"two");
        assert!(client.delete(b"beta").unwrap());
        assert!(client.get(b"beta").unwrap().is_none());
    }
}

#[test]
fn worst_case_all_miss_traffic_stays_correct_under_eviction() {
    // Every key unique and larger than the cache can hold: the §5.6 stress
    // pattern. Functional correctness (the just-written key is readable)
    // must hold even while everything else is being evicted.
    let server = start(BackendMode::Cliffhanger, 1 << 20);
    let cache = server.cache().clone();
    let payload = Bytes::from(vec![7u8; 2_000]);
    for i in 0..3_000u32 {
        let key = format!("unique:{i}");
        assert!(cache.set(key.as_bytes(), 0, payload.clone()));
        assert!(
            cache.get(key.as_bytes()).is_some(),
            "the item just written must be readable (iteration {i})"
        );
    }
    let stats: HashMap<String, String> = cache.stats().into_iter().collect();
    let bytes: u64 = stats["bytes"].parse().unwrap();
    assert!(bytes <= 1 << 20, "cache exceeded its budget: {bytes}");
    let evictions: u64 = stats["evictions"].parse().unwrap();
    assert!(evictions > 1_000, "evictions expected under pressure");
}

#[test]
fn non_utf8_keys_never_alias_over_the_wire() {
    // `\xff` and `\xfe` are distinct keys that are not UTF-8; a parser that
    // decoded lines lossily would map both to U+FFFD and answer the GET
    // with the other key's value.
    let server = start(BackendMode::Cliffhanger, 8 << 20);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |request: &[u8], reply_lines: usize| -> Vec<u8> {
        writer.write_all(request).unwrap();
        let mut reply = Vec::new();
        for _ in 0..reply_lines {
            reader.read_until(b'\n', &mut reply).unwrap();
        }
        reply
    };
    assert_eq!(roundtrip(b"set \xff 0 0 5\r\nfirst\r\n", 1), b"STORED\r\n");
    assert_eq!(roundtrip(b"get \xfe\r\n", 1), b"END\r\n");
    assert_eq!(
        roundtrip(b"get \xff\r\n", 3),
        b"VALUE \xff 0 5\r\nfirst\r\nEND\r\n"
    );
}
