//! Parse cost must not grow with pipeline depth.
//!
//! A pipelined burst of 1 KB SETs is parsed from one read buffer; the bytes
//! the parser allocates per command are counted by a std-only counting
//! global allocator. Each command should cost its own key and value and
//! nothing that scales with the input still queued behind it — a buffer
//! that copied its remainder on every consumed command would allocate
//! about `depth × 1 KB` per command here. Bytes, not time, so the check is
//! deterministic.

use bytes::BytesMut;
use cache_server::protocol::{Command, ParseOutcome, Parser};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the bytes allocated by threads that opted in, so the test
/// harness's own threads cannot perturb the count.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const VALUE_BYTES: usize = 1024;

/// Parses `depth` pipelined 1 KB SETs appended to `buffer` and returns the
/// bytes allocated per command while parsing them.
fn parse_bytes_per_command(parser: &mut Parser, buffer: &mut BytesMut, depth: usize) -> f64 {
    let value = vec![b'v'; VALUE_BYTES];
    for i in 0..depth {
        buffer.extend_from_slice(format!("set key:{i:06} 0 0 {VALUE_BYTES}\r\n").as_bytes());
        buffer.extend_from_slice(&value);
        buffer.extend_from_slice(b"\r\n");
    }
    let mut parsed = 0usize;
    ALLOCATED.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    loop {
        match parser.parse(buffer) {
            ParseOutcome::Complete(Command::Store { data, .. }) => {
                assert_eq!(data.len(), VALUE_BYTES);
                parsed += 1;
            }
            ParseOutcome::Incomplete => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    COUNTING.with(|c| c.set(false));
    assert_eq!(parsed, depth, "every pipelined SET parses");
    assert!(buffer.is_empty());
    ALLOCATED.load(Ordering::Relaxed) as f64 / depth as f64
}

#[test]
fn parse_allocation_per_command_is_flat_in_pipeline_depth() {
    let mut parser = Parser::new();
    let mut buffer = BytesMut::new();
    let per_command: Vec<(usize, f64)> = [1, 64, 256, 1024]
        .into_iter()
        .map(|depth| {
            (
                depth,
                parse_bytes_per_command(&mut parser, &mut buffer, depth),
            )
        })
        .collect();
    let shallow = per_command[0].1;
    assert!(
        shallow >= VALUE_BYTES as f64,
        "the value is copied once: {per_command:?}"
    );
    for &(depth, bytes) in &per_command {
        assert!(
            bytes <= 1.25 * shallow,
            "depth {depth} allocates {bytes:.0} B per command against {shallow:.0} B at depth 1: \
             {per_command:?}"
        );
    }
}
