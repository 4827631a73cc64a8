//! Unique-key heap soak: serving JSON whose keys never repeat must not
//! grow the heap.
//!
//! Every lexeme is certified against its rule's regex. A certifier that
//! remembered verdicts per lexeme text would keep one entry per distinct
//! key forever, so a stream of documents with fresh keys would grow live
//! memory without bound. This binary counts live heap bytes with its own
//! global allocator, serves ~50 documents of ~500 never-repeated keys
//! through one cached `json.g` pipeline, and requires the live heap
//! after the last document to stay within a small constant of the live
//! heap after the fifth.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use lambek_engine::{Engine, StrOutcome};

/// The system allocator, keeping a running count of live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged; the wrapper only adds to and subtracts from a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const DOCS: usize = 50;
const KEYS_PER_DOC: usize = 500;
/// How far live heap may drift between the fifth and the last document.
const SLACK_BYTES: isize = 256 * 1024;

/// One object of `KEYS_PER_DOC` keys that no other document uses.
fn document(doc: usize) -> String {
    let fields: Vec<String> = (0..KEYS_PER_DOC)
        .map(|i| format!("\"key_{doc:03}_{i:04}_unique\": {i}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[test]
fn unique_keys_do_not_grow_the_heap() {
    let engine = Engine::new();
    let handle = engine
        .compile_text(lambek_frontend::presets::JSON)
        .expect("json.g compiles");
    let backend = handle.pipeline.lexed_backend().expect("a lexed pipeline");
    let mut after_fifth = 0;
    for doc in 0..DOCS {
        let text = document(doc);
        let outcome = backend.parse_str(&text).expect("certification holds");
        assert!(matches!(outcome, StrOutcome::Accept { .. }), "doc {doc}");
        drop(outcome);
        drop(text);
        if doc == 4 {
            after_fifth = LIVE.load(Ordering::Relaxed);
        }
    }
    let after_last = LIVE.load(Ordering::Relaxed);
    assert!(
        after_last - after_fifth <= SLACK_BYTES,
        "live heap grew by {} bytes over {} documents of fresh keys",
        after_last - after_fifth,
        DOCS - 5
    );
}
