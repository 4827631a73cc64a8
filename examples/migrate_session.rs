//! Cross-shard session migration through the grammar frontend: a
//! stream session parked on one engine resumes on a *second* engine
//! whose cache has never seen the spec — shard B rebuilds the pipeline
//! from the same grammar **text** (the frontend's structural cache key
//! guarantees it lands on an observationally identical pipeline). The
//! blob is the parked raw text; `Engine::resume` checks its framing and
//! spec fingerprint, then pushes that text into a fresh stream through
//! the certified drivers before the session continues.
//!
//! Run with `cargo run --example migrate_session`.

use lambekd::engine::{Engine, SessionState};

const GRAMMAR: &str = "\
token NUM = [0-9]+ ;\n\
skip WS = [ \\t]+ ;\n\
start Exp ;\n\
Exp ::= Atom | Atom '+' Exp ;\n\
Atom ::= NUM | '(' Exp ')' ;\n";

const INPUT: &str = "(1 + 2) + (30 + 400)";

fn main() {
    // --- Shard A: compile the text, stream half the input, park -----
    let shard_a = Engine::new();
    let handle_a = shard_a.compile_text(GRAMMAR).expect("grammar compiles");
    let mut session = shard_a.stream(&handle_a.spec).expect("lexed LR streams");
    let split = INPUT.len() / 2;
    assert!(session.push_chars(&INPUT[..split]));
    let blob = session.snapshot().expect("unfaulted sessions park");
    println!(
        "shard A: parsed {:?} ({} tokens so far), parked {} bytes",
        &INPUT[..split],
        session.tokens().map(<[_]>::len).unwrap_or(0),
        blob.len()
    );

    // --- Shard B: cold cache — the text itself is the migration key -
    let shard_b = Engine::new();
    assert_eq!(shard_b.stats().compiles, 0, "shard B starts cold");
    let handle_b = shard_b.compile_text(GRAMMAR).expect("grammar compiles");
    assert!(
        !handle_b.cache_hit,
        "shard B really compiled: nothing was shared with shard A"
    );
    assert_eq!(
        handle_a.spec.key(),
        handle_b.spec.key(),
        "structurally equal texts intern to the same pipeline key"
    );

    // A corrupt blob is a structured rejection, never a bad resume.
    let mut damaged = blob.clone().into_bytes();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x40;
    let refusal = shard_b
        .resume(&handle_b.spec, &SessionState::from_bytes(damaged))
        .map(|_| ())
        .expect_err("a damaged blob must not resume");
    println!("shard B: refused damaged blob ({refusal})");

    // The honest blob resumes: shard B replays the parked text.
    let mut resumed = shard_b
        .resume(&handle_b.spec, &blob)
        .expect("honest blobs resume");
    assert!(resumed.push_chars(&INPUT[split..]));
    let outcome = resumed.finish().expect("resumed sessions finish");
    assert!(outcome.is_accept(), "the migrated parse accepts");
    assert!(
        shard_b.stats().compiles >= 1,
        "resume compiled the pipeline on shard B"
    );

    // --- The twin check: migration changed nothing observable -------
    let mut twin = shard_a.stream(&handle_a.spec).expect("twin stream");
    assert!(twin.push_chars(INPUT));
    let twin_outcome = twin.finish().expect("twin finishes");
    assert_eq!(outcome.is_accept(), twin_outcome.is_accept());
    println!(
        "shard B: resumed, finished, accept={} (twin agrees)",
        outcome.is_accept()
    );
    println!("migration done");
}
