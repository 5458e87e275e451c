//! Property tests for the JSON layer (`dide_obs::json`) and the readers
//! built on it: rendering then parsing returns the same value in every
//! layout, and truncated or byte-flipped `BENCH.json`, store and cursor
//! inputs are rejected (or lose only a torn final line), never unwinding.

use std::panic::catch_unwind;
use std::path::PathBuf;

use dide::store::{render_record, FieldValue, StoreReader, StoreWriter};
use dide_obs::json::{self, Value};
use proptest::prelude::*;

/// Reads random words off a tape, then zeros once it runs out.
struct Tape<'a>(std::slice::Iter<'a, u64>);

impl Tape<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next().copied().unwrap_or(0) % n
    }

    fn word(&mut self) -> u64 {
        self.0.next().copied().unwrap_or(0)
    }
}

/// Quotes, backslashes, control characters and non-ASCII, among plain text.
const CHARS: [char; 12] = ['a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '😀'];

fn string(t: &mut Tape) -> String {
    (0..t.below(8)).map(|_| CHARS[t.below(CHARS.len() as u64) as usize]).collect()
}

fn value(t: &mut Tape, depth: u32) -> Value {
    match t.below(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(t.below(2) == 1),
        // Integers of every magnitude up to u64::MAX.
        2 => Value::from(t.word() >> t.below(64)),
        3 => Value::Str(string(t)),
        4 => Value::Num(format!("-{}.{:03}e-{}", t.below(100), t.below(1000), t.below(20))),
        5 => Value::Array((0..t.below(4)).map(|_| value(t, depth - 1)).collect()),
        _ => Value::Object((0..t.below(4)).map(|_| (string(t), value(t, depth - 1))).collect()),
    }
}

fn committed_bench_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");
    std::fs::read_to_string(path).expect("BENCH.json is committed")
}

/// A header and three records, as `StoreWriter` lays them out.
fn sample_store() -> String {
    let header = r#"{"schema":"dide-campaign-store/v1","grid":"f00d","jobs":3}"#;
    let mut store = format!("{header}\n");
    for (seq, bench) in [(0, "expr"), (1, "a\"b\\c\u{1}"), (2, "route")] {
        let line = render_record(vec![
            ("seq".to_string(), FieldValue::Num(seq)),
            ("benchmark".to_string(), FieldValue::Str(bench.to_string())),
            ("pipeline.cycles".to_string(), FieldValue::Num(u64::MAX - seq)),
        ]);
        store.push_str(&line);
        store.push('\n');
    }
    store
}

/// `bytes` with the byte at `at` XORed by a non-zero `mask`.
fn flip(bytes: &[u8], at: u64, mask: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let i = (at % out.len() as u64) as usize;
    out[i] ^= (mask % 255 + 1) as u8;
    out
}

proptest! {
    #![proptest_config(ProptestConfig::from_env(64))]

    // Rendering then parsing is the identity, in the compact layout of
    // store lines, the pretty layout of stats documents, and with every
    // container on one line.
    #[test]
    fn render_then_parse_returns_the_same_value(
        tape in proptest::collection::vec(any::<u64>(), 0..128),
    ) {
        let v = value(&mut Tape(tape.iter()), 3);
        for text in [v.to_compact(), v.to_pretty(), v.to_pretty_with(&|_| true)] {
            prop_assert_eq!(json::parse(&text), Ok(v.clone()), "{}", text);
        }
    }

    // A truncated BENCH.json never parses; a byte-flipped one either fails
    // to parse or goes through the regression gate — and nothing unwinds.
    #[test]
    fn damaged_bench_json_is_rejected_without_unwinding(cut: u64, at: u64, mask: u64) {
        let committed = committed_bench_json();
        let doc = json::parse(&committed).expect("BENCH.json parses");
        let body = committed.trim_end();
        let truncated = &body[..(cut % body.len() as u64) as usize];
        prop_assert!(catch_unwind(|| json::parse(truncated)).expect("no unwind").is_err());
        if let Ok(text) = String::from_utf8(flip(committed.as_bytes(), at, mask)) {
            let outcome = catch_unwind(|| {
                json::parse(&text).map(|flipped| dide::check_against(&flipped, &doc).is_ok())
            });
            prop_assert!(outcome.is_ok(), "a flipped BENCH.json unwound");
        }
    }

    // A truncated store keeps exactly its complete records (only the torn
    // final line is dropped); a byte-flipped store is rejected or keeps at
    // most its records — and nothing unwinds.
    #[test]
    fn damaged_store_drops_only_the_torn_tail(cut: u64, at: u64, mask: u64) {
        let store = sample_store();
        let header_len = store.find('\n').expect("header line") + 1;
        let cut = (cut % (store.len() as u64 + 1)) as usize;
        let truncated = &store[..cut];
        let parsed = catch_unwind(|| StoreReader::parse(truncated)).expect("no unwind");
        if cut < header_len {
            prop_assert!(parsed.is_err(), "a torn header must not parse");
        } else {
            let complete = truncated.matches('\n').count() - 1;
            prop_assert_eq!(parsed.map(|r| r.records.len()), Ok(complete));
        }
        if let Ok(text) = String::from_utf8(flip(store.as_bytes(), at, mask)) {
            let parsed = catch_unwind(|| StoreReader::parse(&text)).expect("no unwind");
            if let Ok(reader) = parsed {
                prop_assert!(reader.records.len() <= 3);
            }
        }
    }

    // A truncated or byte-flipped cursor makes `--resume` fail with an
    // error or resume cleanly, never unwind.
    #[test]
    fn damaged_cursor_never_unwinds(cut: u64, at: u64, mask: u64) {
        let dir: PathBuf = std::env::temp_dir()
            .join(format!("dide-prop-json-{}-{cut}-{at}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let store = dir.join("campaign.jsonl");
        let cursor = dir.join("campaign.jsonl.cursor");
        let mut writer = StoreWriter::create(&store, "f00d", 3, 1).expect("store");
        writer.append(r#"{"seq":0}"#).expect("append");
        drop(writer);
        let good = std::fs::read(&cursor).expect("cursor");
        let truncated = &good[..(cut % good.len() as u64) as usize];
        for damaged in [truncated.to_vec(), flip(&good, at, mask)] {
            std::fs::write(&cursor, &damaged).expect("write cursor");
            let resumed = catch_unwind(|| StoreWriter::resume(&store, "f00d", 1).is_ok());
            prop_assert!(resumed.is_ok(), "a damaged cursor unwound");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
