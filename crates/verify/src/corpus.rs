//! On-disk corpus of failing fuzz cases.
//!
//! Every failure `dide verify` finds is persisted as a small `.case` file
//! — seed, generator configuration (already shrunk), the failure reason,
//! and the shrunk program listing as comments — and the whole corpus is
//! replayed *before* fresh random seeds on every subsequent run, so a
//! once-found bug stays found until it is actually fixed.
//!
//! The format is line-oriented `key = value` with `#` comments:
//!
//! ```text
//! # reason: seq 12 (inst 4: sd t0, 8(g5)): analysis says ...
//! seed = 0x000000000000002a
//! segments = 2
//! segment_len = 4
//! loop_iters = 1
//! memory_slots = 4
//! ```

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use dide_workloads::GenConfig;

/// One persisted failing case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCase {
    /// Generator seed.
    pub seed: u64,
    /// (Shrunk) generator configuration.
    pub config: GenConfig,
    /// First failure message recorded when the case was saved.
    pub reason: String,
}

/// The file name a case is stored under.
#[must_use]
pub fn case_filename(seed: u64) -> String {
    format!("seed-{seed:016x}.case")
}

/// Renders a case to its file format. `listing` (typically the shrunk
/// program's disassembly) is embedded as trailing comment lines for human
/// readers; the parser ignores it.
#[must_use]
pub fn render_case(case: &CorpusCase, listing: &str) -> String {
    let mut s = String::new();
    for line in case.reason.lines() {
        s.push_str("# reason: ");
        s.push_str(line);
        s.push('\n');
    }
    s.push_str(&format!("seed = {:#018x}\n", case.seed));
    s.push_str(&format!("segments = {}\n", case.config.segments));
    s.push_str(&format!("segment_len = {}\n", case.config.segment_len));
    s.push_str(&format!("loop_iters = {}\n", case.config.loop_iters));
    s.push_str(&format!("memory_slots = {}\n", case.config.memory_slots));
    if !listing.is_empty() {
        s.push_str("#\n# shrunk program:\n");
        for line in listing.lines() {
            s.push_str("#   ");
            s.push_str(line);
            s.push('\n');
        }
    }
    s
}

/// Saves a failing case (creating `dir` if needed) and returns its path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_case(dir: &Path, case: &CorpusCase, listing: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(case_filename(case.seed));
    fs::write(&path, render_case(case, listing))?;
    Ok(path)
}

/// Parses one `.case` file.
///
/// # Errors
///
/// Returns `InvalidData` on malformed or incomplete files, on a value too
/// large for its field and on a configuration [`GenConfig::validate`]
/// rejects, so a corrupted corpus fails loudly instead of silently
/// dropping, altering or misreporting cases.
pub fn parse_case(text: &str) -> io::Result<CorpusCase> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut seed = None;
    let mut config = GenConfig::default();
    let mut reason = String::new();
    let mut saw = [false; 4];
    for raw in text.lines() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("# reason:") {
            if !reason.is_empty() {
                reason.push('\n');
            }
            reason.push_str(rest.trim());
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| bad(format!("expected `key = value`, got {line:?}")))?;
        let (key, value) = (key.trim(), value.trim());
        let parse_num = |v: &str| -> io::Result<u64> {
            let r = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            r.map_err(|e| bad(format!("bad number {v:?} for {key}: {e}")))
        };
        match key {
            "seed" => seed = Some(parse_num(value)?),
            "segments" => {
                config.segments = narrow(key, parse_num(value)?)?;
                saw[0] = true;
            }
            "segment_len" => {
                config.segment_len = narrow(key, parse_num(value)?)?;
                saw[1] = true;
            }
            "loop_iters" => {
                config.loop_iters = narrow(key, parse_num(value)?)?;
                saw[2] = true;
            }
            "memory_slots" => {
                config.memory_slots = narrow(key, parse_num(value)?)?;
                saw[3] = true;
            }
            _ => return Err(bad(format!("unknown key {key:?}"))),
        }
    }
    let seed = seed.ok_or_else(|| bad("missing seed".into()))?;
    if !saw.iter().all(|&s| s) {
        return Err(bad("missing one of segments/segment_len/loop_iters/memory_slots".into()));
    }
    config.validate().map_err(bad)?;
    Ok(CorpusCase { seed, config, reason })
}

/// Narrows a parsed number to a field narrower than `u64`, rejecting a
/// value the field cannot hold instead of truncating it.
fn narrow<T: TryFrom<u64>>(key: &str, n: u64) -> io::Result<T> {
    T::try_from(n).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, format!("{key} = {n} is out of range"))
    })
}

/// Loads every `.case` file in `dir`, sorted by file name so replay order
/// (and therefore output) is deterministic. A missing directory is an
/// empty corpus, not an error.
///
/// # Errors
///
/// Propagates filesystem errors and malformed case files.
pub fn load_corpus(dir: &Path) -> io::Result<Vec<CorpusCase>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            parse_case(&fs::read_to_string(p)?)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", p.display())))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dide-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = temp_dir("roundtrip");
        let case = CorpusCase {
            seed: 0x2a,
            config: GenConfig { segments: 2, segment_len: 4, loop_iters: 1, memory_slots: 4 },
            reason: "seq 12: analysis says Useful, reference says Dead(RegUnread)".into(),
        };
        let path = save_case(&dir, &case, "li t0, 5\nout t0\nhalt").unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), case_filename(0x2a));
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded, vec![case]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corpus_order_is_sorted_by_seed_filename() {
        let dir = temp_dir("order");
        for seed in [9u64, 1, 5] {
            let case = CorpusCase { seed, config: GenConfig::default(), reason: String::new() };
            save_case(&dir, &case, "").unwrap();
        }
        let seeds: Vec<u64> = load_corpus(&dir).unwrap().iter().map(|c| c.seed).collect();
        assert_eq!(seeds, vec![1, 5, 9]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        let dir = temp_dir("missing");
        assert!(load_corpus(&dir).unwrap().is_empty());
    }

    #[test]
    fn malformed_files_fail_loudly() {
        assert!(parse_case("segments = 1").is_err(), "missing seed");
        assert!(parse_case("seed = 1\nsegments = bogus").is_err(), "bad number");
        assert!(parse_case("seed = 1\nwhat = 2").is_err(), "unknown key");
        assert!(parse_case("seed = 1\nno equals here").is_err(), "not key = value");
    }

    fn case_text(segments: u64, loop_iters: u64) -> String {
        format!(
            "seed = 1\nsegments = {segments}\nsegment_len = 4\nloop_iters = {loop_iters}\n\
             memory_slots = 4\n"
        )
    }

    #[test]
    fn oversized_loop_iters_is_rejected_not_truncated() {
        // Truncating 2^32 + 1 to 1 would replay a different program and
        // could report the case fixed.
        let err = parse_case(&case_text(2, (1 << 32) + 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "loop_iters = 4294967297 is out of range");
        // A value the field holds but the generator rejects fails as well.
        let err = parse_case(&case_text(2, u64::from(u32::MAX))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("loop_iters must be at most 64"), "{err}");
    }

    #[test]
    fn oversized_config_fails_to_load_naming_the_file() {
        // Unbounded, such cases would load and then panic in the generator
        // (the scratch area's byte size wraps to 0) or run without end.
        let slots = "seed = 1\nsegments = 2\nsegment_len = 4\nloop_iters = 1\n\
                     memory_slots = 2305843009213693952\n";
        let err = parse_case(slots).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("memory_slots must be at most 4096"), "{err}");
        let dir = temp_dir("oversized");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(case_filename(1)), case_text(100_000_000, 1)).unwrap();
        let err = load_corpus(&dir).unwrap_err().to_string();
        assert!(err.contains(&case_filename(1)), "the error names the file: {err}");
        assert!(err.contains("segments must be at most 64 (got 100000000)"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_config_fails_to_load_naming_the_file() {
        // A config the generator rejects cannot be replayed; loading it
        // must fail rather than report the case as a model failure.
        let err = parse_case(&case_text(0, 1)).unwrap_err();
        assert!(err.to_string().contains("segments must be at least 1"), "{err}");
        let dir = temp_dir("invalid");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(case_filename(1)), case_text(0, 1)).unwrap();
        let err = load_corpus(&dir).unwrap_err().to_string();
        assert!(err.contains(&case_filename(1)), "the error names the file: {err}");
        assert_eq!(err.lines().count(), 1, "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_and_reason_survive_as_comments() {
        let case = CorpusCase {
            seed: 7,
            config: GenConfig::default(),
            reason: "line one\nline two".into(),
        };
        let text = render_case(&case, "halt");
        assert!(text.contains("# reason: line one"));
        assert!(text.contains("# reason: line two"));
        assert!(text.contains("#   halt"));
        let parsed = parse_case(&text).unwrap();
        assert_eq!(parsed.reason, "line one\nline two");
    }
}
