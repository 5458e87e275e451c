//! Append-only JSONL result store for campaign runs.
//!
//! A campaign writes one **header** line describing the grid, then one
//! single-line JSON **record** per unique job, in job-sequence order. The
//! format is append-only JSON Lines on purpose:
//!
//! * records are written strictly in sequence order (the work-stealing
//!   scheduler's in-order sink), so the file is **byte-identical for any
//!   `--jobs` count** — determinism is checked by `cmp`, not by a schema
//!   validator;
//! * a crash leaves a clean prefix plus at most one torn trailing line; a
//!   sidecar **cursor** (written with fsync + atomic rename on every commit
//!   batch) records how many records and bytes are durable, so `--resume`
//!   truncates to the cursor and continues from the next sequence number,
//!   producing a final store byte-identical to an uninterrupted run.
//!
//! Records are flat JSON objects of string and `u64` fields (counters come
//! from [`dide_obs::CounterSet`], which is integer-valued by design),
//! rendered and parsed through [`dide_obs::json`] in its compact layout.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use dide_obs::json::{self, Value};

/// Schema tag of the store header line (record lines carry the
/// `dide-stats/v1` schema of their counter payload).
pub const CAMPAIGN_STORE_SCHEMA: &str = "dide-campaign-store/v1";

/// Schema tag of the cursor sidecar.
pub const CURSOR_SCHEMA: &str = "dide-campaign-cursor/v1";

/// A flat JSON field value: campaign records hold nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A JSON string.
    Str(String),
    /// A non-negative JSON integer.
    Num(u64),
}

impl FieldValue {
    /// The value rendered the way `--where` matches it: strings verbatim,
    /// numbers in decimal.
    #[must_use]
    pub fn as_match_text(&self) -> String {
        match self {
            FieldValue::Str(s) => s.clone(),
            FieldValue::Num(n) => n.to_string(),
        }
    }
}

/// Parses a store or cursor line: a flat JSON object of string and `u64`
/// fields, in order. Errors read `{what} line {lineno}:col: message`.
///
/// # Errors
///
/// A one-line message if the line is not JSON, or not a flat object of
/// string and integer fields (torn tail lines fail here and are dropped by
/// readers).
fn parse_record_fields(
    line: &str,
    what: &str,
    lineno: usize,
) -> Result<Vec<(String, FieldValue)>, String> {
    let value = json::parse(line)
        .map_err(|e| format!("{what} line {}:{}: {}", lineno + e.line - 1, e.col, e.msg))?;
    let Value::Object(members) = value else {
        return Err(format!("{what} line {lineno}: not a JSON object"));
    };
    members
        .into_iter()
        .map(|(name, value)| match value {
            Value::Str(s) => Ok((name, FieldValue::Str(s))),
            other => match other.as_u64() {
                Some(n) => Ok((name, FieldValue::Num(n))),
                None => Err(format!("{what} line {lineno}: `{name}` is not a string or a u64")),
            },
        })
        .collect()
}

/// Renders ordered `(name, value)` fields as one compact JSON line (no
/// trailing newline).
#[must_use]
pub fn render_record(fields: Vec<(String, FieldValue)>) -> String {
    Value::Object(
        fields
            .into_iter()
            .map(|(name, value)| match value {
                FieldValue::Str(s) => (name, Value::Str(s)),
                FieldValue::Num(n) => (name, Value::from(n)),
            })
            .collect(),
    )
    .to_compact()
}

fn cursor_path(store: &Path) -> PathBuf {
    let mut name = store.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".cursor");
    store.with_file_name(name)
}

/// The durable progress marker of a store: how many records (and bytes)
/// survived the last committed batch, and the fingerprint of the grid that
/// produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cursor {
    /// Fingerprint of the expanded, canonicalized grid.
    pub grid: String,
    /// Number of durable records (header line excluded).
    pub records: u64,
    /// Store size in bytes up to and including the last durable record.
    pub bytes: u64,
}

impl Cursor {
    fn render(&self) -> String {
        render_record(vec![
            ("schema".to_string(), FieldValue::Str(CURSOR_SCHEMA.to_string())),
            ("grid".to_string(), FieldValue::Str(self.grid.clone())),
            ("records".to_string(), FieldValue::Num(self.records)),
            ("bytes".to_string(), FieldValue::Num(self.bytes)),
        ])
    }

    fn parse(text: &str, what: &str) -> Result<Cursor, String> {
        let fields = parse_record_fields(text, what, 1)?;
        let field = |name: &str| fields.iter().find(|(n, _)| n == name).map(|(_, v)| v);
        match (field("schema"), field("grid"), field("records"), field("bytes")) {
            (
                Some(FieldValue::Str(schema)),
                Some(FieldValue::Str(grid)),
                Some(&FieldValue::Num(records)),
                Some(&FieldValue::Num(bytes)),
            ) if schema == CURSOR_SCHEMA => Ok(Cursor { grid: grid.clone(), records, bytes }),
            _ => Err(format!("{what}: not a {CURSOR_SCHEMA} cursor")),
        }
    }
}

/// Append-only writer of a campaign store plus its fsync'd cursor sidecar.
#[derive(Debug)]
pub struct StoreWriter {
    file: File,
    path: PathBuf,
    grid: String,
    records: u64,
    bytes: u64,
    pending: u64,
    flush_every: u64,
}

impl StoreWriter {
    /// Creates (truncating) a store at `path`, writes the header line and
    /// commits an empty cursor. `flush_every` is the commit batch size in
    /// records (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or syncing the files.
    pub fn create(
        path: &Path,
        grid_fingerprint: &str,
        jobs_unique: u64,
        flush_every: u64,
    ) -> io::Result<StoreWriter> {
        let mut file = File::create(path)?;
        let header = render_record(vec![
            ("schema".to_string(), FieldValue::Str(CAMPAIGN_STORE_SCHEMA.to_string())),
            ("grid".to_string(), FieldValue::Str(grid_fingerprint.to_string())),
            ("jobs".to_string(), FieldValue::Num(jobs_unique)),
        ]);
        file.write_all(header.as_bytes())?;
        file.write_all(b"\n")?;
        let bytes = (header.len() + 1) as u64;
        let mut writer = StoreWriter {
            file,
            path: path.to_path_buf(),
            grid: grid_fingerprint.to_string(),
            records: 0,
            bytes,
            pending: 0,
            flush_every: flush_every.max(1),
        };
        writer.commit()?;
        Ok(writer)
    }

    /// Reopens an existing store for resumption: validates the header and
    /// cursor against `grid_fingerprint`, truncates any uncommitted tail,
    /// and returns the writer positioned after the last durable record.
    ///
    /// # Errors
    ///
    /// Fails if the store or cursor is missing or malformed, or if either
    /// fingerprint does not match (resuming a different grid would silently
    /// interleave incompatible records).
    pub fn resume(
        path: &Path,
        grid_fingerprint: &str,
        flush_every: u64,
    ) -> io::Result<StoreWriter> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let cursor_path = cursor_path(path);
        let cursor_text = fs::read_to_string(&cursor_path)
            .map_err(|e| bad(format!("cannot read cursor for {}: {e}", path.display())))?;
        let cursor =
            Cursor::parse(&cursor_text, &cursor_path.display().to_string()).map_err(bad)?;
        if cursor.grid != grid_fingerprint {
            return Err(bad(format!(
                "cursor grid {} does not match this campaign grid {grid_fingerprint}",
                cursor.grid
            )));
        }
        let contents = fs::read_to_string(path)?;
        let header_line = contents.lines().next().unwrap_or("");
        let header = parse_record_fields(header_line, "store", 1).map_err(bad)?;
        match header.iter().find(|(n, _)| n == "grid") {
            Some((_, FieldValue::Str(g))) if g == grid_fingerprint => {}
            _ => return Err(bad("store header grid mismatch".to_string())),
        }
        if (contents.len() as u64) < cursor.bytes {
            return Err(bad("store is shorter than its cursor".to_string()));
        }
        // Drop the uncommitted tail (possibly torn) past the cursor.
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(cursor.bytes)?;
        drop(file);
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.flush()?;
        Ok(StoreWriter {
            file,
            path: path.to_path_buf(),
            grid: grid_fingerprint.to_string(),
            records: cursor.records,
            bytes: cursor.bytes,
            pending: 0,
            flush_every: flush_every.max(1),
        })
    }

    /// Number of durable + appended records so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one record line, committing (fsync store, then atomically
    /// replace the cursor) every `flush_every` records.
    ///
    /// # Errors
    ///
    /// Any I/O failure appending or committing.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "records are single lines");
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.bytes += (line.len() + 1) as u64;
        self.records += 1;
        self.pending += 1;
        if self.pending >= self.flush_every {
            self.commit()?;
        }
        Ok(())
    }

    /// Forces a commit: fsync the store, then write the cursor sidecar via
    /// write-temp + fsync + rename so the cursor is always a complete
    /// document pointing at durable bytes.
    ///
    /// # Errors
    ///
    /// Any I/O failure syncing or renaming.
    pub fn commit(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_data()?;
        let cursor = Cursor { grid: self.grid.clone(), records: self.records, bytes: self.bytes };
        let final_path = cursor_path(&self.path);
        let tmp_path = final_path.with_extension("cursor.tmp");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(cursor.render().as_bytes())?;
        tmp.write_all(b"\n")?;
        tmp.sync_data()?;
        drop(tmp);
        fs::rename(&tmp_path, &final_path)?;
        self.pending = 0;
        Ok(())
    }
}

/// A fully parsed campaign store: header fields plus per-record fields.
#[derive(Debug)]
pub struct StoreReader {
    /// Parsed header fields.
    pub header: Vec<(String, FieldValue)>,
    /// Parsed records, in file (= job sequence) order.
    pub records: Vec<Vec<(String, FieldValue)>>,
}

impl StoreReader {
    /// Reads and parses a store file. A torn trailing line (no newline, or
    /// unparseable) is dropped, matching crash semantics; torn lines
    /// *before* the end are an error.
    ///
    /// # Errors
    ///
    /// Missing file, malformed header, or a malformed non-final record.
    pub fn open(path: &Path) -> io::Result<StoreReader> {
        let contents = fs::read_to_string(path)?;
        StoreReader::parse(&contents).map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))
    }

    /// Parses store contents (see [`StoreReader::open`]).
    ///
    /// # Errors
    ///
    /// Malformed header or a malformed non-final record.
    pub fn parse(contents: &str) -> Result<StoreReader, String> {
        let lines: Vec<&str> = contents.split_inclusive('\n').collect();
        let Some(header_line) = lines.first() else {
            return Err("store is empty (no header)".to_string());
        };
        if !header_line.ends_with('\n') {
            return Err("store header is torn".to_string());
        }
        let header = parse_record_fields(header_line, "store", 1)?;
        match header.iter().find(|(n, _)| n == "schema") {
            Some((_, FieldValue::Str(s))) if s == CAMPAIGN_STORE_SCHEMA => {}
            _ => return Err(format!("store line 1: schema is not {CAMPAIGN_STORE_SCHEMA}")),
        }
        let mut records = Vec::with_capacity(lines.len() - 1);
        for (i, line) in lines.iter().enumerate().skip(1) {
            match parse_record_fields(line, "store", i + 1) {
                Ok(fields) if line.ends_with('\n') => records.push(fields),
                // A torn or unparseable final line is dropped (crash
                // semantics); the same defect before the end is an error.
                Err(e) if i + 1 < lines.len() => return Err(e),
                _ => {}
            }
        }
        Ok(StoreReader { header, records })
    }

    /// The match-text value of `field` in record `i`, if present.
    #[must_use]
    pub fn field(&self, i: usize, field: &str) -> Option<String> {
        self.records.get(i)?.iter().find(|(n, _)| n == field).map(|(_, v)| v.as_match_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dide-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("campaign.jsonl")
    }

    fn record(seq: u64, bench: &str) -> String {
        render_record(vec![
            ("seq".to_string(), FieldValue::Num(seq)),
            ("benchmark".to_string(), FieldValue::Str(bench.to_string())),
        ])
    }

    #[test]
    fn roundtrip_parse_render() {
        let fields = vec![
            ("schema".to_string(), FieldValue::Str("dide-stats/v1".to_string())),
            ("seq".to_string(), FieldValue::Num(3)),
            ("name".to_string(), FieldValue::Str("a\"b\\c".to_string())),
        ];
        let line = render_record(fields.clone());
        assert_eq!(parse_record_fields(&line, "store", 2).unwrap(), fields);
    }

    #[test]
    fn header_record_and_cursor_bytes_are_pinned() {
        let path = tmp("pinned");
        let mut w = StoreWriter::create(&path, "f00d", 2, 1).unwrap();
        let line = render_record(vec![
            ("schema".to_string(), FieldValue::Str("dide-stats/v1".to_string())),
            ("seq".to_string(), FieldValue::Num(3)),
            ("name".to_string(), FieldValue::Str("a\"b\\c\u{1}".to_string())),
        ]);
        assert_eq!(line, r#"{"schema":"dide-stats/v1","seq":3,"name":"a\"b\\c\u0001"}"#);
        w.append(&line).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            concat!(
                r#"{"schema":"dide-campaign-store/v1","grid":"f00d","jobs":2}"#,
                "\n",
                r#"{"schema":"dide-stats/v1","seq":3,"name":"a\"b\\c\u0001"}"#,
                "\n",
            )
        );
        assert_eq!(
            fs::read_to_string(cursor_path(&path)).unwrap(),
            concat!(
                r#"{"schema":"dide-campaign-cursor/v1","grid":"f00d","records":1,"bytes":117}"#,
                "\n",
            )
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = |line: &str| parse_record_fields(line, "store", 2).unwrap_err();
        assert_eq!(err("not json"), "store line 2:1: expected a value, found `n`");
        assert_eq!(err("{\"a\":}"), "store line 2:6: expected a value, found `}`");
        assert_eq!(err("{\"a\":1.5}"), "store line 2: `a` is not a string or a u64");
        assert_eq!(err("{\"a\":1 \"b\":2}"), "store line 2:8: expected `,` or `}`, found `\"`");
        assert_eq!(err("[1]"), "store line 2: not a JSON object");
    }

    #[test]
    fn writer_then_reader_roundtrip() {
        let path = tmp("roundtrip");
        let mut w = StoreWriter::create(&path, "f00d", 2, 1).unwrap();
        w.append(&record(0, "expr")).unwrap();
        w.append(&record(1, "route")).unwrap();
        w.commit().unwrap();
        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.field(0, "benchmark").as_deref(), Some("expr"));
        assert_eq!(r.field(1, "seq").as_deref(), Some("1"));
    }

    #[test]
    fn torn_tail_is_dropped_but_mid_file_damage_errors() {
        let path = tmp("torn");
        let mut w = StoreWriter::create(&path, "f00d", 2, 10).unwrap();
        w.append(&record(0, "expr")).unwrap();
        w.commit().unwrap();
        let mut contents = fs::read_to_string(&path).unwrap();
        contents.push_str("{\"seq\":1,\"bench");
        let r = StoreReader::parse(&contents).unwrap();
        assert_eq!(r.records.len(), 1, "torn tail dropped");
        let damaged = contents.clone() + "\n" + &record(2, "sort") + "\n";
        let err = StoreReader::parse(&damaged).unwrap_err();
        assert_eq!(err, "store line 3:16: unescaped control character '\\n' in string");
    }

    #[test]
    fn resume_truncates_uncommitted_tail() {
        let path = tmp("resume");
        let mut w = StoreWriter::create(&path, "f00d", 3, 100).unwrap();
        w.append(&record(0, "expr")).unwrap();
        w.commit().unwrap();
        // Appended but never committed: durable store may contain it, the
        // cursor does not.
        w.append(&record(1, "route")).unwrap();
        drop(w);
        let mut w = StoreWriter::resume(&path, "f00d", 100).unwrap();
        assert_eq!(w.records(), 1);
        w.append(&record(1, "route")).unwrap();
        w.commit().unwrap();
        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.field(1, "benchmark").as_deref(), Some("route"));
    }

    #[test]
    fn resume_rejects_grid_mismatch() {
        let path = tmp("mismatch");
        let w = StoreWriter::create(&path, "f00d", 0, 1).unwrap();
        drop(w);
        let err = StoreWriter::resume(&path, "beef", 1).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
        fs::write(cursor_path(&path), "{\"grid\":\"f00d\",").unwrap();
        let err = StoreWriter::resume(&path, "f00d", 1).unwrap_err().to_string();
        assert!(
            err.ends_with(".cursor line 1:16: expected a string key, found end of input"),
            "{err}"
        );
    }
}
