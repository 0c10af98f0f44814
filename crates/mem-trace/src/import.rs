//! Importer for Valgrind/lackey-style text traces.
//!
//! `valgrind --tool=lackey --trace-mem=yes` (and several Pin tools that
//! mimic it) emit one event per line:
//!
//! ```text
//! I  0400d7d4,8      instruction fetch at pc
//!  L 0421c7f0,4      data load
//!  S 0421c7f0,4      data store
//!  M 0421c7f0,4      modify (load + store)
//! ```
//!
//! [`LackeyParser`] folds that into [`TraceRecord`]s: each data line
//! becomes one record (an `M` becomes a load followed by a store at the
//! same address), `pc` is the most recent instruction fetch address, and
//! `gap` is the number of instruction lines since the previous record not
//! counting the one carrying the reference — exactly the "non-memory
//! instructions between references" the simulator charges at the
//! workload's CPI. Blank lines, `#` comments, and `==…` Valgrind banners
//! are skipped. The parser reuses one line buffer, so importing is
//! allocation-free per record; [`import_lackey`] streams the result
//! straight into a v2 file through a [`codec::ChunkWriter`].

use crate::codec::{self, WriteSummary};
use crate::record::{MemOp, TraceRecord};
use std::fs::File;
use std::io::{self, BufRead, BufWriter};
use std::path::Path;

/// Why an import failed.
#[derive(Debug)]
pub enum ImportError {
    /// Reading the text or writing the output failed.
    Io(io::Error),
    /// A line did not parse; `line` is 1-based.
    Parse {
        /// 1-based line number of the offending line.
        line: u64,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Io(e) => write!(f, "trace import I/O failed: {e}"),
            ImportError::Parse { line, reason } => {
                write!(f, "trace import failed at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Io(e) => Some(e),
            ImportError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for ImportError {
    fn from(e: io::Error) -> Self {
        ImportError::Io(e)
    }
}

/// Streaming parser: an iterator of `Result<TraceRecord, ImportError>`
/// over lackey-style text. See the module docs for the line grammar.
#[derive(Debug)]
pub struct LackeyParser<R: BufRead> {
    reader: R,
    line: String,
    lineno: u64,
    last_pc: u64,
    /// Instruction lines seen since the last emitted record.
    pending_gap: u64,
    /// Second half of an `M` line, emitted on the next pull.
    queued: Option<TraceRecord>,
    failed: bool,
}

impl<R: BufRead> LackeyParser<R> {
    /// Wraps a line-oriented reader.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            line: String::new(),
            lineno: 0,
            last_pc: 0,
            pending_gap: 0,
            queued: None,
            failed: false,
        }
    }

    fn parse_err(&mut self, reason: &'static str) -> ImportError {
        self.failed = true;
        ImportError::Parse {
            line: self.lineno,
            reason,
        }
    }
}

/// Parses the `addr[,size]` operand of an event line (hex, with or
/// without a `0x` prefix; anything after `,` or whitespace is ignored).
fn parse_addr(operand: &str) -> Option<u64> {
    let addr = operand
        .split([',', ' ', '\t'])
        .next()
        .filter(|s| !s.is_empty())?;
    let addr = addr.strip_prefix("0x").unwrap_or(addr);
    u64::from_str_radix(addr, 16).ok()
}

impl<R: BufRead> Iterator for LackeyParser<R> {
    type Item = Result<TraceRecord, ImportError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if let Some(r) = self.queued.take() {
            return Some(Ok(r));
        }
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e.into()));
                }
            }
            self.lineno += 1;
            let t = self.line.trim();
            if t.is_empty() || t.starts_with('#') || t.starts_with("==") {
                continue;
            }
            let mut chars = t.chars();
            let tag = chars.next();
            let rest = chars.as_str().trim_start();
            let op = match tag {
                Some('I') => {
                    match parse_addr(rest) {
                        Some(pc) => {
                            self.last_pc = pc;
                            self.pending_gap += 1;
                        }
                        None => return Some(Err(self.parse_err("bad instruction address"))),
                    }
                    continue;
                }
                Some('L') => MemOp::Load,
                Some('S') => MemOp::Store,
                Some('M') => MemOp::Load, // store half queued below
                _ => return Some(Err(self.parse_err("unrecognized event tag"))),
            };
            let Some(addr) = parse_addr(rest) else {
                return Some(Err(self.parse_err("bad data address")));
            };
            // The instruction carrying this reference is not a "gap"
            // (non-memory) instruction; everything before it is.
            let gap = self.pending_gap.saturating_sub(1).min(u64::from(u32::MAX)) as u32;
            self.pending_gap = 0;
            let record = TraceRecord::new(self.last_pc, addr, op, gap);
            if tag == Some('M') {
                self.queued = Some(TraceRecord::new(self.last_pc, addr, MemOp::Store, 0));
            }
            return Some(Ok(record));
        }
    }
}

/// Streams lackey-style text from `input` into a v2 trace file at
/// `output`. Memory use is one chunk plus one line, independent of trace
/// length.
pub fn import_lackey(
    input: impl BufRead,
    output: impl AsRef<Path>,
    chunk_target: u32,
) -> Result<WriteSummary, ImportError> {
    let sink = BufWriter::new(File::create(output.as_ref())?);
    let mut writer = codec::ChunkWriter::with_chunk_target(sink, chunk_target)?;
    for record in LackeyParser::new(input) {
        writer.push(record?)?;
    }
    let (sink, summary) = writer.finish()?;
    sink.into_inner().map_err(io::IntoInnerError::into_error)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
==1234== Lackey, an example tool
# synthetic sample
I  0400d7d4,8
I  0400d7d8,4
 L 0421c7f0,4
I  0400d7dc,4
 S 0421c7f4,8
I  0400d7e0,4
I  0400d7e4,4
I  0400d7e8,4
 M 0421c7f8,4

I  0400d7ec,4
";

    fn parse_all(text: &str) -> Vec<TraceRecord> {
        LackeyParser::new(text.as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
    }

    #[test]
    fn parses_loads_stores_and_modifies() {
        let records = parse_all(SAMPLE);
        assert_eq!(records.len(), 4); // L, S, M -> load + store
        assert_eq!(
            records[0],
            TraceRecord::new(0x0400d7d8, 0x0421c7f0, MemOp::Load, 1)
        );
        assert_eq!(
            records[1],
            TraceRecord::new(0x0400d7dc, 0x0421c7f4, MemOp::Store, 0)
        );
        assert_eq!(
            records[2],
            TraceRecord::new(0x0400d7e8, 0x0421c7f8, MemOp::Load, 2)
        );
        assert_eq!(
            records[3],
            TraceRecord::new(0x0400d7e8, 0x0421c7f8, MemOp::Store, 0)
        );
    }

    #[test]
    fn accepts_0x_prefixes_and_sizeless_operands() {
        let records = parse_all("I 0x400,4\n L 0xff00\n");
        assert_eq!(
            records,
            vec![TraceRecord::new(0x400, 0xff00, MemOp::Load, 0)]
        );
    }

    #[test]
    fn reports_line_numbers_on_bad_input() {
        let mut p = LackeyParser::new("I 400,4\n L zzz,4\n".as_bytes());
        let err = p.next().unwrap().unwrap_err();
        match err {
            ImportError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
        // A failed parser stops rather than resyncing mid-garbage.
        assert!(p.next().is_none());
    }

    #[test]
    fn rejects_unknown_tags() {
        let err = LackeyParser::new("X 123,4\n".as_bytes())
            .next()
            .unwrap()
            .unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn imports_to_v2_file() {
        let dir = std::env::temp_dir().join(format!("redhip-import-{}.trace", std::process::id()));
        let summary = import_lackey(SAMPLE.as_bytes(), &dir, 2).unwrap();
        assert_eq!(summary.records, 4);
        assert_eq!(summary.chunks, 2);
        let back: Vec<_> = crate::stream::StreamTrace::open(&dir).unwrap().collect();
        assert_eq!(back, parse_all(SAMPLE));
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn non_ascii_event_tag_is_an_error() {
        let err = LackeyParser::new("é 400,4\n".as_bytes())
            .next()
            .unwrap()
            .unwrap_err();
        assert!(err.to_string().contains("unrecognized event tag"), "{err}");
    }

    #[test]
    fn error_chain_preserves_io_cause() {
        use std::error::Error;
        let e = ImportError::from(io::Error::other("disk gone"));
        assert!(e.source().is_some());
        let p = ImportError::Parse {
            line: 7,
            reason: "x",
        };
        assert!(p.source().is_none());
    }
}
