//! Request-trace recording and deterministic replay.
//!
//! Any generated request stream can be captured ([`TraceRecorder`] /
//! [`TraceWriter`]) and replayed bit-identically ([`TraceReplay`]), so a
//! workload becomes a portable artifact: generate once, compare every
//! strategy against the *same* request sequence, or ship the file to
//! another machine.
//!
//! Two on-disk formats, chosen by file extension in [`Trace::save`] /
//! [`Trace::load`]:
//!
//! * **binary** (default, any extension but `.csv`): little-endian,
//!   `magic "PABW" · u16 version · u16 reserved · u32 n · u32 k ·
//!   u64 count` followed by `count` records of `u32 origin · u32 file` —
//!   compact and O(1) to size-check;
//! * **CSV** (`.csv`): header `origin,file,n=<n>,k=<k>` (the `n=`/`k=`
//!   parts carry the network shape and are required on load) plus one
//!   `origin,file` record per line — greppable and spreadsheet-friendly.

use paba_core::{CacheNetwork, Request, RequestSource};
use paba_topology::Topology;
use rand::Rng;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Binary trace magic bytes.
pub const TRACE_MAGIC: [u8; 4] = *b"PABW";
/// Current binary trace format version.
pub const TRACE_VERSION: u16 = 1;

/// An in-memory request trace with the network shape it was generated
/// against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Node count of the generating network (origins are `< n`).
    pub n: u32,
    /// Library size of the generating network (files are `< k`).
    pub k: u32,
    /// The recorded requests, in arrival order.
    pub records: Vec<Request>,
}

impl Trace {
    /// Empty trace for a network shape.
    pub fn new(n: u32, k: u32) -> Self {
        Self {
            n,
            k,
            records: Vec::new(),
        }
    }

    /// Validate every record against the declared shape.
    pub fn check(&self) -> Result<(), String> {
        for (i, r) in self.records.iter().enumerate() {
            if r.origin >= self.n {
                return Err(format!("record {i}: origin {} ≥ n={}", r.origin, self.n));
            }
            if r.file >= self.k {
                return Err(format!("record {i}: file {} ≥ k={}", r.file, self.k));
            }
        }
        Ok(())
    }

    /// Save to `path` (CSV when the extension is `.csv`, binary
    /// otherwise).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        let mut w = TraceWriter::create(path, self.n, self.k)?;
        for &r in &self.records {
            w.write(r)?;
        }
        w.finish()?;
        Ok(())
    }

    /// Load from `path`, auto-detecting the format from the binary magic.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let mut f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut magic = [0u8; 4];
        let is_binary = match f.read_exact(&mut magic) {
            Ok(()) => magic == TRACE_MAGIC,
            Err(_) => false,
        };
        drop(f);
        if is_binary {
            Self::load_binary(path)
        } else {
            Self::load_csv(path)
        }
    }

    fn load_binary(path: &Path) -> Result<Self, String> {
        let err = |e: String| format!("{}: {e}", path.display());
        let mut r = BufReader::new(File::open(path).map_err(|e| err(e.to_string()))?);
        let mut head = [0u8; 24];
        r.read_exact(&mut head)
            .map_err(|e| err(format!("short header: {e}")))?;
        if head[0..4] != TRACE_MAGIC {
            return Err(err("bad magic (not a paba trace)".into()));
        }
        let version = u16::from_le_bytes([head[4], head[5]]);
        if version != TRACE_VERSION {
            return Err(err(format!(
                "unsupported trace version {version} (expected {TRACE_VERSION})"
            )));
        }
        let n = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
        let k = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes"));
        let count = u64::from_le_bytes(head[16..24].try_into().expect("8 bytes"));
        let mut records = Vec::with_capacity(count.min(1 << 24) as usize);
        let mut rec = [0u8; 8];
        for i in 0..count {
            r.read_exact(&mut rec)
                .map_err(|e| err(format!("truncated at record {i}/{count}: {e}")))?;
            records.push(Request {
                origin: u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes")),
                file: u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes")),
            });
        }
        let t = Self { n, k, records };
        t.check().map_err(err)?;
        Ok(t)
    }

    fn load_csv(path: &Path) -> Result<Self, String> {
        let err = |e: String| format!("{}: {e}", path.display());
        let r = BufReader::new(File::open(path).map_err(|e| err(e.to_string()))?);
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| err("empty file".into()))?
            .map_err(|e| err(e.to_string()))?;
        // Header: "origin,file,n=<n>,k=<k>".
        let mut n = None;
        let mut k = None;
        for part in header.split(',') {
            if let Some(v) = part.strip_prefix("n=") {
                n = v.parse::<u32>().ok();
            } else if let Some(v) = part.strip_prefix("k=") {
                k = v.parse::<u32>().ok();
            }
        }
        let (n, k) = match (n, k) {
            (Some(n), Some(k)) => (n, k),
            _ => return Err(err(format!("bad CSV header '{header}'"))),
        };
        let mut records = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line.map_err(|e| err(e.to_string()))?;
            if line.trim().is_empty() {
                continue;
            }
            let (o, f) = line
                .split_once(',')
                .ok_or_else(|| err(format!("line {}: expected 'origin,file'", i + 2)))?;
            records.push(Request {
                origin: o
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("line {}: bad origin '{o}'", i + 2)))?,
                file: f
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("line {}: bad file '{f}'", i + 2)))?,
            });
        }
        let t = Self { n, k, records };
        t.check().map_err(err)?;
        Ok(t)
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Streaming trace writer (binary or CSV, chosen by the file extension).
///
/// Records stream straight to disk; [`TraceWriter::finish`] patches the
/// binary header's record count (CSV needs no patching).
pub struct TraceWriter {
    out: BufWriter<File>,
    csv: bool,
    count: u64,
    path: std::path::PathBuf,
}

impl TraceWriter {
    /// Create/truncate `path` for a trace over an `n`-node, `k`-file
    /// network.
    pub fn create(path: impl AsRef<Path>, n: u32, k: u32) -> Result<Self, String> {
        let path = path.as_ref();
        let csv = path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("csv"));
        let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        if csv {
            writeln!(out, "origin,file,n={n},k={k}").map_err(io)?;
        } else {
            out.write_all(&TRACE_MAGIC).map_err(io)?;
            out.write_all(&TRACE_VERSION.to_le_bytes()).map_err(io)?;
            out.write_all(&0u16.to_le_bytes()).map_err(io)?;
            out.write_all(&n.to_le_bytes()).map_err(io)?;
            out.write_all(&k.to_le_bytes()).map_err(io)?;
            out.write_all(&0u64.to_le_bytes()).map_err(io)?; // count, patched in finish()
        }
        Ok(Self {
            out,
            csv,
            count: 0,
            path: path.to_path_buf(),
        })
    }

    /// Append one record.
    pub fn write(&mut self, r: Request) -> Result<(), String> {
        let io = |e: std::io::Error| format!("{}: {e}", self.path.display());
        if self.csv {
            writeln!(self.out, "{},{}", r.origin, r.file).map_err(io)?;
        } else {
            self.out.write_all(&r.origin.to_le_bytes()).map_err(io)?;
            self.out.write_all(&r.file.to_le_bytes()).map_err(io)?;
        }
        self.count += 1;
        Ok(())
    }

    /// Flush, patch the binary record count, and return it.
    pub fn finish(mut self) -> Result<u64, String> {
        use std::io::Seek;
        let io = |e: std::io::Error| format!("{}: {e}", self.path.display());
        self.out.flush().map_err(io)?;
        if !self.csv {
            let mut f = self.out.into_inner().map_err(|e| io(e.into_error()))?;
            f.seek(std::io::SeekFrom::Start(16)).map_err(io)?;
            f.write_all(&self.count.to_le_bytes()).map_err(io)?;
            f.flush().map_err(io)?;
        }
        Ok(self.count)
    }
}

/// Wraps any [`RequestSource`] and records every emitted request.
#[derive(Clone, Debug)]
pub struct TraceRecorder<S> {
    inner: S,
    records: Vec<Request>,
}

impl<S> TraceRecorder<S> {
    /// Record everything `inner` emits.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            records: Vec::new(),
        }
    }

    /// The records captured so far.
    pub fn records(&self) -> &[Request] {
        &self.records
    }

    /// Consume the recorder into a [`Trace`] stamped with `net`'s shape.
    pub fn into_trace<T: Topology>(self, net: &CacheNetwork<T>) -> Trace {
        Trace {
            n: net.n(),
            k: net.k(),
            records: self.records,
        }
    }
}

impl<T: Topology, S: RequestSource<T>> RequestSource<T> for TraceRecorder<S> {
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, rng: &mut R) -> Request {
        let r = self.inner.next_request(net, rng);
        self.records.push(r);
        r
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }

    fn name(&self) -> &'static str {
        "trace-recorder"
    }
}

/// Replays a [`Trace`] as a [`RequestSource`] — deterministic by
/// construction and independent of the RNG.
///
/// The trace is held behind an [`Arc`], so cloning a replay (one fresh
/// cursor per Monte-Carlo run) shares the records instead of copying
/// them.
#[derive(Clone, Debug)]
pub struct TraceReplay {
    trace: Arc<Trace>,
    pos: usize,
    cycle: bool,
}

impl TraceReplay {
    /// Replay `trace` once; drawing past the end panics.
    pub fn new(trace: impl Into<Arc<Trace>>) -> Self {
        Self {
            trace: trace.into(),
            pos: 0,
            cycle: false,
        }
    }

    /// Replay `trace` forever, wrapping around at the end.
    pub fn cycling(trace: impl Into<Arc<Trace>>) -> Self {
        Self {
            trace: trace.into(),
            pos: 0,
            cycle: true,
        }
    }

    /// Load a trace file and replay it once.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        Ok(Self::new(Trace::load(path)?))
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Error unless the trace's shape matches `net`.
    pub fn check_compat<T: Topology>(&self, net: &CacheNetwork<T>) -> Result<(), String> {
        if self.trace.n != net.n() || self.trace.k != net.k() {
            return Err(format!(
                "trace shape (n={}, k={}) does not match network (n={}, k={})",
                self.trace.n,
                self.trace.k,
                net.n(),
                net.k()
            ));
        }
        Ok(())
    }
}

impl<T: Topology> RequestSource<T> for TraceReplay {
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, _rng: &mut R) -> Request {
        debug_assert!(self.trace.n == net.n() && self.trace.k == net.k());
        if self.pos >= self.trace.records.len() {
            assert!(
                self.cycle && !self.trace.records.is_empty(),
                "trace exhausted after {} records",
                self.trace.records.len()
            );
            self.pos = 0;
        }
        let r = self.trace.records[self.pos];
        self.pos += 1;
        r
    }

    fn size_hint(&self) -> Option<u64> {
        if self.cycle {
            None
        } else {
            Some((self.trace.records.len() - self.pos) as u64)
        }
    }

    fn name(&self) -> &'static str {
        "trace-replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_core::IidUniform;
    use paba_popularity::Popularity;
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> CacheNetwork<Torus> {
        let mut rng = SmallRng::seed_from_u64(seed);
        CacheNetwork::builder()
            .torus_side(6)
            .library(40, Popularity::zipf(0.8))
            .cache_size(2)
            .build(&mut rng)
    }

    fn sample_trace(net: &CacheNetwork<Torus>, count: usize, seed: u64) -> Trace {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rec = TraceRecorder::new(IidUniform::new());
        for _ in 0..count {
            rec.next_request(net, &mut rng);
        }
        rec.into_trace(net)
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let net = net(1);
        let trace = sample_trace(&net, 500, 2);
        let dir = std::env::temp_dir().join("paba_workload_test_bin");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        trace.save(&path).unwrap();
        let loaded = Trace::load(&path).unwrap();
        assert_eq!(trace, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_round_trip_is_exact() {
        let net = net(3);
        let trace = sample_trace(&net, 200, 4);
        let dir = std::env::temp_dir().join("paba_workload_test_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        trace.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("origin,file,n=36,k=40"));
        let loaded = Trace::load(&path).unwrap();
        assert_eq!(trace, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_reproduces_the_recorded_stream() {
        let net = net(5);
        let trace = sample_trace(&net, 300, 6);
        let mut replay = TraceReplay::new(trace.clone());
        replay.check_compat(&net).unwrap();
        let mut rng = SmallRng::seed_from_u64(999); // irrelevant to replay
        for (i, &expect) in trace.records.iter().enumerate() {
            assert_eq!(
                RequestSource::<Torus>::size_hint(&replay),
                Some((trace.records.len() - i) as u64)
            );
            assert_eq!(replay.next_request(&net, &mut rng), expect);
        }
        assert_eq!(RequestSource::<Torus>::size_hint(&replay), Some(0));
    }

    #[test]
    #[should_panic(expected = "trace exhausted")]
    fn non_cycling_replay_panics_past_the_end() {
        let net = net(5);
        let trace = sample_trace(&net, 3, 6);
        let mut replay = TraceReplay::new(trace);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..4 {
            replay.next_request(&net, &mut rng);
        }
    }

    #[test]
    fn cycling_replay_wraps() {
        let net = net(5);
        let trace = sample_trace(&net, 3, 6);
        let first = trace.records[0];
        let mut replay = TraceReplay::cycling(trace);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..3 {
            replay.next_request(&net, &mut rng);
        }
        assert_eq!(replay.next_request(&net, &mut rng), first);
        assert_eq!(RequestSource::<Torus>::size_hint(&replay), None);
    }

    #[test]
    fn shape_mismatch_detected() {
        let net = net(5);
        let other = {
            let mut rng = SmallRng::seed_from_u64(9);
            CacheNetwork::builder()
                .torus_side(4)
                .library(40, Popularity::Uniform)
                .cache_size(2)
                .build(&mut rng)
        };
        let trace = sample_trace(&net, 10, 6);
        let replay = TraceReplay::new(trace);
        assert!(replay.check_compat(&net).is_ok());
        assert!(replay.check_compat(&other).is_err());
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("paba_workload_test_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.trace");
        std::fs::write(&path, b"PABWxxxx-too-short").unwrap();
        assert!(Trace::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
