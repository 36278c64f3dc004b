//! Small helpers the workloads share: a seeded generator, digests,
//! percentiles, process memory, and the benchmark's own span recorder.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// SplitMix64: the benchmark's input generator. It is deliberately not the
/// program's own RNG, so a change to the program cannot change the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a 64 over `bytes`, as 16 hex digits.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from procfs.
pub fn vm_hwm_mb(pid: &str) -> Result<f64, String> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    Ok(kb / 1024.0)
}

/// One recorded span: `id` is shared by every span of one request or
/// job, `parent` names the enclosing span (`0` for a root).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory for the whole run and written out when it ends.
/// One recorder per thread; recorders merge before reporting.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    next_seq: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            next_seq: 1,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its sequence number, which
    /// children pass as `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            seq,
            start_ns,
            end_ns,
        });
        seq
    }

    /// Reserves a sequence number for a parent whose end is not known yet;
    /// [`Spans::close`] records it.
    pub fn open(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    pub fn close(
        &mut self,
        seq: u64,
        name: &'static str,
        id: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            id,
            parent,
            seq,
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, id, parent, start, end);
        out
    }

    /// Appends another thread's spans, renumbering them past ours.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.next_seq;
        let mut top = 0;
        for mut s in other.spans {
            s.seq += offset;
            if s.parent != 0 {
                s.parent += offset;
            }
            top = top.max(s.seq);
            self.spans.push(s);
        }
        self.next_seq = self.next_seq.max(top + 1);
    }

    /// Self time per span name, in nanoseconds: each span's duration minus
    /// the part of it its children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let covered = child_ns.get(&s.seq).copied().unwrap_or(0);
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .sum()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Writes every span as one tab-separated line:
    /// `seq parent id name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(
            fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?,
        );
        let err = |e: std::io::Error| format!("writing {}: {e}", path.display());
        writeln!(out, "seq\tparent\tid\tname\tstart_ns\tend_ns").map_err(err)?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.seq, s.parent, s.id, s.name, s.start_ns, s.end_ns
            )
            .map_err(err)?;
        }
        out.flush().map_err(err)
    }
}

/// Metrics one workload measured, in report order.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            self.wrong(format!("metric {name} is not finite: {value}"));
        }
        self.metrics.push((name.to_owned(), value));
    }

    /// Records a failed correctness check; the run then reports
    /// `"correct": false`.
    pub fn wrong(&mut self, what: String) {
        if self.errors.len() < 20 {
            eprintln!("perfbench: check failed: {what}");
        }
        self.errors.push(what);
    }

    /// The last stdout line: counts plus raw metric values (the runner
    /// attaches units from BENCHMARK.json).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\":{v:?}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}
