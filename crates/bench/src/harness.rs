//! A dependency-free benchmark harness (`std::time::Instant` based) for
//! the `harness = false` bench targets.
//!
//! Each target builds a [`Harness`], registers closures with
//! [`Harness::bench`], and calls [`Harness::finish`].  Per benchmark the
//! harness warms up, then times batches until it has both a minimum
//! sample count and a minimum total measurement time, and reports the
//! median/mean/min time per iteration (plus derived throughput when a
//! [`Throughput`] is given).  Arguments go through one [`ArgSpec`]:
//! the target declares its own flags, the harness takes `--quick`,
//! `--json <path>` and cargo's `--bench`, and the positionals left act
//! as substring filters, matching `cargo bench -- <filter>` usage.  A
//! flag nobody declared is an error, never a filter.  `--json <path>`
//! additionally writes the results as machine-readable JSON
//! (hand-rolled; the build container has no serde) for trend tracking
//! and the CI regression gate.

use extrap_time::{json_escape, outln, ArgSpec};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// What one iteration processes, for derived throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Logical elements (events, records) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

struct Record {
    name: String,
    median_ns: f64,
    mean_ns: f64,
    min_ns: f64,
    samples: usize,
    throughput: Option<Throughput>,
}

/// The benchmark runner for one bench target.
pub struct Harness {
    target: String,
    filters: Vec<String>,
    min_samples: usize,
    min_total: Duration,
    quick: bool,
    json_path: Option<String>,
    results: Vec<Record>,
}

impl Harness {
    /// A harness configured from the process arguments, plus what
    /// `flags` took from them: the target's own flags.  The harness then
    /// takes `--quick` (cuts the measurement budget), `--json <path>`
    /// (writes machine-readable results) and cargo's own `--bench`;
    /// the positionals left are substring filters.  An undeclared flag
    /// or a bad value prints the error and exits 1.
    pub fn from_args<T>(
        target: &str,
        flags: impl FnOnce(&mut ArgSpec) -> Result<T, String>,
    ) -> (Harness, T) {
        let spec = ArgSpec::new(
            format!("cargo bench --bench {target} --"),
            "",
            std::env::args().skip(1).collect(),
        );
        Harness::from_spec(target, spec, flags).unwrap_or_else(|e| {
            eprintln!("{target}: {e}");
            std::process::exit(1)
        })
    }

    fn from_spec<T>(
        target: &str,
        mut spec: ArgSpec,
        flags: impl FnOnce(&mut ArgSpec) -> Result<T, String>,
    ) -> Result<(Harness, T), String> {
        let own = flags(&mut spec)?;
        let quick = spec.switch("--quick");
        let json_path = spec.value("--json")?;
        spec.switch("--bench");
        let filters = spec.finish()?;
        outln!("## {target}");
        let harness = Harness {
            target: target.to_string(),
            filters,
            min_samples: if quick { 5 } else { 20 },
            min_total: if quick {
                Duration::from_millis(50)
            } else {
                Duration::from_millis(300)
            },
            quick,
            json_path,
            results: Vec::new(),
        };
        Ok((harness, own))
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f))
    }

    /// Times `f`, recording one result row under `name`.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        self.bench_throughput_opt(name, None, f);
    }

    /// Times `f` and additionally reports `per_iter` worth of derived
    /// throughput.
    pub fn bench_throughput<R>(&mut self, name: &str, per_iter: Throughput, f: impl FnMut() -> R) {
        self.bench_throughput_opt(name, Some(per_iter), f);
    }

    /// Records externally measured samples (nanoseconds per operation)
    /// under `name`.  For benchmarks whose driver must own the clock —
    /// e.g. a load generator collecting per-request latencies across
    /// hundreds of concurrent clients — where timing a closure from the
    /// outside would only ever see the aggregate.  Skipped (like
    /// [`bench`](Harness::bench)) when `name` fails the filters;
    /// ignored when `samples_ns` is empty.
    pub fn record_samples(
        &mut self,
        name: &str,
        samples_ns: &[f64],
        throughput: Option<Throughput>,
    ) {
        if !self.selected(name) || samples_ns.is_empty() {
            return;
        }
        let mut sorted = samples_ns.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        self.results.push(Record {
            name: name.to_string(),
            median_ns: sorted[sorted.len() / 2],
            mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min_ns: sorted[0],
            samples: sorted.len(),
            throughput,
        });
    }

    fn bench_throughput_opt<R>(
        &mut self,
        name: &str,
        throughput: Option<Throughput>,
        mut f: impl FnMut() -> R,
    ) {
        if !self.selected(name) {
            return;
        }
        // Warm-up, and pick a batch size aiming at ~1 ms per sample so
        // Instant overhead stays negligible for nanosecond-scale bodies.
        let warmup = Instant::now();
        std::hint::black_box(f());
        let once = warmup.elapsed();
        let batch = (Duration::from_millis(1).as_nanos() / once.as_nanos().max(1))
            .clamp(1, 1_000_000) as usize;

        let mut samples_ns: Vec<f64> = Vec::new();
        let started = Instant::now();
        while samples_ns.len() < self.min_samples || started.elapsed() < self.min_total {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            samples_ns.push(t.elapsed().as_nanos() as f64 / batch as f64);
            if samples_ns.len() >= 10_000 {
                break;
            }
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median_ns = samples_ns[samples_ns.len() / 2];
        let mean_ns = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        self.results.push(Record {
            name: name.to_string(),
            median_ns,
            mean_ns,
            min_ns: samples_ns[0],
            samples: samples_ns.len(),
            throughput,
        });
    }

    /// Prints the result table (and writes the JSON file when `--json`
    /// was given).  Call once, last.
    pub fn finish(self) {
        outln!(
            "{:44} {:>12} {:>12} {:>12} {:>8}  throughput",
            "benchmark",
            "median",
            "mean",
            "min",
            "samples"
        );
        for r in &self.results {
            let tp = match r.throughput {
                None => String::new(),
                Some(Throughput::Elements(n)) => {
                    format!("{:.1} Melem/s", n as f64 / r.median_ns * 1_000.0)
                }
                Some(Throughput::Bytes(n)) => {
                    format!("{:.1} MB/s", n as f64 / r.median_ns * 1_000.0)
                }
            };
            outln!(
                "{:44} {:>12} {:>12} {:>12} {:>8}  {}",
                r.name,
                fmt_ns(r.median_ns),
                fmt_ns(r.mean_ns),
                fmt_ns(r.min_ns),
                r.samples,
                tp
            );
        }
        outln!();
        if let Some(path) = &self.json_path {
            match std::fs::write(path, self.to_json()) {
                Ok(()) => outln!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    }

    /// The results as a JSON document: target, measurement mode, and one
    /// object per benchmark with median/mean/min ns, sample count, and
    /// derived throughput (elements or bytes per second) when declared.
    fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"target\": \"{}\",", json_escape(&self.target));
        let _ = writeln!(s, "  \"quick\": {},", self.quick);
        let _ = writeln!(s, "  \"benches\": [");
        for (i, r) in self.results.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"name\": \"{}\",", json_escape(&r.name));
            let _ = writeln!(s, "      \"median_ns\": {:.1},", r.median_ns);
            let _ = writeln!(s, "      \"mean_ns\": {:.1},", r.mean_ns);
            let _ = writeln!(s, "      \"min_ns\": {:.1},", r.min_ns);
            let _ = writeln!(s, "      \"samples\": {},", r.samples);
            match r.throughput {
                None => {
                    let _ = writeln!(s, "      \"throughput\": null");
                }
                Some(Throughput::Elements(n)) => {
                    let _ = writeln!(
                        s,
                        "      \"throughput\": {{ \"unit\": \"elements_per_s\", \"value\": {:.1} }}",
                        n as f64 / r.median_ns * 1e9
                    );
                }
                Some(Throughput::Bytes(n)) => {
                    let _ = writeln!(
                        s,
                        "      \"throughput\": {{ \"unit\": \"bytes_per_s\", \"value\": {:.1} }}",
                        n as f64 / r.median_ns * 1e9
                    );
                }
            }
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            let _ = writeln!(s, "    }}{comma}");
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_harness(filters: Vec<String>) -> Harness {
        Harness {
            target: "test".into(),
            filters,
            min_samples: 3,
            min_total: Duration::from_millis(1),
            quick: true,
            json_path: None,
            results: Vec::new(),
        }
    }

    /// The harness `line`'s arguments configure, after `flags` took
    /// the target's own.
    fn parse(
        line: &str,
        flags: impl FnOnce(&mut ArgSpec) -> Result<(), String>,
    ) -> Result<Harness, String> {
        let args = line.split(' ').map(String::from).collect();
        Harness::from_spec("test", ArgSpec::new("bench", "", args), flags).map(|(h, ())| h)
    }

    #[test]
    fn value_flags_are_not_filters() {
        let h = parse(
            "--bench --scale paper --benches mgrid,poisson --json x",
            |spec| {
                spec.value("--scale")?;
                spec.value("--benches")?;
                Ok(())
            },
        )
        .unwrap();
        assert!(h.filters.is_empty(), "{:?}", h.filters);
        assert!(!h.quick);
        assert_eq!(h.json_path.as_deref(), Some("x"));
        let h = parse("--quick --workers 4 repr_grid --clients 8", |spec| {
            spec.positive("--workers")?;
            spec.positive("--clients")?;
            Ok(())
        })
        .unwrap();
        assert_eq!(h.filters, ["repr_grid"]);
        assert!(h.quick);
        assert_eq!(h.json_path, None);
        // A flag the target did not declare is an error that names it,
        // never a filter — another target's value flag included.
        let Err(err) = parse("--quick --no-such-flag", |_| Ok(())) else {
            panic!("an undeclared flag must be rejected");
        };
        assert!(err.contains("unknown flag \"--no-such-flag\""), "{err}");
        let Err(err) = parse("--workers 4 repr_grid", |_| Ok(())) else {
            panic!("another target's flag must be rejected");
        };
        assert!(err.contains("unknown flag \"--workers\""), "{err}");
    }

    #[test]
    fn harness_times_and_reports() {
        let mut h = test_harness(vec![]);
        let mut count = 0u64;
        h.bench("spin", || {
            count += 1;
            std::hint::black_box(count)
        });
        assert_eq!(h.results.len(), 1);
        assert!(h.results[0].median_ns > 0.0);
        assert!(count > 0);
        h.finish();
    }

    #[test]
    fn filters_skip_unmatched_names() {
        let mut h = test_harness(vec!["match-me".into()]);
        h.min_samples = 1;
        h.min_total = Duration::ZERO;
        h.bench("something-else", || 1);
        assert!(h.results.is_empty());
        h.bench("does match-me indeed", || 1);
        assert_eq!(h.results.len(), 1);
    }

    #[test]
    fn json_output_has_one_object_per_bench() {
        let mut h = test_harness(vec![]);
        h.results.push(Record {
            name: "alpha".into(),
            median_ns: 1234.5,
            mean_ns: 1300.0,
            min_ns: 1200.0,
            samples: 17,
            throughput: Some(Throughput::Elements(1000)),
        });
        h.results.push(Record {
            name: "beta \"quoted\"".into(),
            median_ns: 5.0,
            mean_ns: 6.0,
            min_ns: 4.0,
            samples: 3,
            throughput: None,
        });
        let json = h.to_json();
        assert!(json.contains("\"target\": \"test\""));
        assert!(json.contains("\"name\": \"alpha\""));
        assert!(json.contains("\"median_ns\": 1234.5"));
        assert!(json.contains("\"unit\": \"elements_per_s\""));
        assert!(json.contains("\"beta \\\"quoted\\\"\""));
        assert!(json.contains("\"throughput\": null"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "braces balance"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_writes_to_the_requested_path() {
        let path = std::env::temp_dir().join("extrap_bench_harness_test.json");
        let mut h = test_harness(vec![]);
        h.json_path = Some(path.to_string_lossy().into_owned());
        h.min_samples = 1;
        h.min_total = Duration::ZERO;
        h.bench("one", || 1);
        h.finish();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"name\": \"one\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_samples_reports_order_statistics() {
        let mut h = test_harness(vec![]);
        h.record_samples("latency", &[30.0, 10.0, 20.0], None);
        assert_eq!(h.results.len(), 1);
        assert_eq!(h.results[0].median_ns, 20.0);
        assert_eq!(h.results[0].min_ns, 10.0);
        assert_eq!(h.results[0].mean_ns, 20.0);
        assert_eq!(h.results[0].samples, 3);
        // Empty sample sets and filtered names record nothing.
        h.record_samples("empty", &[], None);
        assert_eq!(h.results.len(), 1);
        let mut h = test_harness(vec!["other".into()]);
        h.record_samples("latency", &[1.0], None);
        assert!(h.results.is_empty());
    }

    #[test]
    fn formats_cover_the_ranges() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 us");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00 s");
    }
}
