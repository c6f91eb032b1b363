//! Samples, percentiles, process counters and the printed result.

use std::fmt::Write as _;
use std::time::Duration;

/// Latency (or any) samples; percentiles by nearest rank.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn push_duration_ms(&mut self, value: Duration) {
        self.0.push(value.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank `q`-quantile (0 < q ≤ 1); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Samples strictly above the `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0.len().saturating_sub(rank)
    }

    /// The `q`-quantile of each consecutive block of at least `block`
    /// samples (in the order they were taken), and the median over blocks:
    /// a tail that stays steady when one stretch of the run stalls. With
    /// fewer than `block` samples this is the plain quantile.
    pub fn block_quantile(&self, q: f64, block: usize) -> (f64, usize) {
        let blocks = (self.0.len() / block).max(1);
        let mut per_block = Samples::default();
        for i in 0..blocks {
            let range = i * self.0.len() / blocks..(i + 1) * self.0.len() / blocks;
            per_block.push(Samples(self.0[range].to_vec()).quantile(q));
        }
        (per_block.median(), blocks)
    }
}

/// Latencies split by whether the operation ran traced.
#[derive(Debug, Default)]
pub struct Split {
    pub plain: Samples,
    pub traced: Samples,
}

impl Split {
    pub fn push_ms(&mut self, traced: bool, latency: Duration) {
        let target = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        target.push_duration_ms(latency);
    }
}

/// Operations completed over a phase, for throughput measured per window.
#[derive(Debug, Default, Clone)]
pub struct Completions(Vec<(Duration, u64)>);

impl Completions {
    /// `count` operations completed `at` (since the phase began).
    pub fn push(&mut self, at: Duration, count: u64) {
        self.0.push((at, count));
    }

    pub fn total(&self) -> u64 {
        self.0.iter().map(|(_, n)| n).sum()
    }

    /// Operations per second in each whole `window` of a phase that lasted
    /// `length`; returns their median and the number of windows. A median
    /// over windows keeps a rare stall from moving the figure.
    pub fn median_rate(&self, length: Duration, window: Duration) -> (f64, usize) {
        let windows = ((length.as_secs_f64() / window.as_secs_f64()) as usize).max(1);
        let mut counts = vec![0u64; windows];
        for (at, n) in &self.0 {
            let slot = (at.as_secs_f64() / window.as_secs_f64()) as usize;
            if let Some(c) = counts.get_mut(slot) {
                *c += n;
            }
        }
        let mut rates = Samples::default();
        for c in counts {
            rates.push(c as f64 / window.as_secs_f64());
        }
        (rates.median(), windows)
    }

    /// Operations per second from the phase start to the last completion:
    /// for an open loop, whose windows all see the offered rate, this shows
    /// whether the daemon kept up.
    pub fn overall_rate(&self) -> f64 {
        let last = self.0.iter().map(|(at, _)| *at).max().unwrap_or_default();
        self.total() as f64 / last.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count behind the value (1 for a single measurement).
    pub samples: usize,
    /// How the value was taken from its samples, where that needs saying.
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form lines printed above the result (stage rows, checks).
    pub notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            detail: String::new(),
        });
    }

    /// Adds a percentile of `samples` (in their own unit). A tail
    /// percentile is taken per block of operations with at least ten
    /// beyond it, and the median over blocks reported.
    pub fn add_quantile(&mut self, name: &str, unit: &'static str, samples: &Samples, q: f64) {
        let block = (10.0 / (1.0 - q)).round() as usize;
        let (value, detail) = if q > 0.5 {
            let (value, blocks) = samples.block_quantile(q, block);
            let per_block = samples.len() / blocks;
            let beyond = Samples(vec![0.0; per_block]).beyond(q);
            let mut detail = format!(
                "median of {blocks} block p{} over ~{per_block} samples, {beyond} beyond each",
                q * 100.0
            );
            if beyond < 10 {
                detail.push_str("; WARNING: fewer than 10 samples beyond the percentile");
            }
            (value, detail)
        } else {
            let beyond = samples.beyond(q);
            (
                samples.quantile(q),
                format!("{beyond} beyond p{}", q * 100.0),
            )
        };
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples: samples.len(),
            detail,
        });
    }

    /// Human-readable table, then the one-line JSON result (last line of
    /// stdout). `keep` selects the metrics that go into the JSON.
    pub fn print(&self, keep: &[&str]) {
        for note in &self.notes {
            println!("{note}");
        }
        for metric in &self.metrics {
            let mut line = format!(
                "{:<28} {:>14.6} {:<6} n={}",
                metric.name, metric.value, metric.unit, metric.samples
            );
            if !metric.detail.is_empty() {
                let _ = write!(line, " ({})", metric.detail);
            }
            println!("{line}");
        }
        println!(
            "attempted={} failed={} fail_ratio={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        let mut json = String::from("{\"correct\": true, ");
        let _ = write!(
            json,
            "\"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        let mut first = true;
        for name in keep {
            let metric = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if !first {
                json.push_str(", ");
            }
            first = false;
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// User + system CPU time of this process (all threads).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let total = ticks(11) + ticks(12);
    // The kernel reports in USER_HZ, 100 on Linux.
    Duration::from_millis(total * 10)
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
