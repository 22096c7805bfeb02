//! The deterministic metrics registry: named counters and power-of-two
//! histograms, rendered as stable text or JSON.
//!
//! # Determinism discipline
//!
//! A registry is a **passive value**, not a global: drivers build one
//! explicitly from per-run statistics that are themselves deterministic
//! (per-kernel [`OptStats`]-style counters, cache hit/miss totals,
//! per-rule match counts) and merge partial registries with
//! [`MetricsRegistry::merge`]. Because counters merge by addition and
//! histograms by per-bucket addition, merging is commutative and
//! associative — worker completion order cannot show in the result. The
//! registry deliberately has **no API that accepts a duration**: wall
//! clock belongs to the trace sink ([`crate::trace`]) alone. Rendering
//! iterates `BTreeMap`s, so two registries with equal contents render
//! byte-identically.
//!
//! [`OptStats`]: https://example.invalid/accsat
//!
//! # Histograms
//!
//! [`Histogram`] buckets by bit length: value `0` lands in bucket `0`,
//! and a value `v > 0` in bucket `⌊log2 v⌋ + 1` (so bucket `k` covers
//! `[2^(k-1), 2^k)`). Exact count and sum are kept alongside, which is
//! enough to read growth distributions (e-graph nodes per iteration,
//! explored nodes per kernel) without any floating-point arithmetic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A power-of-two bucket histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of samples observed.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// `buckets[0]` counts zero samples; `buckets[k]` (k ≥ 1) counts
    /// samples in `[2^(k-1), 2^k)`.
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { count: 0, sum: 0, buckets: [0; 65] }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let b = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
        self.buckets[b] += 1;
    }

    /// Add another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Render the non-empty buckets as `lo:count` pairs (`lo` is the
    /// bucket's inclusive lower bound), comma-separated, in order.
    pub fn render_buckets(&self) -> String {
        let mut out = String::new();
        for (k, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(',');
            }
            let lo: u64 = if k == 0 { 0 } else { 1u64 << (k - 1) };
            let _ = write!(out, "{lo}:{n}");
        }
        out
    }
}

/// Named counters + histograms with deterministic rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `v` to counter `name` (created at zero on first use).
    pub fn add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Record one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_string()).or_default().observe(v);
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name, if any sample was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// True when no counter or histogram was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Merge another registry into this one. Counter values add,
    /// histogram buckets add — commutative and associative, so the merge
    /// order of per-worker partial registries cannot show in the result.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Render as the deterministic line-oriented text report (the
    /// `--metrics` file format): a version header, then one sorted
    /// `counter` line per counter and one sorted `hist` line per
    /// histogram.
    pub fn to_text(&self) -> String {
        let mut out = String::from("accsat-metrics v1\n");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} {v}");
        }
        for (k, h) in &self.hists {
            let _ = writeln!(
                out,
                "hist {k} count={} sum={} buckets={}",
                h.count,
                h.sum,
                h.render_buckets()
            );
        }
        out
    }

    /// Render as a single-line JSON object (the serve protocol's
    /// `metrics` reply body). Same content and ordering as
    /// [`MetricsRegistry::to_text`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", crate::escape_json(k), v);
        }
        out.push_str("},\"hists\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":{{",
                crate::escape_json(k),
                h.count,
                h.sum
            );
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let lo: u64 = if b == 0 { 0 } else { 1u64 << (b - 1) };
                let _ = write!(out, "\"{lo}\":{n}");
            }
            out.push_str("}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let mut r = MetricsRegistry::new();
        r.add("b.two", 2);
        r.add("a.one", 1);
        r.add("b.two", 3);
        assert_eq!(r.counter("b.two"), 5);
        assert_eq!(r.counter("missing"), 0);
        let text = r.to_text();
        assert_eq!(text, "accsat-metrics v1\ncounter a.one 1\ncounter b.two 5\n");
        assert_eq!(r.to_json(), "{\"counters\":{\"a.one\":1,\"b.two\":5},\"hists\":{}}");
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 1049);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 2); // 4, 7
        assert_eq!(h.buckets[4], 1); // 8..16
        assert_eq!(h.buckets[11], 1); // 1024..2048
        assert_eq!(h.render_buckets(), "0:1,1:1,2:2,4:2,8:1,1024:1");
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = MetricsRegistry::new();
        a.add("x", 1);
        a.observe("h", 3);
        a.observe("h", 100);
        let mut b = MetricsRegistry::new();
        b.add("x", 2);
        b.add("y", 7);
        b.observe("h", 5);
        b.observe("g", 0);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_text(), ba.to_text());
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.counter("x"), 3);
        assert_eq!(ab.histogram("h").unwrap().count, 3);
    }

    #[test]
    fn u64_extremes_do_not_overflow() {
        let mut h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum, u64::MAX, "sum saturates");
        assert_eq!(h.buckets[64], 2);
        assert!(h.render_buckets().starts_with(&format!("{}:2", 1u64 << 63)));
    }
}
