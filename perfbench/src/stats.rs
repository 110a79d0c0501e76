//! Order statistics, the tail-percentile rule, open-loop latency
//! bookkeeping and the benchmark's seeded random stream.

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile of a sample that still has at
/// least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in percent (rank ÷ count × 100).
    pub percentile: f64,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The tail of `values`: the sample at rank `n − 10` (1-based, ascending),
/// which is the highest percentile with ten samples above it.  With ten or
/// fewer samples no percentile qualifies and the maximum is returned with
/// `beyond == 0`, so callers can see the rule was not met.
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    let value = sorted[rank - 1];
    Tail {
        value,
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: sorted.iter().filter(|&&v| v > value).count(),
        samples: n,
    }
}

/// Open-loop due times: request `i` is due `i / rate` seconds after the
/// start of the pass.
pub fn due_offsets(rate_per_s: f64, count: usize) -> Vec<f64> {
    (0..count).map(|i| i as f64 / rate_per_s).collect()
}

/// Per-request latency measured from when each request was *due*, and how
/// late the generator actually sent it.  All arguments are seconds from the
/// same origin.  Measuring from the due time keeps a stall visible: every
/// request queued behind it is charged the wait, where timing from the send
/// would hide it.
pub fn latency_from_due(due: &[f64], sent: &[f64], done: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let latency = due.iter().zip(done).map(|(d, f)| f - d).collect();
    let late = due
        .iter()
        .zip(sent)
        .map(|(d, s)| (s - d).max(0.0))
        .collect();
    (latency, late)
}

/// SplitMix64: a tiny, fully specified generator so inputs depend on the
/// seed alone, not on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// A fair coin.
    pub fn bit(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }
}

/// A 64-bit FNV-1a digest of a word sequence: the same words always give
/// the same digest, in any build.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The seed of circuit `index` of `family` in circuit pool `pool`.
pub fn pool_seed(pool: u64, family: u64, index: usize) -> u64 {
    Rng::new(pool, family << 32 | index as u64).next_u64()
}

/// Zipf(`exponent`) sampling over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `k` gets weight `1 / (k + 1)^exponent`.
    pub fn new(n: usize, exponent: f64) -> Self {
        let weights: Vec<f64> = (0..n)
            .map(|k| 1.0 / ((k + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Draws a rank.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);

        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&thousand);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);

        // Eleven samples: only the minimum has ten beyond it.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven);
        assert_eq!(t.value, 0.0);
        assert_eq!(t.beyond, 10);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_reports_when_the_sample_is_too_small() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.beyond, 0);
        assert_eq!(t.percentile, 100.0);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn ties_at_the_tail_rank_count_only_strictly_greater_samples() {
        let mut values = vec![5.0; 20];
        values.extend((0..9).map(|i| 10.0 + f64::from(i)));
        let t = tail(&values);
        assert_eq!(t.value, 5.0);
        assert_eq!(
            t.beyond, 9,
            "the rule is stated, not hidden, when ties eat into it"
        );
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_every_request_behind_it() {
        // Ten requests due every 10 ms; the server takes 1 ms each but
        // stalls for 50 ms on request 2, so requests 3..=7 are answered late
        // even though each is served in 1 ms once it reaches the server.
        let due = due_offsets(100.0, 10);
        assert!((due[9] - 0.09).abs() < 1e-12);
        let sent = due.clone();
        let mut done = Vec::new();
        let mut free_at: f64 = 0.0;
        for (i, &s) in sent.iter().enumerate() {
            let service = if i == 2 { 0.050 } else { 0.001 };
            free_at = free_at.max(s) + service;
            done.push(free_at);
        }
        let (latency, late) = latency_from_due(&due, &sent, &done);
        assert!(late.iter().all(|&l| l == 0.0));
        assert!((latency[0] - 0.001).abs() < 1e-9);
        assert!((latency[2] - 0.050).abs() < 1e-9);
        // Request 3 was due at 30 ms but the server was busy until 70 ms.
        assert!((latency[3] - 0.041).abs() < 1e-9);
        assert!(latency[3] > latency[4] && latency[4] > latency[5]);
        assert!((latency[7] - 0.005).abs() < 1e-9);
        assert!((latency[8] - 0.001).abs() < 1e-9, "the queue has drained");

        // A generator that itself stalls sends late; the due-time latency
        // still charges that wait, and the lateness is reported.
        let sent_late: Vec<f64> = due.iter().map(|d| d + 0.005).collect();
        let done_late: Vec<f64> = sent_late.iter().map(|s| s + 0.001).collect();
        let (latency, late) = latency_from_due(&due, &sent_late, &done_late);
        assert!(latency.iter().all(|l| (l - 0.006).abs() < 1e-9));
        assert!(late.iter().all(|l| (l - 0.005).abs() < 1e-9));
    }

    #[test]
    fn rng_and_zipf_are_seeded_and_skewed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(7, 1);
        let mut y = Rng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        let zipf = Zipf::new(50, 1.1);
        let mut rng = Rng::new(3, 0);
        let mut counts = [0usize; 50];
        for _ in 0..20_000 {
            counts[zipf.draw(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[49]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
