//! Multi-seed experiment execution helpers.

use netstack::SimConfig;
use sim_core::SimDuration;

/// Shared settings for a batch of experiment runs.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Virtual duration of each run.
    pub duration: SimDuration,
    /// Base simulator configuration (the seed field is overridden per run).
    pub base: SimConfig,
    /// Worker threads for batch execution: 1 = serial (the default),
    /// 0 = one per available core, read from the host once per process.
    /// Results are identical at any setting — every run owns a fresh
    /// simulator and outputs are collected in submission order.
    pub jobs: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seeds: vec![11, 23, 37, 53, 71],
            duration: SimDuration::from_secs(30),
            base: SimConfig::default(),
            jobs: 1,
        }
    }
}

impl ExperimentConfig {
    /// A configuration for quick smoke runs (fewer seeds, shorter runs).
    pub fn quick() -> Self {
        ExperimentConfig {
            seeds: vec![11, 23],
            duration: SimDuration::from_secs(10),
            base: SimConfig::default(),
            jobs: 1,
        }
    }

    /// Returns the configuration with `jobs` worker threads (0 = auto).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Per-run simulator configs, one per seed.
    pub fn sim_configs(&self) -> impl Iterator<Item = SimConfig> + '_ {
        self.seeds.iter().map(|&seed| SimConfig { seed, ..self.base })
    }
}

/// Mean and population standard deviation of a sample set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Mean {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Number of samples.
    pub n: usize,
}

impl Mean {
    /// Formats as `mean ± std`, or `"n/a"` when no samples were observed —
    /// a zeroed mean would masquerade as a measured 0.0 in tables.
    pub fn pm(&self) -> String {
        if self.n == 0 {
            return "n/a".to_string();
        }
        format!("{:.1} ±{:.1}", self.mean, self.std_dev)
    }
}

/// Computes mean and standard deviation of the *finite* entries of
/// `samples`. Non-finite entries (NaN/∞ placeholders for runs that
/// produced no measurement) are excluded rather than poisoning the result.
///
/// Returns a zeroed [`Mean`] (with `n == 0`, rendering as `"n/a"`) when no
/// finite sample remains.
pub fn average(samples: &[f64]) -> Mean {
    let finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    let n = finite.len();
    if n == 0 {
        return Mean::default();
    }
    let mean = finite.iter().sum::<f64>() / n as f64;
    let var = finite.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    Mean { mean, std_dev: var.sqrt(), n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_basics() {
        let m = average(&[1.0, 2.0, 3.0]);
        assert_eq!(m.mean, 2.0);
        assert!((m.std_dev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(m.n, 3);
        assert_eq!(average(&[]).n, 0);
    }

    #[test]
    fn configs_per_seed() {
        let cfg = ExperimentConfig::quick();
        let sims: Vec<_> = cfg.sim_configs().collect();
        assert_eq!(sims.len(), 2);
        assert_ne!(sims[0].seed, sims[1].seed);
    }

    #[test]
    fn pm_format() {
        let m = average(&[10.0, 10.0]);
        assert_eq!(m.pm(), "10.0 ±0.0");
    }

    #[test]
    fn empty_mean_renders_not_available() {
        // Regression: an empty sample set used to format as "0.0 ±0.0",
        // indistinguishable from a genuinely measured zero.
        assert_eq!(average(&[]).pm(), "n/a");
        assert_eq!(Mean::default().pm(), "n/a");
    }

    #[test]
    fn average_skips_non_finite_placeholders() {
        let m = average(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(m.n, 2, "only finite samples count");
        assert_eq!(m.mean, 2.0);
        let all_bad = average(&[f64::NAN, f64::NEG_INFINITY]);
        assert_eq!(all_bad.n, 0);
        assert_eq!(all_bad.pm(), "n/a");
    }

    #[test]
    fn with_jobs_builder() {
        let cfg = ExperimentConfig::quick().with_jobs(4);
        assert_eq!(cfg.jobs, 4);
        assert_eq!(ExperimentConfig::default().jobs, 1, "serial by default");
    }
}

/// Welch's t-statistic for the one-sided hypothesis "mean(a) > mean(b)".
///
/// Returns `None` if either sample is too small (< 2), contains a
/// non-finite entry (the placeholder for a run that produced no
/// measurement — silently skipping it would overstate the confidence), or
/// both variances are zero.
///
/// # Example
///
/// ```
/// use harness::welch_t;
/// let t = welch_t(&[10.0, 11.0, 12.0], &[1.0, 2.0, 3.0]).unwrap();
/// assert!(t > 5.0);
/// ```
pub fn welch_t(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    if a.iter().chain(b).any(|x| !x.is_finite()) {
        return None;
    }
    let ma = average(a);
    let mb = average(b);
    // Convert population std-dev to sample variance (n-1 denominator).
    let var = |m: &Mean| m.std_dev * m.std_dev * m.n as f64 / (m.n as f64 - 1.0);
    let se2 = var(&ma) / ma.n as f64 + var(&mb) / mb.n as f64;
    if se2 == 0.0 {
        return None;
    }
    Some((ma.mean - mb.mean) / se2.sqrt())
}

/// Whether `mean(a) > mean(b)` with rough one-sided 95 % confidence
/// (Welch's t against the conservative small-sample critical value 2.0).
///
/// This is deliberately coarse — it guards headline claims like "Muzha
/// beats NewReno" against being seed noise, not a full statistics package.
pub fn significantly_greater(a: &[f64], b: &[f64]) -> bool {
    welch_t(a, b).is_some_and(|t| t > 2.0)
}

#[cfg(test)]
mod welch_tests {
    use super::*;

    #[test]
    fn separated_samples_are_significant() {
        let a = [100.0, 102.0, 98.0, 101.0, 99.0];
        let b = [80.0, 82.0, 78.0, 81.0, 79.0];
        assert!(significantly_greater(&a, &b));
        assert!(!significantly_greater(&b, &a));
    }

    #[test]
    fn overlapping_samples_are_not() {
        let a = [100.0, 90.0, 110.0, 95.0, 105.0];
        let b = [99.0, 92.0, 108.0, 96.0, 103.0];
        assert!(!significantly_greater(&a, &b));
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert!(welch_t(&[1.0], &[2.0, 3.0]).is_none());
        assert!(welch_t(&[1.0, 1.0], &[1.0, 1.0]).is_none());
    }

    #[test]
    fn non_finite_placeholders_are_rejected() {
        // Regression: NaN placeholders for empty runs used to flow into the
        // t-statistic, making every comparison NaN (never "significant",
        // but also never an error — a silent loss of power).
        assert!(welch_t(&[1.0, 2.0, f64::NAN], &[0.0, 0.5]).is_none());
        assert!(welch_t(&[1.0, 2.0], &[0.0, f64::INFINITY]).is_none());
        assert!(!significantly_greater(&[f64::NAN, f64::NAN], &[0.0, 0.1]));
    }
}
