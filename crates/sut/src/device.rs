//! Device performance models.

use mlperf_loadgen::time::Nanos;
use mlperf_stats::dist::LogNormal;
use mlperf_stats::Rng64;

/// Processor architecture classes of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Architecture {
    /// General-purpose CPU.
    Cpu,
    /// Programmable GPU.
    Gpu,
    /// Digital signal processor.
    Dsp,
    /// Field-programmable gate array.
    Fpga,
    /// Fixed-function inference accelerator.
    Asic,
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Architecture::Cpu => "CPU",
            Architecture::Gpu => "GPU",
            Architecture::Dsp => "DSP",
            Architecture::Fpga => "FPGA",
            Architecture::Asic => "ASIC",
        };
        f.write_str(s)
    }
}

/// Transient performance boost that decays to steady state — the
/// DVFS/thermal behaviour the 60-second minimum-duration rule is designed
/// to see through (Section III-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Initial throughput multiplier (> 1 means a cold-start boost).
    pub boost: f64,
    /// Exponential decay constant of the boost, in seconds.
    pub decay_secs: f64,
}

impl ThermalModel {
    /// Throughput multiplier at simulated time `now`.
    pub(crate) fn multiplier(&self, now: Nanos) -> f64 {
        1.0 + (self.boost - 1.0) * (-now.as_secs_f64() / self.decay_secs).exp()
    }
}

/// A simulated inference device.
///
/// Utilization saturates with the **work per dispatch** rather than the
/// sample count: a 433-GOPS SSD-ResNet-34 image fills a datacenter GPU at
/// batch 1, while a 1.1-GOPS MobileNet image needs dozens of batch-mates
/// to reach the same occupancy — exactly the dynamic behind the paper's
/// observation that "most inference systems require a minimum
/// (architecture-specific) batch size to fully utilize the underlying
/// computational resources" (Section III-C):
///
/// ```text
/// t = overhead + work / (peak_gops * util(work) * thermal(now)) * jitter
/// util(work) = work / (work + work_half)
/// ```
///
/// `work_half` is the dispatch size (GOPS) at which the device reaches half
/// of its peak: near zero for latency-oriented silicon (CPUs, DSPs, small
/// ASICs), tens of GOPS for throughput-oriented GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Device name (unique within the fleet).
    pub name: String,
    /// Architecture class.
    pub architecture: Architecture,
    /// Peak sustained throughput per execution unit, GOPS.
    pub(crate) peak_gops: f64,
    /// Work per dispatch (GOPS) at which utilization reaches one half.
    pub work_half_gops: f64,
    /// Largest batch one unit executes at once (memory limit).
    pub max_batch: usize,
    /// Number of independent execution units (accelerator cards, chips).
    pub units: usize,
    /// Fixed per-dispatch overhead (kernel launch, DMA, scheduling).
    pub(crate) overhead: Nanos,
    /// Log-normal sigma of multiplicative service-time jitter.
    pub(crate) jitter_sigma: f64,
    /// Optional cold-start boost / thermal throttle.
    pub(crate) thermal: Option<ThermalModel>,
}

impl DeviceSpec {
    /// Creates a spec with no jitter and no thermal model; builder-style
    /// `with_*` methods refine it.
    ///
    /// # Panics
    ///
    /// Panics if any magnitude is non-positive.
    pub fn new(
        name: &str,
        architecture: Architecture,
        peak_gops: f64,
        work_half_gops: f64,
        max_batch: usize,
        units: usize,
        overhead: Nanos,
    ) -> Self {
        assert!(peak_gops > 0.0, "peak throughput must be positive");
        assert!(work_half_gops >= 0.0, "work_half must be non-negative");
        assert!(max_batch > 0, "max_batch must be positive");
        assert!(units > 0, "units must be positive");
        Self {
            name: name.to_string(),
            architecture,
            peak_gops,
            work_half_gops,
            max_batch,
            units,
            overhead,
            jitter_sigma: 0.0,
            thermal: None,
        }
    }

    /// Adds service-time jitter.
    pub(crate) fn with_jitter(mut self, sigma: f64) -> Self {
        self.jitter_sigma = sigma;
        self
    }

    /// Adds a thermal boost model.
    pub fn with_thermal(mut self, thermal: ThermalModel) -> Self {
        self.thermal = Some(thermal);
        self
    }

    /// Returns a copy whose `work_half` is scaled for a workload's
    /// arithmetic intensity: small-kernel models (MobileNet) saturate a
    /// device with less total work per dispatch than giant-kernel models
    /// (SSD-ResNet-34). The scale is `sqrt(ops_per_input / 8.2)` — ResNet-50
    /// is the reference point — clamped to `[0.2, 8]`. A modeling choice,
    /// documented in DESIGN.md.
    pub fn tuned_for(&self, ops_per_input_gops: f64) -> DeviceSpec {
        let factor = (ops_per_input_gops / 8.2).sqrt().clamp(0.2, 8.0);
        let mut tuned = self.clone();
        tuned.work_half_gops *= factor;
        tuned
    }

    /// Utilization fraction in `(0, 1)` for a dispatch of `work_gops`.
    pub fn utilization(&self, work_gops: f64) -> f64 {
        let w = work_gops.max(1e-9);
        w / (w + self.work_half_gops)
    }

    /// Service time for one dispatch of `work_gops` operations (already
    /// padded if the workload pads), starting at `now`. `batch` only
    /// documents the dispatch; timing is work-driven.
    pub fn service_time(
        &self,
        work_gops: f64,
        _batch: usize,
        now: Nanos,
        rng: &mut Rng64,
    ) -> Nanos {
        let thermal = self.thermal.map_or(1.0, |t| t.multiplier(now));
        let throughput = self.peak_gops * self.utilization(work_gops) * thermal;
        let mut secs = work_gops / throughput;
        if self.jitter_sigma > 0.0 {
            let jitter = LogNormal::jitter(self.jitter_sigma)
                .expect("sigma validated non-negative")
                .sample(rng);
            secs *= jitter;
        }
        self.overhead + Nanos::from_secs_f64(secs)
    }

    /// Latency of a single sample costing `ops_gops`, at steady state and
    /// without jitter — the capability precheck used by round planning.
    pub fn batch1_latency(&self, ops_gops: f64) -> Nanos {
        let secs = ops_gops / (self.peak_gops * self.utilization(ops_gops));
        self.overhead + Nanos::from_secs_f64(secs)
    }

    /// Asymptotic samples/second at deep batches for a per-sample cost.
    pub fn peak_throughput(&self, ops_per_sample_gops: f64) -> f64 {
        let full_batch_work = ops_per_sample_gops * self.max_batch as f64;
        self.units as f64 * self.peak_gops * self.utilization(full_batch_work) / ops_per_sample_gops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> DeviceSpec {
        DeviceSpec::new(
            "test-gpu",
            Architecture::Gpu,
            1_000.0,
            20.0,
            64,
            1,
            Nanos::from_micros(100),
        )
    }

    #[test]
    fn utilization_monotone_in_work() {
        let d = gpu();
        let mut prev = 0.0;
        for w in [0.5, 1.0, 5.0, 20.0, 100.0, 1_000.0] {
            let u = d.utilization(w);
            assert!(u > prev, "utilization must grow with work");
            assert!(u < 1.0);
            prev = u;
        }
        assert!(
            (d.utilization(20.0) - 0.5).abs() < 1e-12,
            "half at work_half"
        );
    }

    #[test]
    fn zero_work_half_means_latency_optimized() {
        let d = DeviceSpec::new("asic", Architecture::Asic, 100.0, 0.0, 8, 1, Nanos::ZERO);
        assert!(d.utilization(0.1) > 0.999_999);
        assert!(d.utilization(100.0) > 0.999_999);
    }

    #[test]
    fn heavy_models_saturate_at_batch_one() {
        // One SSD-ResNet-34 image (433 GOPS) almost fills the GPU; one
        // MobileNet image (1.1 GOPS) barely wakes it up.
        let d = gpu();
        assert!(d.utilization(433.0) > 0.9);
        assert!(d.utilization(1.138) < 0.1);
    }

    #[test]
    fn service_time_scales_with_work() {
        let d = DeviceSpec::new(
            "lin",
            Architecture::Cpu,
            100.0,
            0.0,
            8,
            1,
            Nanos::from_micros(100),
        );
        let mut rng = Rng64::new(1);
        let t1 = d.service_time(10.0, 1, Nanos::ZERO, &mut rng);
        let t2 = d.service_time(20.0, 1, Nanos::ZERO, &mut rng);
        assert_eq!(t1, Nanos::from_millis(100) + Nanos::from_micros(100));
        assert_eq!(t2, Nanos::from_millis(200) + Nanos::from_micros(100));
    }

    #[test]
    fn batched_work_is_cheaper_per_sample() {
        // 32 MobileNet samples in one dispatch vs 32 separate dispatches.
        let d = gpu();
        let mut rng = Rng64::new(2);
        let per_sample = 1.138;
        let t_batch = d.service_time(per_sample * 32.0, 32, Nanos::ZERO, &mut rng);
        let t_single = d.service_time(per_sample, 1, Nanos::ZERO, &mut rng);
        assert!(
            t_batch.as_secs_f64() < 32.0 * t_single.as_secs_f64() / 4.0,
            "batching should be at least 4x more efficient: {t_batch} vs 32x{t_single}"
        );
    }

    #[test]
    fn jitter_perturbs_but_preserves_scale() {
        let d =
            DeviceSpec::new("j", Architecture::Cpu, 100.0, 0.0, 8, 1, Nanos::ZERO).with_jitter(0.1);
        let mut rng = Rng64::new(3);
        let times: Vec<Nanos> = (0..200)
            .map(|_| d.service_time(10.0, 1, Nanos::ZERO, &mut rng))
            .collect();
        let distinct: std::collections::HashSet<u64> = times.iter().map(|t| t.as_nanos()).collect();
        assert!(distinct.len() > 100, "jitter should vary service times");
        let mean = times.iter().map(|t| t.as_secs_f64()).sum::<f64>() / times.len() as f64;
        assert!((mean - 0.1).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn thermal_boost_decays() {
        let t = ThermalModel {
            boost: 1.5,
            decay_secs: 10.0,
        };
        assert!((t.multiplier(Nanos::ZERO) - 1.5).abs() < 1e-12);
        let mid = t.multiplier(Nanos::from_secs(10));
        assert!(mid > 1.1 && mid < 1.25);
        assert!((t.multiplier(Nanos::from_secs(120)) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn thermal_makes_early_queries_faster() {
        let d = gpu().with_thermal(ThermalModel {
            boost: 1.4,
            decay_secs: 5.0,
        });
        let mut rng = Rng64::new(4);
        let early = d.service_time(100.0, 1, Nanos::ZERO, &mut rng);
        let late = d.service_time(100.0, 1, Nanos::from_secs(60), &mut rng);
        assert!(early < late, "{early} vs {late}");
    }

    #[test]
    fn batch1_latency_matches_service_time_without_jitter() {
        let d = gpu();
        let mut rng = Rng64::new(5);
        assert_eq!(
            d.batch1_latency(8.2),
            d.service_time(8.2, 1, Nanos::ZERO, &mut rng)
        );
    }

    #[test]
    fn peak_throughput_counts_units_and_saturation() {
        let mut d = gpu();
        d.units = 4;
        // Deep batches of ResNet work: 64 * 8.2 = 525 GOPS per dispatch,
        // util ~0.963.
        let tp = d.peak_throughput(8.2);
        let expected = 4.0 * 1_000.0 * (525.0 / 545.0) / 8.2;
        assert!(
            (tp / expected - 1.0).abs() < 0.01,
            "tp={tp} expected={expected}"
        );
    }

    #[test]
    #[should_panic(expected = "peak throughput")]
    fn zero_peak_panics() {
        DeviceSpec::new("bad", Architecture::Cpu, 0.0, 1.0, 1, 1, Nanos::ZERO);
    }

    #[test]
    fn architecture_display() {
        assert_eq!(Architecture::Gpu.to_string(), "GPU");
    }
}
