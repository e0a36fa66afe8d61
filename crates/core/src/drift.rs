//! Task-free drift detection over nearest-centroid distances (DESIGN.md §15).
//!
//! The paper's protocol assumes task boundaries are given; the online
//! trainer daemon (`cdcl-traind`) has to infer them. Each committed window
//! of unlabeled target samples is reduced to one scalar — the distance of
//! the window to the nearest archived per-task Eq.-17 centroid set
//! ([`crate::CdclTrainer::drift_score`]) — and fed to this detector, which
//! is a plain CUSUM chart over an EWMA baseline with a hysteresis dead
//! band:
//!
//! * **Calibration.** The first [`DriftConfig::calibration`] scores set the
//!   baseline to their running mean. No detection can fire while
//!   calibrating.
//! * **CUSUM.** Afterwards each score updates
//!   `S ← max(0, S + dev − k)` with slack `k` ([`DriftConfig::cusum_k`]),
//!   where `dev = |score − baseline|` by default
//!   ([`DriftConfig::two_sided`]) or the signed `score − baseline` in
//!   one-sided mode. Two-sided is the task-free default because a domain
//!   shift can move the nearest-centroid distance in *either* direction —
//!   off-distribution inputs can collapse the feature map and land
//!   spuriously close to the archived centroids, so a drop in distance is
//!   as suspicious as a rise. While `S == 0` the window is *clean* and
//!   the baseline EWMA-tracks slow within-task variation
//!   (`baseline ← baseline + α·(score − baseline)`); the moment `S` leaves
//!   zero the baseline freezes, so a genuine shift cannot drag the
//!   reference along with it.
//! * **Sustain + hysteresis.** A window with `S ≥ h`
//!   ([`DriftConfig::cusum_h`]) extends the over-threshold streak; the
//!   streak only resets when `S` falls back below `rearm_ratio · h`
//!   — in the dead band between the two levels it *holds*, so an `S`
//!   oscillating around `h` cannot flap the decision. After
//!   [`DriftConfig::sustain`] streak windows the detector latches
//!   [`DriftDecision::Detected`] and stays latched until [`DriftDetector::reset`].
//! * **Boundary attribution.** The reported boundary is the window index at
//!   which `S` last left zero — under a pure shift this is exactly the
//!   first post-change window, so the daemon can claim every staged window
//!   from the boundary onward as data of the new task.
//!
//! Everything is plain `f64` arithmetic over the observed scores: no
//! clocks, no randomness, no allocation — the same score sequence always
//! yields the same decisions (the determinism contract of DESIGN.md §9
//! extends to boundary inference).

use std::fmt;

/// Tuning knobs for [`DriftDetector`]. Defaults are conservative enough for
/// the synthetic `domain_gap` streams in the test suite; `cdcl-traind` runs
/// with them, and tests build explicit configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Windows used to establish the initial baseline (running mean).
    pub calibration: usize,
    /// EWMA step for baseline tracking on clean (`S == 0`) windows.
    pub ewma_alpha: f64,
    /// CUSUM slack: per-window excess below `k` never accumulates.
    pub cusum_k: f64,
    /// CUSUM decision threshold: `S ≥ h` extends the detection streak.
    pub cusum_h: f64,
    /// Accumulate `|score − baseline|` (any distribution change) instead
    /// of the signed `score − baseline` (upward shifts only).
    pub two_sided: bool,
    /// Hysteresis: the streak re-arms (resets) only once `S` falls below
    /// `rearm_ratio * cusum_h`; in between, the streak holds.
    pub rearm_ratio: f64,
    /// Consecutive-ish (dead-band tolerant) over-threshold windows required
    /// before `Detected` fires.
    pub sustain: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            calibration: 3,
            ewma_alpha: 0.2,
            // Scaled for the nearest-centroid cosine distances drift_score
            // produces on the synthetic streams (typically 0.05–0.3 with
            // within-task window noise well under 0.01).
            cusum_k: 0.015,
            cusum_h: 0.04,
            rearm_ratio: 0.5,
            sustain: 2,
            two_sided: true,
        }
    }
}

impl DriftConfig {
    /// Clamps every field to its valid range (see field docs).
    pub fn sanitize(&mut self) {
        let d = Self::default();
        self.calibration = self.calibration.max(1);
        if !(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            self.ewma_alpha = d.ewma_alpha;
        }
        if self.cusum_k.is_nan() || self.cusum_k < 0.0 {
            self.cusum_k = d.cusum_k;
        }
        if self.cusum_h.is_nan() || self.cusum_h <= 0.0 {
            self.cusum_h = d.cusum_h;
        }
        if !(self.rearm_ratio >= 0.0 && self.rearm_ratio < 1.0) {
            self.rearm_ratio = d.rearm_ratio;
        }
        self.sustain = self.sustain.max(1);
    }
}

/// Per-window verdict from [`DriftDetector::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftDecision {
    /// Still establishing the baseline; detection cannot fire.
    Calibrating,
    /// `S == 0`: the window is consistent with the current task.
    Clean,
    /// `S > 0`: an excursion is in progress. `streak` counts the
    /// over-threshold windows accumulated toward `sustain` (0 while `S`
    /// has not yet reached `h`, or after a re-arm).
    Suspect { streak: usize },
    /// Sustained drift: a new task starts at window index `boundary`
    /// (the window where `S` left zero). Latched until [`DriftDetector::reset`].
    Detected { boundary: usize },
}

impl DriftDecision {
    /// Stable lower-case label for protocol acks and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            DriftDecision::Calibrating => "calibrating",
            DriftDecision::Clean => "clean",
            DriftDecision::Suspect { .. } => "suspect",
            DriftDecision::Detected { .. } => "detected",
        }
    }
}

impl fmt::Display for DriftDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The sliding drift detector described in the module docs. One instance
/// per model; feed it one score per committed window via [`Self::observe`]
/// and call [`Self::reset`] after handling a detection (e.g. after an
/// online training round has archived the new task's centroids).
#[derive(Debug, Clone)]
pub struct DriftDetector {
    config: DriftConfig,
    /// Global committed-window counter; never reset, so boundaries are
    /// stable indices into the daemon's staging ring.
    windows: usize,
    calibrated: usize,
    calib_sum: f64,
    baseline: f64,
    statistic: f64,
    streak: usize,
    /// Window index where `S` last left zero (`None` while clean).
    excursion_start: Option<usize>,
    /// Latched boundary once `Detected` fires.
    fired: Option<usize>,
}

impl DriftDetector {
    /// A fresh detector starting in calibration.
    pub fn new(mut config: DriftConfig) -> Self {
        config.sanitize();
        Self {
            config,
            windows: 0,
            calibrated: 0,
            calib_sum: 0.0,
            baseline: 0.0,
            statistic: 0.0,
            streak: 0,
            excursion_start: None,
            fired: None,
        }
    }

    /// Feeds the score of one committed window and returns the verdict.
    /// Non-finite scores are treated as maximally suspicious clean-side
    /// no-ops: they neither move the baseline nor the statistic.
    pub fn observe(&mut self, score: f64) -> DriftDecision {
        let index = self.windows;
        self.windows += 1;
        if let Some(boundary) = self.fired {
            return DriftDecision::Detected { boundary };
        }
        if !score.is_finite() {
            return if self.calibrated < self.config.calibration {
                DriftDecision::Calibrating
            } else if self.statistic == 0.0 {
                DriftDecision::Clean
            } else {
                DriftDecision::Suspect {
                    streak: self.streak,
                }
            };
        }
        if self.calibrated < self.config.calibration {
            self.calibrated += 1;
            self.calib_sum += score;
            self.baseline = self.calib_sum / self.calibrated as f64;
            return DriftDecision::Calibrating;
        }
        let was_zero = self.statistic == 0.0;
        let deviation = if self.config.two_sided {
            (score - self.baseline).abs()
        } else {
            score - self.baseline
        };
        self.statistic = (self.statistic + deviation - self.config.cusum_k).max(0.0);
        if self.statistic == 0.0 {
            // Clean window: track slow within-task variation; the
            // excursion bookkeeping and streak re-arm.
            self.excursion_start = None;
            self.streak = 0;
            self.baseline += self.config.ewma_alpha * (score - self.baseline);
            return DriftDecision::Clean;
        }
        if was_zero {
            self.excursion_start = Some(index);
        }
        if self.statistic >= self.config.cusum_h {
            self.streak += 1;
            if self.streak >= self.config.sustain {
                let boundary = self.excursion_start.unwrap_or(index);
                self.fired = Some(boundary);
                return DriftDecision::Detected { boundary };
            }
        } else if self.statistic < self.config.cusum_h * self.config.rearm_ratio {
            // Below the re-arm level the streak resets; in the dead band
            // [rearm·h, h) it holds — no flapping at the threshold.
            self.streak = 0;
        }
        DriftDecision::Suspect {
            streak: self.streak,
        }
    }

    /// Clears the latch and restarts calibration against the *new* task's
    /// score distribution. The global window counter keeps running so
    /// boundaries stay comparable across rounds.
    pub fn reset(&mut self) {
        self.calibrated = 0;
        self.calib_sum = 0.0;
        self.baseline = 0.0;
        self.statistic = 0.0;
        self.streak = 0;
        self.excursion_start = None;
        self.fired = None;
    }

    /// The active configuration (post-sanitize).
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Committed windows observed over the detector's lifetime.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Current EWMA/calibration baseline.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Current CUSUM statistic `S`.
    pub fn statistic(&self) -> f64 {
        self.statistic
    }

    /// Current over-threshold streak.
    pub fn streak(&self) -> usize {
        self.streak
    }

    /// True while the baseline is still being established.
    pub fn is_calibrating(&self) -> bool {
        self.calibrated < self.config.calibration
    }

    /// The latched boundary, if a detection has fired since the last reset.
    pub fn detected_boundary(&self) -> Option<usize> {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-sided config: most tests pin the classic signed recurrence so
    /// negative scores can drain `S` (see `rearm_below_the_band…`).
    fn cfg() -> DriftConfig {
        DriftConfig {
            calibration: 3,
            ewma_alpha: 0.2,
            cusum_k: 0.1,
            cusum_h: 1.0,
            rearm_ratio: 0.5,
            sustain: 2,
            two_sided: false,
        }
    }

    #[test]
    fn constant_scores_stay_clean_forever() {
        let mut det = DriftDetector::new(cfg());
        for i in 0..100 {
            let d = det.observe(0.3);
            if i < 3 {
                assert_eq!(d, DriftDecision::Calibrating);
            } else {
                assert_eq!(d, DriftDecision::Clean);
            }
        }
        assert_eq!(det.detected_boundary(), None);
        assert!((det.baseline() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn sustained_shift_detects_at_the_first_shifted_window() {
        let mut det = DriftDetector::new(cfg());
        for _ in 0..6 {
            det.observe(0.2);
        }
        // Shift of +0.7 over baseline 0.2 with k=0.1 accumulates 0.6/window:
        // S = 0.6, 1.2 (streak 1), 1.8 (streak 2 => detect).
        assert_eq!(det.observe(0.9), DriftDecision::Suspect { streak: 0 });
        assert_eq!(det.observe(0.9), DriftDecision::Suspect { streak: 1 });
        assert_eq!(det.observe(0.9), DriftDecision::Detected { boundary: 6 });
        // Latched, boundary stable.
        assert_eq!(det.observe(0.2), DriftDecision::Detected { boundary: 6 });
        assert_eq!(det.detected_boundary(), Some(6));
    }

    #[test]
    fn dead_band_holds_the_streak() {
        let mut det = DriftDetector::new(DriftConfig {
            sustain: 3,
            ..cfg()
        });
        for _ in 0..3 {
            det.observe(0.0); // windows 0-2: baseline 0
        }
        det.observe(1.05); // window 3: S = 0.95 < h — excursion starts, streak 0
        assert_eq!(det.streak(), 0);
        det.observe(0.25); // S = 1.10 >= h: streak 1
        assert_eq!(det.streak(), 1);
        det.observe(0.0); // S = 1.00 >= h: streak 2
        assert_eq!(det.streak(), 2);
        det.observe(0.0); // S = 0.90 — dead band [0.5, 1.0): streak holds
        assert_eq!(det.streak(), 2);
        // One more over-threshold window completes sustain=3; the boundary
        // is window 3, where S left zero.
        let d = det.observe(0.30); // S = 1.10
        assert_eq!(d, DriftDecision::Detected { boundary: 3 });
    }

    #[test]
    fn rearm_below_the_band_resets_the_streak() {
        let mut det = DriftDetector::new(cfg());
        for _ in 0..3 {
            det.observe(0.0);
        }
        det.observe(1.2); // S = 1.1: streak 1
        assert_eq!(det.streak(), 1);
        // Crash S below rearm (0.5): 1.1 - 0.8 - 0.1 = 0.2 -> streak re-arms.
        det.observe(-0.8);
        assert_eq!(det.streak(), 0);
        assert_eq!(det.detected_boundary(), None);
    }

    #[test]
    fn reset_restarts_calibration_and_clears_the_latch() {
        let mut det = DriftDetector::new(cfg());
        for _ in 0..3 {
            det.observe(0.1);
        }
        det.observe(5.0);
        det.observe(5.0);
        assert!(det.detected_boundary().is_some());
        det.reset();
        assert_eq!(det.detected_boundary(), None);
        assert!(det.is_calibrating());
        // Windows counter keeps running across resets.
        assert_eq!(det.windows(), 5);
        assert_eq!(det.observe(5.0), DriftDecision::Calibrating);
    }

    #[test]
    fn two_sided_detects_a_downward_shift() {
        let mut det = DriftDetector::new(DriftConfig {
            two_sided: true,
            ..cfg()
        });
        for _ in 0..6 {
            det.observe(2.0);
        }
        // Collapse to 0.8: |dev| = 1.2, k = 0.1 accumulates 1.1/window:
        // S = 1.1 (streak 1), 2.2 (streak 2 => detect at the first
        // shifted window). One-sided would have kept S at 0 forever.
        assert_eq!(det.observe(0.8), DriftDecision::Suspect { streak: 1 });
        assert_eq!(det.observe(0.8), DriftDecision::Detected { boundary: 6 });
        let mut one_sided = DriftDetector::new(cfg());
        for _ in 0..6 {
            one_sided.observe(2.0);
        }
        assert_eq!(one_sided.observe(0.8), DriftDecision::Clean);
    }

    #[test]
    fn non_finite_scores_are_inert() {
        let mut det = DriftDetector::new(cfg());
        for _ in 0..3 {
            det.observe(0.2);
        }
        let b = det.baseline();
        assert_eq!(det.observe(f64::NAN), DriftDecision::Clean);
        assert_eq!(det.observe(f64::INFINITY), DriftDecision::Clean);
        assert_eq!(det.baseline(), b);
        assert_eq!(det.statistic(), 0.0);
    }

    #[test]
    fn config_sanitize_clamps_nonsense() {
        let mut c = DriftConfig {
            calibration: 0,
            ewma_alpha: -1.0,
            cusum_k: f64::NAN,
            cusum_h: 0.0,
            rearm_ratio: 1.5,
            sustain: 0,
            two_sided: true,
        };
        c.sanitize();
        let d = DriftConfig::default();
        assert_eq!(c.calibration, 1);
        assert_eq!(c.ewma_alpha, d.ewma_alpha);
        assert_eq!(c.cusum_k, d.cusum_k);
        assert_eq!(c.cusum_h, d.cusum_h);
        assert_eq!(c.rearm_ratio, d.rearm_ratio);
        assert_eq!(c.sustain, 1);
    }
}
