//! The correction scheme (§4.2): penalties for observed deviations.
//!
//! When the receiver perceives a deviation, it measures
//! `D = max(α·B_exp − B_act, 0)` and adds a penalty to the sender's next
//! assigned backoff. The paper states two requirements: the penalty must
//! be *proportional* to the deviation (so honest nodes that are falsely
//! accused pay almost nothing), and it must include an *additional*
//! component beyond `D` itself (their analysis \[12\] showed `P = D` alone
//! still lets moderate cheaters win). The published text leaves the extra
//! component to the technical report; this implementation uses
//! `P = D + min(D, extra_cap)` — proportional for small deviations,
//! `D + extra_cap` for large ones — whose stationary behaviour pins a
//! misbehaving node to its fair share for PM ≲ 80 % and degrades only as
//! PM → 100 %, matching Fig. 5 (see DESIGN.md §5 for the algebra).

/// Parameters of deviation measurement and penalty computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrectionConfig {
    /// The deviation tolerance α of Eq. 1: a sender deviates when
    /// `B_act < α·B_exp`. The paper uses 0.9.
    pub alpha: f64,
    /// Cap on the additional penalty component, in slots. The default of
    /// 8 slots (≈ CWmin/4) keeps the assignment recursion stable (the
    /// feedback coefficient stays below 1) while making moderate cheating
    /// unprofitable.
    pub extra_cap: f64,
    /// Upper bound on any single assigned backoff, in slots (default
    /// CWmax = 1023) — a safety valve, rarely reached in practice.
    pub max_assignment: u32,
    /// Multiplier on the proportional component of the penalty
    /// (`P = scale·D + min(D, extra_cap)`). 1.0 is the paper's scheme;
    /// 0.0 with `extra_cap = 0` disables correction entirely (diagnosis
    /// only) — used by the penalty-shape ablation.
    pub penalty_scale: f64,
}

impl CorrectionConfig {
    /// The paper's configuration: α = 0.9.
    #[must_use]
    pub fn paper_default() -> Self {
        CorrectionConfig {
            alpha: 0.9,
            extra_cap: 8.0,
            max_assignment: 1023,
            penalty_scale: 1.0,
        }
    }

    /// A variant with a different α (used by the α-sweep ablation).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`.
    #[must_use]
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        CorrectionConfig {
            alpha,
            ..CorrectionConfig::paper_default()
        }
    }

    /// The measured deviation `D = max(α·B_exp − B_act, 0)`, in slots.
    #[must_use]
    pub fn deviation(&self, b_exp: f64, b_act: f64) -> f64 {
        (self.alpha * b_exp - b_act).max(0.0)
    }

    /// Whether Eq. 1 designates the observation as a deviation.
    #[must_use]
    pub fn is_deviation(&self, b_exp: f64, b_act: f64) -> bool {
        b_act < self.alpha * b_exp
    }

    /// The total penalty `P` for a measured deviation `D`.
    #[must_use]
    pub fn penalty(&self, deviation: f64) -> f64 {
        if deviation > 0.0 {
            self.penalty_scale * deviation + deviation.min(self.extra_cap)
        } else {
            0.0
        }
    }
}

impl Default for CorrectionConfig {
    fn default() -> Self {
        CorrectionConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_definition_matches_eq1() {
        let c = CorrectionConfig::paper_default();
        // B_exp = 20, α = 0.9 ⇒ threshold at 18 observed slots.
        assert!(c.is_deviation(20.0, 17.9));
        assert!(!c.is_deviation(20.0, 18.0));
        assert!((c.deviation(20.0, 10.0) - 8.0).abs() < 1e-12);
        assert_eq!(c.deviation(20.0, 25.0), 0.0, "waiting longer is fine");
    }

    #[test]
    fn penalty_scale_zero_with_zero_cap_disables_correction() {
        let c = CorrectionConfig {
            penalty_scale: 0.0,
            extra_cap: 0.0,
            ..CorrectionConfig::paper_default()
        };
        assert_eq!(c.penalty(25.0), 0.0);
    }

    #[test]
    fn penalty_is_proportional_then_capped() {
        let c = CorrectionConfig::paper_default();
        assert_eq!(c.penalty(0.0), 0.0);
        assert!((c.penalty(3.0) - 6.0).abs() < 1e-12, "small D doubles");
        assert!(
            (c.penalty(20.0) - 28.0).abs() < 1e-12,
            "large D adds the cap"
        );
    }

    #[test]
    fn stationary_assignment_is_stable_for_moderate_pm() {
        // Iterate the closed loop of the scheme for PM = 80 %: assignment
        // B_{n+1} = E[r] + P(D_n) with B_act = (1−PM)·B_n. The sequence
        // must converge, and the cheater's *actual* wait must come out at
        // roughly the fair share E[r] = 15.5 slots.
        let c = CorrectionConfig::paper_default();
        let pm = 0.8;
        let mut b = 15.5;
        for _ in 0..200 {
            let b_act = (1.0 - pm) * b;
            let d = c.deviation(b, b_act);
            b = 15.5 + c.penalty(d);
            assert!(b < 1023.0, "assignment must not diverge");
        }
        let actual_wait = (1.0 - pm) * b;
        assert!(
            (actual_wait - 15.5).abs() < 4.0,
            "PM=80% wait {actual_wait} should be near fair share 15.5"
        );
    }

    #[test]
    fn correction_fails_gracefully_near_pm_100() {
        // The paper: "when PM is close to 100 %, the proposed scheme
        // cannot restrict the throughput of the misbehaving node".
        let c = CorrectionConfig::paper_default();
        let pm = 0.99;
        let mut b = 15.5;
        for _ in 0..200 {
            let b_act = (1.0 - pm) * b;
            b = 15.5 + c.penalty(c.deviation(b, b_act));
        }
        let actual_wait = (1.0 - pm) * b;
        assert!(actual_wait < 8.0, "near-total cheaters escape correction");
    }

    #[test]
    fn honest_noise_draws_tiny_penalty() {
        // A well-behaved node falsely observed 2 slots short on a 20-slot
        // assignment pays at most 4 extra slots next time.
        let c = CorrectionConfig::paper_default();
        let d = c.deviation(20.0, 16.0);
        assert!(c.penalty(d) <= 4.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn with_alpha_validates() {
        let _ = CorrectionConfig::with_alpha(1.5);
    }
}
