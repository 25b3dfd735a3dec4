//! Receiver-misbehavior detection (§4.4 extension).
//!
//! In ad hoc deployments the *receiver* is untrusted too: it could assign
//! tiny backoff values to a favoured sender to pull data faster. The
//! paper's countermeasure: require the receiver to derive the *base* of
//! each assignment (the part before any penalty) from a well-known
//! deterministic function `g` that the sender can replay. Since penalties
//! only ever *add* slots, an honest assignment always satisfies
//! `assigned ≥ g(...)`; anything below is a violation, and the sender
//! protects itself by waiting `max(assigned, g)` anyway.
//!
//! The concrete `g` (the paper leaves it open) is an LCG over public
//! inputs — the receiver id, the sender id, and the sequence number of
//! the packet the assignment applies to — mirroring the retry function
//! `f`:
//!
//! ```text
//! g(recv, send, seq) = (7·((seq + recv + send) mod (CWmin+1)) + 3) mod (CWmin+1)
//! ```

use airguard_mac::MacTiming;
use airguard_sim::NodeId;

/// The deterministic assignment base `g`, in `[0, CWmin]`.
///
/// `seq` is the sequence number of the packet the assignment will govern
/// (i.e. one past the packet being acknowledged).
///
/// ```
/// use airguard_core::receiver_check::g_value;
/// use airguard_mac::MacTiming;
/// use airguard_sim::NodeId;
///
/// let t = MacTiming::dsss_2mbps();
/// let g = g_value(NodeId::new(0), NodeId::new(3), 17, &t);
/// assert!(g <= t.cw_min);
/// // Replayable by both sides.
/// assert_eq!(g, g_value(NodeId::new(0), NodeId::new(3), 17, &t));
/// ```
#[must_use]
pub fn g_value(receiver: NodeId, sender: NodeId, seq: u64, timing: &MacTiming) -> u32 {
    let modulus = u64::from(timing.cw_min) + 1;
    let x = (seq + u64::from(receiver.value()) + u64::from(sender.value())) % modulus;
    ((7 * x + 3) % modulus) as u32
}

/// Sender-side verifier of receiver assignments.
#[derive(Debug, Clone, Default)]
pub struct ReceiverCheck {
    violations: u64,
    checked: u64,
}

impl ReceiverCheck {
    /// Creates a verifier with no history.
    #[must_use]
    pub fn new() -> Self {
        ReceiverCheck::default()
    }

    /// Verifies the assignment carried by the ACK for packet `acked_seq`
    /// from `receiver`, and returns the backoff the sender should actually
    /// use: the assignment if honest, otherwise the larger `g` base (the
    /// paper's "choose to wait for longer" response).
    pub fn verify(
        &mut self,
        receiver: NodeId,
        me: NodeId,
        acked_seq: u64,
        assigned: u32,
        timing: &MacTiming,
    ) -> u32 {
        self.checked += 1;
        let expected = g_value(receiver, me, acked_seq + 1, timing);
        if assigned < expected {
            self.violations += 1;
            expected
        } else {
            assigned
        }
    }

    /// Number of assignments that violated the `g` lower bound.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Number of assignments verified.
    #[must_use]
    pub fn checked(&self) -> u64 {
        self.checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> MacTiming {
        MacTiming::dsss_2mbps()
    }

    #[test]
    fn g_stays_in_range_and_varies_with_seq() {
        let t = timing();
        let mut distinct = std::collections::HashSet::new();
        for seq in 0..64 {
            let g = g_value(NodeId::new(1), NodeId::new(2), seq, &t);
            assert!(g <= t.cw_min);
            distinct.insert(g);
        }
        assert!(distinct.len() > 16, "g must not be near-constant");
    }

    #[test]
    fn g_mean_is_near_window_center() {
        let t = timing();
        let n = 1024u64;
        let sum: u64 = (0..n)
            .map(|seq| u64::from(g_value(NodeId::new(0), NodeId::new(5), seq, &t)))
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 15.5).abs() < 1.0, "mean of g was {mean}");
    }

    #[test]
    fn honest_assignment_passes_and_is_used() {
        let t = timing();
        let mut c = ReceiverCheck::new();
        let g = g_value(NodeId::new(0), NodeId::new(3), 8, &t);
        // Honest receiver: base g plus a penalty of 5.
        let used = c.verify(NodeId::new(0), NodeId::new(3), 7, g + 5, &t);
        assert_eq!(used, g + 5);
        assert_eq!(c.violations(), 0);
        assert_eq!(c.checked(), 1);
    }

    #[test]
    fn lowball_assignment_is_caught_and_overridden() {
        let t = timing();
        let mut c = ReceiverCheck::new();
        let g = g_value(NodeId::new(0), NodeId::new(3), 8, &t);
        if g == 0 {
            return; // nothing below zero to test for this tuple
        }
        let used = c.verify(NodeId::new(0), NodeId::new(3), 7, g - 1, &t);
        assert_eq!(used, g, "sender substitutes the honest base");
        assert_eq!(c.violations(), 1);
    }

    #[test]
    fn selfish_receiver_assigning_zero_always_flagged_when_g_positive() {
        let t = timing();
        let mut c = ReceiverCheck::new();
        let mut caught = 0;
        let trials = 100;
        for seq in 0..trials {
            let before = c.violations();
            c.verify(NodeId::new(9), NodeId::new(4), seq, 0, &t);
            if c.violations() > before {
                caught += 1;
            }
        }
        // g = 0 happens for ~1/32 of sequence numbers; everything else is
        // caught.
        assert!(caught > trials * 9 / 10, "caught only {caught}/{trials}");
    }
}
