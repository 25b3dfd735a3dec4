//! MAC frames.
//!
//! Frames are symbolic — a simulator needs their *sizes* (for on-air time)
//! and their *fields* (for protocol logic), not their bit layout. The two
//! protocol extensions from the paper are modelled as optional fields:
//!
//! * every RTS carries an `attempt` number (a new 1-byte header field in
//!   the modified protocol, §4.1);
//! * CTS and ACK frames may carry the receiver-assigned backoff for the
//!   sender's next transmission (a 2-byte field, §3.2).
//!
//! Frame sizes follow IEEE 802.11-1999: RTS 20 B, CTS/ACK 14 B, DATA
//! header 28 B, plus the extension bytes when the modified protocol is in
//! use.

use airguard_sim::{NodeId, SimDuration};

use crate::timing::{MacTiming, Slots};

/// The four DCF frame types used by the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Request to send.
    Rts,
    /// Clear to send.
    Cts,
    /// The data MPDU.
    Data,
    /// Acknowledgement.
    Ack,
}

impl FrameKind {
    /// Base frame size in bytes under IEEE 802.11-1999 (data size excludes
    /// the payload).
    #[must_use]
    pub const fn base_bytes(self) -> u32 {
        match self {
            FrameKind::Rts => 20,
            FrameKind::Cts | FrameKind::Ack => 14,
            FrameKind::Data => 28,
        }
    }
}

/// One MAC frame in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame type.
    pub kind: FrameKind,
    /// Transmitting node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// The 802.11 Duration field: how long the medium is reserved *after*
    /// this frame ends. Overhearing nodes set their NAV from it.
    pub duration_field: SimDuration,
    /// Transmission attempt number (1-based). Present in every RTS of the
    /// modified protocol; the baseline keeps its retry counter private, so
    /// baseline receivers must not read it.
    pub attempt: u8,
    /// Receiver-assigned backoff for the sender's next packet (modified
    /// protocol only; `None` under plain 802.11).
    pub assigned_backoff: Option<Slots>,
    /// Payload bytes (DATA frames only; zero otherwise).
    pub payload_bytes: u32,
    /// Sender-local packet sequence number, used for duplicate filtering
    /// and throughput accounting.
    pub seq: u64,
}

impl Frame {
    /// Total frame size in bytes, including the modified protocol's
    /// extension fields when present.
    #[must_use]
    pub fn bytes(&self) -> u32 {
        let mut bytes = self.kind.base_bytes() + self.payload_bytes;
        if self.carries_attempt() {
            bytes += 1;
        }
        if self.assigned_backoff.is_some() {
            bytes += 2;
        }
        bytes
    }

    /// Whether this frame carries the modified protocol's attempt field:
    /// RTS frames under four-way access, DATA frames under basic access.
    ///
    /// The baseline protocol still *tracks* attempts internally (for its
    /// retry limit), but does not serialize them; the convention here is
    /// that baseline frames are built with `attempt = 0`.
    #[must_use]
    pub fn carries_attempt(&self) -> bool {
        matches!(self.kind, FrameKind::Rts | FrameKind::Data) && self.attempt > 0
    }

    /// On-air duration of this frame.
    #[must_use]
    pub fn air_time(&self, timing: &MacTiming) -> SimDuration {
        timing.air_time(self.bytes())
    }
}

/// A shared, immutable handle to one frame in flight.
///
/// One transmission is referenced from many places at once — the
/// sender's `on_air` slot, the `StartTx` effect, and one scheduled
/// arrival per listener. `FrameRef` lets all of them point at a single
/// allocation: [`FrameRef::share`] is a reference-count bump, never a
/// copy. Combined with a [`FramePool`] the allocation itself is
/// recycled, so the steady-state exchange loop allocates nothing.
///
/// The handle is deliberately read-only (`Deref<Target = Frame>`, no
/// `DerefMut`): a frame on the air is immutable physics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRef(std::rc::Rc<Frame>);

impl FrameRef {
    /// Wraps a frame in a fresh shared allocation. Hot paths should
    /// prefer [`FramePool::alloc`], which recycles allocations.
    #[must_use]
    pub fn new(frame: Frame) -> Self {
        FrameRef(std::rc::Rc::new(frame))
    }

    /// Shares the handle: a reference-count bump, not a frame copy.
    /// This is the hot-path alternative to cloning a [`Frame`].
    #[must_use]
    pub fn share(&self) -> Self {
        FrameRef(std::rc::Rc::clone(&self.0))
    }
}

impl std::ops::Deref for FrameRef {
    type Target = Frame;

    fn deref(&self) -> &Frame {
        &self.0
    }
}

impl From<Frame> for FrameRef {
    fn from(frame: Frame) -> Self {
        FrameRef::new(frame)
    }
}

/// A recycling allocator for [`FrameRef`]s.
///
/// The pool keeps one handle to every allocation it ever handed out and
/// reuses any whose other holders have all dropped (reference count back
/// to one). In-flight frames per node are bounded by the protocol — one
/// on air, one pending response, a handful of scheduled arrivals — so
/// the pool stays a few slots deep and the steady state allocates
/// nothing.
#[derive(Debug, Default)]
pub struct FramePool {
    slots: Vec<std::rc::Rc<Frame>>,
}

impl FramePool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        FramePool::default()
    }

    /// Returns a handle to `frame`, reusing a released allocation when
    /// one is available.
    pub fn alloc(&mut self, frame: Frame) -> FrameRef {
        for i in 0..self.slots.len() {
            if std::rc::Rc::strong_count(&self.slots[i]) == 1 {
                if let Some(slot) = std::rc::Rc::get_mut(&mut self.slots[i]) {
                    *slot = frame;
                    return FrameRef(std::rc::Rc::clone(&self.slots[i]));
                }
            }
        }
        let rc = std::rc::Rc::new(frame);
        self.slots.push(std::rc::Rc::clone(&rc));
        FrameRef(rc)
    }

    /// Distinct allocations the pool currently manages (diagnostics).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Computes the Duration fields for a full RTS/CTS/DATA/ACK exchange over
/// a `payload_bytes` MPDU, from the perspective of each frame.
///
/// Each value covers everything from the end of that frame to the end of
/// the exchange, as 802.11 specifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeDurations {
    /// Value for the RTS Duration field.
    pub rts: SimDuration,
    /// Value for the CTS Duration field.
    pub cts: SimDuration,
    /// Value for the DATA Duration field.
    pub data: SimDuration,
    /// Value for the ACK Duration field (always zero: nothing follows).
    pub ack: SimDuration,
}

impl ExchangeDurations {
    /// Computes duration fields given the frame sizes in force.
    ///
    /// `extended` selects the modified protocol's slightly larger frames.
    #[must_use]
    pub fn compute(timing: &MacTiming, payload_bytes: u32, extended: bool) -> Self {
        let ext_rts = u32::from(extended); // +1 attempt byte
        let ext_resp = if extended { 2 } else { 0 }; // +2 backoff bytes
        let cts = timing.air_time(FrameKind::Cts.base_bytes() + ext_resp);
        let data = timing.air_time(FrameKind::Data.base_bytes() + payload_bytes);
        let ack = timing.air_time(FrameKind::Ack.base_bytes() + ext_resp);
        let sifs = timing.sifs;
        let _ = ext_rts; // RTS size matters for air time, not for durations
        ExchangeDurations {
            rts: sifs + cts + sifs + data + sifs + ack,
            cts: sifs + data + sifs + ack,
            data: sifs + ack,
            ack: SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: FrameKind) -> Frame {
        Frame {
            kind,
            src: NodeId::new(1),
            dst: NodeId::new(0),
            duration_field: SimDuration::ZERO,
            attempt: 0,
            assigned_backoff: None,
            payload_bytes: 0,
            seq: 0,
        }
    }

    #[test]
    fn baseline_sizes_match_standard() {
        assert_eq!(frame(FrameKind::Rts).bytes(), 20);
        assert_eq!(frame(FrameKind::Cts).bytes(), 14);
        assert_eq!(frame(FrameKind::Ack).bytes(), 14);
        let mut data = frame(FrameKind::Data);
        data.payload_bytes = 512;
        assert_eq!(data.bytes(), 540);
    }

    #[test]
    fn extension_fields_add_bytes() {
        let mut rts = frame(FrameKind::Rts);
        rts.attempt = 1;
        assert_eq!(rts.bytes(), 21, "attempt field adds one byte");
        let mut cts = frame(FrameKind::Cts);
        cts.assigned_backoff = Some(Slots::new(12));
        assert_eq!(cts.bytes(), 16, "assigned backoff adds two bytes");
    }

    #[test]
    fn air_time_uses_extended_size() {
        let t = MacTiming::dsss_2mbps();
        let mut rts = frame(FrameKind::Rts);
        rts.attempt = 3;
        assert_eq!(rts.air_time(&t), t.air_time(21));
    }

    #[test]
    fn exchange_durations_nest_properly() {
        let t = MacTiming::dsss_2mbps();
        let d = ExchangeDurations::compute(&t, 512, false);
        // Each later frame covers strictly less of the exchange.
        assert!(d.rts > d.cts && d.cts > d.data && d.data > d.ack);
        assert_eq!(d.ack, SimDuration::ZERO);
        // RTS duration = CTS + DATA + ACK air times + 3 SIFS.
        let expect = t.air_time(14) + t.air_time(540) + t.air_time(14) + t.sifs + t.sifs + t.sifs;
        assert_eq!(d.rts, expect);
    }

    #[test]
    fn extended_exchange_is_longer() {
        let t = MacTiming::dsss_2mbps();
        let base = ExchangeDurations::compute(&t, 512, false);
        let ext = ExchangeDurations::compute(&t, 512, true);
        assert!(ext.rts > base.rts);
        assert!(ext.cts > base.cts);
    }

    fn probe(seq: u64) -> Frame {
        Frame {
            kind: FrameKind::Rts,
            src: NodeId::new(1),
            dst: NodeId::new(0),
            duration_field: SimDuration::ZERO,
            attempt: 1,
            assigned_backoff: None,
            payload_bytes: 0,
            seq,
        }
    }

    #[test]
    fn frame_ref_shares_one_allocation() {
        let a = FrameRef::new(probe(7));
        let b = a.share();
        assert_eq!(a.seq, 7);
        assert_eq!(a, b);
        // Deref gives field access and &Frame coercion.
        let f: &Frame = &a;
        assert_eq!(f.seq, b.seq);
    }

    #[test]
    fn pool_recycles_released_allocations() {
        let mut pool = FramePool::new();
        let a = pool.alloc(probe(1));
        assert_eq!(pool.capacity(), 1);
        drop(a);
        // Slot free again: the next alloc reuses it.
        let b = pool.alloc(probe(2));
        assert_eq!(pool.capacity(), 1);
        assert_eq!(b.seq, 2);
    }

    #[test]
    fn pool_grows_while_handles_are_live() {
        let mut pool = FramePool::new();
        let a = pool.alloc(probe(1));
        let b = pool.alloc(probe(2));
        assert_eq!(pool.capacity(), 2, "live handles pin their slots");
        // Shares keep a slot busy too.
        let a2 = a.share();
        drop(a);
        let c = pool.alloc(probe(3));
        assert_eq!(pool.capacity(), 3, "shared handle still pins its slot");
        assert_eq!((a2.seq, b.seq, c.seq), (1, 2, 3));
    }
}
