//! Per-node reception tracking: carrier busy/idle edges, collisions, and
//! capture.
//!
//! Each node owns one [`RxTracker`]. The simulation runner feeds it the
//! arrival and departure of every transmission the node senses (as sampled
//! by [`crate::Medium`]) plus the node's own transmit activity, and the
//! tracker answers the three questions a MAC asks of its PHY:
//!
//! 1. *Is the channel busy?* — any sensed energy, or own transmission.
//! 2. *Did this frame decode?* — ns-2 capture semantics: the first
//!    receivable arrival locks the receiver; it survives an overlapping
//!    arrival only if it is at least the capture margin stronger; a later
//!    frame never steals the lock; transmitting while receiving garbles.
//! 3. *When did busy/idle edges happen?* — returned from each state
//!    change, so the MAC can freeze and resume backoff counting.

use airguard_sim::trace::{emit, EventSink, ObsEvent};
use airguard_sim::{NodeId, SimTime};

use crate::medium::TransmissionId;
use crate::units::{Db, Dbm};

/// A change in the perceived channel state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyEdge {
    /// The channel just went from idle to busy.
    BecameBusy,
    /// The channel just went from busy to idle.
    BecameIdle,
}

/// The fate of a receivable frame at its departure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// The frame was received intact and should be handed to the MAC.
    Decoded,
    /// The frame was garbled by a collision or by local transmission.
    Garbled,
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    id: TransmissionId,
    power: Dbm,
}

#[derive(Debug, Clone, Copy)]
struct Locked {
    id: TransmissionId,
    power: Dbm,
    clean: bool,
}

/// Tracks everything one node's radio front-end currently hears.
#[derive(Debug)]
pub struct RxTracker {
    capture: Db,
    arrivals: Vec<Arrival>,
    locked: Option<Locked>,
    transmitting: bool,
    sink: EventSink,
    node: NodeId,
}

impl RxTracker {
    /// Creates a tracker with the given capture margin.
    #[must_use]
    pub fn new(capture: Db) -> Self {
        RxTracker {
            capture,
            arrivals: Vec::new(),
            locked: None,
            transmitting: false,
            sink: EventSink::new(),
            node: NodeId::new(0),
        }
    }

    /// Attaches a telemetry sink; `node` identifies this tracker's owner
    /// in the typed event stream.
    pub fn set_trace(&mut self, sink: EventSink, node: NodeId) {
        self.sink = sink;
        self.node = node;
    }

    /// True when the channel appears busy to this node (own transmission
    /// counts as busy: the radio is half-duplex).
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.transmitting || !self.arrivals.is_empty()
    }

    /// True while the node's own transmitter is active.
    #[must_use]
    pub fn is_transmitting(&self) -> bool {
        self.transmitting
    }

    /// Registers the arrival of a sensed transmission.
    ///
    /// `receivable` marks frames above the receive threshold; only those
    /// can lock the receiver and eventually decode.
    pub fn on_arrival(
        &mut self,
        now: SimTime,
        id: TransmissionId,
        power: Dbm,
        receivable: bool,
    ) -> Option<BusyEdge> {
        let was_busy = self.is_busy();
        if receivable && !self.transmitting {
            match &mut self.locked {
                Some(locked) => {
                    // ns-2 capture: the in-progress frame survives only if it
                    // is `capture` dB stronger than the newcomer. The
                    // newcomer is interference either way.
                    if locked.power - power < self.capture {
                        locked.clean = false;
                        // Typed emission: a disabled sink rejects this
                        // with one relaxed load, and the event itself is
                        // three plain integers — no allocation either way.
                        emit(
                            &self.sink,
                            now,
                            self.node,
                            ObsEvent::Collision {
                                victim_tx: locked.id.value(),
                                culprit_tx: Some(id.value()),
                            },
                        );
                    }
                }
                None => {
                    // A fresh lock is clean only if it captures over all
                    // energy already on the air.
                    let clean = self
                        .arrivals
                        .iter()
                        .all(|g| power - g.power >= self.capture);
                    self.locked = Some(Locked { id, power, clean });
                }
            }
        }
        self.arrivals.push(Arrival { id, power });
        (!was_busy).then_some(BusyEdge::BecameBusy)
    }

    /// Registers the end of a previously arrived transmission.
    ///
    /// Returns the busy/idle edge (if any) and, when `id` was the locked
    /// reception, its decode outcome.
    pub fn on_departure(
        &mut self,
        now: SimTime,
        id: TransmissionId,
    ) -> (Option<BusyEdge>, Option<DecodeOutcome>) {
        let before = self.arrivals.len();
        self.arrivals.retain(|a| a.id != id);
        debug_assert!(
            self.arrivals.len() < before,
            "departure of unknown transmission {id:?}"
        );

        let decode = match self.locked {
            Some(locked) if locked.id == id => {
                self.locked = None;
                let outcome = if locked.clean {
                    DecodeOutcome::Decoded
                } else {
                    DecodeOutcome::Garbled
                };
                // Every decoded frame passes through here: the typed
                // event is allocation-free, so no enabled guard needed.
                emit(
                    &self.sink,
                    now,
                    self.node,
                    ObsEvent::Decode {
                        tx: id.value(),
                        clean: locked.clean,
                    },
                );
                Some(outcome)
            }
            _ => None,
        };

        let edge = (!self.is_busy()).then_some(BusyEdge::BecameIdle);
        (edge, decode)
    }

    /// Marks the start of the node's own transmission. Any in-progress
    /// reception is garbled (half-duplex radio).
    pub fn on_self_tx_start(&mut self, now: SimTime) -> Option<BusyEdge> {
        let was_busy = self.is_busy();
        self.transmitting = true;
        if let Some(locked) = &mut self.locked {
            if locked.clean {
                locked.clean = false;
                emit(
                    &self.sink,
                    now,
                    self.node,
                    ObsEvent::Collision {
                        victim_tx: locked.id.value(),
                        // No culprit transmission: the node's own
                        // transmitter garbled the reception.
                        culprit_tx: None,
                    },
                );
            }
        }
        (!was_busy).then_some(BusyEdge::BecameBusy)
    }

    /// Marks the end of the node's own transmission.
    pub fn on_self_tx_end(&mut self, _now: SimTime) -> Option<BusyEdge> {
        debug_assert!(self.transmitting, "self-tx end without start");
        self.transmitting = false;
        (!self.is_busy()).then_some(BusyEdge::BecameIdle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn tracker() -> RxTracker {
        RxTracker::new(Db::new(10.0))
    }

    fn tid(v: u64) -> TransmissionId {
        // TransmissionId has no public constructor by design; mint ids
        // through a throwaway medium instead.
        use crate::{Medium, PhyConfig, Position};
        use airguard_sim::{MasterSeed, NodeId};
        let mut m = Medium::new(
            PhyConfig::deterministic(),
            vec![Position::new(0.0, 0.0)],
            MasterSeed::new(0).stream("tid", v),
        );
        let mut id = m.start_tx(NodeId::new(0)).id;
        for _ in 0..v {
            id = m.start_tx(NodeId::new(0)).id;
        }
        id
    }

    #[test]
    fn single_clean_reception() {
        let mut t = tracker();
        let id = tid(0);
        assert_eq!(
            t.on_arrival(T0, id, Dbm::new(-60.0), true),
            Some(BusyEdge::BecameBusy)
        );
        assert!(t.is_busy());
        let (edge, decode) = t.on_departure(T0, id);
        assert_eq!(edge, Some(BusyEdge::BecameIdle));
        assert_eq!(decode, Some(DecodeOutcome::Decoded));
        assert!(!t.is_busy());
    }

    #[test]
    fn sensed_only_energy_gives_busy_but_no_decode() {
        let mut t = tracker();
        let id = tid(0);
        assert_eq!(
            t.on_arrival(T0, id, Dbm::new(-80.0), false),
            Some(BusyEdge::BecameBusy)
        );
        let (edge, decode) = t.on_departure(T0, id);
        assert_eq!(edge, Some(BusyEdge::BecameIdle));
        assert_eq!(decode, None);
    }

    #[test]
    fn equal_power_overlap_garbles_first_frame() {
        let mut t = tracker();
        let (a, b) = (tid(0), tid(1));
        t.on_arrival(T0, a, Dbm::new(-60.0), true);
        assert_eq!(t.on_arrival(T0, b, Dbm::new(-60.0), true), None);
        let (_, decode_b) = t.on_departure(T0, b);
        assert_eq!(decode_b, None, "second frame never locked");
        let (edge, decode_a) = t.on_departure(T0, a);
        assert_eq!(decode_a, Some(DecodeOutcome::Garbled));
        assert_eq!(edge, Some(BusyEdge::BecameIdle));
    }

    #[test]
    fn strong_first_frame_captures_over_weak_interferer() {
        let mut t = tracker();
        let (a, b) = (tid(0), tid(1));
        t.on_arrival(T0, a, Dbm::new(-50.0), true);
        t.on_arrival(T0, b, Dbm::new(-61.0), true); // 11 dB below: captured over
        t.on_departure(T0, b);
        let (_, decode_a) = t.on_departure(T0, a);
        assert_eq!(decode_a, Some(DecodeOutcome::Decoded));
    }

    #[test]
    fn margin_is_strict_at_capture_threshold() {
        let mut t = tracker();
        let (a, b) = (tid(0), tid(1));
        t.on_arrival(T0, a, Dbm::new(-50.0), true);
        t.on_arrival(T0, b, Dbm::new(-60.0), true); // exactly 10 dB: survives
        let (_, decode_a) = t.on_departure(T0, a);
        assert_eq!(decode_a, Some(DecodeOutcome::Decoded));
    }

    #[test]
    fn later_strong_frame_does_not_steal_lock() {
        let mut t = tracker();
        let (a, b) = (tid(0), tid(1));
        t.on_arrival(T0, a, Dbm::new(-70.0), true);
        t.on_arrival(T0, b, Dbm::new(-40.0), true); // much stronger, still no lock
        let (_, decode_a) = t.on_departure(T0, a);
        assert_eq!(decode_a, Some(DecodeOutcome::Garbled));
        let (_, decode_b) = t.on_departure(T0, b);
        assert_eq!(decode_b, None);
    }

    #[test]
    fn weak_preexisting_energy_blocks_clean_lock() {
        let mut t = tracker();
        let (a, b) = (tid(0), tid(1));
        t.on_arrival(T0, a, Dbm::new(-66.0), false); // sensed-only interference
        t.on_arrival(T0, b, Dbm::new(-60.0), true); // only 6 dB above: not captured
        let (_, decode_b) = t.on_departure(T0, b);
        assert_eq!(decode_b, Some(DecodeOutcome::Garbled));
    }

    #[test]
    fn lock_over_preexisting_energy_with_margin() {
        let mut t = tracker();
        let (a, b) = (tid(0), tid(1));
        t.on_arrival(T0, a, Dbm::new(-75.0), false);
        t.on_arrival(T0, b, Dbm::new(-60.0), true); // 15 dB above: clean
        let (_, decode_b) = t.on_departure(T0, b);
        assert_eq!(decode_b, Some(DecodeOutcome::Decoded));
    }

    #[test]
    fn self_tx_garbles_in_progress_reception() {
        let mut t = tracker();
        let id = tid(0);
        t.on_arrival(T0, id, Dbm::new(-60.0), true);
        assert_eq!(t.on_self_tx_start(T0), None, "already busy from rx");
        let (_, decode) = t.on_departure(T0, id);
        assert_eq!(decode, Some(DecodeOutcome::Garbled));
        assert!(t.is_busy(), "still transmitting");
        assert_eq!(t.on_self_tx_end(T0), Some(BusyEdge::BecameIdle));
    }

    #[test]
    fn frames_arriving_during_self_tx_never_lock() {
        let mut t = tracker();
        let id = tid(0);
        assert_eq!(t.on_self_tx_start(T0), Some(BusyEdge::BecameBusy));
        t.on_arrival(T0, id, Dbm::new(-40.0), true);
        t.on_self_tx_end(T0);
        let (edge, decode) = t.on_departure(T0, id);
        assert_eq!(decode, None);
        assert_eq!(edge, Some(BusyEdge::BecameIdle));
    }

    #[test]
    fn busy_edges_only_on_transitions() {
        let mut t = tracker();
        let (a, b) = (tid(0), tid(1));
        assert!(t.on_arrival(T0, a, Dbm::new(-60.0), false).is_some());
        assert!(t.on_arrival(T0, b, Dbm::new(-60.0), false).is_none());
        let (edge_a, _) = t.on_departure(T0, a);
        assert_eq!(edge_a, None, "b still on the air");
        let (edge_b, _) = t.on_departure(T0, b);
        assert_eq!(edge_b, Some(BusyEdge::BecameIdle));
    }

    #[test]
    fn tracker_reusable_after_idle() {
        let mut t = tracker();
        for round in 0..3 {
            let id = tid(round);
            assert!(t.on_arrival(T0, id, Dbm::new(-60.0), true).is_some());
            let (_, decode) = t.on_departure(T0, id);
            assert_eq!(decode, Some(DecodeOutcome::Decoded), "round {round}");
        }
    }
}
