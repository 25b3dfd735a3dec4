//! The DCF state machine.
//!
//! [`Mac`] implements the IEEE 802.11 Distributed Coordination Function as
//! an *effect machine*: the runner (or a test) feeds it [`MacInput`]s and
//! applies the [`MacEffect`]s it returns. The machine never talks to a
//! scheduler, a medium, or another node directly, which is what makes the
//! protocol logic unit-testable in isolation.
//!
//! # Protocol summary
//!
//! A sender with a queued packet backs off: once the channel (physical
//! carrier sense ∨ NAV) has been idle for DIFS, it counts down one slot
//! per idle slot time, freezing whenever the channel goes busy. At zero it
//! transmits an RTS and waits for a CTS; on CTS it sends DATA after SIFS
//! and waits for an ACK. A missing CTS or ACK increments the attempt
//! number, widens the contention window (per the policy), and backs off
//! again; after `retry_limit` attempts the packet is dropped. Receivers
//! respond to RTS with CTS (when their NAV is idle), to DATA with ACK, and
//! filter duplicate DATA by sequence number. Overheard frames addressed to
//! others update the NAV from their Duration field.
//!
//! Everything the paper's modified protocol changes — who picks backoff
//! values, what rides in CTS/ACK, what the receiver measures — enters
//! through the [`BackoffPolicy`] and is exercised by the same machine.

use std::collections::{BTreeMap, VecDeque};

use airguard_obs::{exchange_id, EventSink, ObsEvent};
use airguard_sim::trace::emit;
use airguard_sim::{NodeId, RngStream, SimDuration, SimTime};

use crate::drift::ClockDriftState;
use crate::frames::{ExchangeDurations, Frame, FrameKind, FramePool, FrameRef};
use crate::idle::IdleSlotCounter;
use crate::policy::{BackoffObservation, BackoffPolicy, PacketVerdict};
use crate::timing::{MacTiming, Slots};

/// Timers the MAC can arm. At most one timer per kind is pending; setting
/// a kind that is already pending replaces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKind {
    /// Backoff countdown completion (DIFS + remaining slots).
    Backoff,
    /// CTS was not decoded in time after our RTS.
    CtsTimeout,
    /// ACK was not decoded in time after our DATA.
    AckTimeout,
    /// SIFS gap before transmitting a queued response (CTS/DATA/ACK).
    Response,
    /// The NAV reservation expires.
    NavExpire,
    /// NAV-reset check (802.11 §9.2.5.4): a NAV set from an overheard RTS
    /// is cancelled if the exchange it announced never starts.
    NavReset,
}

impl TimerKind {
    /// Number of timer kinds (size of a dense per-node timer table).
    pub const COUNT: usize = 6;

    /// Dense index in `0..COUNT`, for array-backed timer tables on the
    /// simulation hot path.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            TimerKind::Backoff => 0,
            TimerKind::CtsTimeout => 1,
            TimerKind::AckTimeout => 2,
            TimerKind::Response => 3,
            TimerKind::NavExpire => 4,
            TimerKind::NavReset => 5,
        }
    }
}

/// Inputs to the MAC state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum MacInput {
    /// The physical channel became busy (includes this node's own
    /// transmissions, as reported by the PHY reception tracker).
    ChannelBusy,
    /// The physical channel became idle.
    ChannelIdle,
    /// A frame was decoded intact at this node (any destination; the MAC
    /// filters and handles NAV for overheard frames). The handle is
    /// shared with the medium: decoding never copies the frame.
    Decoded(FrameRef),
    /// Our own transmission finished on air.
    OwnTxEnd,
    /// A previously set timer expired.
    Timer(TimerKind),
    /// The application queues a packet of `bytes` payload bytes for `dst`.
    Enqueue {
        /// Destination node.
        dst: NodeId,
        /// Payload size in bytes.
        bytes: u32,
    },
}

/// Effects the MAC asks its environment to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum MacEffect {
    /// Put the frame on the air now. The environment must deliver
    /// [`MacInput::OwnTxEnd`] when its air time elapses. The handle is
    /// shared with the MAC's own `on_air` slot — one allocation serves
    /// the whole transmission.
    StartTx(FrameRef),
    /// Arm (or re-arm) the timer of this kind to fire after `after`.
    SetTimer {
        /// Which timer.
        kind: TimerKind,
        /// Delay from now.
        after: SimDuration,
    },
    /// Cancel the pending timer of this kind, if any.
    CancelTimer(TimerKind),
    /// A new (non-duplicate) data packet arrived for the application.
    Delivered {
        /// Originating sender.
        src: NodeId,
        /// Sender-local sequence number.
        seq: u64,
        /// Payload bytes.
        bytes: u32,
    },
    /// A packet we sent was acknowledged.
    SendComplete {
        /// The receiver that acknowledged.
        dst: NodeId,
        /// Sequence number of the acknowledged packet.
        seq: u64,
        /// Payload bytes.
        bytes: u32,
        /// How many transmission attempts it took.
        attempts: u8,
        /// Total MAC delay: enqueue to ACK reception (queueing + access
        /// + retries).
        delay: SimDuration,
    },
    /// A packet exhausted its retry limit and was dropped.
    Dropped {
        /// Intended receiver.
        dst: NodeId,
        /// Sequence number of the dropped packet.
        seq: u64,
        /// Attempts made (= retry limit).
        attempts: u8,
    },
    /// The receiver-side policy classified a delivered packet
    /// (the diagnosis scheme's per-packet output).
    Classified {
        /// The sender the verdict is about.
        src: NodeId,
        /// The verdict.
        verdict: PacketVerdict,
    },
}

/// A queued outgoing packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packet {
    dst: NodeId,
    bytes: u32,
    seq: u64,
    enqueued_at: SimTime,
}

/// Sender-side protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SenderState {
    /// Nothing to send.
    Idle,
    /// Backoff countdown in progress (possibly frozen).
    Backoff,
    /// RTS sent; waiting for CTS.
    AwaitCts,
    /// CTS received; DATA queued/sent; waiting for ACK.
    AwaitAck,
}

/// Channel-access mode: whether data transfer is preceded by an
/// RTS/CTS reservation.
///
/// The paper assumes RTS/CTS (footnote 2) but notes the scheme "can be
/// applied even when RTS/CTS exchange is not used"; under
/// [`AccessMode::Basic`] the attempt number rides in the DATA frame and
/// the receiver measures `B_act` up to the DATA arrival instead of the
/// RTS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessMode {
    /// Four-way handshake: RTS → CTS → DATA → ACK.
    #[default]
    RtsCts,
    /// Two-way handshake: DATA → ACK.
    Basic,
}

/// MAC-level configuration knobs beyond the shared timing set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacConfig {
    /// Timing and window parameters.
    pub timing: MacTiming,
    /// Channel-access mode.
    pub access: AccessMode,
    /// Maximum number of packets held in the transmit queue; excess
    /// enqueues are dropped (and counted).
    pub queue_limit: usize,
    /// Extra slack added to CTS/ACK timeouts beyond SIFS + response air
    /// time, covering propagation both ways.
    pub timeout_slack: SimDuration,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            timing: MacTiming::dsss_2mbps(),
            access: AccessMode::RtsCts,
            queue_limit: 512,
            timeout_slack: SimDuration::from_micros(30),
        }
    }
}

/// Counters exposed for metrics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacCounters {
    /// RTS frames transmitted.
    pub rts_sent: u64,
    /// CTS timeouts experienced.
    pub cts_timeouts: u64,
    /// ACK timeouts experienced.
    pub ack_timeouts: u64,
    /// Packets dropped at the retry limit.
    pub retry_drops: u64,
    /// Packets dropped at enqueue because the queue was full.
    pub queue_drops: u64,
    /// Duplicate DATA frames filtered.
    pub duplicates: u64,
}

/// The DCF state machine for one node.
#[derive(Debug)]
pub struct Mac<P> {
    id: NodeId,
    cfg: MacConfig,
    policy: P,
    rng: RngStream,
    sink: EventSink,

    // Channel view.
    phys_busy: bool,
    nav_until: SimTime,
    virtual_busy: bool,
    idle_counter: IdleSlotCounter,
    /// Injected clock drift applied to every idle-slot reading the
    /// diagnosis path consumes (identity unless a fault plan sets it).
    drift: ClockDriftState,
    /// When the channel last turned physically busy (for the NAV-reset
    /// rule).
    last_busy_start: SimTime,

    // Sender side.
    queue: VecDeque<Packet>,
    next_seq: u64,
    sender: SenderState,
    attempt: u8,
    remaining: Slots,
    countdown_base: Option<SimTime>,

    // Shared transmit path. Frames are pool-allocated so the steady
    // state recycles the same few allocations run-long.
    on_air: Option<FrameRef>,
    pending_response: Option<FrameRef>,
    pool: FramePool,

    // Receiver side.
    last_delivered: BTreeMap<NodeId, u64>,

    counters: MacCounters,
}

impl<P: BackoffPolicy> Mac<P> {
    /// Creates a MAC for node `id`. The channel is assumed idle at time
    /// zero.
    #[must_use]
    pub fn new(id: NodeId, cfg: MacConfig, policy: P, rng: RngStream) -> Self {
        let mut idle_counter = IdleSlotCounter::new(&cfg.timing);
        idle_counter.on_idle(SimTime::ZERO);
        Mac {
            id,
            cfg,
            policy,
            rng,
            sink: EventSink::new(),
            phys_busy: false,
            nav_until: SimTime::ZERO,
            virtual_busy: false,
            idle_counter,
            drift: ClockDriftState::NONE,
            last_busy_start: SimTime::ZERO,
            queue: VecDeque::new(),
            next_seq: 0,
            sender: SenderState::Idle,
            attempt: 1,
            remaining: Slots::ZERO,
            countdown_base: None,
            on_air: None,
            pending_response: None,
            pool: FramePool::new(),
            last_delivered: BTreeMap::new(),
            counters: MacCounters::default(),
        }
    }

    /// Attaches a telemetry sink.
    pub fn set_trace(&mut self, sink: EventSink) {
        self.sink = sink;
    }

    /// Injects clock drift into this node's diagnosis-path idle-slot
    /// readings (fault injection only; the default is no drift).
    pub fn set_clock_drift(&mut self, drift: ClockDriftState) {
        self.drift = drift;
    }

    /// The idle-slot reading the diagnosis path observes at `now`,
    /// through this node's (possibly drifting) clock.
    fn observed_idle(&self, now: SimTime) -> u64 {
        self.drift.observe(self.idle_counter.reading(now))
    }

    /// Simulates a node crash at `now`: every piece of transient MAC
    /// state — queue, exchange in progress, NAV, carrier view, idle
    /// counter — is wiped, as a power cycle would. Two things survive
    /// deliberately: the sequence counter (`next_seq` stays monotonic so
    /// peers' duplicate filters remain correct across the restart) and
    /// the policy, whose own reset the caller drives separately
    /// according to the fault plan's monitor-survival choice.
    pub fn crash_reset(&mut self, now: SimTime) {
        self.phys_busy = false;
        self.nav_until = SimTime::ZERO;
        self.virtual_busy = false;
        self.idle_counter = IdleSlotCounter::new(&self.cfg.timing);
        self.idle_counter.on_idle(now);
        self.last_busy_start = now;
        self.queue.clear();
        self.sender = SenderState::Idle;
        self.attempt = 1;
        self.remaining = Slots::ZERO;
        self.countdown_base = None;
        self.on_air = None;
        self.pending_response = None;
        self.last_delivered.clear();
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The policy, for end-of-run inspection.
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the policy (used by tests and the runner to
    /// extract final monitor state).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Event counters.
    #[must_use]
    pub fn counters(&self) -> MacCounters {
        self.counters
    }

    /// Number of queued (not yet acknowledged) packets.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the MAC currently perceives the channel as busy
    /// (physical carrier sense or NAV).
    #[must_use]
    pub fn channel_busy(&self) -> bool {
        self.virtual_busy
    }

    /// Main entry point: process one input at virtual time `now`.
    ///
    /// Allocates a fresh effect vector per call; the hot loop in the
    /// simulation runner uses [`Mac::handle_into`] with a reused scratch
    /// buffer instead.
    pub fn handle(&mut self, now: SimTime, input: MacInput) -> Vec<MacEffect> {
        let mut fx = Vec::new();
        self.handle_into(now, input, &mut fx);
        fx
    }

    /// Allocation-free entry point: process one input, appending effects
    /// to a caller-owned buffer (which the caller typically clears and
    /// reuses across calls).
    pub fn handle_into(&mut self, now: SimTime, input: MacInput, fx: &mut Vec<MacEffect>) {
        match input {
            MacInput::ChannelBusy => {
                self.phys_busy = true;
                self.last_busy_start = now;
                self.update_virtual(now, fx);
            }
            MacInput::ChannelIdle => {
                self.phys_busy = false;
                self.update_virtual(now, fx);
            }
            MacInput::Decoded(frame) => self.on_decoded(now, &frame, fx),
            MacInput::OwnTxEnd => self.on_own_tx_end(now, fx),
            MacInput::Timer(kind) => self.on_timer(now, kind, fx),
            MacInput::Enqueue { dst, bytes } => self.on_enqueue(now, dst, bytes, fx),
        }
    }

    // ------------------------------------------------------------------
    // Channel state
    // ------------------------------------------------------------------

    fn update_virtual(&mut self, now: SimTime, fx: &mut Vec<MacEffect>) {
        let busy = self.phys_busy || now < self.nav_until;
        if busy == self.virtual_busy {
            return;
        }
        self.virtual_busy = busy;
        if busy {
            self.idle_counter.on_busy(now);
            self.freeze_countdown(now, fx);
        } else {
            self.idle_counter.on_idle(now);
            self.resume_countdown(now, fx);
        }
    }

    fn freeze_countdown(&mut self, now: SimTime, fx: &mut Vec<MacEffect>) {
        if let Some(base) = self.countdown_base.take() {
            let elapsed = now.saturating_since(base) / self.cfg.timing.slot;
            let elapsed = Slots::new(elapsed.min(u64::from(self.remaining.count())) as u32);
            self.remaining = self.remaining - elapsed;
            fx.push(MacEffect::CancelTimer(TimerKind::Backoff));
        }
    }

    fn resume_countdown(&mut self, now: SimTime, fx: &mut Vec<MacEffect>) {
        if self.sender == SenderState::Backoff
            && !self.virtual_busy
            && self.on_air.is_none()
            && self.countdown_base.is_none()
        {
            let difs = self.cfg.timing.difs;
            self.countdown_base = Some(now + difs);
            fx.push(MacEffect::SetTimer {
                kind: TimerKind::Backoff,
                after: difs + self.remaining.to_duration(&self.cfg.timing),
            });
        }
    }

    // ------------------------------------------------------------------
    // Sender side
    // ------------------------------------------------------------------

    fn on_enqueue(&mut self, now: SimTime, dst: NodeId, bytes: u32, fx: &mut Vec<MacEffect>) {
        assert!(dst != self.id, "node cannot send to itself");
        if self.queue.len() >= self.cfg.queue_limit {
            self.counters.queue_drops += 1;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(Packet {
            dst,
            bytes,
            seq,
            enqueued_at: now,
        });
        if self.sender == SenderState::Idle {
            self.begin_next_packet(now, fx);
        }
    }

    fn begin_next_packet(&mut self, now: SimTime, fx: &mut Vec<MacEffect>) {
        match self.queue.front() {
            None => self.sender = SenderState::Idle,
            Some(pkt) => {
                let dst = pkt.dst;
                self.attempt = 1;
                self.remaining = self
                    .policy
                    .fresh_backoff(dst, &self.cfg.timing, &mut self.rng);
                self.sender = SenderState::Backoff;
                emit(
                    &self.sink,
                    now,
                    self.id,
                    ObsEvent::BackoffDrawn {
                        dst: dst.value(),
                        slots: self.remaining.count(),
                    },
                );
                self.resume_countdown(now, fx);
            }
        }
    }

    fn transmit_access_frame(&mut self, now: SimTime, fx: &mut Vec<MacEffect>) {
        let pkt = *self.queue.front().expect("backoff without a packet"); // lint:allow(panic-expect) — a backoff countdown is only armed while the head-of-line packet exists; an empty queue here is state-machine corruption
        let ext = self.policy.uses_protocol_extensions();
        let durations = ExchangeDurations::compute(&self.cfg.timing, pkt.bytes, ext);
        let attempt_field = if ext {
            self.policy.report_attempt(self.attempt)
        } else {
            0
        };
        let frame = match self.cfg.access {
            AccessMode::RtsCts => {
                self.counters.rts_sent += 1;
                self.sender = SenderState::AwaitCts;
                Frame {
                    kind: FrameKind::Rts,
                    src: self.id,
                    dst: pkt.dst,
                    duration_field: durations.rts,
                    attempt: attempt_field,
                    assigned_backoff: None,
                    payload_bytes: 0,
                    seq: pkt.seq,
                }
            }
            AccessMode::Basic => {
                self.sender = SenderState::AwaitAck;
                Frame {
                    kind: FrameKind::Data,
                    src: self.id,
                    dst: pkt.dst,
                    duration_field: durations.data,
                    attempt: attempt_field,
                    assigned_backoff: None,
                    payload_bytes: pkt.bytes,
                    seq: pkt.seq,
                }
            }
        };
        let xid = exchange_id(self.id.value(), pkt.seq);
        let event = match frame.kind {
            FrameKind::Rts => ObsEvent::RtsTx {
                dst: pkt.dst.value(),
                seq: pkt.seq,
                attempt: self.attempt,
                xid,
            },
            _ => ObsEvent::DataTx {
                dst: pkt.dst.value(),
                seq: pkt.seq,
                attempt: self.attempt,
                xid,
            },
        };
        emit(&self.sink, now, self.id, event);
        let frame = self.pool.alloc(frame);
        self.on_air = Some(frame.share());
        fx.push(MacEffect::StartTx(frame));
    }

    /// Forwards a monitor measurement to telemetry: every observation
    /// becomes a `BackoffAssigned` event, and a non-zero penalty
    /// additionally emits `PenaltyAdded`.
    fn emit_observation(
        &self,
        now: SimTime,
        src: NodeId,
        seq: u64,
        obs: Option<BackoffObservation>,
    ) {
        let Some(obs) = obs else { return };
        let xid = exchange_id(src.value(), seq);
        emit(
            &self.sink,
            now,
            self.id,
            ObsEvent::BackoffAssigned {
                src: src.value(),
                assigned_slots: obs.assigned_slots,
                observed_slots: obs.observed_slots,
                xid,
            },
        );
        if obs.penalty_slots > 0.0 {
            emit(
                &self.sink,
                now,
                self.id,
                ObsEvent::PenaltyAdded {
                    src: src.value(),
                    penalty_slots: obs.penalty_slots,
                    assigned_slots: obs.assigned_slots,
                    observed_slots: obs.observed_slots,
                    xid,
                },
            );
        }
    }

    fn response_air_time(&self, kind: FrameKind) -> SimDuration {
        let ext = if self.policy.uses_protocol_extensions() {
            2
        } else {
            0
        };
        self.cfg.timing.air_time(kind.base_bytes() + ext)
    }

    fn handle_failure(&mut self, now: SimTime, ack_timeout: bool, fx: &mut Vec<MacEffect>) {
        let pkt = *self.queue.front().expect("timeout without a packet"); // lint:allow(panic-expect) — CTS/ACK timeouts are cancelled when the head-of-line packet is dequeued, so a firing timeout implies the packet is still queued
        self.attempt += 1;
        if self.attempt > self.cfg.timing.retry_limit {
            self.counters.retry_drops += 1;
            emit(
                &self.sink,
                now,
                self.id,
                ObsEvent::PacketDropped {
                    seq: pkt.seq,
                    attempts: self.attempt - 1,
                },
            );
            fx.push(MacEffect::Dropped {
                dst: pkt.dst,
                seq: pkt.seq,
                attempts: self.attempt - 1,
            });
            self.queue.pop_front();
            self.begin_next_packet(now, fx);
        } else {
            self.remaining =
                self.policy
                    .retry_backoff(pkt.dst, self.attempt, &self.cfg.timing, &mut self.rng);
            self.sender = SenderState::Backoff;
            emit(
                &self.sink,
                now,
                self.id,
                ObsEvent::Retry {
                    ack: ack_timeout,
                    attempt: self.attempt,
                    slots: self.remaining.count(),
                },
            );
            self.resume_countdown(now, fx);
        }
    }

    // ------------------------------------------------------------------
    // Frame handling
    // ------------------------------------------------------------------

    fn on_decoded(&mut self, now: SimTime, frame: &Frame, fx: &mut Vec<MacEffect>) {
        if frame.dst != self.id {
            self.policy
                .observe_overheard(frame, self.observed_idle(now), &self.cfg.timing);
            self.apply_nav(now, frame, fx);
            return;
        }
        match frame.kind {
            FrameKind::Rts => self.on_rts(now, frame, fx),
            FrameKind::Cts => self.on_cts(now, frame, fx),
            FrameKind::Data => self.on_data(now, frame, fx),
            FrameKind::Ack => self.on_ack(now, frame, fx),
        }
    }

    fn apply_nav(&mut self, now: SimTime, frame: &Frame, fx: &mut Vec<MacEffect>) {
        if frame.duration_field.is_zero() {
            return;
        }
        let until = now + frame.duration_field;
        if until > self.nav_until {
            self.nav_until = until;
            fx.push(MacEffect::SetTimer {
                kind: TimerKind::NavExpire,
                after: frame.duration_field,
            });
            if frame.kind == FrameKind::Rts {
                // 802.11 NAV-reset: if the announced CTS never starts, drop
                // the reservation instead of idling through a dead exchange
                // (this also keeps B_act aligned between honest senders and
                // the receiver's monitor).
                let check = self.cfg.timing.sifs
                    + self.response_air_time(FrameKind::Cts)
                    + self.cfg.timing.slot * 2;
                fx.push(MacEffect::SetTimer {
                    kind: TimerKind::NavReset,
                    after: check,
                });
            }
            self.update_virtual(now, fx);
        }
    }

    fn on_rts(&mut self, now: SimTime, frame: &Frame, fx: &mut Vec<MacEffect>) {
        // 802.11: respond only if the NAV shows the medium free; also skip
        // if a response is already queued (we can only say one thing at a
        // time).
        if now < self.nav_until || self.pending_response.is_some() {
            emit(
                &self.sink,
                now,
                self.id,
                ObsEvent::RtsIgnored {
                    src: frame.src.value(),
                },
            );
            return;
        }
        if !self
            .policy
            .should_respond_rts(frame.src, frame.seq, frame.attempt, &mut self.rng)
        {
            // Attempt-verification probe (§4.1): pretend the RTS was lost.
            emit(
                &self.sink,
                now,
                self.id,
                ObsEvent::ProbeDropped {
                    src: frame.src.value(),
                },
            );
            return;
        }
        let observation = self.policy.observe_rts(
            frame.src,
            frame.seq,
            frame.attempt,
            self.observed_idle(now),
            &self.cfg.timing,
            &mut self.rng,
        );
        self.emit_observation(now, frame.src, frame.seq, observation);
        let assigned = self.policy.assignment_for(frame.src, &self.cfg.timing);
        let cts_air = self.response_air_time(FrameKind::Cts);
        let cts = Frame {
            kind: FrameKind::Cts,
            src: self.id,
            dst: frame.src,
            duration_field: frame
                .duration_field
                .saturating_sub(self.cfg.timing.sifs + cts_air),
            attempt: 0,
            assigned_backoff: assigned,
            payload_bytes: 0,
            seq: frame.seq,
        };
        self.pending_response = Some(self.pool.alloc(cts));
        fx.push(MacEffect::SetTimer {
            kind: TimerKind::Response,
            after: self.cfg.timing.sifs,
        });
    }

    fn on_cts(&mut self, now: SimTime, frame: &Frame, fx: &mut Vec<MacEffect>) {
        let Some(pkt) = self.queue.front().copied() else {
            return;
        };
        if self.sender != SenderState::AwaitCts || frame.src != pkt.dst {
            return;
        }
        fx.push(MacEffect::CancelTimer(TimerKind::CtsTimeout));
        let ext = self.policy.uses_protocol_extensions();
        let durations = ExchangeDurations::compute(&self.cfg.timing, pkt.bytes, ext);
        let data = Frame {
            kind: FrameKind::Data,
            src: self.id,
            dst: pkt.dst,
            duration_field: durations.data,
            attempt: 0,
            assigned_backoff: None,
            payload_bytes: pkt.bytes,
            seq: pkt.seq,
        };
        self.sender = SenderState::AwaitAck;
        self.pending_response = Some(self.pool.alloc(data));
        fx.push(MacEffect::SetTimer {
            kind: TimerKind::Response,
            after: self.cfg.timing.sifs,
        });
        emit(
            &self.sink,
            now,
            self.id,
            ObsEvent::CtsRx {
                src: frame.src.value(),
                seq: pkt.seq,
                xid: exchange_id(self.id.value(), pkt.seq),
            },
        );
    }

    fn on_data(&mut self, now: SimTime, frame: &Frame, fx: &mut Vec<MacEffect>) {
        let duplicate = self
            .last_delivered
            .get(&frame.src)
            .is_some_and(|&s| frame.seq <= s);
        if duplicate {
            self.counters.duplicates += 1;
        } else {
            if self.cfg.access == AccessMode::Basic {
                // Without an RTS, the DATA frame itself is the access
                // event the monitor measures against.
                let observation = self.policy.observe_rts(
                    frame.src,
                    frame.seq,
                    frame.attempt,
                    self.observed_idle(now),
                    &self.cfg.timing,
                    &mut self.rng,
                );
                self.emit_observation(now, frame.src, frame.seq, observation);
            }
            self.last_delivered.insert(frame.src, frame.seq);
            fx.push(MacEffect::Delivered {
                src: frame.src,
                seq: frame.seq,
                bytes: frame.payload_bytes,
            });
            if let Some(verdict) = self.policy.observe_data(frame.src) {
                if verdict.flagged {
                    emit(
                        &self.sink,
                        now,
                        self.id,
                        ObsEvent::DiagnosisFlagged {
                            src: frame.src.value(),
                            window_sum: verdict.window_sum,
                            xid: exchange_id(frame.src.value(), frame.seq),
                        },
                    );
                }
                fx.push(MacEffect::Classified {
                    src: frame.src,
                    verdict,
                });
            }
        }
        // ACK even duplicates: the sender needs to stop retrying.
        if self.pending_response.is_some() {
            emit(
                &self.sink,
                now,
                self.id,
                ObsEvent::AckSuppressed {
                    src: frame.src.value(),
                },
            );
            return;
        }
        let assigned = self.policy.assignment_for(frame.src, &self.cfg.timing);
        let ack = Frame {
            kind: FrameKind::Ack,
            src: self.id,
            dst: frame.src,
            duration_field: SimDuration::ZERO,
            attempt: 0,
            assigned_backoff: assigned,
            payload_bytes: 0,
            seq: frame.seq,
        };
        self.pending_response = Some(self.pool.alloc(ack));
        fx.push(MacEffect::SetTimer {
            kind: TimerKind::Response,
            after: self.cfg.timing.sifs,
        });
    }

    fn on_ack(&mut self, now: SimTime, frame: &Frame, fx: &mut Vec<MacEffect>) {
        let Some(pkt) = self.queue.front().copied() else {
            return;
        };
        if self.sender != SenderState::AwaitAck || frame.src != pkt.dst || frame.seq != pkt.seq {
            return;
        }
        fx.push(MacEffect::CancelTimer(TimerKind::AckTimeout));
        self.policy.observe_assignment(
            frame.src,
            frame.seq,
            frame.assigned_backoff,
            &self.cfg.timing,
        );
        fx.push(MacEffect::SendComplete {
            dst: pkt.dst,
            seq: pkt.seq,
            bytes: pkt.bytes,
            attempts: self.attempt,
            delay: now.saturating_since(pkt.enqueued_at),
        });
        emit(
            &self.sink,
            now,
            self.id,
            ObsEvent::AckRx {
                src: frame.src.value(),
                seq: pkt.seq,
                xid: exchange_id(self.id.value(), pkt.seq),
            },
        );
        self.queue.pop_front();
        self.begin_next_packet(now, fx);
    }

    // ------------------------------------------------------------------
    // Own transmissions and timers
    // ------------------------------------------------------------------

    fn on_own_tx_end(&mut self, now: SimTime, fx: &mut Vec<MacEffect>) {
        let frame = self.on_air.take().expect("OwnTxEnd without a frame on air"); // lint:allow(panic-expect) — OwnTxEnd is only scheduled by our own TxStart, which sets on_air; a miss means the PHY/MAC contract is broken
        match frame.kind {
            FrameKind::Rts => {
                let after = self.cfg.timing.sifs
                    + self.response_air_time(FrameKind::Cts)
                    + self.cfg.timeout_slack;
                fx.push(MacEffect::SetTimer {
                    kind: TimerKind::CtsTimeout,
                    after,
                });
            }
            FrameKind::Data => {
                let after = self.cfg.timing.sifs
                    + self.response_air_time(FrameKind::Ack)
                    + self.cfg.timeout_slack;
                fx.push(MacEffect::SetTimer {
                    kind: TimerKind::AckTimeout,
                    after,
                });
            }
            FrameKind::Cts => {}
            FrameKind::Ack => {
                self.policy
                    .observe_ack_sent(frame.dst, self.observed_idle(now));
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, kind: TimerKind, fx: &mut Vec<MacEffect>) {
        match kind {
            TimerKind::Backoff => {
                debug_assert_eq!(self.sender, SenderState::Backoff, "stray backoff timer");
                self.countdown_base = None;
                self.remaining = Slots::ZERO;
                if self.on_air.is_none() {
                    self.transmit_access_frame(now, fx);
                } else {
                    // Extremely rare tie with a response transmission;
                    // retry the access next time the channel goes idle.
                    emit(
                        &self.sink,
                        now,
                        self.id,
                        ObsEvent::Deferred { response: false },
                    );
                    self.resume_countdown(now, fx);
                }
            }
            TimerKind::CtsTimeout => {
                if self.sender == SenderState::AwaitCts {
                    self.counters.cts_timeouts += 1;
                    self.handle_failure(now, false, fx);
                }
            }
            TimerKind::AckTimeout => {
                if self.sender == SenderState::AwaitAck {
                    self.counters.ack_timeouts += 1;
                    self.handle_failure(now, true, fx);
                }
            }
            TimerKind::Response => {
                if let Some(frame) = self.pending_response.take() {
                    if self.on_air.is_some() {
                        emit(
                            &self.sink,
                            now,
                            self.id,
                            ObsEvent::Deferred { response: true },
                        );
                    } else {
                        let event = match frame.kind {
                            // CTS/ACK answer the exchange the *peer*
                            // originated, so their id carries the
                            // destination (the original sender), not us.
                            FrameKind::Cts => ObsEvent::CtsTx {
                                dst: frame.dst.value(),
                                xid: exchange_id(frame.dst.value(), frame.seq),
                            },
                            FrameKind::Ack => ObsEvent::AckTx {
                                dst: frame.dst.value(),
                                xid: exchange_id(frame.dst.value(), frame.seq),
                            },
                            _ => ObsEvent::DataTx {
                                dst: frame.dst.value(),
                                seq: frame.seq,
                                attempt: self.attempt,
                                xid: exchange_id(self.id.value(), frame.seq),
                            },
                        };
                        emit(&self.sink, now, self.id, event);
                        self.on_air = Some(frame.share());
                        fx.push(MacEffect::StartTx(frame));
                    }
                }
            }
            TimerKind::NavExpire => {
                self.update_virtual(now, fx);
            }
            TimerKind::NavReset => {
                // No transmission started since shortly after the RTS that
                // set the NAV: the announced exchange is dead.
                let window = self.cfg.timing.sifs
                    + self.response_air_time(FrameKind::Cts)
                    + self.cfg.timing.slot * 2;
                if !self.phys_busy && now.saturating_since(self.last_busy_start) >= window {
                    self.nav_until = now;
                    fx.push(MacEffect::CancelTimer(TimerKind::NavExpire));
                    self.update_virtual(now, fx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Dcf80211;
    use airguard_sim::MasterSeed;

    fn mac() -> Mac<Dcf80211> {
        Mac::new(
            NodeId::new(1),
            MacConfig::default(),
            Dcf80211::new(),
            MasterSeed::new(11).stream("mac-test", 1),
        )
    }

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    fn rts_to(dst: u32, src: u32) -> Frame {
        let timing = MacTiming::dsss_2mbps();
        let d = ExchangeDurations::compute(&timing, 512, false);
        Frame {
            kind: FrameKind::Rts,
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            duration_field: d.rts,
            attempt: 0,
            assigned_backoff: None,
            payload_bytes: 0,
            seq: 0,
        }
    }

    fn find_timer(fx: &[MacEffect], kind: TimerKind) -> Option<SimDuration> {
        fx.iter().find_map(|e| match e {
            MacEffect::SetTimer { kind: k, after } if *k == kind => Some(*after),
            _ => None,
        })
    }

    fn started_frame(fx: &[MacEffect]) -> Option<&Frame> {
        fx.iter().find_map(|e| match e {
            MacEffect::StartTx(f) => Some(&**f),
            _ => None,
        })
    }

    #[test]
    fn enqueue_on_idle_channel_arms_backoff_timer() {
        let mut m = mac();
        let fx = m.handle(
            t(0),
            MacInput::Enqueue {
                dst: NodeId::new(0),
                bytes: 512,
            },
        );
        let after = find_timer(&fx, TimerKind::Backoff).expect("backoff timer armed");
        // DIFS + backoff in [0, 31] slots.
        assert!(after >= SimDuration::from_micros(50));
        assert!(after <= SimDuration::from_micros(50 + 31 * 20));
    }

    #[test]
    fn backoff_expiry_transmits_rts() {
        let mut m = mac();
        let fx = m.handle(
            t(0),
            MacInput::Enqueue {
                dst: NodeId::new(0),
                bytes: 512,
            },
        );
        let after = find_timer(&fx, TimerKind::Backoff).unwrap();
        let fx = m.handle(t(after.as_micros()), MacInput::Timer(TimerKind::Backoff));
        let frame = started_frame(&fx).expect("RTS transmitted");
        assert_eq!(frame.kind, FrameKind::Rts);
        assert_eq!(frame.dst, NodeId::new(0));
        assert_eq!(m.counters().rts_sent, 1);
    }

    #[test]
    fn busy_channel_freezes_and_resumes_countdown() {
        let mut m = mac();
        let fx = m.handle(
            t(0),
            MacInput::Enqueue {
                dst: NodeId::new(0),
                bytes: 512,
            },
        );
        let total = find_timer(&fx, TimerKind::Backoff).unwrap();
        let slots = (total - SimDuration::from_micros(50)) / SimDuration::from_micros(20);
        if slots < 2 {
            return; // not enough slots to slice for this seed
        }
        // Freeze after DIFS + 1.5 slots: exactly 1 slot counted.
        let freeze_at = t(50 + 30);
        let fx = m.handle(freeze_at, MacInput::ChannelBusy);
        assert!(fx.contains(&MacEffect::CancelTimer(TimerKind::Backoff)));
        // Resume: remaining slots shrank by 1.
        let fx = m.handle(t(1_000), MacInput::ChannelIdle);
        let resumed = find_timer(&fx, TimerKind::Backoff).unwrap();
        assert_eq!(
            resumed,
            SimDuration::from_micros(50 + 20 * (slots - 1)),
            "one slot was consumed before the freeze"
        );
    }

    #[test]
    fn rts_gets_cts_after_sifs() {
        let mut m = mac();
        let fx = m.handle(t(100), MacInput::Decoded(rts_to(1, 5).into()));
        assert_eq!(
            find_timer(&fx, TimerKind::Response),
            Some(SimDuration::from_micros(10))
        );
        let fx = m.handle(t(110), MacInput::Timer(TimerKind::Response));
        let cts = started_frame(&fx).expect("CTS transmitted");
        assert_eq!(cts.kind, FrameKind::Cts);
        assert_eq!(cts.dst, NodeId::new(5));
        assert_eq!(cts.assigned_backoff, None, "baseline assigns nothing");
        // Duration shrinks by SIFS + CTS air time.
        let timing = MacTiming::dsss_2mbps();
        assert_eq!(
            cts.duration_field,
            rts_to(1, 5).duration_field - timing.sifs - timing.air_time(14)
        );
    }

    #[test]
    fn rts_ignored_while_nav_busy() {
        let mut m = mac();
        // Overhear a frame reserving the medium for 1000 µs.
        let mut overheard = rts_to(9, 5); // not addressed to us
        overheard.duration_field = SimDuration::from_micros(1_000);
        m.handle(t(0), MacInput::Decoded(overheard.into()));
        assert!(m.channel_busy(), "NAV makes channel virtually busy");
        let fx = m.handle(t(500), MacInput::Decoded(rts_to(1, 5).into()));
        assert!(
            find_timer(&fx, TimerKind::Response).is_none(),
            "no CTS during NAV"
        );
        // After NAV expiry the node responds again.
        m.handle(t(1_000), MacInput::Timer(TimerKind::NavExpire));
        assert!(!m.channel_busy());
        let fx = m.handle(t(1_100), MacInput::Decoded(rts_to(1, 5).into()));
        assert!(find_timer(&fx, TimerKind::Response).is_some());
    }

    #[test]
    fn data_is_delivered_once_and_acked_always() {
        let mut m = mac();
        let timing = MacTiming::dsss_2mbps();
        let d = ExchangeDurations::compute(&timing, 512, false);
        let mut data = rts_to(1, 5);
        data.kind = FrameKind::Data;
        data.payload_bytes = 512;
        data.duration_field = d.data;
        data.seq = 7;

        let fx = m.handle(t(0), MacInput::Decoded(data.clone().into()));
        assert!(fx.iter().any(|e| matches!(
            e,
            MacEffect::Delivered { src, seq: 7, bytes: 512 } if *src == NodeId::new(5)
        )));
        let fx = m.handle(t(10), MacInput::Timer(TimerKind::Response));
        assert_eq!(started_frame(&fx).unwrap().kind, FrameKind::Ack);
        m.handle(t(300), MacInput::OwnTxEnd);

        // Retransmission of the same seq: ACKed but not re-delivered.
        let fx = m.handle(t(5_000), MacInput::Decoded(data.into()));
        assert!(!fx.iter().any(|e| matches!(e, MacEffect::Delivered { .. })));
        assert_eq!(m.counters().duplicates, 1);
        let fx = m.handle(t(5_010), MacInput::Timer(TimerKind::Response));
        assert_eq!(started_frame(&fx).unwrap().kind, FrameKind::Ack);
    }

    #[test]
    fn full_sender_exchange_succeeds() {
        let mut m = mac();
        let timing = MacTiming::dsss_2mbps();
        // Enqueue and fire backoff.
        let fx = m.handle(
            t(0),
            MacInput::Enqueue {
                dst: NodeId::new(0),
                bytes: 512,
            },
        );
        let after = find_timer(&fx, TimerKind::Backoff).unwrap();
        let mut clock = after.as_micros();
        let fx = m.handle(t(clock), MacInput::Timer(TimerKind::Backoff));
        let rts = started_frame(&fx).unwrap().clone();
        // RTS on air.
        m.handle(t(clock), MacInput::ChannelBusy);
        clock += rts.air_time(&timing).as_micros();
        let fx = m.handle(t(clock), MacInput::OwnTxEnd);
        assert!(find_timer(&fx, TimerKind::CtsTimeout).is_some());
        m.handle(t(clock), MacInput::ChannelIdle);
        // CTS arrives.
        clock += 260;
        let mut cts = rts_to(1, 0);
        cts.kind = FrameKind::Cts;
        let fx = m.handle(t(clock), MacInput::Decoded(cts.into()));
        assert!(fx.contains(&MacEffect::CancelTimer(TimerKind::CtsTimeout)));
        // DATA goes out after SIFS.
        clock += 10;
        let fx = m.handle(t(clock), MacInput::Timer(TimerKind::Response));
        let data = started_frame(&fx).unwrap().clone();
        assert_eq!(data.kind, FrameKind::Data);
        assert_eq!(data.payload_bytes, 512);
        m.handle(t(clock), MacInput::ChannelBusy);
        clock += data.air_time(&timing).as_micros();
        let fx = m.handle(t(clock), MacInput::OwnTxEnd);
        assert!(find_timer(&fx, TimerKind::AckTimeout).is_some());
        m.handle(t(clock), MacInput::ChannelIdle);
        // ACK arrives.
        clock += 260;
        let mut ack = rts_to(1, 0);
        ack.kind = FrameKind::Ack;
        let fx = m.handle(t(clock), MacInput::Decoded(ack.into()));
        assert!(fx.iter().any(|e| matches!(
            e,
            MacEffect::SendComplete {
                seq: 0,
                bytes: 512,
                attempts: 1,
                ..
            }
        )));
        // Delay spans from the enqueue at t=0 to the ACK decode.
        let delay = fx.iter().find_map(|e| match e {
            MacEffect::SendComplete { delay, .. } => Some(*delay),
            _ => None,
        });
        assert_eq!(delay, Some(SimDuration::from_micros(clock)));
        assert_eq!(m.queue_len(), 0);
    }

    #[test]
    fn cts_timeout_retries_with_incremented_attempt() {
        let mut m = mac();
        let fx = m.handle(
            t(0),
            MacInput::Enqueue {
                dst: NodeId::new(0),
                bytes: 512,
            },
        );
        let after = find_timer(&fx, TimerKind::Backoff).unwrap();
        m.handle(t(after.as_micros()), MacInput::Timer(TimerKind::Backoff));
        m.handle(t(after.as_micros()), MacInput::ChannelBusy);
        let end = after.as_micros() + 272;
        m.handle(t(end), MacInput::OwnTxEnd);
        m.handle(t(end), MacInput::ChannelIdle);
        // Timeout fires.
        let fx = m.handle(t(end + 300), MacInput::Timer(TimerKind::CtsTimeout));
        assert_eq!(m.counters().cts_timeouts, 1);
        assert!(
            find_timer(&fx, TimerKind::Backoff).is_some(),
            "re-enters backoff"
        );
    }

    #[test]
    fn retry_limit_drops_packet() {
        let mut m = mac();
        m.handle(
            t(0),
            MacInput::Enqueue {
                dst: NodeId::new(0),
                bytes: 512,
            },
        );
        let mut clock = 0;
        let mut dropped = false;
        for round in 0..10 {
            clock += 100_000;
            let fx = m.handle(t(clock), MacInput::Timer(TimerKind::Backoff));
            if started_frame(&fx).is_none() {
                panic!("round {round}: no RTS");
            }
            m.handle(t(clock), MacInput::ChannelBusy);
            clock += 272;
            m.handle(t(clock), MacInput::OwnTxEnd);
            m.handle(t(clock), MacInput::ChannelIdle);
            clock += 300;
            let fx = m.handle(t(clock), MacInput::Timer(TimerKind::CtsTimeout));
            if fx
                .iter()
                .any(|e| matches!(e, MacEffect::Dropped { attempts: 7, .. }))
            {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "packet should be dropped after 7 attempts");
        assert_eq!(m.counters().retry_drops, 1);
        assert_eq!(m.queue_len(), 0);
    }

    #[test]
    fn overheard_frames_set_nav_and_count_busy() {
        let mut m = mac();
        let mut overheard = rts_to(9, 5);
        overheard.duration_field = SimDuration::from_micros(500);
        let fx = m.handle(t(0), MacInput::Decoded(overheard.into()));
        assert_eq!(
            find_timer(&fx, TimerKind::NavExpire),
            Some(SimDuration::from_micros(500))
        );
        assert!(m.channel_busy());
        // A shorter overheard reservation does not shrink the NAV.
        let mut shorter = rts_to(9, 6);
        shorter.duration_field = SimDuration::from_micros(100);
        let fx = m.handle(t(200), MacInput::Decoded(shorter.into()));
        assert!(find_timer(&fx, TimerKind::NavExpire).is_none());
        m.handle(t(500), MacInput::Timer(TimerKind::NavExpire));
        assert!(!m.channel_busy());
    }

    #[test]
    fn ack_with_wrong_seq_is_ignored() {
        let mut m = mac();
        let fx = m.handle(
            t(0),
            MacInput::Enqueue {
                dst: NodeId::new(0),
                bytes: 512,
            },
        );
        let after = find_timer(&fx, TimerKind::Backoff).unwrap();
        m.handle(t(after.as_micros()), MacInput::Timer(TimerKind::Backoff));
        m.handle(t(after.as_micros() + 272), MacInput::OwnTxEnd);
        let mut cts = rts_to(1, 0);
        cts.kind = FrameKind::Cts;
        m.handle(t(after.as_micros() + 600), MacInput::Decoded(cts.into()));
        let mut ack = rts_to(1, 0);
        ack.kind = FrameKind::Ack;
        ack.seq = 99; // wrong
        let fx = m.handle(t(after.as_micros() + 700), MacInput::Decoded(ack.into()));
        assert!(!fx
            .iter()
            .any(|e| matches!(e, MacEffect::SendComplete { .. })));
        assert_eq!(m.queue_len(), 1);
    }

    #[test]
    fn queue_limit_drops_excess_enqueues() {
        let mut m = Mac::new(
            NodeId::new(1),
            MacConfig {
                queue_limit: 2,
                ..MacConfig::default()
            },
            Dcf80211::new(),
            MasterSeed::new(5).stream("mac-test", 2),
        );
        for _ in 0..5 {
            m.handle(
                t(0),
                MacInput::Enqueue {
                    dst: NodeId::new(0),
                    bytes: 512,
                },
            );
        }
        assert_eq!(m.queue_len(), 2);
        assert_eq!(m.counters().queue_drops, 3);
    }

    #[test]
    #[should_panic(expected = "cannot send to itself")]
    fn self_addressed_enqueue_panics() {
        let mut m = mac();
        m.handle(
            t(0),
            MacInput::Enqueue {
                dst: NodeId::new(1),
                bytes: 512,
            },
        );
    }
}
