//! The simulator's typed emit seam into the telemetry sink.
//!
//! The runner, every MAC instance and every reception tracker write to
//! one shared [`EventSink`] (clones share the buffer), so a run yields a
//! single ordered record stream without threading lifetimes through the
//! simulator. [`emit`] converts the simulator's [`SimTime`] and
//! [`NodeId`] into the sink's raw microseconds and dense `u32` index. A
//! disabled sink rejects an event with one relaxed atomic load — no
//! allocation, no lock.

// Re-exported so crates that only talk to the simulator (e.g. the phy
// reception tracker) can emit typed events without their own obs edge.
pub use airguard_obs::{EventSink, ObsEvent};

use crate::ident::NodeId;
use crate::time::SimTime;

/// Records `event` at virtual time `time`, attributed to `node`, if the
/// sink has the event's category enabled.
///
/// ```
/// use airguard_sim::trace::{emit, EventSink, ObsEvent};
/// use airguard_sim::{NodeId, SimTime};
///
/// let sink = EventSink::enabled();
/// emit(&sink, SimTime::from_micros(10), NodeId::new(1), ObsEvent::CtsTx { dst: 2, xid: 0 });
/// assert_eq!((sink.records()[0].time_us, sink.records()[0].node), (10, 1));
/// ```
pub fn emit(sink: &EventSink, time: SimTime, node: NodeId, event: ObsEvent) {
    sink.emit(time.as_micros(), node.value(), event);
}
