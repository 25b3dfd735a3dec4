//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the foundation of the `airguard` workspace: every other
//! crate (PHY, MAC, scenarios, benches) runs on top of the primitives
//! defined here.
//!
//! The kernel provides four things:
//!
//! * **Virtual time** — [`SimTime`] and [`SimDuration`] are microsecond
//!   resolution newtypes. Microseconds are exact for every IEEE 802.11
//!   DSSS interval used by the study (slot = 20 µs, SIFS = 10 µs,
//!   DIFS = 50 µs, PLCP preamble = 192 µs), so no floating-point drift can
//!   creep into slot accounting.
//! * **An event queue** — [`Scheduler`] orders events by `(time, sequence)`
//!   and supports O(1) logical cancellation through [`EventId`] handles,
//!   which the MAC uses to abort CTS/ACK timeouts and backoff completions.
//! * **Deterministic randomness** — [`rng::RngStream`] derives independent,
//!   reproducible RNGs from one master seed, keyed by a component label and
//!   index, so adding a new consumer of randomness never perturbs the
//!   random sequence observed by existing components.
//! * **Tracing** — [`trace::emit`] records typed events into a shared
//!   [`trace::EventSink`] at simulator time, which tests read to assert
//!   protocol sequences and the examples to narrate a run.
//!
//! # Example
//!
//! ```
//! use airguard_sim::{Scheduler, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_in(SimDuration::from_micros(10), Ev::Pong);
//! sched.schedule_in(SimDuration::from_micros(5), Ev::Ping);
//! let (t1, e1) = sched.pop().unwrap();
//! assert_eq!((t1, e1), (SimTime::from_micros(5), Ev::Ping));
//! let (t2, e2) = sched.pop().unwrap();
//! assert_eq!((t2, e2), (SimTime::from_micros(10), Ev::Pong));
//! assert!(sched.pop().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod ident;
pub mod rng;
mod time;
pub mod trace;

pub use event::{EventId, Scheduler};
pub use ident::NodeId;
pub use rng::{MasterSeed, RngStream};
pub use time::{SimDuration, SimTime};
