//! # qosc-netsim
//!
//! The network substrate of the `qosc` reproduction of *"A QoS-based
//! Service Composition for Content Adaptation"* (ICDE 2007).
//!
//! The paper's selection algorithm consumes one network primitive:
//! `Bandwidth_AvailableBetween(Ti, Tprev)` (Equa. 2) — the bandwidth
//! available between the intermediate server running one trans-coding
//! service and the server running the next, with "an unlimited amount of
//! bandwidth" between services on the same host (Section 4.3). The paper
//! ran on real proxies; we substitute a deterministic simulator that
//! provides exactly that query plus what the streaming pipeline needs:
//!
//! * [`Topology`] — nodes (intermediate servers with CPU/memory capacity)
//!   and links (capacity, propagation delay, loss, transmission price),
//! * [`routing`] — minimum-delay routes between nodes,
//! * [`Network`] — the facade: available bandwidth along a route
//!   (bottleneck of per-link headroom), reservations that consume
//!   capacity for admitted sessions, and seeded background-traffic
//!   dynamics so that bandwidth *fluctuates* over time (Section 3,
//!   "Network Profile"),
//! * [`events`] — a discrete-event core (time-ordered queue) the
//!   streaming pipeline schedules on,
//! * [`memo`] — the debug-build memo-off switch, a test oracle.
//!
//! Determinism: all randomness is seeded (`StdRng`), all iteration is in
//! index order, so every experiment is reproducible bit-for-bit.

pub mod bandwidth;
pub mod dynamics;
pub mod events;
pub mod generators;
pub mod memo;
pub mod network;
pub mod routing;
pub mod topology;

pub use bandwidth::{Reservation, ReservationId};
pub use dynamics::BackgroundTraffic;
pub use events::{EventQueue, SimTime};
pub use network::{Network, PathAnnotation};
pub use routing::Route;
pub use topology::{Link, LinkId, Node, NodeId, Topology};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A node id was used with a topology it does not belong to.
    UnknownNode(NodeId),
    /// A link id was used with a topology it does not belong to.
    UnknownLink(LinkId),
    /// No route exists between two nodes (partitioned topology).
    NoRoute {
        /// Route origin.
        from: NodeId,
        /// Route destination.
        to: NodeId,
    },
    /// A reservation would exceed a link's available capacity.
    InsufficientBandwidth {
        /// The bottleneck link.
        link: LinkId,
        /// Bits per second requested.
        requested: f64,
        /// Bits per second available.
        available: f64,
    },
    /// A reservation id was released twice or never existed.
    UnknownReservation(ReservationId),
    /// A link or node was declared with a non-physical parameter.
    InvalidParameter(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownNode(id) => write!(f, "unknown node {id:?}"),
            NetError::UnknownLink(id) => write!(f, "unknown link {id:?}"),
            NetError::NoRoute { from, to } => write!(f, "no route from {from:?} to {to:?}"),
            NetError::InsufficientBandwidth {
                link,
                requested,
                available,
            } => write!(
                f,
                "link {link:?} cannot fit {requested} bit/s (available {available} bit/s)"
            ),
            NetError::UnknownReservation(id) => write!(f, "unknown reservation {id:?}"),
            NetError::InvalidParameter(detail) => write!(f, "invalid parameter: {detail}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetError>;
