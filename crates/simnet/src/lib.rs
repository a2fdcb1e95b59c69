//! # fompi-simnet — large-scale protocol simulation
//!
//! The paper's scaling figures run on up to 524,288 processes of Blue
//! Waters; real threads top out around a few hundred on one machine. This
//! crate closes the gap with three complementary simulators. They price
//! hardware from the live fabric's [`fompi_fabric::cost::CostModel`] and
//! each layer's software path from the crate that charges it (`fompi`,
//! `fompi-pgas`, `fompi-msg`; see [`net`]), so an edited constant moves the
//! live run and the simulation together.
//!
//! * [`engine`] — a classic discrete-event core (event heap + actors) used
//!   where message interleaving matters (NBX consensus, hashtable service
//!   queues);
//! * [`net`] — where each cost is read from, a 3-D-torus link-occupancy
//!   model for congestion (the Gemini network) and OS noise;
//! * [`patterns`] — vector-time round simulations of the *exact protocol
//!   structures* implemented in the live crates: dissemination barrier
//!   (fence), PSCW ring post/start/complete/wait, lock acquisition
//!   sequences — exact for these synchronous patterns and cheap enough for
//!   p = 512 Ki, with optional per-rank OS-noise injection (the jitter the
//!   paper observes beyond ~1000 processes);
//! * [`figures`] — per-figure series generators (6b, 6c, 7a, 7b, 7c, 8)
//!   combining the above with documented analytic terms where full DES
//!   would be prohibitive (e.g. 32 Ki-rank alltoall is charged per the
//!   pairwise-exchange algorithm rather than replayed message by message).
//!
//! Everything here predicts *shape* — who wins, by what factor, where
//! curves bend. Absolute constants come from the paper's Gemini
//! measurements; tests pin the qualitative properties (log-p fence,
//! p-independent PSCW, protocol orderings, crossovers).

pub mod engine;
pub mod figures;
pub mod net;
pub mod patterns;
pub mod protocols;

pub use engine::{Actor, Api, Sim};
pub use net::Torus3D;

/// splitmix64 — deterministic hashing for simulated random targets.
pub fn net_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
