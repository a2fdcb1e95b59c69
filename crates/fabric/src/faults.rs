//! Deterministic fault injection — the "chaos" side of the software NIC.
//!
//! The paper's protocols (§2.2–2.3) are argued correct assuming a
//! well-behaved NIC. Real fabrics jitter latencies, retire completions out
//! of issue order, backpressure injection queues, deschedule ranks (OS
//! noise) and transiently fail memory registrations. This module perturbs
//! the virtual-time substrate in exactly those ways so the synchronisation
//! protocols can be soaked for correctness under adversity, while keeping
//! every run **bit-deterministic for a given seed**.
//!
//! ## Determinism contract
//!
//! Each rank owns an independent PRNG stream derived from the plan's root
//! seed ([`crate::rng::splitmix64`]` (seed ^ rank-salt)`), so the sequence
//! of draws a rank makes depends only on its own program order — never on
//! thread scheduling. For the same reason, faults are drawn **only at
//! call sites executed a deterministic number of times**: issue-side
//! operations (`put`/`get`/AMO issue, releases, attach). Polling
//! primitives (`read_sync`, `amo_sync` retry loops) spin a
//! schedule-dependent number of times under contention and therefore never
//! touch the fault RNG — exactly as a real NIC perturbs packets, not the
//! CPU's spin loop.
//!
//! ## Ordering invariants preserved
//!
//! Completion delays are applied to an operation's *own* completion time
//! before any ordering combination, so DMAPP's ordering classes survive:
//! [`crate::Endpoint::amo_sync_release_ordered`] still publishes
//! `max(own completion, pending horizon)` — a delayed release AMO can
//! never pass the data it fences. Unordered flavours (implicit puts,
//! plain releases) may retire arbitrarily late relative to each other,
//! which is what the soak harness stresses.
//!
//! The disabled path is a bit of the endpoint's own [`crate::Hooks`] byte,
//! fixed at launch.

use crate::rng::{parse_u64, splitmix64, Rng};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rank-salt stride for deriving per-rank RNG streams from the root seed.
const RANK_STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Classes of injected fault, for counters and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultKind {
    /// Proportional per-op latency jitter.
    Jitter,
    /// Heavy-tail latency spike (bounded Pareto).
    Spike,
    /// Delayed retirement of a nonblocking/implicit completion.
    Delay,
    /// Injection-queue backpressure (origin clock stalled, or a
    /// nonblocking issue rejected with [`crate::FabricError::Backpressure`]).
    Backpressure,
    /// Rank pause — simulated OS noise descheduling the whole rank.
    Pause,
    /// Transient registration failure on the attach path
    /// ([`crate::FabricError::SegmentBusy`]).
    Busy,
}

impl FaultKind {
    /// Number of fault classes.
    pub const COUNT: usize = 6;

    /// All kinds in `index` order.
    pub const ALL: [FaultKind; FaultKind::COUNT] = [
        FaultKind::Jitter,
        FaultKind::Spike,
        FaultKind::Delay,
        FaultKind::Backpressure,
        FaultKind::Pause,
        FaultKind::Busy,
    ];

    /// Dense index for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Jitter => "jitter",
            FaultKind::Spike => "spike",
            FaultKind::Delay => "delay",
            FaultKind::Backpressure => "backpressure",
            FaultKind::Pause => "pause",
            FaultKind::Busy => "busy",
        }
    }
}

/// A complete, seeded description of what to inject. Probabilities are per
/// eligible operation; magnitudes are virtual nanoseconds. The all-zero
/// plan ([`FaultPlan::disabled`]) injects nothing and is never armed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed; per-rank streams are derived from it.
    pub seed: u64,
    /// Proportional latency jitter: each op's wire latency is multiplied
    /// by `1 + U[0, jitter_frac)`.
    pub jitter_frac: f64,
    /// Probability of a heavy-tail latency spike on an op.
    pub spike_prob: f64,
    /// Spike scale: spikes are `spike_ns / sqrt(U)`, capped at 64×.
    pub spike_ns: f64,
    /// Probability a nonblocking/implicit completion retires late.
    pub delay_prob: f64,
    /// Maximum extra retirement delay (uniform in `[0, delay_ns)`).
    pub delay_ns: f64,
    /// Probability the injection queue backpressures an op's issue.
    pub bp_prob: f64,
    /// Maximum issue stall (uniform in `[0, bp_ns)`); also scales the
    /// `retry_after_ns` hint on rejected nonblocking issues.
    pub bp_ns: f64,
    /// Probability an explicit-nonblocking issue is *rejected* with
    /// [`crate::FabricError::Backpressure`] instead of stalled (callers
    /// must retry after the hinted delay).
    pub bp_reject_prob: f64,
    /// Probability an op observes the rank being descheduled (OS noise).
    pub pause_prob: f64,
    /// Pause length scale: pauses are `pause_ns · (0.5 + U)`.
    pub pause_ns: f64,
    /// Probability a registration attempt fails transiently
    /// ([`crate::FabricError::SegmentBusy`]).
    pub busy_prob: f64,
    /// Busy retry hint scale: `busy_ns · (0.5 + U)`.
    pub busy_ns: f64,
}

impl FaultPlan {
    /// The inert plan: nothing is ever injected.
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            jitter_frac: 0.0,
            spike_prob: 0.0,
            spike_ns: 0.0,
            delay_prob: 0.0,
            delay_ns: 0.0,
            bp_prob: 0.0,
            bp_ns: 0.0,
            bp_reject_prob: 0.0,
            pause_prob: 0.0,
            pause_ns: 0.0,
            busy_prob: 0.0,
            busy_ns: 0.0,
        }
    }

    /// A mild plan: realistic fabric weather. Jitter on every op, rare
    /// spikes and pauses, occasional delayed completions.
    pub fn light(seed: u64) -> Self {
        FaultPlan {
            seed,
            jitter_frac: 0.10,
            spike_prob: 0.01,
            spike_ns: 5_000.0,
            delay_prob: 0.05,
            delay_ns: 3_000.0,
            bp_prob: 0.02,
            bp_ns: 2_000.0,
            bp_reject_prob: 0.0,
            pause_prob: 0.005,
            pause_ns: 20_000.0,
            busy_prob: 0.0,
            busy_ns: 1_000.0,
        }
    }

    /// An adversarial plan: heavy jitter, frequent reordering, rejected
    /// issues and transient registration failures. This is the soak
    /// harness's storm setting.
    pub fn heavy(seed: u64) -> Self {
        FaultPlan {
            seed,
            jitter_frac: 0.50,
            spike_prob: 0.05,
            spike_ns: 20_000.0,
            delay_prob: 0.20,
            delay_ns: 10_000.0,
            bp_prob: 0.10,
            bp_ns: 5_000.0,
            bp_reject_prob: 0.02,
            pause_prob: 0.02,
            pause_ns: 50_000.0,
            busy_prob: 0.25,
            busy_ns: 1_000.0,
        }
    }

    /// Replace the seed, keeping the rest of the plan.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Does the plan inject anything at all?
    pub fn any(&self) -> bool {
        self.jitter_frac > 0.0
            || self.spike_prob > 0.0
            || self.delay_prob > 0.0
            || self.bp_prob > 0.0
            || self.bp_reject_prob > 0.0
            || self.pause_prob > 0.0
            || self.busy_prob > 0.0
    }

    /// Parse a `FOMPI_FAULTS` spec. Grammar (see EXPERIMENTS.md):
    ///
    /// * `0` / empty — disabled (`Ok(None)`);
    /// * `1` or `light` — [`FaultPlan::light`];
    /// * `heavy` — [`FaultPlan::heavy`];
    /// * a comma-separated `key=value` list over a **light** base:
    ///   `seed`, `jitter`, `spike`, `spike_ns`, `delay`, `delay_ns`, `bp`,
    ///   `bp_ns`, `bp_reject`, `pause`, `pause_ns`, `busy`, `busy_ns` —
    ///   e.g. `FOMPI_FAULTS=seed=42,jitter=0.3,busy=0.2`. The shorthands
    ///   may also prefix the list: `heavy,seed=7`.
    ///
    /// The seed, unless given, is `default_seed` (the root seed,
    /// `FOMPI_SEED`). Malformed clauses are an error naming the clause,
    /// which callers must surface and never swallow as "disabled": nothing
    /// is worse than believing a soak ran under chaos when a typo turned
    /// it off.
    pub fn parse(spec: &str, default_seed: u64) -> Result<Option<Self>, FaultParseError> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "0" {
            return Ok(None);
        }
        let err = |clause: &str, reason: &str| FaultParseError {
            clause: clause.to_string(),
            reason: reason.to_string(),
        };
        let mut plan = FaultPlan::light(default_seed);
        for part in spec.split(',') {
            let part = part.trim();
            match part {
                "" => continue,
                "1" | "light" => plan = FaultPlan::light(plan.seed),
                "heavy" => plan = FaultPlan::heavy(plan.seed),
                _ => {
                    let Some((key, val)) = part.split_once('=') else {
                        return Err(err(part, "expected `light`, `heavy` or `key=value`"));
                    };
                    let key = key.trim();
                    let val = val.trim();
                    if key == "seed" {
                        plan.seed = parse_u64(val)
                            .ok_or_else(|| err(part, "seed wants a decimal or 0x-hex u64"))?;
                        continue;
                    }
                    let v: f64 = val.parse().map_err(|_| err(part, "value must be a number"))?;
                    match key {
                        "jitter" => plan.jitter_frac = v,
                        "spike" => plan.spike_prob = v,
                        "spike_ns" => plan.spike_ns = v,
                        "delay" => plan.delay_prob = v,
                        "delay_ns" => plan.delay_ns = v,
                        "bp" => plan.bp_prob = v,
                        "bp_ns" => plan.bp_ns = v,
                        "bp_reject" => plan.bp_reject_prob = v,
                        "pause" => plan.pause_prob = v,
                        "pause_ns" => plan.pause_ns = v,
                        "busy" => plan.busy_prob = v,
                        "busy_ns" => plan.busy_ns = v,
                        _ => return Err(err(part, "unknown key")),
                    }
                }
            }
        }
        Ok(Some(plan))
    }
}

/// A malformed `FOMPI_FAULTS` clause: what was wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// The offending comma-separated clause, verbatim.
    pub clause: String,
    /// Why it was rejected.
    pub reason: String,
}

impl std::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} in clause `{}`", self.reason, self.clause)
    }
}

impl std::error::Error for FaultParseError {}

/// What one issue-side draw decided to inject. All fields are virtual ns;
/// zero means "not injected".
#[derive(Debug, Clone, Copy, Default)]
pub struct OpFaults {
    /// Rank pause charged at issue (OS noise).
    pub pause_ns: f64,
    /// Injection-queue stall charged at issue.
    pub stall_ns: f64,
    /// Extra wire latency (jitter + spike) added to the op's completion.
    pub extra_ns: f64,
    /// Extra retirement delay for delayable (nonblocking) completions.
    pub delay_ns: f64,
}

/// Per-rank fault state. Single-writer: only the owning rank's thread
/// draws from its stream (the same discipline as telemetry's event rings).
struct RankFaults {
    rng: UnsafeCell<Rng>,
}

// SAFETY: each rank's stream is touched only from that rank's thread; the
// container is shared read-only. Same justification as telemetry's
// per-rank rings.
unsafe impl Sync for RankFaults {}

/// The fault hub, owned by [`crate::Fabric`]. Whether it is armed is
/// decided when it is built and never changes — the fig4a latency path
/// stays unperturbed when no plan is armed.
pub struct Faults {
    active: bool,
    plan: FaultPlan,
    ranks: Box<[RankFaults]>,
    injected: [AtomicU64; FaultKind::COUNT],
}

impl Faults {
    /// Build the hub for `p` ranks. Armed iff `plan` injects anything.
    pub fn new(p: usize, plan: FaultPlan) -> Self {
        let ranks = (0..p as u64)
            .map(|r| RankFaults {
                rng: UnsafeCell::new(Rng::seed_from_u64(splitmix64(
                    plan.seed.wrapping_add((r + 1).wrapping_mul(RANK_STREAM_SALT)),
                ))),
            })
            .collect();
        Faults { active: plan.any(), plan, ranks, injected: Default::default() }
    }

    /// Is any fault injection armed?
    #[inline]
    pub fn active(&self) -> bool {
        self.active
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many faults of `kind` have been injected so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()].load(Ordering::Relaxed)
    }

    /// Total injected faults across all classes.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    #[inline]
    fn count(&self, kind: FaultKind) {
        self.injected[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn rng_ptr(&self, rank: u32) -> *mut Rng {
        self.ranks[rank as usize].rng.get()
    }

    /// Draw the faults hitting one issue-side operation whose unperturbed
    /// wire latency is `base_ns`. `delayable` marks completions that may
    /// legally retire late (nonblocking/implicit flavours and unordered
    /// releases). Callers must have checked [`Faults::active`]; this is
    /// the cold path and deliberately out-of-line.
    #[inline(never)]
    pub fn draw_op(&self, rank: u32, base_ns: f64, delayable: bool) -> OpFaults {
        let p = &self.plan;
        // SAFETY: single-writer per rank (see `RankFaults`).
        let rng = unsafe { &mut *self.rng_ptr(rank) };
        let mut out = OpFaults::default();
        if p.pause_prob > 0.0 && rng.next_f64() < p.pause_prob {
            out.pause_ns = p.pause_ns * (0.5 + rng.next_f64());
            self.count(FaultKind::Pause);
        }
        if p.bp_prob > 0.0 && rng.next_f64() < p.bp_prob {
            out.stall_ns = p.bp_ns * rng.next_f64();
            self.count(FaultKind::Backpressure);
        }
        if p.jitter_frac > 0.0 {
            let j = base_ns * p.jitter_frac * rng.next_f64();
            if j > 0.0 {
                out.extra_ns += j;
                self.count(FaultKind::Jitter);
            }
        }
        if p.spike_prob > 0.0 && rng.next_f64() < p.spike_prob {
            // Bounded Pareto-ish tail: median ≈ spike_ns·√2, capped 64×.
            let u = rng.next_f64().max(1e-9);
            out.extra_ns += (p.spike_ns / u.sqrt()).min(64.0 * p.spike_ns);
            self.count(FaultKind::Spike);
        }
        if delayable && p.delay_prob > 0.0 && rng.next_f64() < p.delay_prob {
            out.delay_ns = p.delay_ns * rng.next_f64();
            self.count(FaultKind::Delay);
        }
        out
    }

    /// Should this explicit-nonblocking issue be rejected with
    /// backpressure? Returns the retry hint. Callers must have checked
    /// [`Faults::active`].
    #[inline(never)]
    pub fn draw_reject(&self, rank: u32) -> Option<u64> {
        let p = &self.plan;
        if p.bp_reject_prob <= 0.0 {
            return None;
        }
        // SAFETY: single-writer per rank (see `RankFaults`).
        let rng = unsafe { &mut *self.rng_ptr(rank) };
        if rng.next_f64() < p.bp_reject_prob {
            self.count(FaultKind::Backpressure);
            Some((p.bp_ns.max(100.0) * (0.5 + rng.next_f64())) as u64)
        } else {
            None
        }
    }

    /// Should this registration attempt fail transiently? Returns the
    /// retry hint. Safe to call on the disabled path (checks `active`
    /// itself — attach is not latency-critical).
    pub fn draw_busy(&self, rank: u32) -> Option<u64> {
        if !self.active() {
            return None;
        }
        let p = &self.plan;
        if p.busy_prob <= 0.0 {
            return None;
        }
        // SAFETY: single-writer per rank (see `RankFaults`).
        let rng = unsafe { &mut *self.rng_ptr(rank) };
        if rng.next_f64() < p.busy_prob {
            self.count(FaultKind::Busy);
            Some((p.busy_ns.max(100.0) * (0.5 + rng.next_f64())) as u64)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_inert() {
        let f = Faults::new(4, FaultPlan::disabled());
        assert!(!f.active());
        assert_eq!(f.draw_busy(0), None);
        assert_eq!(f.total_injected(), 0);
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let a = Faults::new(2, FaultPlan::heavy(42));
        let b = Faults::new(2, FaultPlan::heavy(42));
        for _ in 0..200 {
            let x = a.draw_op(0, 1000.0, true);
            let y = b.draw_op(0, 1000.0, true);
            assert_eq!(x.pause_ns.to_bits(), y.pause_ns.to_bits());
            assert_eq!(x.stall_ns.to_bits(), y.stall_ns.to_bits());
            assert_eq!(x.extra_ns.to_bits(), y.extra_ns.to_bits());
            assert_eq!(x.delay_ns.to_bits(), y.delay_ns.to_bits());
        }
        assert_eq!(a.total_injected(), b.total_injected());
        assert!(a.total_injected() > 0, "heavy plan must actually inject");
    }

    #[test]
    fn rank_streams_are_independent() {
        // Draws on rank 1 must not perturb rank 0's stream.
        let a = Faults::new(2, FaultPlan::heavy(7));
        let b = Faults::new(2, FaultPlan::heavy(7));
        let mut xs = Vec::new();
        for i in 0..50 {
            if i % 2 == 0 {
                a.draw_op(1, 500.0, false); // interleaved noise on rank 1
            }
            xs.push(a.draw_op(0, 1000.0, true).extra_ns.to_bits());
        }
        for x in xs {
            assert_eq!(x, b.draw_op(0, 1000.0, true).extra_ns.to_bits());
        }
    }

    #[test]
    fn spike_tail_is_bounded() {
        let f = Faults::new(1, FaultPlan { spike_prob: 1.0, ..FaultPlan::heavy(3) });
        for _ in 0..1000 {
            let d = f.draw_op(0, 0.0, false);
            assert!(d.extra_ns <= 64.0 * f.plan().spike_ns + 1e-9);
        }
    }

    #[test]
    fn busy_draws_eventually_pass() {
        let f = Faults::new(1, FaultPlan::heavy(11));
        let mut tries = 0;
        while f.draw_busy(0).is_some() {
            tries += 1;
            assert!(tries < 1000, "busy_prob 0.25 cannot fail forever");
        }
    }

    #[test]
    fn parse_shorthands_and_overrides() {
        assert_eq!(FaultPlan::parse("0", 1), Ok(None));
        assert_eq!(FaultPlan::parse("", 1), Ok(None));
        let light = FaultPlan::parse("1", 5).unwrap().unwrap();
        assert_eq!(light, FaultPlan::light(5), "no seed clause: the default seed");
        let h = FaultPlan::parse("heavy,seed=0x2A", 1).unwrap().unwrap();
        assert_eq!(h.seed, 42);
        assert_eq!(h.busy_prob, FaultPlan::heavy(0).busy_prob);
        let c = FaultPlan::parse("seed=9,jitter=0.3,busy=0.2,busy_ns=500", 1).unwrap().unwrap();
        assert_eq!(c.seed, 9);
        assert_eq!(c.jitter_frac, 0.3);
        assert_eq!(c.busy_prob, 0.2);
        assert_eq!(c.busy_ns, 500.0);
    }

    #[test]
    fn parse_errors_name_the_offending_clause() {
        // A bare word that is not a shorthand is an error, not "disabled".
        let e = FaultPlan::parse("nonsense", 1).unwrap_err();
        assert_eq!(e.clause, "nonsense");
        // A non-numeric value names its clause.
        let e = FaultPlan::parse("heavy,jitter=abc,busy=0.2", 1).unwrap_err();
        assert_eq!(e.clause, "jitter=abc");
        assert!(e.to_string().contains("jitter=abc"), "{e}");
        // Unknown keys are errors too (typo'd chaos must not run clean).
        let e = FaultPlan::parse("jittr=0.3", 1).unwrap_err();
        assert_eq!(e.clause, "jittr=0.3");
        assert!(e.reason.contains("unknown key"));
        // Bad seeds are caught.
        let e = FaultPlan::parse("seed=0xZZ", 1).unwrap_err();
        assert_eq!(e.clause, "seed=0xZZ");
        // Display carries enough to act on.
        assert!(FaultPlan::parse("busy_ns=", 1)
            .unwrap_err()
            .to_string()
            .contains("must be a number"));
    }

    #[test]
    fn reject_draws_follow_probability() {
        let f = Faults::new(1, FaultPlan { bp_reject_prob: 1.0, ..FaultPlan::heavy(5) });
        assert!(f.draw_reject(0).is_some());
        let g = Faults::new(1, FaultPlan { bp_reject_prob: 0.0, ..FaultPlan::heavy(5) });
        assert!(g.draw_reject(0).is_none());
    }
}
