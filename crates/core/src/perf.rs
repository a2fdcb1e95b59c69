//! The paper's closed-form performance models, as code.
//!
//! §3 reports parametrized cost functions for every critical foMPI call,
//! measured on Blue Waters. The benchmark harness prints them next to the
//! same costs measured on this implementation, one row per constant or
//! call with their ratio (`results/models.csv`), and users can do what §6
//! suggests — e.g. pick Fence vs PSCW by testing
//! `fence(p) > post(k) + complete(k) + start() + wait()`.
//!
//! The hardware terms (Pput, Pget, PCAS, o, g, Psync) are the live fabric's
//! [`CostModel`], the table `fompi-simnet` prices from too; only the paper's
//! measured composites of whole protocols are kept here.
//!
//! All results in nanoseconds; `s` is bytes, `p` processes, `k` neighbours.

use fompi_fabric::cost::{CostModel, Transport::Dmapp};

/// Paper model constants (Blue Waters, Cray XE6/Gemini).
#[derive(Debug, Clone)]
pub struct PaperModel {
    /// The hardware costs: Pput / Pget are its DMAPP put / get latencies,
    /// PCAS its AMO latency, o / g / Psync its injection, gap and sync costs.
    pub cost: CostModel,
    /// Pacc,sum = PCAS + accsum_byte·s (DMAPP-accelerated MPI_SUM).
    pub accsum_byte: f64,
    /// Pacc,min = accmin_byte·s + accmin_base (lock-fallback MPI_MIN).
    pub accmin_base: f64,
    /// Per-byte fallback-accumulate cost.
    pub accmin_byte: f64,
    /// Pfence = fence_log · log2 p.
    pub fence_log: f64,
    /// Ppost = Pcomplete = pscw_per_neighbor · k.
    pub pscw_per_neighbor: f64,
    /// Pstart.
    pub start: f64,
    /// Pwait.
    pub wait: f64,
    /// Plock,excl.
    pub lock_excl: f64,
    /// Plock,shrd = Plock_all.
    pub lock_shared: f64,
    /// Punlock = Punlock_all.
    pub unlock: f64,
    /// Pflush.
    pub flush: f64,
}

impl Default for PaperModel {
    fn default() -> Self {
        Self {
            cost: CostModel::default(),
            accsum_byte: 28.0,
            accmin_base: 7_300.0,
            accmin_byte: 0.8,
            fence_log: 2_900.0,
            pscw_per_neighbor: 350.0,
            start: 700.0,
            wait: 1_800.0,
            lock_excl: 5_400.0,
            lock_shared: 2_700.0,
            unlock: 400.0,
            flush: 76.0,
        }
    }
}

impl PaperModel {
    /// Pput(s): the fabric's DMAPP put latency, protocol change included.
    pub fn put(&self, s: usize) -> f64 {
        self.cost.put_latency(Dmapp, s)
    }

    /// Pget(s): the fabric's DMAPP get latency, protocol change included.
    pub fn get(&self, s: usize) -> f64 {
        self.cost.get_latency(Dmapp, s)
    }

    /// Per-message injection overhead o (DMAPP descriptor build + doorbell).
    pub fn inject(&self) -> f64 {
        self.cost.dmapp_inject_ns
    }

    /// PCAS (8-byte compare-and-swap): one DMAPP AMO.
    pub fn cas(&self) -> f64 {
        self.cost.dmapp_amo_ns
    }

    /// Pacc,sum(s).
    pub fn acc_sum(&self, s: usize) -> f64 {
        self.cas() + self.accsum_byte * s as f64
    }

    /// Pacc,min(s).
    pub fn acc_min(&self, s: usize) -> f64 {
        self.accmin_base + self.accmin_byte * s as f64
    }

    /// Pfence(p).
    pub fn fence(&self, p: usize) -> f64 {
        self.fence_log * (p.max(2) as f64).log2()
    }

    /// Ppost(k) (= Pcomplete(k)).
    pub fn post(&self, k: usize) -> f64 {
        self.pscw_per_neighbor * k as f64
    }

    /// Full PSCW round for k neighbours: post + start + complete + wait.
    pub fn pscw_round(&self, k: usize) -> f64 {
        2.0 * self.post(k) + self.start + self.wait
    }

    /// §6's example rule: prefer PSCW over fence when the fence is costlier.
    pub fn prefer_pscw(&self, p: usize, k: usize) -> bool {
        self.fence(p) > self.pscw_round(k)
    }

    /// Closed-form cost of a burst of `n` contiguous `s`-byte puts with
    /// issue-side batching: one injection, `n-1` issue gaps, one wire
    /// message of the combined size. Compare [`PaperModel::put_unbatched`].
    pub fn put_batched(&self, n: usize, s: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.inject() + (n - 1) as f64 * self.cost.dmapp_gap_ns + self.put(n * s)
    }

    /// The same `n` puts without batching: each pays its own injection and
    /// its own wire message. (The per-byte terms are identical — below the
    /// 4 KiB protocol change batching wins exactly `(n-1)·(o + put base - g)`.)
    pub fn put_unbatched(&self, n: usize, s: usize) -> f64 {
        n as f64 * (self.inject() + self.put(s))
    }

    /// Closed-form cost of one notified put of `s` bytes (foMPI-NA-style:
    /// the data and its completion notification fuse into one call). The
    /// origin pays two injections — the put and the notification AMO that
    /// trails it in the DMAPP ordered class — and the notification is
    /// visible once both the data and the AMO latency have elapsed:
    /// `2·inject + max(Pput(s), Pacc,sum(8))`.
    pub fn put_notified(&self, s: usize) -> f64 {
        2.0 * self.inject() + self.put(s).max(self.acc_sum(8))
    }

    /// One producer-consumer channel round over notified access
    /// (`msg::channel`) on a ring of `slots`: a notified put of the
    /// payload, plus its share of the credit flowing back — one bare
    /// notification returns ⌈slots/2⌉ slots (`fompi::lane`).
    pub fn channel_round(&self, s: usize, slots: usize) -> f64 {
        self.put_notified(s) + self.notify_post() / slots.div_ceil(2) as f64
    }

    /// Cost of a bare notification post (the bulk credit return): one
    /// injection, and the record rides the AMO's ordered path.
    pub fn notify_post(&self) -> f64 {
        self.inject() + self.acc_sum(8)
    }

    /// One fan-in message round over a remote-memory channel
    /// (`fompi-rmc`): because each producer owns a private slot region on
    /// the consumer (record `source` replaces any shared cursor), the data
    /// path adds *nothing* over the SPSC channel — a notified put in, a
    /// share of a credit record back.
    pub fn rmc_fanin_round(&self, s: usize, slots: usize) -> f64 {
        self.channel_round(s, slots)
    }
}

/// Instruction counts the paper reports for foMPI fast paths (§2.3/§2.4/§6),
/// and the derived ns overheads at the 2.3 GHz Interlagos clock.
pub mod overhead {
    /// Instructions added by MPI_Put/MPI_Get on the optimized critical path.
    pub const PUT_GET_INSTRUCTIONS: u32 = 173;
    /// Instructions added by the flush family.
    pub const FLUSH_INSTRUCTIONS: u32 = 78;
    /// Approximate instructions for one intra-node message injection (§3.1.2
    /// reports ≈190 instructions ≈ 80 ns).
    pub const INJECT_INSTRUCTIONS: u32 = 190;
    /// Interlagos clock, GHz.
    pub const CLOCK_GHZ: f64 = 2.3;

    /// Convert an instruction count to nanoseconds at ~1 IPC.
    pub fn instr_ns(instructions: u32) -> f64 {
        instructions as f64 / CLOCK_GHZ
    }

    /// foMPI put/get software overhead in ns (≈75 ns).
    pub fn put_get_ns() -> f64 {
        instr_ns(PUT_GET_INSTRUCTIONS)
    }

    /// foMPI flush software overhead in ns (≈34 ns; the paper's measured
    /// Pflush = 76 ns includes the DMAPP bulk-completion check).
    pub fn flush_ns() -> f64 {
        instr_ns(FLUSH_INSTRUCTIONS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_at_published_points() {
        let m = PaperModel::default();
        assert!((m.put(8) - 1001.28).abs() < 0.01);
        assert!((m.get(8) - 1901.36).abs() < 0.01);
        assert!((m.fence(8) - 2900.0 * 3.0).abs() < 1e-9);
        assert!((m.post(2) - 700.0).abs() < 1e-9);
    }

    #[test]
    fn fence_vs_pscw_crossover_exists() {
        let m = PaperModel::default();
        // Small k, large p: PSCW wins.
        assert!(m.prefer_pscw(1 << 16, 2));
        // Huge k at tiny p: fence wins.
        assert!(!m.prefer_pscw(2, 64));
    }

    #[test]
    fn batched_model_amortizes_injection() {
        let m = PaperModel::default();
        // A single op gains nothing from a burst.
        assert!((m.put_batched(1, 8) - (m.inject() + m.put(8))).abs() < 1e-9);
        assert!((m.put_unbatched(1, 8) - m.put_batched(1, 8)).abs() < 1e-9);
        // An 8-op burst of small puts pays one base latency, not eight.
        let gain = m.put_unbatched(8, 8) - m.put_batched(8, 8);
        let (put_base, gap) = (m.cost.dmapp_put_base_ns, m.cost.dmapp_gap_ns);
        assert!((gain - 7.0 * (m.inject() + put_base - gap)).abs() < 1e-6);
        assert!(m.put_batched(8, 8) < 0.5 * m.put_unbatched(8, 8));
    }

    #[test]
    fn overheads_are_sub_microsecond() {
        assert!(overhead::put_get_ns() < 100.0);
        assert!(overhead::flush_ns() < 50.0);
    }

    #[test]
    fn channel_round_is_put_plus_its_share_of_a_credit() {
        let m = PaperModel::default();
        let s = 256;
        // One- and two-slot rings return every slot on its own record…
        for slots in [1, 2] {
            let round = m.put_notified(s) + m.notify_post();
            assert!((m.channel_round(s, slots) - round).abs() < 1e-9);
        }
        // …an eight-slot ring one record per four slots.
        let round = m.put_notified(s) + m.notify_post() / 4.0;
        assert!((m.channel_round(s, 8) - round).abs() < 1e-9);
        assert!(m.notify_post() > m.acc_sum(8));
    }

    #[test]
    fn rmc_fanin_is_faa_free() {
        // The MPMC fan-in data path must cost exactly the SPSC channel
        // round: per-producer slot regions mean no shared cursor, no FAA.
        let m = PaperModel::default();
        for s in [8usize, 256, 4096] {
            for slots in [1, 8] {
                assert!((m.rmc_fanin_round(s, slots) - m.channel_round(s, slots)).abs() < 1e-9);
            }
        }
    }
}
