//! Communication functions: put, get, accumulate and friends (§2.4).
//!
//! These "map nearly directly to low-level hardware functions":
//!
//! * [`Win::put`]/[`Win::get`] issue one implicit-nonblocking fabric op per
//!   contiguous block (one op total on the tuned contiguous fast path,
//!   adding only the paper's 173-instruction overhead), completed by the
//!   next flush/fence/complete;
//! * [`Win::accumulate`] and [`Win::get_accumulate`] use per-element
//!   hardware AMOs when DMAPP accelerates the (op, type) pair on an aligned
//!   span, otherwise the bufferless lock-get-accumulate-put fallback that
//!   avoids any receiver involvement in true passive mode. Which of the
//!   two is a function of `(op, kind, target alignment)` alone — never of
//!   the element count or the entry point — because the two protocols do
//!   not exclude each other on one location (DESIGN.md, "Accumulate
//!   routing");
//! * [`Win::fetch_and_op`]/[`Win::compare_and_swap`] are the fine-grained
//!   single-element specialisations.

use crate::dtype::{zip_blocks, DataType};
use crate::error::{FompiError, Result};
use crate::meta::off;
use crate::op::{MpiOp, NumKind};
use crate::perf::overhead;
use crate::racecheck::{acc_tag, amo_tag, ACC_CAS};
use crate::request::Request;
use crate::sync::Spin;
use crate::win::{AccessEpoch, Win};
use fompi_fabric::shadow::AccessKind;
use fompi_fabric::{AmoOp, FetchAmo, SegKey};

/// Where a communication call lands — the fabric location its prologue
/// resolved — and what its epilogue tells the race checker about it.
pub(crate) struct Landing {
    pub(crate) key: SegKey,
    pub(crate) off: usize,
    target: u32,
    /// Armed only: when the call began and the shadow address of `off`.
    rc: Option<(f64, usize)>,
}

impl Win {
    // ------------------------------------------------- the steps of a call
    //
    // validate arguments → prologue → fabric op(s) → epilogue (DESIGN.md,
    // "Anatomy of a window call").

    /// First half of the prologue: an access epoch covers `target` — or the
    /// call is refused before anything moves — and the put/get path pays
    /// its software overhead (`charged` is a constant of the call site).
    #[inline(always)]
    pub(crate) fn admit(&self, target: u32, charged: bool) -> Result<()> {
        self.trace_scope();
        let st = self.state.borrow();
        match &st.access {
            AccessEpoch::Fence | AccessEpoch::LockAll => {}
            AccessEpoch::Pscw(g) if g.contains(target) => {}
            AccessEpoch::Lock if st.locks.contains_key(&target) => {}
            _ => return Err(FompiError::NoAccessEpoch { target }),
        }
        if charged {
            self.ep.charge(overhead::put_get_ns());
        }
        Ok(())
    }

    /// Second half: resolve `len` bytes at `target_disp` of `target`'s
    /// window, noting for the race checker when that began.
    #[inline(always)]
    pub(crate) fn resolve(&self, target: u32, target_disp: usize, len: usize) -> Result<Landing> {
        let t0 = self.rc_start();
        let (key, off) = self.target_span(target, target_disp, len)?;
        Ok(Landing { key, off, target, rc: t0.map(|t0| (t0, self.rc_base(target_disp, off))) })
    }

    /// The whole prologue, for a call that validates nothing in between.
    #[inline(always)]
    pub(crate) fn begin(
        &self,
        target: u32,
        target_disp: usize,
        len: usize,
        charged: bool,
    ) -> Result<Landing> {
        self.admit(target, charged)?;
        self.resolve(target, target_disp, len)
    }

    /// The epilogue: the call touched `[rel, rel + len)` of where it
    /// landed, as `kind`. One hooks-byte test unless the checker is armed.
    #[inline(always)]
    pub(crate) fn landed(&self, at: &Landing, rel: usize, len: usize, kind: AccessKind) {
        if let Some((t0, base)) = at.rc {
            self.rc_remote(t0, at.target, base + rel, len, kind);
        }
    }

    // ------------------------------------------------------------- put/get

    /// MPI_Put of contiguous bytes. Completes at the next synchronisation
    /// (flush/unlock/fence/complete) — "bulk completion".
    pub fn put(&self, origin: &[u8], target: u32, target_disp: usize) -> Result<()> {
        let at = self.begin(target, target_disp, origin.len(), true)?;
        self.ep.put_implicit(at.key, at.off, origin)?;
        self.landed(&at, 0, origin.len(), AccessKind::Put);
        Ok(())
    }

    /// MPI_Get of contiguous bytes. The destination holds valid data after
    /// the next synchronisation.
    pub fn get(&self, dst: &mut [u8], target: u32, target_disp: usize) -> Result<()> {
        let at = self.begin(target, target_disp, dst.len(), true)?;
        self.ep.get_implicit(at.key, at.off, dst)?;
        self.landed(&at, 0, dst.len(), AccessKind::Get);
        Ok(())
    }

    /// Request-based put (MPI_Rput): returns a [`Request`] for fine-grained
    /// completion. Injection-queue backpressure (a transient refusal under
    /// an armed fault plan — nothing was issued) is retried here with the
    /// hinted backoff: MPI semantics permit it because an unissued op has
    /// no ordering footprint.
    pub fn rput(&self, origin: &[u8], target: u32, target_disp: usize) -> Result<Request> {
        let at = self.begin(target, target_disp, origin.len(), true)?;
        let h = self.retry_transient(|| self.ep.put_nb(at.key, at.off, origin))?;
        self.landed(&at, 0, origin.len(), AccessKind::Put);
        Ok(Request::new(self.ep.clone(), h))
    }

    /// Request-based get (MPI_Rget). Backpressure is retried as in
    /// [`Win::rput`].
    pub fn rget(&self, dst: &mut [u8], target: u32, target_disp: usize) -> Result<Request> {
        let at = self.begin(target, target_disp, dst.len(), true)?;
        let h = self.retry_transient(|| self.ep.get_nb(at.key, at.off, &mut *dst))?;
        self.landed(&at, 0, dst.len(), AccessKind::Get);
        Ok(Request::new(self.ep.clone(), h))
    }

    /// Datatyped MPI_Put: origin laid out as `origin_count × origin_ty`
    /// within `origin`, target as `target_count × target_ty` at
    /// `target_disp`. Split into the minimal number of contiguous blocks
    /// (§2.4, MPITypes) with one fabric op each.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI datatype signature
    pub fn put_typed(
        &self,
        origin: &[u8],
        origin_count: usize,
        origin_ty: &DataType,
        target: u32,
        target_disp: usize,
        target_count: usize,
        target_ty: &DataType,
    ) -> Result<()> {
        let (ob, tb) = (origin_ty.flatten(origin_count), target_ty.flatten(target_count));
        let extent = target_ty.extent() * target_count;
        let at = self.begin(target, target_disp, extent.max(1), true)?;
        for (oo, to, len) in zip_blocks(&ob, &tb)? {
            self.ep.put_implicit(at.key, at.off + to, &origin[oo..oo + len])?;
            self.landed(&at, to, len, AccessKind::Put);
        }
        Ok(())
    }

    /// Datatyped MPI_Get.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI datatype signature
    pub fn get_typed(
        &self,
        dst: &mut [u8],
        origin_count: usize,
        origin_ty: &DataType,
        target: u32,
        target_disp: usize,
        target_count: usize,
        target_ty: &DataType,
    ) -> Result<()> {
        let (ob, tb) = (origin_ty.flatten(origin_count), target_ty.flatten(target_count));
        let extent = target_ty.extent() * target_count;
        let at = self.begin(target, target_disp, extent.max(1), true)?;
        for (oo, to, len) in zip_blocks(&ob, &tb)? {
            self.ep.get_implicit(at.key, at.off + to, &mut dst[oo..oo + len])?;
            self.landed(&at, to, len, AccessKind::Get);
        }
        Ok(())
    }

    // ---------------------------------------------------------- accumulate

    /// MPI_Accumulate over contiguous elements of `kind`. Element-wise
    /// atomic with respect to other accumulates of the same kind.
    pub fn accumulate(
        &self,
        origin: &[u8],
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
    ) -> Result<()> {
        self.admit(target, false)?;
        if !origin.len().is_multiple_of(kind.size()) {
            return Err(FompiError::BadAccumulate("origin not a whole number of elements"));
        }
        let at = self.resolve(target, target_disp, origin.len())?;
        self.acc_block(&at, 0, origin, kind, op)?;
        self.landed(&at, 0, origin.len(), AccessKind::Acc(acc_tag(op)));
        Ok(())
    }

    /// Datatyped MPI_Accumulate: `op` is applied element-wise through the
    /// origin and target typemaps (signatures must match in total
    /// elements). Each contiguous block of the target typemap is one
    /// accumulate of its own, on the protocol its `(op, kind, alignment)`
    /// class has — the one [`Win::accumulate`] would take there — so the
    /// atomicity unit is the element, as MPI defines it, and holes between
    /// blocks are never touched.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI datatype signature
    pub fn accumulate_typed(
        &self,
        origin: &[u8],
        origin_count: usize,
        origin_ty: &DataType,
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
        target_count: usize,
        target_ty: &DataType,
    ) -> Result<()> {
        self.admit(target, false)?;
        let es = kind.size();
        let packed = origin_ty.pack(origin_count, origin);
        let tb = target_ty.flatten(target_count);
        if !packed.len().is_multiple_of(es) || tb.iter().any(|&(_, len)| !len.is_multiple_of(es)) {
            return Err(FompiError::BadAccumulate("typemap not a whole number of elements"));
        }
        let target_bytes = tb.iter().map(|&(_, len)| len).sum();
        if packed.len() != target_bytes {
            return Err(FompiError::TypeMismatch { origin_bytes: packed.len(), target_bytes });
        }
        let at = self.resolve(target, target_disp, (target_ty.extent() * target_count).max(1))?;
        let mut rest = &packed[..];
        for (to, len) in tb {
            let block;
            (block, rest) = rest.split_at(len);
            self.acc_block(&at, to, block, kind, op)?;
            self.landed(&at, to, len, AccessKind::Acc(acc_tag(op)));
        }
        Ok(())
    }

    /// `origin`'s elements accumulated into the contiguous block at `rel`
    /// of where the call landed: the body [`Win::accumulate`] and each
    /// block of [`Win::accumulate_typed`] share.
    #[inline(always)] // `accumulate` is this and little else: a call costs it ~10 %
    fn acc_block(
        &self,
        at: &Landing,
        rel: usize,
        origin: &[u8],
        kind: NumKind,
        op: MpiOp,
    ) -> Result<()> {
        let base = at.off + rel;
        if let Some(amo) = Self::hw_route(op, kind, base) {
            // DMAPP-accelerated path: one non-fetching AMO per element,
            // the whole span through one fabric op body.
            self.ep.amo_implicit_span(at.key, base, amo, origin.chunks_exact(8).map(le_word))?;
            Ok(())
        } else {
            // Fallback: lock the remote window, get, accumulate locally,
            // put back — no receiver involvement (true passive mode).
            self.acc_locked(at.target, at.key, base, origin.len(), op != MpiOp::NoOp, |cur| {
                apply_each(op, kind, cur, origin)
            })
        }
    }

    /// MPI_Get_accumulate: fetches the previous target contents into
    /// `result` and applies `op` with `origin`, element-wise atomically
    /// with respect to other accumulates of the same kind. With
    /// [`MpiOp::NoOp`] this is an atomic read: nothing is stored, on
    /// either protocol.
    pub fn get_accumulate(
        &self,
        origin: &[u8],
        result: &mut [u8],
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
    ) -> Result<()> {
        self.admit(target, false)?;
        let es = kind.size();
        if !result.len().is_multiple_of(es) || (op != MpiOp::NoOp && origin.len() != result.len()) {
            return Err(FompiError::BadAccumulate("origin/result element mismatch"));
        }
        let at = self.resolve(target, target_disp, result.len())?;
        if let Some(amo) = Self::hw_route(op, kind, at.off) {
            // `NoOp` carries no origin data: its operand is ignored.
            let operand = |i: usize| match op {
                MpiOp::NoOp => 0,
                _ => le_word(&origin[8 * i..8 * i + 8]),
            };
            // One element — all of `fetch_and_op` — is one blocking AMO; a
            // longer span is a list on consecutive words, pipelined with
            // one wait.
            if result.len() == 8 {
                let old = self.ep.amo(at.key, at.off, amo, operand(0), 0)?;
                result.copy_from_slice(&old.to_le_bytes());
            } else {
                let n = result.len() / 8;
                let list = (0..n).map(|i| FetchAmo {
                    at: 8 * i,
                    op: amo,
                    operand: operand(i),
                    compare: 0,
                });
                self.ep.amo_fetch_list(at.key, at.off, 8 * n, list, |i, old| {
                    result[8 * i..8 * i + 8].copy_from_slice(&old.to_le_bytes())
                })?;
            }
        } else {
            let stores = op != MpiOp::NoOp;
            self.acc_locked(target, at.key, at.off, result.len(), stores, |cur| {
                result.copy_from_slice(cur);
                if stores {
                    apply_each(op, kind, cur, origin);
                }
            })?;
        }
        self.landed(&at, 0, result.len(), AccessKind::Acc(acc_tag(op)));
        Ok(())
    }

    /// MPI_Fetch_and_op: [`Win::get_accumulate`] on one element, the
    /// latency-critical fine-grained call — MPI defines it as that case, so
    /// it shares the path and the cost: one hardware AMO whenever possible
    /// (Sum/bitwise/Replace/NoOp on 8-byte integers).
    pub fn fetch_and_op(
        &self,
        origin: &[u8],
        result: &mut [u8],
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
    ) -> Result<()> {
        if result.len() != kind.size() {
            return Err(FompiError::BadAccumulate("fetch_and_op result must be one element"));
        }
        self.get_accumulate(origin, result, kind, op, target, target_disp)
    }

    /// Request-based accumulate (MPI_Raccumulate): like
    /// [`Win::accumulate`], returning a [`Request`] whose completion covers
    /// every element operation issued.
    pub fn raccumulate(
        &self,
        origin: &[u8],
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
    ) -> Result<Request> {
        self.accumulate(origin, kind, op, target, target_disp)?;
        let h = fompi_fabric::NbHandle { t_complete: self.ep.pending_for(target) };
        Ok(Request::new(self.ep.clone(), h))
    }

    /// Request-based get_accumulate (MPI_Rget_accumulate). The fallback
    /// path is blocking internally, so the request completes immediately;
    /// the handle exists for API parity with the standard.
    pub fn rget_accumulate(
        &self,
        origin: &[u8],
        result: &mut [u8],
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
    ) -> Result<Request> {
        self.get_accumulate(origin, result, kind, op, target, target_disp)?;
        let h = fompi_fabric::NbHandle { t_complete: self.ep.clock().now() };
        Ok(Request::new(self.ep.clone(), h))
    }

    /// A list of 8-byte fetching AMOs on one target, issued back to back
    /// and completed together — what MPI-3 gives a run of
    /// `MPI_Fetch_and_op` / `MPI_Compare_and_swap` calls closed by one
    /// flush. Element `i` acts on the word at byte `at` of the span
    /// `[target_disp, target_disp + len)` (in displacement units for the
    /// span's start, bytes inside it); `out(i, old)` receives the old value
    /// of its word. The elements take effect in list order, each seeing
    /// the ones before it ([`fompi_fabric::Endpoint::amo_fetch_list`],
    /// DESIGN.md "The data path"), and the call returns when the last is
    /// complete: one AMO round trip plus an injection per further element.
    ///
    /// The list is admitted and resolved once, and landed for the race
    /// checker as one record per element — its own 8 bytes, as the
    /// accumulate class of its op — since one record over the span would
    /// mark the bytes between elements as accessed. It is refused,
    /// before anything is applied, priced or counted, outside an access epoch
    /// ([`FompiError::NoAccessEpoch`]), when empty
    /// ([`FompiError::BadAccumulate`]), when the span leaves the window, and
    /// when an element is misaligned or outside the span
    /// ([`FompiError::Fabric`]).
    pub fn amo_fetch_list(
        &self,
        target: u32,
        target_disp: usize,
        len: usize,
        list: impl Iterator<Item = FetchAmo> + Clone,
        out: impl FnMut(usize, u64),
    ) -> Result<()> {
        self.admit(target, false)?;
        if list.clone().next().is_none() {
            return Err(FompiError::BadAccumulate("empty fetching AMO list"));
        }
        let at = self.resolve(target, target_disp, len)?;
        self.ep.amo_fetch_list(at.key, at.off, len, list.clone(), out)?;
        if at.rc.is_some() {
            for e in list {
                self.landed(&at, e.at, 8, AccessKind::Acc(amo_tag(e.op)));
            }
        }
        Ok(())
    }

    /// MPI_Compare_and_swap on one 8-byte element. Always a hardware AMO.
    pub fn compare_and_swap(
        &self,
        desired: u64,
        compare: u64,
        target: u32,
        target_disp: usize,
    ) -> Result<u64> {
        let at = self.begin(target, target_disp, 8, false)?;
        if at.off % 8 != 0 {
            return Err(FompiError::BadAccumulate("CAS target must be 8-byte aligned"));
        }
        let old = self.ep.amo(at.key, at.off, AmoOp::Cas, desired, compare)?;
        self.landed(&at, 0, 8, AccessKind::Acc(ACC_CAS));
        Ok(old)
    }

    /// The accumulate protocol of an `(op, kind, target alignment)` class
    /// (§2.4) — and of nothing else, so that every accumulate-family call
    /// on one location is served by the protocol its class has: the DMAPP
    /// AMO when the NIC accelerates the pair on an aligned 8-byte element,
    /// `None` for the locked fallback. Two protocols on one location do not
    /// exclude each other; neither the element count nor the entry point
    /// may pick.
    fn hw_route(op: MpiOp, kind: NumKind, base: usize) -> Option<AmoOp> {
        op.hw_amo(kind).filter(|_| base.is_multiple_of(8))
    }

    /// The bufferless fallback protocol (§2.4): lock the target's
    /// accumulate lock, get the current data, let `f` turn it into the new
    /// contents in place, put that back if the op `stores` (`NoOp` is a
    /// read: it must leave the target alone), unlock. The fetched span is
    /// the call's one allocation.
    fn acc_locked(
        &self,
        target: u32,
        key: SegKey,
        base: usize,
        len: usize,
        stores: bool,
        f: impl FnOnce(&mut [u8]),
    ) -> Result<()> {
        let mkey = self.meta_key(target);
        let mut spin = Spin::new("the accumulate lock");
        // A failed CAS means another origin holds the lock: wait for its
        // release swap, retry.
        while self.ep.amo_sync(mkey, off::ACC_LOCK, AmoOp::Cas, 1, 0)? != 0 {
            spin.lost(&self.ep, mkey, off::ACC_LOCK, "acc-lock", |w| w == 0);
        }
        // One causal flow ties the protocol's get→put pair together in the
        // trace (the lock CAS/unlock swap are schedule-dependent polls and
        // stay out of it).
        let prev = self.ep.flow_open();
        let r = (|| -> Result<()> {
            let mut cur = vec![0u8; len];
            self.ep.get(key, base, &mut cur)?;
            f(&mut cur);
            if stores {
                self.ep.put(key, base, &cur)?;
            }
            Ok(())
        })();
        self.ep.flow_close(prev);
        self.ep.amo_sync(mkey, off::ACC_LOCK, AmoOp::Swap, 0, 0)?;
        r
    }
}

/// One 8-byte little-endian element.
fn le_word(element: &[u8]) -> u64 {
    u64::from_le_bytes(element.try_into().expect("an 8-byte element"))
}

/// `cur[i] := cur[i] ⊕ origin[i]` over the whole elements of `kind`.
fn apply_each(op: MpiOp, kind: NumKind, cur: &mut [u8], origin: &[u8]) {
    let es = kind.size();
    for (t, o) in cur.chunks_exact_mut(es).zip(origin.chunks_exact(es)) {
        op.apply(kind, t, o);
    }
}
