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
use crate::racecheck::{acc_tag, ACC_CAS};
use crate::request::Request;
use crate::win::Win;
use fompi_fabric::shadow::AccessKind;
use fompi_fabric::AmoOp;

impl Win {
    // ------------------------------------------------------------- put/get

    /// MPI_Put of contiguous bytes. Completes at the next synchronisation
    /// (flush/unlock/fence/complete) — "bulk completion".
    pub fn put(&self, origin: &[u8], target: u32, target_disp: usize) -> Result<()> {
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let rc = self.rc_start();
        let (key, off) = self.target_span(target, target_disp, origin.len())?;
        self.ep.put_implicit(key, off, origin)?;
        if let Some(t0) = rc {
            self.rc_remote(
                t0,
                target,
                self.rc_base(target_disp, off),
                origin.len(),
                AccessKind::Put,
            );
        }
        Ok(())
    }

    /// MPI_Get of contiguous bytes. The destination holds valid data after
    /// the next synchronisation.
    pub fn get(&self, dst: &mut [u8], target: u32, target_disp: usize) -> Result<()> {
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let rc = self.rc_start();
        let (key, off) = self.target_span(target, target_disp, dst.len())?;
        self.ep.get_implicit(key, off, dst)?;
        if let Some(t0) = rc {
            self.rc_remote(t0, target, self.rc_base(target_disp, off), dst.len(), AccessKind::Get);
        }
        Ok(())
    }

    /// Request-based put (MPI_Rput): returns a [`Request`] for fine-grained
    /// completion. Injection-queue backpressure (a transient refusal under
    /// an armed fault plan — nothing was issued) is retried here with the
    /// hinted backoff: MPI semantics permit it because an unissued op has
    /// no ordering footprint.
    pub fn rput(&self, origin: &[u8], target: u32, target_disp: usize) -> Result<Request> {
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let rc = self.rc_start();
        let (key, off) = self.target_span(target, target_disp, origin.len())?;
        let h = self.retry_backpressure(|| self.ep.put_nb(key, off, origin))?;
        if let Some(t0) = rc {
            self.rc_remote(
                t0,
                target,
                self.rc_base(target_disp, off),
                origin.len(),
                AccessKind::Put,
            );
        }
        Ok(Request::new(self.ep.clone(), h))
    }

    /// Request-based get (MPI_Rget). Backpressure is retried as in
    /// [`Win::rput`].
    pub fn rget(&self, dst: &mut [u8], target: u32, target_disp: usize) -> Result<Request> {
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let rc = self.rc_start();
        let (key, off) = self.target_span(target, target_disp, dst.len())?;
        let h = self.retry_backpressure(|| self.ep.get_nb(key, off, &mut *dst))?;
        if let Some(t0) = rc {
            self.rc_remote(t0, target, self.rc_base(target_disp, off), dst.len(), AccessKind::Get);
        }
        Ok(Request::new(self.ep.clone(), h))
    }

    /// Bounded retry around an explicit-nonblocking issue that may be
    /// refused with [`fompi_fabric::FabricError::Backpressure`]. Each
    /// retry charges the hinted backoff to virtual time.
    fn retry_backpressure<T>(
        &self,
        mut issue: impl FnMut() -> std::result::Result<T, fompi_fabric::FabricError>,
    ) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            match issue() {
                Ok(v) => return Ok(v),
                Err(fompi_fabric::FabricError::Backpressure { retry_after_ns })
                    if attempt < crate::dynamic::ATTACH_RETRY_LIMIT =>
                {
                    attempt += 1;
                    self.ep.charge(crate::dynamic::busy_backoff_ns(retry_after_ns, attempt));
                }
                Err(e) => return Err(e.into()),
            }
        }
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
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let ob = origin_ty.flatten(origin_count);
        let tb = target_ty.flatten(target_count);
        let span = target_ty.extent() * target_count;
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, span.max(1))?;
        let rc_base = self.rc_base(target_disp, base);
        for (oo, to, len) in zip_blocks(&ob, &tb)? {
            self.ep.put_implicit(key, base + to, &origin[oo..oo + len])?;
            if let Some(t0) = rc {
                self.rc_remote(t0, target, rc_base + to, len, AccessKind::Put);
            }
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
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let ob = origin_ty.flatten(origin_count);
        let tb = target_ty.flatten(target_count);
        let span = target_ty.extent() * target_count;
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, span.max(1))?;
        let rc_base = self.rc_base(target_disp, base);
        for (oo, to, len) in zip_blocks(&ob, &tb)? {
            self.ep.get_implicit(key, base + to, &mut dst[oo..oo + len])?;
            if let Some(t0) = rc {
                self.rc_remote(t0, target, rc_base + to, len, AccessKind::Get);
            }
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
        self.check_access(target)?;
        let es = kind.size();
        if !origin.len().is_multiple_of(es) {
            return Err(FompiError::BadAccumulate("origin not a whole number of elements"));
        }
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, origin.len())?;
        if let Some(amo) = self.hw_route(op, kind, base) {
            // DMAPP-accelerated path: one non-fetching AMO per element,
            // the whole span through one fabric op body.
            self.ep.amo_implicit_span(key, base, amo, origin.chunks_exact(8).map(le_word))?;
        } else {
            // Fallback: lock the remote window, get, accumulate locally,
            // put back — no receiver involvement (true passive mode).
            self.acc_locked(target, key, base, origin.len(), op != MpiOp::NoOp, |cur| {
                apply_each(op, kind, cur, origin)
            })?;
        }
        if let Some(t0) = rc {
            let lo = self.rc_base(target_disp, base);
            self.rc_remote(t0, target, lo, origin.len(), AccessKind::Acc(acc_tag(op)));
        }
        Ok(())
    }

    /// Datatyped MPI_Accumulate: `op` is applied element-wise through the
    /// origin and target typemaps (signatures must match in total
    /// elements). Always uses the lock-fallback path — the atomicity unit
    /// is the whole typed region, matching foMPI's fallback semantics.
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
        self.check_access(target)?;
        let es = kind.size();
        let ob = origin_ty.flatten(origin_count);
        let tb = target_ty.flatten(target_count);
        let packed: Vec<u8> =
            ob.iter().flat_map(|&(o, l)| origin[o..o + l].iter().copied()).collect();
        if !packed.len().is_multiple_of(es) {
            return Err(FompiError::BadAccumulate("typemap not a whole number of elements"));
        }
        let span = target_ty.extent() * target_count;
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, span.max(1))?;
        // One locked read-modify-write covering the target extent; only
        // typemap bytes are rewritten.
        self.acc_locked(target, key, base, span, op != MpiOp::NoOp, |cur| {
            let mut consumed = 0usize;
            for &(toff, tlen) in &tb {
                let mut o = 0;
                while o < tlen {
                    let t0 = toff + o;
                    op.apply(kind, &mut cur[t0..t0 + es], &packed[consumed..consumed + es]);
                    consumed += es;
                    o += es;
                }
            }
            debug_assert_eq!(consumed, packed.len());
        })?;
        // The fallback rewrites the whole extent (holes included), so the
        // shadow record covers it all.
        if let Some(t0) = rc {
            let lo = self.rc_base(target_disp, base);
            self.rc_remote(t0, target, lo, span, AccessKind::Acc(acc_tag(op)));
        }
        Ok(())
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
        self.check_access(target)?;
        let es = kind.size();
        if !result.len().is_multiple_of(es) || (op != MpiOp::NoOp && origin.len() != result.len()) {
            return Err(FompiError::BadAccumulate("origin/result element mismatch"));
        }
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, result.len())?;
        if let Some(amo) = self.hw_route(op, kind, base) {
            // `NoOp` carries no origin data: its operand is ignored.
            let operand = |i: usize| match op {
                MpiOp::NoOp => 0,
                _ => le_word(&origin[8 * i..8 * i + 8]),
            };
            // One element — all of `fetch_and_op` — is one blocking AMO; a
            // longer span pipelines its elements and waits once.
            if result.len() == 8 {
                let old = self.ep.amo(key, base, amo, operand(0), 0)?;
                result.copy_from_slice(&old.to_le_bytes());
            } else {
                let operands = (0..result.len() / 8).map(operand);
                self.ep.amo_fetch_span(key, base, amo, operands, result)?;
            }
        } else {
            let stores = op != MpiOp::NoOp;
            self.acc_locked(target, key, base, result.len(), stores, |cur| {
                result.copy_from_slice(cur);
                if stores {
                    apply_each(op, kind, cur, origin);
                }
            })?;
        }
        if let Some(t0) = rc {
            let lo = self.rc_base(target_disp, base);
            self.rc_remote(t0, target, lo, result.len(), AccessKind::Acc(acc_tag(op)));
        }
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

    /// MPI_Compare_and_swap on one 8-byte element. Always a hardware AMO.
    pub fn compare_and_swap(
        &self,
        desired: u64,
        compare: u64,
        target: u32,
        target_disp: usize,
    ) -> Result<u64> {
        self.check_access(target)?;
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, 8)?;
        if base % 8 != 0 {
            return Err(FompiError::BadAccumulate("CAS target must be 8-byte aligned"));
        }
        let old = self.ep.amo(key, base, AmoOp::Cas, desired, compare)?;
        if let Some(t0) = rc {
            let lo = self.rc_base(target_disp, base);
            self.rc_remote(t0, target, lo, 8, AccessKind::Acc(ACC_CAS));
        }
        Ok(old)
    }

    /// The accumulate protocol of an `(op, kind, target alignment)` class
    /// (§2.4) — and of nothing else, so that every accumulate-family call
    /// on one location is served by the protocol its class has: the DMAPP
    /// AMO when the NIC accelerates the pair on an aligned 8-byte element,
    /// `None` for the locked fallback. Two protocols on one location do not
    /// exclude each other; neither the element count nor the entry point
    /// may pick.
    fn hw_route(&self, op: MpiOp, kind: NumKind, base: usize) -> Option<AmoOp> {
        if self.shared.cfg.hw_amo && base.is_multiple_of(8) {
            op.hw_amo(kind)
        } else {
            None
        }
    }

    /// The bufferless fallback protocol (§2.4): lock the target's
    /// accumulate lock, get the current data, let `f` turn it into the new
    /// contents in place, put that back if the op `stores` (`NoOp` is a
    /// read: it must leave the target alone), unlock. The fetched span is
    /// the call's one allocation.
    fn acc_locked(
        &self,
        target: u32,
        key: fompi_fabric::SegKey,
        base: usize,
        len: usize,
        stores: bool,
        f: impl FnOnce(&mut [u8]),
    ) -> Result<()> {
        let mkey = self.meta_key(target);
        let mut spins = 0u64;
        loop {
            let old = self.ep.amo_sync(mkey, off::ACC_LOCK, AmoOp::Cas, 1, 0)?;
            if old == 0 {
                break;
            }
            // A failed CAS means another origin holds the lock: under the
            // model checker, park until its release swap lands instead of
            // free-spinning (each retry is an always-enabled step, so the
            // explored spin would never terminate). Unarmed: backoff.
            if !self.ep.mc_poll_word(mkey, off::ACC_LOCK, "acc-lock", |w| w == 0) {
                spins += 1;
                crate::sync::backoff_spin(&self.ep, spins);
            }
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
