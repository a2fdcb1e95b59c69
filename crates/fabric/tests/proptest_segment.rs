//! Randomized property tests for the segment memory model (seeded in-repo
//! PRNG; no external test deps): arbitrary interleavings of reads/writes/
//! AMOs must never corrupt neighbouring bytes, and the byte-level semantics
//! must match a plain `Vec<u8>` model.

use fompi_fabric::rng::Rng;
use fompi_fabric::{AmoOp, Segment};

fn amo_of(tag: u8) -> AmoOp {
    match tag {
        0 => AmoOp::Add,
        1 => AmoOp::And,
        2 => AmoOp::Or,
        3 => AmoOp::Xor,
        4 => AmoOp::Swap,
        5 => AmoOp::Cas,
        _ => AmoOp::Fetch,
    }
}

/// Sequential segment ops behave exactly like the same ops on a Vec.
#[test]
fn segment_matches_vec_model() {
    const SEG_LEN: usize = 256;
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x5E6_0000 + case);
        let seg = Segment::new(SEG_LEN);
        let mut model = vec![0u8; SEG_LEN];
        let n_ops = rng.range(1, 50);
        for _ in 0..n_ops {
            match rng.next_below(3) {
                0 => {
                    let off = rng.range(0, SEG_LEN);
                    let mut data = vec![0u8; rng.range(0, 64).min(SEG_LEN - off)];
                    rng.fill_bytes(&mut data);
                    seg.write(off, &data);
                    model[off..off + data.len()].copy_from_slice(&data);
                }
                1 => {
                    let off = rng.range(0, SEG_LEN - 8);
                    let v = rng.next_u64();
                    seg.write_u64(off, v);
                    model[off..off + 8].copy_from_slice(&v.to_le_bytes());
                }
                _ => {
                    let word = rng.range(0, SEG_LEN / 8);
                    let op = amo_of(rng.next_below(7) as u8);
                    let operand = rng.next_u64();
                    let compare = rng.next_u64();
                    let off = word * 8;
                    let old_model = u64::from_le_bytes(model[off..off + 8].try_into().unwrap());
                    let old_seg = seg.amo(off, op, operand, compare);
                    assert_eq!(old_seg, old_model, "case {case}");
                    let new = op.apply(old_model, operand, compare);
                    model[off..off + 8].copy_from_slice(&new.to_le_bytes());
                }
            }
        }
        let mut out = vec![0u8; SEG_LEN];
        seg.read(0, &mut out);
        assert_eq!(out, model, "case {case}");
    }
}

/// Unaligned reads always reflect the latest writes, regardless of the
/// alignment of either.
#[test]
fn unaligned_read_after_write() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0xA11_6000 + case);
        let off = rng.range(0, 200);
        let mut data = vec![0u8; rng.range(1, 56)];
        rng.fill_bytes(&mut data);
        let seg = Segment::new(256);
        seg.write(off, &data);
        let mut out = vec![0u8; data.len()];
        seg.read(off, &mut out);
        assert_eq!(out, data, "case {case} off {off}");
    }
}

/// The copy loops' three phases (ragged head, aligned middle, ragged tail)
/// at every alignment: each `off` in 0..24 × `len` in 0..72 on a 128-byte
/// segment, `write` then `read` against a `Vec<u8>` model, the bytes on
/// both sides of the span untouched.
#[test]
fn write_then_read_at_every_alignment() {
    const SEG_LEN: usize = 128;
    let background: Vec<u8> = (0..SEG_LEN).map(|i| 0x80 | i as u8).collect();
    for off in 0..24 {
        for len in 0..72 {
            let seg = Segment::new(SEG_LEN);
            seg.write(0, &background);
            let data: Vec<u8> =
                (0..len).map(|i| 1 + ((off * 7 + len * 3 + i) % 0x7F) as u8).collect();
            seg.write(off, &data);
            let mut model = background.clone();
            model[off..off + len].copy_from_slice(&data);
            let mut all = vec![0u8; SEG_LEN];
            seg.read(0, &mut all);
            assert_eq!(all, model, "write at off {off} len {len}");
            // The same span read back at its own alignment, into a buffer
            // whose neighbours must stay as they were.
            let mut framed = vec![0xEEu8; len + 2];
            seg.read(off, &mut framed[1..=len]);
            assert_eq!((framed[0], framed[len + 1]), (0xEE, 0xEE), "read at off {off} len {len}");
            assert_eq!(&framed[1..=len], &data[..], "read at off {off} len {len}");
        }
    }
}

/// Per-word atomicity of the aligned middle, which the notified-payload and
/// stamped-cell readers lean on: while one thread rewrites an aligned 4 KiB
/// span with `k.to_le_bytes()` repeated, every aligned word another thread
/// reads out of it is a whole `k` — some value the writer stored, never
/// bytes of two.
#[test]
fn a_racing_reader_sees_whole_words() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const SPAN: usize = 4096;
    const ROUNDS: u64 = 2_000;
    // Every byte of `pattern(k)` names `k`, so a torn word cannot pass.
    let pattern = |k: u64| (k % 251 + 1) * 0x0101_0101_0101_0101;
    let seg = Segment::new(SPAN);
    let (start, done) = (std::sync::Barrier::new(2), AtomicBool::new(false));
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            let mut buf = vec![0u8; SPAN];
            for k in 0..ROUNDS {
                buf.chunks_exact_mut(8).for_each(|w| w.copy_from_slice(&pattern(k).to_le_bytes()));
                seg.write(0, &buf);
            }
            done.store(true, Ordering::Release);
        });
        start.wait();
        let mut buf = vec![0u8; SPAN];
        // Reads for as long as the writer writes, and once after.
        let mut last = false;
        while !last {
            last = done.load(Ordering::Acquire);
            seg.read(0, &mut buf);
            for (i, w) in buf.chunks_exact(8).enumerate() {
                let v = u64::from_le_bytes(w.try_into().unwrap());
                let b = v & 0xFF;
                assert!(
                    v == 0 || ((1..=251).contains(&b) && v == b * 0x0101_0101_0101_0101),
                    "word {i} is a mix of two writes: {v:#018x}"
                );
            }
        }
    });
}

/// AMO application is a pure function consistent with two's-complement
/// arithmetic.
#[test]
fn amo_apply_is_pure() {
    for case in 0..512u64 {
        let mut rng = Rng::seed_from_u64(0xAB0_0000 + case);
        let old = rng.next_u64();
        let operand = rng.next_u64();
        let compare = rng.next_u64();
        let tag = rng.next_below(7) as u8;
        let op = amo_of(tag);
        let a = op.apply(old, operand, compare);
        let b = op.apply(old, operand, compare);
        assert_eq!(a, b);
        if tag == 0 {
            assert_eq!(a, old.wrapping_add(operand));
        }
        if tag == 5 && old != compare {
            assert_eq!(a, old, "failed CAS must leave the value alone");
        }
    }
}

/// Concurrent atomic adds from many threads always sum exactly, whatever
/// the thread/iteration split.
#[test]
fn concurrent_adds_sum_exactly() {
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0xADD_5000 + case);
        let threads = rng.range(1, 6);
        let per = rng.range(1, 200);
        let seg = Segment::new(8);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per {
                        seg.amo(0, AmoOp::Add, 1, 0);
                    }
                });
            }
        });
        assert_eq!(seg.read_u64(0), (threads * per) as u64, "case {case}");
    }
}
