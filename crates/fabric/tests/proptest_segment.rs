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

/// Span lengths the copy tests sweep: every length to 80 (each mix of
/// ragged head, aligned words and ragged tail), then both sides of each
/// power of two up to `max`.
fn span_lens(max: usize) -> impl Iterator<Item = usize> {
    let pow2 = (7..14).flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1]);
    (0..=80).chain(pow2).filter(move |&len| len <= max)
}

/// The copy contract, both directions: a span of 0 to 8 KiB (1 KiB under
/// Miri, whose fallback loop is slow) at every offset mod 8, `write` then
/// `read`, against a `Vec<u8>` model. Each span lies between 8 guard bytes
/// of background on either side in the segment, which must stay as they
/// were, and is read back into a buffer framed by guard bytes of its own.
#[test]
fn spans_of_every_length_and_offset_round_trip() {
    const GUARD: usize = 8;
    let max = if cfg!(miri) { 1024 } else { 8192 };
    let seg_len = GUARD + 8 + max + GUARD;
    let background: Vec<u8> = (0..seg_len).map(|i| 0x80 | i as u8).collect();
    let seg = Segment::new(seg_len);
    let mut all = vec![0u8; seg_len];
    for len in span_lens(max) {
        for off in GUARD..GUARD + 8 {
            seg.write(0, &background);
            let data: Vec<u8> =
                (0..len).map(|i| 1 + ((off * 7 + len * 3 + i) % 0x7F) as u8).collect();
            seg.write(off, &data);
            let mut model = background.clone();
            model[off..off + len].copy_from_slice(&data);
            seg.read(0, &mut all);
            assert!(all == model, "write at off {off} len {len} moved a byte outside the span");
            let mut framed = vec![0xEEu8; len + 2 * GUARD];
            seg.read(off, &mut framed[GUARD..GUARD + len]);
            assert!(framed[..GUARD].iter().chain(&framed[GUARD + len..]).all(|&b| b == 0xEE));
            assert!(framed[GUARD..GUARD + len] == data[..], "read at off {off} len {len}");
        }
    }
}

/// The one per-word-atomic span: an aligned 8-byte `read` of a word
/// another thread rewrites whole with aligned 8-byte `write`s, 0 and
/// `u64::MAX` in turn, returns one of the two, never bytes of both.
#[test]
fn an_aligned_word_is_never_torn() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const ROUNDS: usize = if cfg!(miri) { 200 } else { 200_000 };
    let seg = Segment::new(64);
    let (start, done) = (std::sync::Barrier::new(2), AtomicBool::new(false));
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for k in 0..ROUNDS {
                seg.write(24, &[if k % 2 == 0 { 0xFF } else { 0 }; 8]);
            }
            done.store(true, Ordering::Release);
        });
        start.wait();
        let mut word = [0u8; 8];
        let mut last = false;
        while !last {
            last = done.load(Ordering::Acquire);
            seg.read(24, &mut word);
            let v = u64::from_le_bytes(word);
            assert!(v == 0 || v == u64::MAX, "an aligned word read torn: {v:#018x}");
        }
    });
}

/// A multi-word span is per-byte atomic: a 4 KiB `read` racing whole-span
/// rewrites with 0xAA and 0x55 in turn may mix the two (even within a
/// word), but every byte it returns is one some write stored.
#[test]
fn a_racing_bulk_read_returns_only_written_bytes() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const SPAN: usize = 4096;
    const ROUNDS: usize = if cfg!(miri) { 4 } else { 20_000 };
    let seg = Segment::new(SPAN);
    seg.write(0, &[0xAA; SPAN]);
    let (start, done) = (std::sync::Barrier::new(2), AtomicBool::new(false));
    std::thread::scope(|s| {
        s.spawn(|| {
            let fills = [[0x55u8; SPAN], [0xAA; SPAN]];
            start.wait();
            for k in 0..ROUNDS {
                seg.write(0, &fills[k % 2]);
            }
            done.store(true, Ordering::Release);
        });
        start.wait();
        let mut buf = vec![0u8; SPAN];
        let mut last = false;
        while !last {
            last = done.load(Ordering::Acquire);
            seg.read(0, &mut buf);
            if let Some(i) = buf.iter().position(|&b| b != 0xAA && b != 0x55) {
                panic!("byte {i} reads {:#04x}, which no write stored", buf[i]);
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
