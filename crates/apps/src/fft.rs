//! 3-D Fast Fourier Transform with communication/computation overlap
//! (§4.3, Figure 7c — NAS FT benchmark style).
//!
//! A complex n³ grid is decomposed into z-slabs. Each rank FFTs its planes
//! in x and y, redistributes to x-slabs (the global transpose), and FFTs in
//! z. Following Nishtala/Bell (and the paper), the overlapped variants
//! "start to communicate the data of a plane as soon as it is available and
//! complete the communication as late as possible":
//!
//! * [`run_mpi1`] with `overlap = false` — compute everything, one bulk
//!   exchange, compute (the MPI-1 baseline);
//! * [`run_mpi1`] with `overlap = true` — per-plane nonblocking sends
//!   (the "default nonblocking MPI" curve);
//! * [`run_rma`] — per-plane `MPI_Put` directly into the target slab inside
//!   a single fence epoch (the foMPI curve);
//! * [`run_upc`] — per-plane `upc_memput` + barrier (the UPC slab curve).
//!
//! All variants produce bit-identical results (same operation order), so
//! tests verify them against a naive DFT and against each other.

use fompi::Win;
use fompi_msg::Comm;
use fompi_pgas::SharedArray;
use fompi_runtime::RankCtx;

/// A complex number (f64 re/im) — the FFT element type.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Construct.
    pub fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    /// Squared magnitude.
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate.
    fn conj(self) -> C64 {
        C64::new(self.re, -self.im)
    }
}

impl std::ops::Mul for C64 {
    type Output = C64;
    fn mul(self, o: C64) -> C64 {
        C64::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for C64 {
    type Output = C64;
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

/// The forward twiddle factors of every radix-2 stage up to length `n`,
/// planned once. The stage of half-length `h` (butterfly span `2h`) holds
/// `w^0 … w^(h-1)` for `w = e^(-2πi/2h)` at `[h-1, 2h-1)`, each produced
/// by the recurrence `w^(k+1) = w^k · w` from 1, so a planned transform
/// is bit-identical to one that computes its factors on the fly.
struct Twiddles {
    w: Vec<C64>,
}

impl Twiddles {
    /// Plan for transforms of length up to `n` (a power of two).
    fn new(n: usize) -> Twiddles {
        let mut w = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = C64::new(ang.cos(), ang.sin());
            let mut x = C64::new(1.0, 0.0);
            for _ in 0..len / 2 {
                w.push(x);
                x = x * wlen;
            }
            len <<= 1;
        }
        Twiddles { w }
    }

    /// The factors of the stage with half-length `h`.
    fn stage(&self, h: usize) -> &[C64] {
        &self.w[h - 1..2 * h - 1]
    }

    /// Whether a length-`n` transform has work (`n > 1`); panics past the plan.
    fn covers(&self, n: usize) -> bool {
        assert!(
            n <= 1 || (n.is_power_of_two() && n - 1 <= self.w.len()),
            "FFT length {n} must be a power of two the plan covers ({})",
            self.w.len() + 1
        );
        n > 1
    }
}

/// The bit-reversal partner of `i` among `n = 2^bits` indices (`bits >= 1`).
fn bit_reverse(i: usize, bits: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - bits)
}

/// In-place iterative radix-2 Cooley-Tukey FFT with planned twiddles.
/// `data.len()` must be a power of two `tw` covers; a length of 0 or 1 is
/// the identity. The inverse transform uses the conjugate factors and
/// scales by `1/n`.
fn fft_1d_with(data: &mut [C64], tw: &Twiddles, inverse: bool) {
    let n = data.len();
    if !tw.covers(n) {
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            data.swap(i, j);
        }
    }
    let mut h = 1;
    while h < n {
        let w = tw.stage(h);
        for block in data.chunks_exact_mut(2 * h) {
            let (lo, hi) = block.split_at_mut(h);
            for ((a, b), &w) in lo.iter_mut().zip(hi).zip(w) {
                let u = *a;
                let v = *b * if inverse { w.conj() } else { w };
                *a = u + v;
                *b = u - v;
            }
        }
        h <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for d in data {
            d.re *= inv;
            d.im *= inv;
        }
    }
}

/// In-place forward FFT of `width` columns at once: column `j` is
/// `data[r·stride + j]` for rows `r` in `0..n`. Each butterfly runs across
/// a whole row pair, and every column gets exactly the operations
/// [`fft_1d_with`] would give it, so the result is bit-identical.
fn fft_cols(data: &mut [C64], n: usize, stride: usize, width: usize, tw: &Twiddles) {
    if !tw.covers(n) {
        return;
    }
    assert!(width <= stride && data.len() >= (n - 1) * stride + width, "columns out of range");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            for (x, y) in row_pair(data, i * stride, j * stride, width) {
                std::mem::swap(x, y);
            }
        }
    }
    let mut h = 1;
    while h < n {
        let w = tw.stage(h);
        for start in (0..n).step_by(2 * h) {
            for (k, &w) in w.iter().enumerate() {
                let (a, b) = ((start + k) * stride, (start + k + h) * stride);
                for (x, y) in row_pair(data, a, b, width) {
                    let u = *x;
                    let v = *y * w;
                    *x = u + v;
                    *y = u - v;
                }
            }
        }
        h <<= 1;
    }
}

/// The element pairs of `data[a..a + width]` and `data[b..b + width]`, `a < b`.
fn row_pair(
    data: &mut [C64],
    a: usize,
    b: usize,
    width: usize,
) -> impl Iterator<Item = (&mut C64, &mut C64)> {
    let (top, bot) = data.split_at_mut(b);
    top[a..a + width].iter_mut().zip(&mut bot[..width])
}

/// In-place iterative radix-2 Cooley-Tukey FFT (inverse: scaled by `1/n`).
/// `data.len()` must be a power of two; a length of 0 or 1 is the identity.
pub fn fft_1d(data: &mut [C64], inverse: bool) {
    fft_1d_with(data, &Twiddles::new(data.len()), inverse);
}

/// Naive O(n²) DFT for verification.
pub fn dft_naive(data: &[C64]) -> Vec<C64> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut acc = C64::default();
            for (j, &x) in data.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = acc + x * C64::new(ang.cos(), ang.sin());
            }
            acc
        })
        .collect()
}

/// FFT flop count: 5 n log2 n (the NAS convention).
pub fn fft_flops(n: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2()
}

/// Problem description.
#[derive(Debug, Clone, Copy)]
pub struct FftConfig {
    /// Grid edge (n³ total, power of two, divisible by p).
    pub n: usize,
    /// Input seed.
    pub seed: u64,
}

/// Per-rank result.
#[derive(Debug, Clone)]
pub struct FftResult {
    /// Virtual ns for the full transform.
    pub time_ns: f64,
    /// This rank's x-slab of the transformed grid, layout
    /// `[(z·n + y)·nxl + xl]`.
    pub local_out: Vec<C64>,
}

impl FftResult {
    /// GFlop/s achieved for the full 3-D transform across `p` ranks.
    pub fn gflops(&self, n: usize) -> f64 {
        let total = n * n * n;
        fft_flops(total) / self.time_ns
    }
}

/// Deterministic input value at global coordinates.
pub fn input_at(cfg: &FftConfig, x: usize, y: usize, z: usize) -> C64 {
    let h = crate::splitmix64(cfg.seed ^ ((x as u64) << 40) ^ ((y as u64) << 20) ^ z as u64);
    let re = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    let im = ((crate::splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    C64::new(re, im)
}

/// Serial reference: full 3-D FFT of the same input, layout
/// `[(z·n + y)·n + x]`.
pub fn fft3d_serial(cfg: &FftConfig) -> Vec<C64> {
    let n = cfg.n;
    let mut grid = vec![C64::default(); n * n * n];
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                grid[(z * n + y) * n + x] = input_at(cfg, x, y, z);
            }
        }
    }
    let tw = Twiddles::new(n);
    // x direction: rows; y direction: each plane's n columns; z direction:
    // all n² columns of the grid.
    for row in grid.chunks_exact_mut(n) {
        fft_1d_with(row, &tw, false);
    }
    for plane in grid.chunks_exact_mut(n * n) {
        fft_cols(plane, n, n, n, &tw);
    }
    fft_cols(&mut grid, n, n * n, n * n, &tw);
    grid
}

// ------------------------------------------------------ distributed pieces

struct Slab {
    n: usize,
    p: usize,
    nzl: usize,
    nxl: usize,
    me: usize,
    tw: Twiddles,
}

impl Slab {
    fn new(ctx: &RankCtx, cfg: &FftConfig) -> Slab {
        let n = cfg.n;
        let p = ctx.size();
        assert!(n.is_multiple_of(p), "n must be divisible by p");
        Slab { n, p, nzl: n / p, nxl: n / p, me: ctx.rank() as usize, tw: Twiddles::new(n) }
    }

    /// Fill this rank's z-slab with input data (layout `[zl][y][x]`).
    fn load_input(&self, cfg: &FftConfig) -> Vec<C64> {
        let n = self.n;
        let mut data = vec![C64::default(); self.nzl * n * n];
        for zl in 0..self.nzl {
            let z = self.me * self.nzl + zl;
            for y in 0..n {
                for x in 0..n {
                    data[(zl * n + y) * n + x] = input_at(cfg, x, y, z);
                }
            }
        }
        data
    }

    /// FFT plane `zl` in x then y; charge flops.
    fn fft_plane(&self, ctx: &RankCtx, data: &mut [C64], zl: usize) {
        let n = self.n;
        let plane = &mut data[zl * n * n..(zl + 1) * n * n];
        for row in plane.chunks_exact_mut(n) {
            fft_1d_with(row, &self.tw, false);
        }
        fft_cols(plane, n, n, n, &self.tw);
        ctx.ep().charge_flops(2.0 * n as f64 * fft_flops(n));
    }

    /// Bytes of one plane chunk: one target's share of a z-plane, which is
    /// also one z-plane of the x-slab.
    fn chunk_bytes(&self) -> usize {
        self.n * self.nxl * 16
    }

    /// Pack plane `zl`'s chunk destined for target `t` into `out`, which
    /// it replaces.
    fn pack_chunk(&self, data: &[C64], zl: usize, t: usize, out: &mut Vec<u8>) {
        let n = self.n;
        let nxl = self.nxl;
        out.clear();
        for y in 0..n {
            for xl in 0..nxl {
                let c = data[(zl * n + y) * n + t * nxl + xl];
                out.extend_from_slice(&c.re.to_le_bytes());
                out.extend_from_slice(&c.im.to_le_bytes());
            }
        }
    }

    /// Byte offset of plane `z` in the x-slab receive buffer.
    fn slab_plane_off(&self, z: usize) -> usize {
        z * self.chunk_bytes()
    }

    /// Total x-slab bytes.
    fn slab_bytes(&self) -> usize {
        self.n * self.chunk_bytes()
    }

    /// Decode x-slab bytes into complex values, `out` filled exactly.
    fn decode(bytes: &[u8], out: &mut [C64]) {
        assert_eq!(bytes.len(), out.len() * 16, "slab buffer size");
        for (c, b) in out.iter_mut().zip(bytes.chunks_exact(16)) {
            *c = C64::new(
                f64::from_le_bytes(b[0..8].try_into().unwrap()),
                f64::from_le_bytes(b[8..16].try_into().unwrap()),
            );
        }
    }

    /// Decode the x-slab that `read(off, bytes)` reads out of the receive
    /// memory into `slab`, a plane at a time through `buf`. `slab` is the
    /// spent z-slab: both slabs hold n³/p values.
    fn decode_planes(&self, read: impl Fn(usize, &mut [u8]), buf: &mut Vec<u8>, slab: &mut [C64]) {
        buf.resize(self.chunk_bytes(), 0);
        for (z, plane) in slab.chunks_exact_mut(self.n * self.nxl).enumerate() {
            read(self.slab_plane_off(z), buf);
            Self::decode(buf, plane);
        }
    }

    /// Final z-direction FFT over the x-slab; charge flops.
    fn fft_z(&self, ctx: &RankCtx, slab: &mut [C64]) {
        // Plane z is row z; its n·nxl (y, xl) pairs are the columns.
        let (n, cols) = (self.n, self.n * self.nxl);
        fft_cols(slab, n, cols, cols, &self.tw);
        ctx.ep().charge_flops(cols as f64 * fft_flops(n));
    }
}

// ------------------------------------------------------------------ MPI-1

/// Message-passing variant. With `overlap`, each plane's chunks are sent
/// (nonblocking) as soon as the plane is transformed; otherwise one bulk
/// alltoall runs after all planes.
pub fn run_mpi1(ctx: &RankCtx, comm: &Comm, cfg: &FftConfig, overlap: bool) -> FftResult {
    let s = Slab::new(ctx, cfg);
    let (n, p, nzl, nxl, me) = (s.n, s.p, s.nzl, s.nxl, s.me);
    let mut data = s.load_input(cfg);
    ctx.barrier();
    let t0 = ctx.now();
    let mut slab_bytes = vec![0u8; s.slab_bytes()];
    let mut bytes = Vec::with_capacity(s.chunk_bytes());
    if overlap {
        const FFT_TAG: u32 = 0xFF7_0000;
        // Pre-post receives for every incoming plane chunk.
        let chunk = n * nxl * 16;
        let mut reqs = Vec::new();
        {
            let mut rest: &mut [u8] = &mut slab_bytes;
            let mut chunks: Vec<&mut [u8]> = Vec::new();
            while !rest.is_empty() {
                let (a, b) = rest.split_at_mut(chunk);
                chunks.push(a);
                rest = b;
            }
            // chunks[z] is plane z's slot; plane z comes from rank z / nzl.
            for (z, buf) in chunks.into_iter().enumerate() {
                let src = (z / nzl) as u32;
                if src as usize == me {
                    continue;
                }
                reqs.push(comm.irecv(buf, src, FFT_TAG + z as u32).expect("irecv"));
            }
            for zl in 0..nzl {
                s.fft_plane(ctx, &mut data, zl);
                let z = me * nzl + zl;
                for t in 0..p {
                    if t == me {
                        continue; // self chunk copied after the borrows end
                    }
                    s.pack_chunk(&data, zl, t, &mut bytes);
                    comm.isend(&bytes, t as u32, FFT_TAG + z as u32).expect("isend");
                }
            }
            for r in reqs {
                r.wait(ctx.ep());
            }
        }
        // Local chunks (self → self).
        for zl in 0..nzl {
            let z = me * nzl + zl;
            s.pack_chunk(&data, zl, me, &mut bytes);
            slab_bytes[s.slab_plane_off(z)..s.slab_plane_off(z) + bytes.len()]
                .copy_from_slice(&bytes);
        }
    } else {
        // Bulk variant: compute all planes, then one alltoall.
        for zl in 0..nzl {
            s.fft_plane(ctx, &mut data, zl);
        }
        let block = nzl * n * nxl * 16;
        let mut send = vec![0u8; p * block];
        for t in 0..p {
            for zl in 0..nzl {
                s.pack_chunk(&data, zl, t, &mut bytes);
                let off = t * block + zl * n * nxl * 16;
                send[off..off + bytes.len()].copy_from_slice(&bytes);
            }
        }
        let mut recv = vec![0u8; p * block];
        comm.alltoall(&send, &mut recv, block);
        // recv[s] holds source s's planes z = s*nzl + zl.
        for src in 0..p {
            for zl in 0..nzl {
                let z = src * nzl + zl;
                let from = src * block + zl * n * nxl * 16;
                let to = s.slab_plane_off(z);
                slab_bytes[to..to + n * nxl * 16].copy_from_slice(&recv[from..from + n * nxl * 16]);
            }
        }
    }
    // The spent z-slab holds the x-slab.
    Slab::decode(&slab_bytes, &mut data);
    s.fft_z(ctx, &mut data);
    ctx.barrier();
    FftResult { time_ns: ctx.now() - t0, local_out: data }
}

// -------------------------------------------------------------------- RMA

/// foMPI variant: per-plane puts straight into the target slab, one fence
/// epoch, communication completed "as late as possible".
pub fn run_rma(ctx: &RankCtx, cfg: &FftConfig) -> FftResult {
    let s = Slab::new(ctx, cfg);
    let (p, nzl, me) = (s.p, s.nzl, s.me);
    let win = Win::allocate(ctx, s.slab_bytes(), 1).expect("fft window");
    let mut data = s.load_input(cfg);
    // Every chunk is packed into, and every x-slab plane read through,
    // this one buffer.
    let mut bytes = Vec::with_capacity(s.chunk_bytes());
    win.fence().expect("fence open");
    let t0 = ctx.now();
    for zl in 0..nzl {
        s.fft_plane(ctx, &mut data, zl);
        let z = me * nzl + zl;
        // Communicate this plane immediately (overlapped with the next
        // plane's compute); our own chunk is a local store.
        for t in 0..p {
            s.pack_chunk(&data, zl, t, &mut bytes);
            if t == me {
                win.write_local(s.slab_plane_off(z), &bytes);
            } else {
                win.put(&bytes, t as u32, s.slab_plane_off(z)).expect("plane put");
            }
        }
    }
    win.fence().expect("fence close");
    s.decode_planes(|off, b| win.read_local(off, b), &mut bytes, &mut data);
    s.fft_z(ctx, &mut data);
    ctx.barrier();
    let time_ns = ctx.now() - t0;
    win.free(ctx);
    FftResult { time_ns, local_out: data }
}

// -------------------------------------------------------------------- UPC

/// UPC slab variant: `upc_memput` per plane chunk, completed by a barrier.
pub fn run_upc(ctx: &RankCtx, cfg: &FftConfig) -> FftResult {
    let s = Slab::new(ctx, cfg);
    let (p, nzl, me) = (s.p, s.nzl, s.me);
    let arr = SharedArray::all_alloc(ctx, s.slab_bytes());
    let mut data = s.load_input(cfg);
    let mut bytes = Vec::with_capacity(s.chunk_bytes());
    arr.barrier();
    let t0 = ctx.now();
    for zl in 0..nzl {
        s.fft_plane(ctx, &mut data, zl);
        let z = me * nzl + zl;
        for t in 0..p {
            s.pack_chunk(&data, zl, t, &mut bytes);
            if t == me {
                arr.write_local(s.slab_plane_off(z), &bytes);
            } else {
                arr.memput(t as u32, s.slab_plane_off(z), &bytes);
            }
        }
    }
    arr.barrier();
    s.decode_planes(|off, b| arr.read_local(off, b), &mut bytes, &mut data);
    s.fft_z(ctx, &mut data);
    ctx.barrier();
    FftResult { time_ns: ctx.now() - t0, local_out: data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_msg::MsgEngine;
    use fompi_runtime::Universe;

    #[test]
    fn fft1d_matches_naive_dft() {
        for n in [2, 4, 8, 16, 32, 64] {
            let data: Vec<C64> =
                (0..n).map(|i| C64::new((i as f64).sin(), (i as f64 * 0.3).cos())).collect();
            let mut fast = data.clone();
            fft_1d(&mut fast, false);
            let slow = dft_naive(&data);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9, "n = {n}");
            }
        }
    }

    #[test]
    fn length_one_is_the_identity() {
        let x = C64::new(0.25, -0.5);
        for inverse in [false, true] {
            let mut one = [x];
            fft_1d(&mut one, inverse);
            assert_eq!(one, [x]);
        }
        // A 1³ grid on one rank: every pass is a length-1 transform.
        let cfg = FftConfig { n: 1, seed: 4 };
        let got = Universe::new(1).node_size(1).run(move |ctx| run_rma(ctx, &cfg));
        assert_eq!(got[0].local_out, [input_at(&cfg, 0, 0, 0)]);
        assert_eq!(fft3d_serial(&cfg), [input_at(&cfg, 0, 0, 0)]);
    }

    #[test]
    fn fft_cols_is_fft_1d_per_column_bit_for_bit() {
        let tw = Twiddles::new(64);
        for n in [1, 2, 4, 8, 32, 64] {
            for width in [1, 3, 16] {
                // One padding column that must stay untouched.
                let stride = width + 1;
                let mut grid: Vec<C64> = (0..n * stride)
                    .map(|i| C64::new((i as f64 * 0.7).sin(), (i as f64 * 0.11).cos()))
                    .collect();
                let before = grid.clone();
                fft_cols(&mut grid, n, stride, width, &tw);
                for j in 0..stride {
                    let mut col: Vec<C64> = (0..n).map(|r| before[r * stride + j]).collect();
                    if j < width {
                        fft_1d_with(&mut col, &tw, false);
                    }
                    for (r, want) in col.iter().enumerate() {
                        let got = grid[r * stride + j];
                        assert!(
                            got.re.to_bits() == want.re.to_bits()
                                && got.im.to_bits() == want.im.to_bits(),
                            "n = {n}, width = {width}, column {j}, row {r}: {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fft1d_inverse_roundtrip() {
        let data: Vec<C64> = (0..32).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let mut w = data.clone();
        fft_1d(&mut w, false);
        fft_1d(&mut w, true);
        for (a, b) in w.iter().zip(&data) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    fn check_against_serial(cfg: &FftConfig, p: usize, results: &[FftResult]) {
        let reference = fft3d_serial(cfg);
        let n = cfg.n;
        let nxl = n / p;
        for (rank, res) in results.iter().enumerate() {
            for z in 0..n {
                for y in 0..n {
                    for xl in 0..nxl {
                        let got = res.local_out[(z * n + y) * nxl + xl];
                        let want = reference[(z * n + y) * n + rank * nxl + xl];
                        assert!(
                            (got.re - want.re).abs() < 1e-6 && (got.im - want.im).abs() < 1e-6,
                            "mismatch at rank {rank} z{z} y{y} x{xl}: {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mpi1_bulk_matches_serial() {
        let cfg = FftConfig { n: 8, seed: 11 };
        let p = 4;
        let engine = MsgEngine::new(p);
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &comm, &cfg, false)
        });
        check_against_serial(&cfg, p, &got);
    }

    #[test]
    fn mpi1_overlap_matches_serial() {
        let cfg = FftConfig { n: 8, seed: 12 };
        let p = 2;
        let engine = MsgEngine::new(p);
        let got = Universe::new(p).node_size(1).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &comm, &cfg, true)
        });
        check_against_serial(&cfg, p, &got);
    }

    #[test]
    fn rma_matches_serial() {
        for (p, n) in [(4, 8), (1, 2), (1, 32), (2, 2), (2, 32)] {
            let cfg = FftConfig { n, seed: 13 };
            let got = Universe::new(p).node_size(p.min(2)).run(move |ctx| run_rma(ctx, &cfg));
            check_against_serial(&cfg, p, &got);
        }
    }

    #[test]
    fn upc_matches_serial() {
        let cfg = FftConfig { n: 8, seed: 14 };
        let p = 2;
        let got = Universe::new(p).node_size(2).run(move |ctx| run_upc(ctx, &cfg));
        check_against_serial(&cfg, p, &got);
    }

    #[test]
    fn parseval_energy_conserved() {
        // ‖FFT(x)‖² = n·‖x‖² for our unnormalised forward transform —
        // checked on the distributed result.
        let cfg = FftConfig { n: 8, seed: 21 };
        let p = 4;
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let r = run_rma(ctx, &cfg);
            r.local_out.iter().map(|c| c.norm2()).sum::<f64>()
        });
        let freq_energy: f64 = got.iter().sum();
        let n = cfg.n;
        let mut time_energy = 0.0;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    time_energy += input_at(&cfg, x, y, z).norm2();
                }
            }
        }
        let expect = time_energy * (n * n * n) as f64;
        assert!(
            (freq_energy - expect).abs() < 1e-6 * expect,
            "Parseval violated: {freq_energy} vs {expect}"
        );
    }

    #[test]
    fn gflops_reporting_consistent() {
        let cfg = FftConfig { n: 8, seed: 1 };
        let engine = MsgEngine::new(2);
        let got = Universe::new(2).node_size(1).run(move |ctx| {
            let c = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &c, &cfg, false)
        });
        let g = got[0].gflops(cfg.n);
        assert!(g.is_finite() && g > 0.0);
    }

    /// Order-sensitive fold of a slab's bit patterns (the one the repo
    /// benchmark's `apps` workload checks).
    fn checksum(slab: &[C64]) -> u64 {
        slab.iter()
            .fold(0u64, |h, c| (h.rotate_left(5) ^ c.re.to_bits()).rotate_left(5) ^ c.im.to_bits())
    }

    /// The transforms' bit patterns, pinned: any kernel change that is not
    /// bit-exact moves these.
    #[test]
    fn checksums_are_pinned_bit_for_bit() {
        let cfg = FftConfig { n: 32, seed: 1 };
        let serial = checksum(&fft3d_serial(&cfg));
        let rma: Vec<u64> =
            Universe::new(2).node_size(1).run(move |ctx| checksum(&run_rma(ctx, &cfg).local_out));
        assert_eq!(serial, 0x4f7c1f00cd5e9735, "fft3d_serial n = 32");
        assert_eq!(rma, [0x3e0789cc7e4ea975, 0xf8d77d473abcd5cb], "run_rma n = 32, p = 2");
    }

    #[test]
    fn rma_overlap_not_slower_than_bulk_mpi1() {
        let cfg = FftConfig { n: 16, seed: 15 };
        let p = 4;
        let engine = MsgEngine::new(p);
        let mpi = Universe::new(p).node_size(1).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &comm, &cfg, false)
        });
        let rma = Universe::new(p).node_size(1).run(move |ctx| run_rma(ctx, &cfg));
        let t_mpi = crate::max_time(&mpi.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        let t_rma = crate::max_time(&rma.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        assert!(
            t_rma <= t_mpi * 1.05,
            "overlapped RMA ({t_rma}) should not lose to bulk MPI-1 ({t_mpi})"
        );
    }
}
