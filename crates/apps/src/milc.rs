//! MIMD Lattice Computation proxy (§4.4, Figure 8).
//!
//! MILC's su3_rmd spends its time in a conjugate-gradient solver over a
//! 4-dimensional lattice, communicating with all 8 neighbours (±x ±y ±z ±t)
//! every iteration plus global allreductions for the CG dot products. This
//! proxy keeps exactly that structure — 4-D domain decomposition,
//! pack/exchange/unpack of 8 halo faces per stencil application, two dot
//! products per iteration — over a 3-complex vector field per site, with an
//! SPD Laplacian-like operator so CG provably converges.
//!
//! Communication backends follow the paper:
//!
//! * **MPI-1**: nonblocking isend/irecv of packed faces + waitall (the
//!   original MILC scheme);
//! * **foMPI RMA**: the UPC port's scheme rebuilt on MPI-3 — data lands in
//!   the neighbour's window via `MPI_Put`, a flag is raised with
//!   `MPI_Fetch_and_op`, all inside one `lock_all` epoch with
//!   `MPI_Win_flush`; receivers spin on monotonic per-face iteration
//!   counters (no resets, no races);
//! * **UPC**: notify with `aadd`, peers `upc_memget_nb` from the source's
//!   send buffer and fence.
//!
//! All backends execute identical local arithmetic; the RMA and UPC
//! variants share the tuned collective for dot products and must agree
//! bitwise, while MPI-1 reduces in tree order (equal up to FP
//! reassociation).

// Lattice code indexes parallel per-dimension arrays (halo faces, face
// buffers, neighbour ranks) by the dimension number d ∈ 0..4; iterator
// rewrites hide that symmetry.
#![allow(clippy::needless_range_loop)]

use fompi::{MpiOp, NumKind, Win};
use fompi_msg::Comm;
use fompi_pgas::SharedArray;
use fompi_runtime::RankCtx;

/// Values per lattice site (3 complex = 6 f64, an su3 vector).
pub const SITE_F64: usize = 6;

/// Mass-squared term of the Wilson-like operator `(8 + m²)·x − Σ x_neib`.
/// Without it the operator has the constant vector in its null space and CG
/// stalls — exactly why lattice QCD solvers carry a mass term.
pub const MASS2: f64 = 1.0;

/// Problem description.
#[derive(Debug, Clone, Copy)]
pub struct MilcConfig {
    /// Local lattice dims [x, y, z, t] — the paper uses 4³×8 per process.
    pub local: [usize; 4],
    /// CG iterations to run.
    pub iters: usize,
    /// RNG seed for the right-hand side.
    pub seed: u64,
}

impl Default for MilcConfig {
    fn default() -> Self {
        Self { local: [4, 4, 4, 8], iters: 8, seed: 77 }
    }
}

/// Per-rank outcome.
#[derive(Debug, Clone)]
pub struct MilcResult {
    /// Virtual ns for the CG loop.
    pub time_ns: f64,
    /// Residual norm after each iteration (identical on all ranks and
    /// across backends).
    pub residuals: Vec<f64>,
}

/// Factor `p` into a 4-D process grid, greedily balancing dimensions.
pub fn grid_dims(p: usize) -> [usize; 4] {
    let mut dims = [1usize; 4];
    let mut rest = p;
    let mut f = 2;
    let mut factors = Vec::new();
    while rest > 1 {
        while rest.is_multiple_of(f) {
            factors.push(f);
            rest /= f;
        }
        f += 1;
    }
    // Largest factors first onto the smallest dimension.
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        let i = (0..4).min_by_key(|&i| dims[i]).unwrap();
        dims[i] *= f;
    }
    dims
}

fn rank_coords(rank: usize, dims: &[usize; 4]) -> [usize; 4] {
    let mut c = [0; 4];
    let mut r = rank;
    for d in 0..4 {
        c[d] = r % dims[d];
        r /= dims[d];
    }
    c
}

fn coords_rank(c: &[usize; 4], dims: &[usize; 4]) -> usize {
    ((c[3] * dims[2] + c[2]) * dims[1] + c[1]) * dims[0] + c[0]
}

/// The lattice geometry and face packing for one rank.
pub struct Lattice {
    local: [usize; 4],
    dims: [usize; 4],
    coords: [usize; 4],
    vol: usize,
}

impl Lattice {
    /// Build for `rank` of `p`.
    pub fn new(rank: usize, p: usize, cfg: &MilcConfig) -> Lattice {
        let dims = grid_dims(p);
        Lattice {
            local: cfg.local,
            dims,
            coords: rank_coords(rank, &dims),
            vol: cfg.local.iter().product(),
        }
    }

    /// Local site count.
    pub fn volume(&self) -> usize {
        self.vol
    }

    /// Sites on the face normal to dim `d`.
    pub fn face_sites(&self, d: usize) -> usize {
        self.vol / self.local[d]
    }

    /// Bytes of one packed face normal to dim `d`.
    fn face_bytes(&self, d: usize) -> usize {
        self.face_sites(d) * SITE_F64 * 8
    }

    /// Neighbour rank in dim `d`, direction `up` (periodic).
    pub fn neighbor(&self, d: usize, up: bool) -> usize {
        let mut c = self.coords;
        let n = self.dims[d];
        c[d] = if up { (c[d] + 1) % n } else { (c[d] + n - 1) % n };
        coords_rank(&c, &self.dims)
    }

    /// Position of site `c` on its face normal to `d`: the mixed-radix
    /// index over the other three dimensions, the first one fastest. Both
    /// sides of a face share it, so our hi face position indexes the up
    /// neighbour's lo face, and vice versa.
    fn face_pos(&self, d: usize, c: &[usize; 4]) -> usize {
        (0..4).rev().filter(|&o| o != d).fold(0, |pos, o| pos * self.local[o] + c[o])
    }

    /// The sites of the face normal to `d` on side `hi` (coordinate L-1
    /// when hi, else 0), in [`Lattice::face_pos`] order: runs of the
    /// `inner` sites below `d`, one per combination of the dims above it.
    fn face(&self, d: usize, hi: bool) -> impl Iterator<Item = usize> {
        let inner: usize = self.local[..d].iter().product();
        let outer = inner * self.local[d];
        let base = if hi { outer - inner } else { 0 };
        (base..self.vol).step_by(outer).flat_map(move |o| o..o + inner)
    }

    /// Append the face data (f64 LE bytes) that travels `up` in dim `d`
    /// to `out`.
    pub fn pack_face(&self, field: &[f64], d: usize, up: bool, out: &mut Vec<u8>) {
        for s in self.face(d, up) {
            for v in &field[s * SITE_F64..(s + 1) * SITE_F64] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// Decode a received face buffer into `out`, which it fills exactly.
    pub fn decode_face(bytes: &[u8], out: &mut [f64]) {
        assert_eq!(bytes.len(), out.len() * 8, "face buffer size");
        for (v, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(b.try_into().unwrap());
        }
    }

    /// Apply the SPD stencil: `out = (8+m²)·x − Σ neighbours`, using `halo[d][side]`
    /// for off-rank neighbours. `halo[d][0]` holds the face received from
    /// the *down* neighbour (our x at coord −1), `halo[d][1]` from up.
    /// Charges su3-like flops.
    pub fn apply_stencil(&self, ctx: &RankCtx, x: &[f64], halo: &Halo, out: &mut [f64]) {
        let l = self.local;
        let stride = [1, l[0], l[0] * l[1], l[0] * l[1] * l[2]];
        let mut s = 0;
        for ct in 0..l[3] {
            for cz in 0..l[2] {
                for cy in 0..l[1] {
                    for cx in 0..l[0] {
                        let c = [cx, cy, cz, ct];
                        // The 8 neighbour sites, up then down for d = 0..3
                        // (the subtraction order every residual depends
                        // on): in `x`, or at our face position in the halo
                        // from that side.
                        let nb: [&[f64]; 8] = std::array::from_fn(|i| {
                            let (d, up) = (i / 2, i % 2 == 0);
                            let (src, site) = match up {
                                true if c[d] + 1 < l[d] => (x, s + stride[d]),
                                false if c[d] > 0 => (x, s - stride[d]),
                                _ => (&halo[d][up as usize][..], self.face_pos(d, &c)),
                            };
                            &src[site * SITE_F64..(site + 1) * SITE_F64]
                        });
                        let at = s * SITE_F64;
                        for k in 0..SITE_F64 {
                            let mut acc = (8.0 + MASS2) * x[at + k];
                            for v in nb {
                                acc -= v[k];
                            }
                            out[at + k] = acc;
                        }
                        s += 1;
                    }
                }
            }
        }
        // su3_rmd does ~72 flops per site per direction; charge the full
        // matrix-vector work.
        ctx.ep().charge_flops(self.vol as f64 * 8.0 * 72.0);
    }
}

/// The received faces, `[d][side]` (side 0 = from the down neighbour, 1 =
/// from up), each `face_sites(d) · SITE_F64` values. [`run_cg`] owns one
/// for the whole solve and every exchange fills it in place.
pub type Halo = [[Vec<f64>; 2]; 4];

/// Halo exchange backends: given the field, fill `halo[d][side]` for the
/// stencil (side 0 = from down neighbour, 1 = from up neighbour).
pub trait HaloExchange {
    /// Exchange all 8 faces of `field` for iteration `iter` into `halo`.
    fn exchange(
        &mut self,
        ctx: &RankCtx,
        lat: &Lattice,
        field: &[f64],
        iter: usize,
        halo: &mut Halo,
    );
}

/// Lend a halo to [`run_cg`] and keep it, for a backend that has to tear
/// it down afterwards.
impl<H: HaloExchange> HaloExchange for &mut H {
    fn exchange(
        &mut self,
        ctx: &RankCtx,
        lat: &Lattice,
        field: &[f64],
        iter: usize,
        halo: &mut Halo,
    ) {
        (**self).exchange(ctx, lat, field, iter, halo)
    }
}

/// MPI-1 backend: 8 isend/irecv pairs + waitall.
pub struct Mpi1Halo<'c> {
    /// The communicator.
    pub comm: &'c Comm,
}

const MILC_TAG: u32 = 0x111C_0000;

impl HaloExchange for Mpi1Halo<'_> {
    fn exchange(
        &mut self,
        ctx: &RankCtx,
        lat: &Lattice,
        field: &[f64],
        iter: usize,
        halo: &mut Halo,
    ) {
        let _ = ctx;
        let tag = MILC_TAG + (iter as u32 % 16) * 8;
        for d in 0..4 {
            let fb = lat.face_bytes(d);
            let up = lat.neighbor(d, true) as u32;
            let down = lat.neighbor(d, false) as u32;
            // Send our hi face up (it becomes their lo halo? no: their
            // *down* halo is data from their down neighbour's hi face).
            let mut hi_face = Vec::with_capacity(fb);
            let mut lo_face = Vec::with_capacity(fb);
            lat.pack_face(field, d, true, &mut hi_face);
            lat.pack_face(field, d, false, &mut lo_face);
            let mut from_down = vec![0u8; fb];
            let mut from_up = vec![0u8; fb];
            // hi face → up neighbour (arrives as their halo[d][0]);
            // lo face → down neighbour (arrives as their halo[d][1]).
            let r1 = self.comm.irecv(&mut from_down, down, tag + d as u32).unwrap();
            let r2 = self.comm.irecv(&mut from_up, up, tag + 4 + d as u32).unwrap();
            self.comm.isend(&hi_face, up, tag + d as u32).unwrap().wait(self.comm.ep());
            self.comm.isend(&lo_face, down, tag + 4 + d as u32).unwrap().wait(self.comm.ep());
            r1.wait(self.comm.ep());
            r2.wait(self.comm.ep());
            Lattice::decode_face(&from_down, &mut halo[d][0]);
            Lattice::decode_face(&from_up, &mut halo[d][1]);
        }
    }
}

/// Where a halo window (RMA) or chunk (UPC) keeps its flags and faces: 8
/// u64 counters in the first 64 bytes, slot `2d + side`, then the 8 face
/// zones, d-major, side 0 (lo) before side 1 (hi).
struct HaloLayout {
    face_bytes: [usize; 4],
    zone: [[usize; 2]; 4],
    /// Bytes of the whole window or chunk.
    total: usize,
}

impl HaloLayout {
    fn new(ctx: &RankCtx, cfg: &MilcConfig) -> HaloLayout {
        let lat = Lattice::new(ctx.rank() as usize, ctx.size(), cfg);
        let face_bytes = std::array::from_fn(|d| lat.face_bytes(d));
        let mut zone = [[0; 2]; 4];
        let mut total = 64;
        for d in 0..4 {
            zone[d] = [total, total + face_bytes[d]];
            total += 2 * face_bytes[d];
        }
        HaloLayout { face_bytes, zone, total }
    }

    /// Byte offset of counter `(d, side)`.
    fn flag(d: usize, side: usize) -> usize {
        (2 * d + side) * 8
    }

    /// A byte buffer that holds two faces of any dimension.
    fn face_buffer(&self) -> Vec<u8> {
        Vec::with_capacity(2 * self.face_bytes.iter().max().unwrap())
    }
}

/// `buf` resized to `len` bytes, within its capacity once it has grown.
fn sized(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    buf.resize(len, 0);
    &mut buf[..len]
}

/// foMPI RMA backend: put + fetch_and_op notify inside a lock_all epoch.
pub struct RmaHalo {
    /// Window holding the 8 iteration counters + halo landing zones.
    pub win: Win,
    lay: HaloLayout,
    /// Every face packed for a put or read out of a landing zone passes
    /// through this one buffer.
    buf: Vec<u8>,
}

impl RmaHalo {
    /// Allocate the window (see `HaloLayout`) and open the epoch.
    pub fn new(ctx: &RankCtx, cfg: &MilcConfig) -> RmaHalo {
        let lay = HaloLayout::new(ctx, cfg);
        let win = Win::allocate(ctx, lay.total, 1).expect("milc window");
        win.lock_all().expect("milc lock_all");
        RmaHalo { win, buf: lay.face_buffer(), lay }
    }

    /// Release the epoch and free the window (collective).
    pub fn finish(self, ctx: &RankCtx) {
        self.win.unlock_all().expect("milc unlock_all");
        self.win.free(ctx);
    }

    /// After this rank's puts: one flush, then notify all 8 neighbours with
    /// monotonic counters (slot 2d = "lo zone filled", written by the down
    /// neighbour's hi face; 2d + 1 = "hi zone filled"), then wait for each
    /// of our own 8 counters to reach this iteration's count and decode
    /// its zone into `halo`.
    fn notify_and_collect(&mut self, ctx: &RankCtx, lat: &Lattice, iter: usize, halo: &mut Halo) {
        self.win.flush_all().expect("halo flush");
        let one = 1u64.to_le_bytes();
        let mut old = [0u8; 8];
        for d in 0..4 {
            for (side, up) in [(0, true), (1, false)] {
                let peer = lat.neighbor(d, up) as u32;
                self.win
                    .fetch_and_op(
                        &one,
                        &mut old,
                        NumKind::U64,
                        MpiOp::Sum,
                        peer,
                        HaloLayout::flag(d, side),
                    )
                    .expect("notify");
            }
        }
        let want = (iter + 1) as u64;
        for d in 0..4 {
            for side in 0..2 {
                let mut spins = 0u64;
                loop {
                    let mut cur = [0u8; 8];
                    self.win
                        .fetch_and_op(
                            &[],
                            &mut cur,
                            NumKind::U64,
                            MpiOp::NoOp,
                            ctx.rank(),
                            HaloLayout::flag(d, side),
                        )
                        .expect("flag read");
                    if u64::from_le_bytes(cur) >= want {
                        break;
                    }
                    spins += 1;
                    assert!(spins < 200_000_000, "milc halo deadlock");
                    std::thread::yield_now();
                }
                let bytes = sized(&mut self.buf, self.lay.face_bytes[d]);
                self.win.read_local(self.lay.zone[d][side], bytes);
                Lattice::decode_face(bytes, &mut halo[d][side]);
            }
        }
    }
}

impl HaloExchange for RmaHalo {
    fn exchange(
        &mut self,
        ctx: &RankCtx,
        lat: &Lattice,
        field: &[f64],
        iter: usize,
        halo: &mut Halo,
    ) {
        let memcpy = ctx.fabric().model().memcpy_byte_ns;
        for d in 0..4 {
            let up = lat.neighbor(d, true) as u32;
            let down = lat.neighbor(d, false) as u32;
            // Both faces back to back: hi, then lo.
            self.buf.clear();
            lat.pack_face(field, d, true, &mut self.buf);
            lat.pack_face(field, d, false, &mut self.buf);
            // Packing into the communication buffer costs a copy.
            ctx.ep().charge(memcpy * self.buf.len() as f64);
            // Our hi face lands in the up neighbour's lo zone, and vice
            // versa.
            let (hi_face, lo_face) = self.buf.split_at(self.lay.face_bytes[d]);
            self.win.put(hi_face, up, self.lay.zone[d][0]).expect("halo put");
            self.win.put(lo_face, down, self.lay.zone[d][1]).expect("halo put");
        }
        self.notify_and_collect(ctx, lat, iter, halo)
    }
}

/// UPC backend: write to own send buffer, `aadd` the neighbour's flag,
/// peers `memget_nb` + fence.
pub struct UpcHalo {
    arr: SharedArray,
    lay: HaloLayout,
    /// The one buffer every face is packed into or pulled through.
    buf: Vec<u8>,
}

impl UpcHalo {
    /// Allocate the chunk (see `HaloLayout`; the zones hold our own
    /// faces, which the neighbours pull).
    pub fn new(ctx: &RankCtx, cfg: &MilcConfig) -> UpcHalo {
        let lay = HaloLayout::new(ctx, cfg);
        UpcHalo { arr: SharedArray::all_alloc(ctx, lay.total), buf: lay.face_buffer(), lay }
    }
}

impl HaloExchange for UpcHalo {
    fn exchange(
        &mut self,
        ctx: &RankCtx,
        lat: &Lattice,
        field: &[f64],
        iter: usize,
        halo: &mut Halo,
    ) {
        let want = (iter + 1) as u64;
        // Publish faces in our own chunk: zone (d, 0) = our lo face,
        // zone (d, 1) = our hi face.
        for d in 0..4 {
            for (side, up) in [(0, false), (1, true)] {
                self.buf.clear();
                lat.pack_face(field, d, up, &mut self.buf);
                self.arr.write_local(self.lay.zone[d][side], &self.buf);
            }
        }
        self.arr.fence();
        // Notify: tell each neighbour its source data is ready.
        for d in 0..4 {
            let up = lat.neighbor(d, true) as u32;
            let down = lat.neighbor(d, false) as u32;
            self.arr.aadd(up, HaloLayout::flag(d, 0), 1);
            self.arr.aadd(down, HaloLayout::flag(d, 1), 1);
        }
        // Wait + pull.
        for d in 0..4 {
            let up = lat.neighbor(d, true) as u32;
            let down = lat.neighbor(d, false) as u32;
            for (side, (peer, zone)) in [(down, 1usize), (up, 0usize)].into_iter().enumerate() {
                let mut spins = 0u64;
                loop {
                    if self.arr.aadd(ctx.rank(), HaloLayout::flag(d, side), 0) >= want {
                        break;
                    }
                    spins += 1;
                    assert!(spins < 200_000_000, "upc halo deadlock");
                    std::thread::yield_now();
                }
                // side 0: data from down neighbour = its hi face (zone 1);
                // side 1: data from up neighbour = its lo face (zone 0).
                let bytes = sized(&mut self.buf, self.lay.face_bytes[d]);
                self.arr.memget_nb(bytes, peer, self.lay.zone[d][zone]);
                self.arr.fence();
                Lattice::decode_face(bytes, &mut halo[d][side]);
            }
        }
    }
}

/// Zero-copy RMA halo backend (the §4.4 remark: "one could use MPI
/// datatypes to communicate the data directly from the application buffers
/// resulting in additional performance gains", cf. Hoefler & Gottlieb's
/// zero-copy datatype schemes). Faces are described as 5-D subarray
/// datatypes over the field and shipped with `put_typed` — no pack/unpack
/// copies; the fabric issues one operation per contiguous block instead.
///
/// The trade-off this ablation exposes: the t-face is one contiguous block
/// (typed wins — no copy, one put), while the x-face shatters into
/// `ly·lz·lt` tiny blocks (typed loses — per-block injection beats the
/// memcpy it saved). Exactly the crossover studied in the paper's reference \[13\].
pub struct RmaTypedHalo {
    /// The window and flag protocol of [`RmaHalo`].
    rma: RmaHalo,
    /// Face datatypes, `[d][side]`, side 0 = lo face, 1 = hi face.
    face_ty: [[fompi::DataType; 2]; 4],
    /// A landing zone's layout, per dimension: its face bytes, dense.
    zone_ty: [fompi::DataType; 4],
}

/// The faces of a `local` lattice as subarray datatypes over the field's
/// bytes, `[d][side]`, in the order [`Lattice::pack_face`] packs them.
fn face_types(local: [usize; 4]) -> [[fompi::DataType; 2]; 4] {
    let l = local;
    // Field as a 5-D byte array, axes outer→inner: [t][z][y][x][site].
    let sizes = [l[3], l[2], l[1], l[0], SITE_F64 * 8];
    std::array::from_fn(|d| {
        // Lattice dim d maps to array axis: x→3, y→2, z→1, t→0.
        let a = 3 - d;
        std::array::from_fn(|side| {
            let mut sub = sizes;
            let mut start = [0usize; 5];
            sub[a] = 1;
            start[a] = side * (sizes[a] - 1);
            fompi::DataType::subarray(&sizes, &sub, &start, fompi::DataType::byte())
        })
    })
}

impl RmaTypedHalo {
    /// Build the window and the face subarray types.
    pub fn new(ctx: &RankCtx, cfg: &MilcConfig) -> RmaTypedHalo {
        let rma = RmaHalo::new(ctx, cfg);
        let zone_ty = std::array::from_fn(|d| {
            fompi::DataType::contiguous(rma.lay.face_bytes[d], fompi::DataType::byte())
        });
        RmaTypedHalo { rma, face_ty: face_types(cfg.local), zone_ty }
    }

    /// Release the epoch and free the window (collective).
    pub fn finish(self, ctx: &RankCtx) {
        self.rma.finish(ctx);
    }
}

impl HaloExchange for RmaTypedHalo {
    fn exchange(
        &mut self,
        ctx: &RankCtx,
        lat: &Lattice,
        field: &[f64],
        iter: usize,
        halo: &mut Halo,
    ) {
        // One byte view of the field, in the backend's buffer (the
        // host-language copy is an artifact of Rust slices; the *model*
        // cost is only the typed puts — the point of zero-copy).
        let rma = &mut self.rma;
        rma.buf.clear();
        rma.buf.extend(field.iter().flat_map(|v| v.to_le_bytes()));
        let (win, lay) = (&rma.win, &rma.lay);
        for d in 0..4 {
            let up = lat.neighbor(d, true) as u32;
            let down = lat.neighbor(d, false) as u32;
            let dense = &self.zone_ty[d];
            // hi face → up neighbour's lo zone; lo face → down's hi zone.
            win.put_typed(&rma.buf, 1, &self.face_ty[d][1], up, lay.zone[d][0], 1, dense)
                .expect("typed halo put");
            win.put_typed(&rma.buf, 1, &self.face_ty[d][0], down, lay.zone[d][1], 1, dense)
                .expect("typed halo put");
        }
        rma.notify_and_collect(ctx, lat, iter, halo)
    }
}

/// foMPI backend with zero-copy datatype halos (§4.4's suggested
/// optimisation).
pub fn run_rma_typed(ctx: &RankCtx, cfg: &MilcConfig) -> MilcResult {
    let mut halo = RmaTypedHalo::new(ctx, cfg);
    let res = run_cg(ctx, cfg, &mut halo, |ctx, v| {
        ctx.coll().allreduce_f64(ctx.ep(), v, |a, b| a + b);
    });
    ctx.barrier();
    halo.finish(ctx);
    res
}

/// Deterministic right-hand side.
fn rhs(lat: &Lattice, cfg: &MilcConfig, rank: usize) -> Vec<f64> {
    (0..lat.volume() * SITE_F64)
        .map(|i| {
            let h = crate::splitmix64(cfg.seed ^ ((rank as u64) << 32) ^ i as u64);
            ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// Run `cfg.iters` CG iterations with the given halo backend and a dot
/// product reducer (message-based for MPI-1, tuned-collective for
/// RMA/PGAS).
pub fn run_cg(
    ctx: &RankCtx,
    cfg: &MilcConfig,
    mut halo: impl HaloExchange,
    allreduce: impl Fn(&RankCtx, &mut [f64]),
) -> MilcResult {
    let lat = Lattice::new(ctx.rank() as usize, ctx.size(), cfg);
    let nvals = lat.volume() * SITE_F64;
    let b = rhs(&lat, cfg, ctx.rank() as usize);
    let mut x = vec![0.0f64; nvals];
    let mut r = b.clone();
    let mut pvec = r.clone();
    let mut ax = vec![0.0f64; nvals];
    let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
    let mut residuals = Vec::with_capacity(cfg.iters);
    let mut h: Halo = std::array::from_fn(|d| {
        std::array::from_fn(|_| vec![0.0f64; lat.face_sites(d) * SITE_F64])
    });
    ctx.barrier();
    let t0 = ctx.now();
    let mut rr = [dot(&r, &r)];
    allreduce(ctx, &mut rr);
    for it in 0..cfg.iters {
        halo.exchange(ctx, &lat, &pvec, it, &mut h);
        lat.apply_stencil(ctx, &pvec, &h, &mut ax);
        ctx.ep().charge_flops(2.0 * nvals as f64); // dot
        let mut pap = [dot(&pvec, &ax)];
        allreduce(ctx, &mut pap);
        let alpha = rr[0] / pap[0];
        for i in 0..nvals {
            x[i] += alpha * pvec[i];
            r[i] -= alpha * ax[i];
        }
        ctx.ep().charge_flops(4.0 * nvals as f64);
        let mut rr_new = [dot(&r, &r)];
        allreduce(ctx, &mut rr_new);
        let beta = rr_new[0] / rr[0];
        for i in 0..nvals {
            pvec[i] = r[i] + beta * pvec[i];
        }
        ctx.ep().charge_flops(2.0 * nvals as f64);
        rr = rr_new;
        residuals.push(rr[0].sqrt());
    }
    ctx.barrier();
    MilcResult { time_ns: ctx.now() - t0, residuals }
}

/// Convenience wrappers for the three backends.
pub fn run_mpi1(ctx: &RankCtx, comm: &Comm, cfg: &MilcConfig) -> MilcResult {
    run_cg(ctx, cfg, Mpi1Halo { comm }, |_ctx, v| {
        // Message-based allreduce through the MPI-1 stack.
        comm.allreduce_f64(v, |a, b| a + b);
    })
}

/// foMPI backend entry point.
pub fn run_rma(ctx: &RankCtx, cfg: &MilcConfig) -> MilcResult {
    let mut halo = RmaHalo::new(ctx, cfg);
    let res = run_cg(ctx, cfg, &mut halo, |ctx, v| {
        ctx.coll().allreduce_f64(ctx.ep(), v, |a, b| a + b);
    });
    ctx.barrier();
    halo.finish(ctx);
    res
}

/// UPC backend entry point.
pub fn run_upc(ctx: &RankCtx, cfg: &MilcConfig) -> MilcResult {
    let halo = UpcHalo::new(ctx, cfg);
    let res = run_cg(ctx, cfg, halo, |ctx, v| {
        ctx.coll().allreduce_f64(ctx.ep(), v, |a, b| a + b);
    });
    ctx.barrier();
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_msg::MsgEngine;
    use fompi_runtime::Universe;

    #[test]
    fn grid_dims_cover_p() {
        for p in [1, 2, 4, 6, 8, 12, 16, 64, 512] {
            let d = grid_dims(p);
            assert_eq!(d.iter().product::<usize>(), p, "p={p} dims={d:?}");
        }
    }

    #[test]
    fn neighbor_symmetry() {
        let cfg = MilcConfig::default();
        let p = 8;
        for rank in 0..p {
            let lat = Lattice::new(rank, p, &cfg);
            for d in 0..4 {
                let up = lat.neighbor(d, true);
                let back = Lattice::new(up, p, &cfg).neighbor(d, false);
                assert_eq!(back, rank, "rank {rank} dim {d}");
            }
        }
    }

    fn residuals_of(res: &[MilcResult]) -> Vec<f64> {
        res[0].residuals.clone()
    }

    #[test]
    fn cg_converges_mpi1() {
        let cfg = MilcConfig { local: [2, 2, 2, 2], iters: 6, seed: 5 };
        let p = 4;
        let engine = MsgEngine::new(p);
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &comm, &cfg)
        });
        let r = residuals_of(&got);
        assert!(r.last().unwrap() < &r[0], "CG must reduce the residual: {r:?}");
        // All ranks agree bit-for-bit.
        for other in &got[1..] {
            assert_eq!(other.residuals, r);
        }
    }

    #[test]
    fn all_backends_agree_bitwise() {
        let cfg = MilcConfig { local: [2, 2, 2, 2], iters: 5, seed: 9 };
        let p = 4;
        let engine = MsgEngine::new(p);
        let mpi = Universe::new(p).node_size(2).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &comm, &cfg)
        });
        let rma = Universe::new(p).node_size(2).run(move |ctx| run_rma(ctx, &cfg));
        let upc = Universe::new(p).node_size(2).run(move |ctx| run_upc(ctx, &cfg));
        // The MPI-1 dot products reduce in binomial-tree order while the
        // RMA/UPC variants use the tuned collective (sequential order), so
        // agreement is to floating-point reassociation, not bitwise.
        for (a, b) in mpi[0].residuals.iter().zip(&rma[0].residuals) {
            assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "MPI-1 vs RMA: {a} vs {b}");
        }
        for (a, b) in rma[0].residuals.iter().zip(&upc[0].residuals) {
            assert_eq!(a, b, "RMA vs UPC must match bitwise (same reduce order)");
        }
    }

    #[test]
    fn odd_process_grid_converges() {
        // p = 6 factors to a non-power-of-two 4-D grid; halo pairing and
        // the CG must still work.
        let cfg = MilcConfig { local: [2, 2, 2, 2], iters: 4, seed: 8 };
        let p = 6;
        let got = Universe::new(p).node_size(3).run(move |ctx| run_rma(ctx, &cfg));
        let r = &got[0].residuals;
        assert!(r.last().unwrap() < &r[0]);
        for other in &got[1..] {
            assert_eq!(&other.residuals, r);
        }
    }

    #[test]
    fn single_rank_self_neighbor_works() {
        let cfg = MilcConfig { local: [2, 2, 2, 4], iters: 4, seed: 3 };
        let got = Universe::new(1).node_size(1).run(move |ctx| run_rma(ctx, &cfg));
        let r = &got[0].residuals;
        assert!(r.last().unwrap() < &r[0]);
    }

    #[test]
    fn typed_faces_equal_packed_faces() {
        // The subarray datatype must enumerate face bytes in exactly the
        // order pack_face uses, or the receiver's decode is garbage.
        let cfg = MilcConfig { local: [2, 3, 2, 4], iters: 1, seed: 1 };
        let lat = Lattice::new(0, 1, &cfg);
        let field: Vec<f64> = (0..lat.volume() * SITE_F64).map(|i| i as f64).collect();
        let bytes: Vec<u8> = field.iter().flat_map(|v| v.to_le_bytes()).collect();
        let types = face_types(cfg.local);
        for d in 0..4 {
            for side in 0..2 {
                let typed = types[d][side].pack(1, &bytes);
                let mut packed = Vec::new();
                lat.pack_face(&field, d, side == 1, &mut packed);
                assert_eq!(typed, packed, "dim {d} side {side}");
            }
        }
    }

    /// The face order spelled out: the other three dims as a mixed-radix
    /// counter, the first fastest, with dim `d` pinned to its side.
    fn reference_face(lat: &Lattice, d: usize, hi: bool) -> Vec<[usize; 4]> {
        let l = lat.local;
        let others: Vec<usize> = (0..4).filter(|&o| o != d).collect();
        (0..lat.face_sites(d))
            .map(|mut idx| {
                let mut c = [0; 4];
                for &o in &others {
                    c[o] = idx % l[o];
                    idx /= l[o];
                }
                c[d] = if hi { l[d] - 1 } else { 0 };
                c
            })
            .collect()
    }

    #[test]
    fn face_pos_and_face_walk_follow_the_face_order() {
        for local in [[2, 3, 2, 4], [1, 2, 3, 4]] {
            let cfg = MilcConfig { local, iters: 1, seed: 1 };
            for p in [1, 2, 6] {
                for rank in 0..p {
                    let lat = Lattice::new(rank, p, &cfg);
                    for d in 0..4 {
                        for hi in [false, true] {
                            let want = reference_face(&lat, d, hi);
                            for (i, c) in want.iter().enumerate() {
                                assert_eq!(lat.face_pos(d, c), i, "{local:?} p={p} d={d} {c:?}");
                            }
                            let site = |c: &[usize; 4]| {
                                ((c[3] * local[2] + c[2]) * local[1] + c[1]) * local[0] + c[0]
                            };
                            let walked: Vec<usize> = lat.face(d, hi).collect();
                            let sites: Vec<usize> = want.iter().map(site).collect();
                            assert_eq!(walked, sites, "{local:?} p={p} d={d} hi={hi}");
                        }
                    }
                }
            }
        }
    }

    /// A field that differs per rank and per iteration.
    fn probe_field(lat: &Lattice, rank: usize, iter: usize) -> Vec<f64> {
        (0..lat.volume() * SITE_F64)
            .map(|i| (rank * 1000 + iter * 100) as f64 + i as f64 / 8.0)
            .collect()
    }

    /// What `halo[d][side]` holds on `rank` after the exchange of `iter`:
    /// the down neighbour's hi face (side 0) or the up neighbour's lo face.
    fn neighbours_faces(p: usize, cfg: &MilcConfig, rank: usize, iter: usize) -> Halo {
        let lat = Lattice::new(rank, p, cfg);
        std::array::from_fn(|d| {
            std::array::from_fn(|side| {
                let nb = lat.neighbor(d, side == 1);
                let nlat = Lattice::new(nb, p, cfg);
                let mut bytes = Vec::new();
                nlat.pack_face(&probe_field(&nlat, nb, iter), d, side == 0, &mut bytes);
                let mut face = vec![0.0; lat.face_sites(d) * SITE_F64];
                Lattice::decode_face(&bytes, &mut face);
                face
            })
        })
    }

    /// Three exchanges into one halo, each checked bit for bit. A barrier
    /// stands for the solver's allreduce: no rank overwrites a landing
    /// zone before its owner has read it.
    fn exchanges(ctx: &RankCtx, cfg: &MilcConfig, mut backend: impl HaloExchange, name: &str) {
        let (rank, p) = (ctx.rank() as usize, ctx.size());
        let lat = Lattice::new(rank, p, cfg);
        let mut halo: Halo = std::array::from_fn(|d| {
            std::array::from_fn(|_| vec![f64::NAN; lat.face_sites(d) * SITE_F64])
        });
        for iter in 0..3 {
            backend.exchange(ctx, &lat, &probe_field(&lat, rank, iter), iter, &mut halo);
            let want = neighbours_faces(p, cfg, rank, iter);
            for (d, (got, want)) in halo.iter().zip(&want).enumerate() {
                for side in 0..2 {
                    let bits = |f: &[f64]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got[side]),
                        bits(&want[side]),
                        "{name}: p = {p} rank {rank} iteration {iter} d = {d} side {side}"
                    );
                }
            }
            ctx.barrier();
        }
    }

    #[test]
    fn reused_halos_hold_the_neighbours_faces_on_every_backend() {
        let cfg = MilcConfig { local: [2, 3, 2, 4], iters: 3, seed: 1 };
        for p in [1, 2, 8] {
            let engine = MsgEngine::new(p);
            Universe::new(p).node_size(p.min(4)).run(move |ctx| {
                let comm = Comm::attach(ctx, &engine);
                exchanges(ctx, &cfg, Mpi1Halo { comm: &comm }, "MPI-1");
                let mut rma = RmaHalo::new(ctx, &cfg);
                exchanges(ctx, &cfg, &mut rma, "RMA");
                rma.finish(ctx);
                let mut typed = RmaTypedHalo::new(ctx, &cfg);
                exchanges(ctx, &cfg, &mut typed, "typed RMA");
                typed.finish(ctx);
                exchanges(ctx, &cfg, UpcHalo::new(ctx, &cfg), "UPC");
            });
        }
    }

    #[test]
    fn typed_halo_matches_packed_halo() {
        let cfg = MilcConfig { local: [2, 2, 2, 4], iters: 4, seed: 6 };
        let p = 8;
        let packed = Universe::new(p).node_size(4).run(move |ctx| run_rma(ctx, &cfg));
        let typed = Universe::new(p).node_size(4).run(move |ctx| run_rma_typed(ctx, &cfg));
        assert_eq!(packed[0].residuals, typed[0].residuals, "typed halo must be bit-identical");
    }

    /// The residuals' bit patterns, pinned: any change to the stencil or
    /// the halo decode that is not bit-exact moves them.
    #[test]
    fn residuals_are_pinned_bit_for_bit() {
        let cfg = MilcConfig { local: [4, 4, 4, 8], iters: 8, seed: 1 };
        let bits = |res: Vec<MilcResult>| -> Vec<u64> {
            res[0].residuals.iter().map(|r| r.to_bits()).collect()
        };
        let rma = bits(Universe::new(2).node_size(1).run(move |ctx| run_rma(ctx, &cfg)));
        let upc = bits(Universe::new(8).node_size(4).run(move |ctx| run_upc(ctx, &cfg)));
        assert_eq!(rma, RMA_P2_BITS, "run_rma p = 2");
        assert_eq!(upc, UPC_P8_BITS, "run_upc p = 8");
    }
    const RMA_P2_BITS: [u64; 8] = [
        0x401bd69fbbf592d6,
        0x40099b857f0c6e76,
        0x3ffe8ea102b66f30,
        0x3ff430d65fad93ab,
        0x3feb75e22c959bd0,
        0x3fe21577f184921c,
        0x3fd63f8e31f46f25,
        0x3fcc4387a548c1af,
    ];
    const UPC_P8_BITS: [u64; 8] = [
        0x402c49c76564a0b9,
        0x4019a3cf2d46f248,
        0x400bb27d5ad8da2f,
        0x400011696ebb20f8,
        0x3ff347de7f622393,
        0x3fe7c3591f8d52b1,
        0x3fde9a6138ba2dfa,
        0x3fd42aba6ba96fc8,
    ];

    #[test]
    fn rma_not_slower_than_mpi1() {
        let cfg = MilcConfig { local: [2, 2, 2, 4], iters: 4, seed: 2 };
        let p = 8;
        let engine = MsgEngine::new(p);
        let mpi = Universe::new(p).node_size(2).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &comm, &cfg)
        });
        let rma = Universe::new(p).node_size(2).run(move |ctx| run_rma(ctx, &cfg));
        let t_mpi = crate::max_time(&mpi.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        let t_rma = crate::max_time(&rma.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        assert!(t_rma < t_mpi * 1.02, "RMA halo ({t_rma}) should not lose to MPI-1 ({t_mpi})");
    }
}
