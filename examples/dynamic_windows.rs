//! Dynamic windows: attach/detach and the cached region-table protocol
//! (§2.2).
//!
//! ```text
//! cargo run --release --example dynamic_windows
//! ```
//!
//! A 4-rank demo of `MPI_Win_create_dynamic`: rank 1 grows and shrinks its
//! exposed memory while rank 0 keeps communicating. Rank 0 resolves
//! addresses one-sidedly against its cached copy of rank 1's region table:
//! each access reads rank 1's id counter (one remote get), and the table
//! itself is fetched again only after an attach or detach moved the id.

use fompi::{LockType, Win};
use fompi_runtime::Universe;

fn main() {
    println!("== dynamic windows: the id-counter cache protocol ==\n");
    let results = Universe::new(4).node_size(2).run(|ctx| {
        let win = Win::create_dynamic(ctx).unwrap();
        // Rank 1 attaches two regions and publishes their addresses.
        let (a1, a2) = if ctx.rank() == 1 {
            (win.attach(1024).unwrap(), win.attach(2048).unwrap())
        } else {
            (0, 0)
        };
        let addrs = ctx.allgather(&[a1.to_le_bytes(), a2.to_le_bytes()].concat());
        let r1 = u64::from_le_bytes(addrs[1][0..8].try_into().unwrap());
        let r2 = u64::from_le_bytes(addrs[1][8..16].try_into().unwrap());
        let mut per_access = 0.0;
        let mut detach_cost = 0.0;
        if ctx.rank() == 0 {
            win.lock(LockType::Shared, 1).unwrap();
            // Warm the cache, then measure steady-state access cost.
            win.put(&[1u8; 16], 1, r1 as usize).unwrap();
            win.flush(1).unwrap();
            let t0 = ctx.now();
            for i in 0..32 {
                win.put(&[2u8; 16], 1, r2 as usize + i * 16).unwrap();
            }
            win.flush(1).unwrap();
            per_access = (ctx.now() - t0) / 32.0;
            win.unlock(1).unwrap();
        }
        ctx.barrier();
        if ctx.rank() == 1 {
            let t0 = ctx.now();
            win.detach(r1).unwrap();
            detach_cost = ctx.now() - t0;
            // Verify region 2 still works locally.
            let mut b = [0u8; 16];
            win.region_read(r2, 0, &mut b).unwrap();
            assert_eq!(b[0], 2);
        }
        ctx.barrier();
        // After detach, the moved id sends rank 0 back to the table, which
        // no longer holds the region: the write fails cleanly.
        if ctx.rank() == 0 {
            win.lock(LockType::Shared, 1).unwrap();
            assert!(win.put(&[9u8; 4], 1, r1 as usize).is_err());
            win.unlock(1).unwrap();
        }
        ctx.barrier();
        (per_access, detach_cost)
    });
    println!("per cached access : {:>9.0} ns  (one remote id read + the put)", results[0].0);
    println!("detach            : {:>9.0} ns  (local: table rewrite + id bump)", results[1].1);
    println!("\nverified — OK");
}
