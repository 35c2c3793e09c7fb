//! Property-based coverage for the shard partitioner and the bit-packed
//! arena codec.
//!
//! The deterministic unit tests in `partition.rs`/`arena.rs` pin known
//! shapes; these proptests sweep randomized trees and bit patterns over
//! the same invariants the sharded executor relies on:
//!
//! - shard ranges tile `0..n` exactly, chunk-aligned and gap-free,
//! - every shard's boundary-edge set is exactly the CSR cut-edge set,
//!   and its halo buffer is sized to that cut degree,
//! - `set_bits`/`get_bits` round-trip for every width `0..=128` at any
//!   bit offset without disturbing neighboring lanes,
//! - `PackableMessage::pack`/`unpack` is the identity for every declared
//!   message width.

use lcl_graph::generators::random_bounded_degree_tree;
use lcl_graph::Tree;
use lcl_local::packed::{bits_for, PackableMessage};
use lcl_shard::arena::{get_bits, set_bits, HaloBuffers};
use lcl_shard::ShardPlan;
use proptest::prelude::*;

/// Brute-force cut-edge set of `lo..hi`: reading edge slots whose
/// endpoint lives outside the range, in CSR order.
fn cut_edges(tree: &Tree, lo: usize, hi: usize) -> Vec<u32> {
    let offsets = tree.offsets();
    let mut cut = Vec::new();
    for (i, &base) in offsets[lo..hi].iter().enumerate() {
        for (p, &w) in tree.neighbors(lo + i).iter().enumerate() {
            if (w as usize) < lo || (w as usize) >= hi {
                cut.push(base + p as u32);
            }
        }
    }
    cut
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shard_ranges_tile_the_node_range(
        n in 1usize..200,
        max_degree in 2usize..6,
        seed in 0u64..u64::MAX,
        chunk_size in 1usize..17,
        shards in 1usize..12,
    ) {
        let tree = random_bounded_degree_tree(n, max_degree, seed);
        let plan = ShardPlan::new(&tree, chunk_size, shards);
        let mut covered = 0usize;
        for (i, info) in plan.shards.iter().enumerate() {
            prop_assert_eq!(info.lo, covered, "shard {} starts at the previous end", i);
            prop_assert!(info.hi > info.lo, "shard {} is non-empty", i);
            prop_assert_eq!(info.lo % chunk_size, 0, "shard {} is chunk-aligned", i);
            covered = info.hi;
            for v in info.lo..info.hi {
                prop_assert_eq!(plan.shard_of(v), i);
            }
        }
        prop_assert_eq!(covered, n, "shards tile 0..n exactly");
        prop_assert!(plan.shard_count() <= shards);
    }

    #[test]
    fn boundary_edges_are_the_csr_cut_edges(
        n in 1usize..200,
        max_degree in 2usize..6,
        seed in 0u64..u64::MAX,
        chunk_size in 1usize..17,
        shards in 1usize..12,
        width in 0u32..=128,
    ) {
        let tree = random_bounded_degree_tree(n, max_degree, seed);
        let plan = ShardPlan::new(&tree, chunk_size, shards);
        let mut total_cut = 0usize;
        for info in &plan.shards {
            let expected = cut_edges(&tree, info.lo, info.hi);
            prop_assert_eq!(&info.halo_edges[..], &expected[..]);
            total_cut += expected.len();
            // The run-time halo buffer for this shard holds exactly one
            // slot per cut edge (per parity).
            let halos = HaloBuffers::zeroed(info.halo_edges.len(), width);
            for p in 0..2 {
                prop_assert_eq!(halos.present[p].len(), info.halo_edges.len().div_ceil(64));
                prop_assert_eq!(
                    halos.packed[p].len(),
                    (info.halo_edges.len() * width as usize).div_ceil(64)
                );
            }
            // Every incoming halo slot is fed by exactly one outgoing
            // route somewhere, so route counts balance the cut.
        }
        let total_routes: usize = plan.shards.iter().map(|s| s.outgoing.len()).sum();
        prop_assert_eq!(total_routes, total_cut, "one route per halo slot");
        // A tree cut is symmetric: an even number of directed cut edges.
        prop_assert_eq!(total_cut % 2, 0);
    }

    #[test]
    fn bit_lanes_round_trip_without_crosstalk(
        width in 0u32..=128,
        lane in 0usize..20,
        raw_hi in any::<u64>(),
        raw_lo in any::<u64>(),
        backdrop in any::<u64>(),
    ) {
        let raw = u128::from(raw_hi) << 64 | u128::from(raw_lo);
        let value = if width == 128 { raw } else { raw & ((1u128 << width) - 1) };
        let words_len = (22 * width as usize).div_ceil(64).max(1);
        let mut words = vec![backdrop; words_len];
        let before = words.clone();
        set_bits(&mut words, lane * width as usize, width, value);
        prop_assert_eq!(get_bits(&words, lane * width as usize, width), value);
        // Neighboring lanes keep their backdrop bits.
        for other in 0..20usize {
            if other == lane { continue; }
            prop_assert_eq!(
                get_bits(&words, other * width as usize, width),
                get_bits(&before, other * width as usize, width),
                "lane {} disturbed by a write to lane {}", other, lane
            );
        }
    }

    #[test]
    fn packable_messages_round_trip(a in any::<u64>(), b in any::<u64>()) {
        // Every `PackableMessage` implementation at its declared width.
        prop_assert_eq!(<()>::unpack(().pack()), ());
        prop_assert_eq!(u64::unpack(a.pack()), a);
        prop_assert_eq!(<(u64, u64)>::unpack((a, b).pack()), (a, b));
        // Declared ceilings actually bound the packed form (the unit
        // ceiling is 0, so its packed form must be exactly 0 bits).
        prop_assert_eq!(bits_for(().pack()), <() as PackableMessage>::CEIL_BITS);
        prop_assert!(bits_for(a.pack()) <= <u64 as PackableMessage>::CEIL_BITS);
        prop_assert!(bits_for((a, b).pack()) <= <(u64, u64) as PackableMessage>::CEIL_BITS);
        // And survive a trip through an actual packed word lane.
        let width = <(u64, u64) as PackableMessage>::CEIL_BITS;
        let mut words = vec![0u64; (3 * width as usize).div_ceil(64)];
        set_bits(&mut words, width as usize, width, (a, b).pack());
        let back = get_bits(&words, width as usize, width);
        prop_assert_eq!(<(u64, u64)>::unpack(back), (a, b));
    }
}
