//! The packed store: sharded, bit-packed, spillable message storage for
//! the engine's round scheduler.
//!
//! [`run_sharded`] runs the same round scheduler as the monolithic engine
//! ([`run_rounds`]), so every scheduling decision — mail flags, wake
//! hints, chunk wake minima, quiet-round fast-forward, worker dispatch —
//! is shared, and outputs, per-node termination rounds, termination
//! profiles, and message counts are *bit-identical* to `run_sync_with`
//! for every shard count, residency limit, packing mode, and thread
//! count (the shard differential suite pins this). `PackedStore`
//! decides only where messages live:
//!
//! - Every shard is one scheduler pass. Its message slots live in a
//!   bit-packed arena ([`PackedArena`]) instead of `Option<(u32, M)>`
//!   slots. The slot store's delivery-round stamps become per-chunk
//!   *round stamps*: a chunk's write-parity presence words are zeroed when
//!   the chunk begins, so a presence bit proves the message was written in
//!   the round recorded by the owning chunk's stamp, and a read is valid
//!   exactly when that stamp is the previous round — the same predicate the
//!   per-slot stamps encode.
//! - At most `max_resident` shard arena sets stay in memory; the rest
//!   spill to a per-run [`SpillPool`] under LRU replacement. Halo buffers
//!   stay resident, like the scheduler's per-node bookkeeping.
//! - A message crossing a shard boundary is mirrored into the destination
//!   shard's halo buffer when the source shard's pass ends, *before* the
//!   source can be evicted; a pass therefore never touches a non-resident
//!   arena. `halo_stamp` plays the chunk stamp's role for halo slots: a
//!   halo parity is cleared by the first capture into it in a round.
//!
//! The per-round hot path is the [`StoreRegion`] impl and `end_pass`;
//! neither allocates nor performs I/O — arenas, halo buffers, decode
//! scratch, and the spill file are all set up at run start (`lcl analyze`
//! hot-path rules keep this lexical). Spill I/O happens only in
//! `begin_pass`, between passes.

use crate::arena::{
    get_bits, is_present, set_bits, set_present, ArenaLayout, HaloBuffers, PackedArena,
};
use crate::partition::{ChunkMeta, ShardPlan};
use crate::pool::SpillPool;
use lcl_graph::Tree;
use lcl_local::engine::{
    run_rounds, ArenaStore, EngineConfig, Inbox, NodeContext, Outbox, Protocol, RunError,
    ShardConfig, StoreRegion, StoreSetup, SyncOutcome, Topology,
};
use lcl_local::identifiers::Ids;
use lcl_local::packed::PackableMessage;
use std::error::Error;
use std::fmt;

/// Errors from [`run_sharded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The protocol run itself failed (same cases as the monolithic
    /// engine).
    Run(RunError),
    /// The spill pool hit an I/O error (message only: `io::Error` is
    /// neither `Clone` nor `Eq`).
    Io(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Run(e) => e.fmt(f),
            ShardError::Io(msg) => write!(f, "shard spill pool I/O error: {msg}"),
        }
    }
}

impl Error for ShardError {}

impl From<RunError> for ShardError {
    fn from(e: RunError) -> Self {
        ShardError::Run(e)
    }
}

fn io_err(e: std::io::Error) -> ShardError {
    ShardError::Io(e.to_string())
}

/// Per-worker decode/encode scratch, preallocated to the maximum degree so
/// a pass never reallocates.
struct Scratch<M> {
    inbox: Vec<(usize, M)>,
    outbox: Vec<(usize, M)>,
}

/// Pushes into a scratch vector preallocated to its maximum fill; the
/// capacity check makes the pass's no-allocation contract dynamic.
fn push_preallocated<T>(buf: &mut Vec<T>, item: T) {
    debug_assert!(
        buf.len() < buf.capacity(),
        "scratch must be preallocated to the maximum degree"
    );
    buf.push(item);
}

/// LRU residency manager over the per-shard packed arenas, with spill to
/// a per-run pool when the residency limit forces evictions.
struct Residency {
    resident: Vec<Option<PackedArena>>,
    /// Resident shards, least recently used first.
    lru: Vec<usize>,
    max_resident: usize,
    pool: Option<SpillPool>,
    shard_bytes: Vec<u64>,
    current_bytes: u64,
    peak_bytes: u64,
}

impl Residency {
    fn ensure(&mut self, s: usize, layouts: &[ArenaLayout]) -> Result<(), ShardError> {
        if self.resident[s].is_some() {
            if let Some(pos) = self.lru.iter().position(|&x| x == s) {
                self.lru.remove(pos);
            }
            self.lru.push(s);
            return Ok(());
        }
        while self.lru.len() >= self.max_resident {
            let victim = self.lru.remove(0);
            let Some(buf) = self.resident[victim].take() else {
                unreachable!("the LRU list tracks resident shards")
            };
            let Some(pool) = self.pool.as_mut() else {
                unreachable!("a spill pool exists whenever evictions can happen")
            };
            pool.write(
                victim,
                &[
                    &buf.packed[0],
                    &buf.packed[1],
                    &buf.present[0],
                    &buf.present[1],
                ],
            )
            .map_err(io_err)?;
            self.current_bytes -= self.shard_bytes[victim];
        }
        let mut buf = PackedArena::zeroed(&layouts[s]);
        if let Some(pool) = self.pool.as_mut() {
            if pool.is_valid(s) {
                let [p0, p1] = &mut buf.packed;
                let [q0, q1] = &mut buf.present;
                pool.read(s, &mut [p0, p1, q0, q1]).map_err(io_err)?;
            }
        }
        self.resident[s] = Some(buf);
        self.lru.push(s);
        self.current_bytes += self.shard_bytes[s];
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
        Ok(())
    }
}

/// The packed arena width of a run: the maximum `message_bits` hint when
/// `packing` is on and every node hints, the message type's declared
/// ceiling otherwise.
fn arena_width<P>(machines: &[Option<P>], contexts: &[NodeContext], packing: bool) -> u32
where
    P: Protocol,
    P::Message: PackableMessage,
{
    assert!(
        P::Message::CEIL_BITS <= 128,
        "PackableMessage ceilings are capped at 128 bits"
    );
    if !packing {
        return P::Message::CEIL_BITS;
    }
    let mut hinted = 0u32;
    for (m, ctx) in machines.iter().zip(contexts) {
        let Some(machine) = m.as_ref() else {
            unreachable!("machines start populated")
        };
        match machine.message_bits(ctx) {
            Some(b) => hinted = hinted.max(b),
            None => return P::Message::CEIL_BITS,
        }
    }
    hinted.min(P::Message::CEIL_BITS)
}

/// The sharded [`ArenaStore`]: one scheduler pass per shard of a
/// [`ShardPlan`], bit-packed double-buffered arenas with LRU residency
/// and spill, and halo buffers for the cut edges.
struct PackedStore<M> {
    plan: ShardPlan,
    width: u32,
    layouts: Vec<ArenaLayout>,
    residency: Residency,
    /// Per-chunk round stamps by arena parity: the round in which the
    /// chunk's write-parity presence words were last rewritten.
    stamps: [Vec<u64>; 2],
    halos: Vec<HaloBuffers>,
    /// Per-shard halo stamps by parity: the round whose captures the
    /// parity holds.
    halo_stamp: [Vec<u64>; 2],
    halo_bytes: u64,
    /// One decode/encode scratch per worker.
    scratches: Vec<Scratch<M>>,
}

impl<M> PackedStore<M> {
    /// Plans `tree` into shards per `cfg` at `chunk_size` and allocates
    /// halo buffers, decode scratch for `workers` workers, and — when the
    /// residency limit is below the plan's shard count — the spill pool.
    /// Arenas of `width` bits per slot are created on first residency.
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] if the spill pool cannot be created.
    fn new(
        tree: &Tree,
        chunk_size: usize,
        workers: usize,
        width: u32,
        cfg: &ShardConfig,
    ) -> Result<Self, ShardError> {
        let plan = ShardPlan::new(tree, chunk_size, cfg.resolved_shards());
        let shard_count = plan.shard_count();
        let max_resident = cfg.resolved_max_resident(shard_count);
        let layouts: Vec<ArenaLayout> = plan
            .shards
            .iter()
            .map(|s| ArenaLayout::new(&s.chunks, width))
            .collect();
        let halos: Vec<HaloBuffers> = plan
            .shards
            .iter()
            .map(|s| HaloBuffers::zeroed(s.halo_edges.len(), width))
            .collect();
        let halo_bytes = halos.iter().map(HaloBuffers::bytes).sum();
        let shard_bytes: Vec<u64> = layouts.iter().map(ArenaLayout::bytes).collect();
        let pool = if max_resident < shard_count {
            Some(SpillPool::create(&shard_bytes).map_err(io_err)?)
        } else {
            None
        };
        let chunk_count = tree.node_count().div_ceil(chunk_size);
        let max_degree = tree.max_degree();
        Ok(PackedStore {
            width,
            layouts,
            residency: Residency {
                resident: (0..shard_count).map(|_| None).collect(),
                lru: Vec::with_capacity(shard_count),
                max_resident,
                pool,
                shard_bytes,
                current_bytes: 0,
                peak_bytes: 0,
            },
            stamps: [vec![u64::MAX; chunk_count], vec![u64::MAX; chunk_count]],
            halos,
            halo_stamp: [vec![u64::MAX; shard_count], vec![u64::MAX; shard_count]],
            halo_bytes,
            scratches: (0..workers)
                .map(|_| Scratch {
                    inbox: Vec::with_capacity(max_degree),
                    outbox: Vec::with_capacity(max_degree),
                })
                .collect(),
            plan,
        })
    }
}

/// The read side of one shard pass, shared by its regions.
#[derive(Clone, Copy)]
struct PassView<'a> {
    width: u32,
    shard_lo: usize,
    shard_hi: usize,
    shard_first_chunk: usize,
    chunks: &'a [ChunkMeta],
    layout: &'a ArenaLayout,
    halo_edges: &'a [u32],
    /// Read-parity packed/presence words of this shard's arena.
    packed_r: &'a [u64],
    pres_r: &'a [u64],
    /// Global per-chunk round stamps, read parity.
    stamp_r: &'a [u64],
    /// Read-parity halo words of this shard; valid only if `halo_valid`.
    halo_packed_r: &'a [u64],
    halo_pres_r: &'a [u64],
    halo_valid: bool,
}

/// One worker's share of a shard pass: a chunk-aligned node range with
/// the matching write-arena word regions.
struct PackedRegion<'a, M> {
    view: PassView<'a>,
    /// Region's first chunk, relative to the shard.
    first_chunk_rel: usize,
    /// Of the chunk being visited: its first CSR slot, and the bit offsets
    /// of its packed and presence regions in `words_w`/`pres_w`.
    slot_base: usize,
    word_bit0: usize,
    pres_bit0: usize,
    /// Write-parity per-chunk round stamps for the region's chunks.
    stamp_w: &'a mut [u64],
    /// Write-parity packed/presence words for the region's chunks.
    words_w: &'a mut [u64],
    pres_w: &'a mut [u64],
    /// Word offsets of `words_w`/`pres_w` within the shard arena.
    word_off: usize,
    pres_off: usize,
    scratch: &'a mut Scratch<M>,
}

impl<M: PackableMessage + Send + Sync> ArenaStore<M> for PackedStore<M> {
    type Error = ShardError;
    type Region<'a>
        = PackedRegion<'a, M>
    where
        Self: 'a;

    fn pass_bounds(&self) -> &[usize] {
        &self.plan.bounds
    }

    fn begin_pass(&mut self, pass: usize) -> Result<(), ShardError> {
        self.residency.ensure(pass, &self.layouts)
    }

    fn regions<'a>(
        &'a mut self,
        _topology: &'a Topology<'a>,
        pass: usize,
        round: u64,
        bounds: &'a [usize],
    ) -> impl Iterator<Item = PackedRegion<'a, M>> {
        // Even rounds write parity 0 and read parity 1; odd rounds swap.
        let wp = usize::from(!round.is_multiple_of(2));
        let rp = wp ^ 1;
        let shard = &self.plan.shards[pass];
        let chunk_size = self.plan.chunk_size;
        let layout = &self.layouts[pass];
        let Some(buffers) = self.residency.resident[pass].as_mut() else {
            unreachable!("begin_pass made shard {pass} resident")
        };
        let (mut words_w, mut pres_w, packed_r, pres_r) = buffers.parity_mut(wp);
        let [s0, s1] = &mut self.stamps;
        let (stamp_w, stamp_r) = if wp == 0 { (s0, &*s1) } else { (s1, &*s0) };
        let gc0 = shard.first_chunk;
        let mut stamp_w = &mut stamp_w[gc0..gc0 + shard.chunks.len()];
        let view = PassView {
            width: self.width,
            shard_lo: shard.lo,
            shard_hi: shard.hi,
            shard_first_chunk: gc0,
            chunks: &shard.chunks,
            layout,
            halo_edges: &shard.halo_edges,
            packed_r,
            pres_r,
            stamp_r,
            halo_packed_r: &self.halos[pass].packed[rp],
            halo_pres_r: &self.halos[pass].present[rp],
            halo_valid: round > 0 && self.halo_stamp[rp][pass] == round - 1,
        };
        let mut scratches = self.scratches.iter_mut();
        bounds.windows(2).map(move |w| {
            let c0 = (w[0] - shard.lo) / chunk_size;
            let chunks = (w[1] - w[0]).div_ceil(chunk_size);
            let words = layout.word_span(c0, c0 + chunks);
            let pres = layout.pres_span(c0, c0 + chunks);
            let (st, st_rest) = std::mem::take(&mut stamp_w).split_at_mut(chunks);
            stamp_w = st_rest;
            let (ww, ww_rest) = std::mem::take(&mut words_w).split_at_mut(words.len());
            words_w = ww_rest;
            let (pw, pw_rest) = std::mem::take(&mut pres_w).split_at_mut(pres.len());
            pres_w = pw_rest;
            let Some(scratch) = scratches.next() else {
                unreachable!("one scratch per worker region")
            };
            PackedRegion {
                view,
                first_chunk_rel: c0,
                slot_base: 0,
                word_bit0: 0,
                pres_bit0: 0,
                stamp_w: st,
                words_w: ww,
                pres_w: pw,
                word_off: words.start,
                pres_off: pres.start,
                scratch,
            }
        })
    }

    /// Mirrors this pass's boundary-crossing messages into the
    /// destination shards' halo buffers while the shard is guaranteed
    /// resident.
    fn end_pass(&mut self, pass: usize, round: u64) {
        let wp = usize::from(!round.is_multiple_of(2));
        let src = &self.plan.shards[pass];
        let layout = &self.layouts[pass];
        let stamps = &self.stamps[wp][src.first_chunk..];
        let width = self.width;
        let Some(buffers) = self.residency.resident[pass].as_ref() else {
            unreachable!("a pass does not evict its own shard")
        };
        let (packed_w, pres_w) = (&buffers.packed[wp], &buffers.present[wp]);
        for route in &src.outgoing {
            // Only chunks stepped this round hold fresh write-parity data.
            if stamps[route.chunk_rel] != round {
                continue;
            }
            let pr = layout.pres_range(route.chunk_rel);
            if !is_present(&pres_w[pr], route.slot_rel) {
                continue;
            }
            let wr = layout.word_range(route.chunk_rel);
            let bits = get_bits(&packed_w[wr], route.slot_rel * width as usize, width);
            let dest = route.dest_shard;
            // The first capture into a halo parity in a round clears it.
            if self.halo_stamp[wp][dest] != round {
                self.halos[dest].clear_parity(wp);
                self.halo_stamp[wp][dest] = round;
            }
            self.halos[dest].put(wp, route.dest_halo, bits);
        }
    }

    fn peak_arena_bytes(&self) -> u64 {
        self.residency.peak_bytes + self.halo_bytes
    }
}

impl<M: PackableMessage> StoreRegion<M> for PackedRegion<'_, M> {
    /// Stepping a chunk invalidates its previous write-parity contents
    /// wholesale (the slot store's per-slot stamps expire stale slots
    /// lazily instead; same observable).
    fn begin_chunk(&mut self, chunk: usize, round: u64) {
        let crel = self.first_chunk_rel + chunk;
        let layout = self.view.layout;
        let pr = layout.pres_range(crel);
        for w in &mut self.pres_w[pr.start - self.pres_off..pr.end - self.pres_off] {
            *w = 0;
        }
        self.stamp_w[chunk] = round;
        self.slot_base = self.view.chunks[crel].slot_base;
        self.word_bit0 = (layout.word_range(crel).start - self.word_off) * 64;
        self.pres_bit0 = (pr.start - self.pres_off) * 64;
    }

    /// Decodes this round's valid incoming messages. A slot is valid iff
    /// its owner chunk (or the halo parity, for cut edges) was written
    /// exactly last round and the presence bit survived — the packed
    /// equivalent of the slot store's `stamp == round`.
    #[inline]
    fn open<'s>(
        &'s mut self,
        topology: &Topology<'s>,
        base: usize,
        degree: usize,
        round: u64,
        due: bool,
    ) -> Option<(Inbox<'s, M>, Outbox<'s, M>)> {
        let view = &self.view;
        let width = view.width;
        let scratch = &mut *self.scratch;
        scratch.inbox.clear();
        for p in 0..degree {
            let e = base + p;
            let w = topology.adjacency[e] as usize;
            if w >= view.shard_lo && w < view.shard_hi {
                let wc = w / topology.chunk_size;
                if round == 0 || view.stamp_r[wc] != round - 1 {
                    continue;
                }
                let wrel = wc - view.shard_first_chunk;
                let srel = topology.rev[e] as usize - view.chunks[wrel].slot_base;
                if !is_present(&view.pres_r[view.layout.pres_range(wrel)], srel) {
                    continue;
                }
                let words = &view.packed_r[view.layout.word_range(wrel)];
                let bits = get_bits(words, srel * width as usize, width);
                push_preallocated(&mut scratch.inbox, (p, M::unpack(bits)));
            } else if view.halo_valid {
                let h = match view.halo_edges.binary_search(&(e as u32)) {
                    Ok(h) => h,
                    Err(_) => unreachable!("cross-shard edges are in the halo list"),
                };
                if is_present(view.halo_pres_r, h) {
                    let bits = get_bits(view.halo_packed_r, h * width as usize, width);
                    push_preallocated(&mut scratch.inbox, (p, M::unpack(bits)));
                }
            }
        }
        if !due && scratch.inbox.is_empty() {
            return None;
        }
        scratch.outbox.clear();
        Some((
            Inbox::list(&scratch.inbox),
            Outbox::list(&mut scratch.outbox, degree),
        ))
    }

    /// Encodes the node's sends into the chunk's write-parity words.
    #[inline]
    fn sent_ports(&mut self, base: usize, _degree: usize, mut sent_on: impl FnMut(usize)) {
        let width = self.view.width;
        for (p, msg) in &self.scratch.outbox {
            let srel = base + p - self.slot_base;
            set_present(self.pres_w, self.pres_bit0 + srel);
            let bits = msg.pack();
            let need = 128 - bits.leading_zeros();
            assert!(
                need <= width,
                "message_bits hint too narrow: a packed message needs \
                 {need} bits but the arena width is {width}"
            );
            set_bits(
                self.words_w,
                self.word_bit0 + srel * width as usize,
                width,
                bits,
            );
            sent_on(*p);
        }
    }
}

/// Runs `factory`'s protocol on every node of `tree` with the partitioned
/// out-of-core executor: the engine's round scheduler over a
/// packed store. Same contract as
/// [`run_sync_with`](lcl_local::engine::run_sync_with), whose outcome this
/// function reproduces bit-identically (outputs, per-node rounds,
/// termination profile, message count) for every [`ShardConfig`];
/// [`SyncOutcome::peak_arena_bytes`] reports the sharded high-water mark
/// instead of the monolithic two-full-arena figure.
///
/// The shard geometry comes from `config.shard` (a missing config means
/// one shard, everything resident — the monolithic layout, but through
/// the packed store).
///
/// # Errors
///
/// [`ShardError::Run`] on protocol-level failure (round limit), exactly
/// when the monolithic engine fails; [`ShardError::Io`] if the spill pool
/// hits an I/O error.
///
/// # Panics
///
/// Panics if `ids` does not cover all nodes, if a worker thread panics,
/// or if a `message_bits` hint is narrower than an actual packed message.
pub fn run_sharded<P, F>(
    tree: &Tree,
    ids: &Ids,
    factory: F,
    max_rounds: u64,
    config: &EngineConfig,
) -> Result<SyncOutcome<P::Output>, ShardError>
where
    P: Protocol,
    P::Message: PackableMessage,
    F: FnMut(&NodeContext) -> P,
{
    let shard_cfg = config.shard.clone().unwrap_or_default();
    run_rounds(
        tree,
        ids,
        factory,
        max_rounds,
        config,
        tree.node_count(),
        |setup: &StoreSetup<'_, P>| {
            let width = arena_width(setup.machines, setup.contexts, shard_cfg.packing);
            PackedStore::new(
                setup.tree,
                setup.topology.chunk_size,
                setup.workers,
                width,
                &shard_cfg,
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::generators::path;
    use lcl_local::engine::run_sync_with;

    /// Floods the minimum ID for a fixed budget of rounds.
    struct MinFlood {
        best: u64,
    }

    impl Protocol for MinFlood {
        type Message = u64;
        type Output = u64;
        fn step(
            &mut self,
            _ctx: &NodeContext,
            round: u64,
            inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<'_, u64>,
        ) -> Option<u64> {
            for (_, &m) in inbox.iter() {
                self.best = self.best.min(m);
            }
            if round >= 12 {
                return Some(self.best);
            }
            outbox.broadcast(self.best);
            None
        }
    }

    #[test]
    fn residency_is_clamped_to_the_planned_shard_count() {
        // 10 nodes in chunks of 4 make 3 chunks, so a request for 7
        // shards plans 3; a residency limit of 5 then keeps all 3
        // resident and needs no spill pool.
        let tree = path(10);
        let ids = Ids::sequential(10);
        let cfg = ShardConfig {
            shards: 7,
            max_resident: 5,
            packing: false,
        };
        let store = PackedStore::<u64>::new(&tree, 4, 1, 64, &cfg).unwrap();
        assert_eq!(store.plan.shard_count(), 3);
        assert_eq!(store.residency.max_resident, 3);
        assert!(store.residency.pool.is_none(), "no spill pool");

        let engine = |shard| EngineConfig {
            chunk_size: 4,
            threads: 1,
            check_arena: true,
            shard,
        };
        let factory = |c: &NodeContext| MinFlood { best: c.id };
        let mono = run_sync_with(&tree, &ids, factory, 100, &engine(None)).unwrap();
        let sharded = run_sharded(&tree, &ids, factory, 100, &engine(Some(cfg))).unwrap();
        assert_eq!(sharded.outputs, mono.outputs);
        assert_eq!(sharded.stats, mono.stats);
        assert_eq!(sharded.profile, mono.profile);
        assert_eq!(sharded.messages, mono.messages);
    }
}
