//! Known-bad packed-store fixture: every violation below is asserted by
//! `tests/analyzer.rs` with its exact rule id and `file:line` span.
//! Line numbers matter — append only at the end.

impl<M> StoreRegion<M> for BadRegion<'_, M> {
    fn begin_chunk(&mut self, chunk: usize, round: u64) {
        let mut spill: Vec<u64> = Vec::new(); // line 7: LCL-A01 (allocating constructor)
        spill.push(round); // line 8: LCL-A01 (allocating call)
        let handle = File::open("halo.spill"); // line 9: LCL-A02 (file handle)
        drop((handle, chunk));
    }
}

impl<M> ArenaStore<M> for BadStore<M> {
    fn end_pass(&mut self, pass: usize, round: u64) {
        self.sink.write_all(&[0u8]); // line 16: LCL-A02 (I/O call)
        let label = format!("{pass} {round}"); // line 17: LCL-A01 (alloc macro)
        drop(label);
    }

    fn begin_pass(&mut self, pass: usize) -> Result<(), ShardError> {
        // Allowed: residency changes run between passes, so only the
        // per-pass store methods are policed.
        let staged = self.slots.to_vec();
        self.pool.write(pass, &staged)
    }
}

#[cfg(test)]
mod tests {
    impl<M> StoreRegion<M> for TestRegion {
        fn begin_chunk(&mut self, _chunk: usize, _round: u64) {
            // Allowed: hot-path rules skip test code, even in a store impl.
            let spilled = vec![1u64];
            assert_eq!(spilled.len(), 1);
        }
    }
}
