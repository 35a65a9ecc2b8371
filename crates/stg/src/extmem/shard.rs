//! Hash-partitioned marking shards.
//!
//! Each shard owns an open-addressing intern table (full 64-bit hash +
//! local record index per slot — collisions confirm against the actual
//! marking, faulting its arena page in if spilled) and a file-backed
//! [`PagedArena`] holding the shard's markings. A shard maps its local
//! record indices to *global* BFS state ids, so the merged state graph
//! keeps the exact discovery-order numbering of the packed engine.

use super::arena::PagedArena;
use super::manifest::SpillManifest;
use std::rc::Rc;

/// Which shard owns a marking with hash `h` (high bits, independent of
/// the low bits the slot probe consumes).
pub(crate) fn shard_of(h: u64, shards: usize) -> usize {
    ((h >> 48) as usize) % shards
}

/// Outcome of an intern probe.
pub(crate) enum Interned {
    /// The marking is already known, with this global state id.
    Existing(u64),
    /// New marking: a table slot was reserved; the caller must either
    /// follow up with [`Shard::commit`] or abort the exploration.
    New,
}

/// One marking shard: intern table + file-backed arena + local→global
/// id map.
pub(crate) struct Shard {
    /// Full hash per slot (0 = empty), power-of-two sized.
    slot_hash: Vec<u64>,
    /// Local record index + 1 per slot (0 = empty), parallel to
    /// `slot_hash`.
    slot_local: Vec<u64>,
    /// Occupied slots.
    len: usize,
    mask: usize,
    arena: PagedArena,
    /// Local record index → global BFS state id.
    globals: Vec<u64>,
}

impl Shard {
    pub(crate) fn new(
        stride: usize,
        budget_bytes: usize,
        file_name: String,
        manifest: Rc<SpillManifest>,
    ) -> Shard {
        let cap = 1024;
        Shard {
            slot_hash: vec![0; cap],
            slot_local: vec![0; cap],
            len: 0,
            mask: cap - 1,
            arena: PagedArena::new(stride, budget_bytes, file_name, manifest),
            globals: Vec::new(),
        }
    }

    /// Looks `needle` (with precomputed hash `h`) up, reserving a slot on
    /// a miss. A reserved slot points at the *next* local record index;
    /// the caller commits it (or abandons the whole exploration — a
    /// dangling reservation is never observed again).
    pub(crate) fn intern(&mut self, needle: &[u64], h: u64) -> std::io::Result<Interned> {
        if (self.len + 1) * 3 > self.slot_hash.len() * 2 {
            self.grow();
        }
        let mut slot = (h as usize) & self.mask;
        loop {
            let occupied = self.slot_local[slot];
            if occupied == 0 {
                self.slot_hash[slot] = h;
                self.slot_local[slot] = self.globals.len() as u64 + 1;
                self.len += 1;
                return Ok(Interned::New);
            }
            let local = occupied - 1;
            if self.slot_hash[slot] == h && self.arena.record_eq(local, needle)? {
                return Ok(Interned::Existing(self.globals[local as usize]));
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Completes the reservation made by the last [`Interned::New`]:
    /// appends the marking to the arena and records its global id.
    pub(crate) fn commit(&mut self, needle: &[u64], global: u64) -> std::io::Result<()> {
        let local = self.arena.push(needle)?;
        debug_assert_eq!(local, self.globals.len() as u64);
        self.globals.push(global);
        Ok(())
    }

    /// Doubling rehash; needs no arena access since full hashes are
    /// stored per slot.
    fn grow(&mut self) {
        let cap = self.slot_hash.len() * 2;
        let mask = cap - 1;
        let mut slot_hash = vec![0u64; cap];
        let mut slot_local = vec![0u64; cap];
        for (i, &h) in self.slot_hash.iter().enumerate() {
            if self.slot_local[i] == 0 {
                continue;
            }
            let mut slot = (h as usize) & mask;
            while slot_local[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slot_hash[slot] = h;
            slot_local[slot] = self.slot_local[i];
        }
        self.slot_hash = slot_hash;
        self.slot_local = slot_local;
        self.mask = mask;
    }

    /// Peak resident bytes of the shard's arena page cache.
    pub(crate) fn arena_peak_bytes(&self) -> u64 {
        self.arena.resident_peak_bytes()
    }

    /// Arena records this shard's restored tables expect (the
    /// local→global map length) — the record artifact must replay
    /// exactly this many markings.
    pub(crate) fn records_expected(&self) -> u64 {
        debug_assert!(self.arena.len() == 0 || self.arena.len() == self.globals.len() as u64);
        self.globals.len() as u64
    }

    /// Serializes the intern table and local→global map as one flat
    /// word vector: `[cap, len, slot_hash.., slot_local.., nglobals,
    /// globals..]` — everything a checkpoint needs besides the arena
    /// records themselves.
    pub(crate) fn snapshot_tables(&self) -> Vec<u64> {
        let cap = self.slot_hash.len();
        let mut out = Vec::with_capacity(2 * cap + self.globals.len() + 3);
        out.push(cap as u64);
        out.push(self.len as u64);
        out.extend_from_slice(&self.slot_hash);
        out.extend_from_slice(&self.slot_local);
        out.push(self.globals.len() as u64);
        out.extend_from_slice(&self.globals);
        out
    }

    /// Restores the intern table and local→global map from a
    /// [`Shard::snapshot_tables`] dump; the arena must be refilled
    /// separately through [`Shard::restore_record`].
    pub(crate) fn restore_tables(&mut self, words: &[u64]) -> Result<(), String> {
        let fail = |what: &str| Err(format!("shard table dump is corrupt: {what}"));
        if words.len() < 3 {
            return fail("too short");
        }
        let cap = words[0] as usize;
        if !cap.is_power_of_two() || !(1024..=(1usize << 40)).contains(&cap) {
            return fail("implausible table capacity");
        }
        let len = words[1] as usize;
        if words.len() < 2 + 2 * cap + 1 {
            return fail("truncated slot arrays");
        }
        let slot_hash = &words[2..2 + cap];
        let slot_local = &words[2 + cap..2 + 2 * cap];
        let nglobals = words[2 + 2 * cap] as usize;
        if words.len() != 2 + 2 * cap + 1 + nglobals {
            return fail("length disagrees with its own header");
        }
        if len > cap || nglobals != len {
            return fail("occupancy disagrees with the local\u{2192}global map");
        }
        if slot_local.iter().any(|&l| l as usize > nglobals) {
            return fail("slot points past the local\u{2192}global map");
        }
        self.slot_hash = slot_hash.to_vec();
        self.slot_local = slot_local.to_vec();
        self.len = len;
        self.mask = cap - 1;
        self.globals = words[3 + 2 * cap..].to_vec();
        Ok(())
    }

    /// Re-appends one marking record during a checkpoint restore; the
    /// table entry pointing at it was restored by
    /// [`Shard::restore_tables`].
    pub(crate) fn restore_record(&mut self, record: &[u64]) -> std::io::Result<()> {
        self.arena.push(record)?;
        Ok(())
    }

    /// Streams every committed marking (in local order) through `f`.
    pub(crate) fn snapshot_records(
        &self,
        f: impl FnMut(&[u64]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        self.arena.snapshot_records(f)
    }

    /// Bytes of in-memory index structures (intern table + local→global
    /// map) — deliberately *outside* the spillable working set, reported
    /// for observability.
    pub(crate) fn table_bytes(&self) -> u64 {
        (self.slot_hash.len() * 16 + self.globals.len() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::hash_words;

    #[test]
    fn intern_dedups_across_eviction() {
        let manifest = Rc::new(SpillManifest::create(None).unwrap());
        // Tiny arena budget: confirms collision checks fault pages back
        // in correctly.
        let mut shard = Shard::new(3, 8192, "s.arena".into(), Rc::clone(&manifest));
        let n = 4000u64;
        for i in 0..n {
            let rec = [i, i * 31, i ^ 0xabcdef];
            let h = hash_words(&rec);
            match shard.intern(&rec, h).unwrap() {
                Interned::New => shard.commit(&rec, i * 10).unwrap(),
                Interned::Existing(_) => panic!("fresh marking reported as existing"),
            }
        }
        assert!(manifest.bytes_spilled() > 0, "arena must have spilled");
        for i in 0..n {
            let rec = [i, i * 31, i ^ 0xabcdef];
            let h = hash_words(&rec);
            match shard.intern(&rec, h).unwrap() {
                Interned::Existing(g) => assert_eq!(g, i * 10),
                Interned::New => panic!("known marking reported as new"),
            }
        }
    }

    #[test]
    fn shard_of_covers_all_shards() {
        let shards = 8;
        let mut seen = vec![false; shards];
        for i in 0..512u64 {
            seen[shard_of(hash_words(&[i]), shards)] = true;
        }
        assert!(seen.iter().all(|&s| s), "hash high bits spread across shards");
    }
}
