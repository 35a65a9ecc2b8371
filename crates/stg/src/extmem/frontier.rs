//! Level-synchronized spill-to-disk BFS frontier, plus the sequential
//! edge log.
//!
//! The frontier keeps a bounded in-memory buffer of fixed-length
//! records (`[marking words, enabled-mask words]`, ids implicit in push
//! order) and overflows to two alternating sequential run files: level
//! `L` streams out of one file while level `L + 1` streams into the
//! other, exactly preserving the packed engine's level boundaries and
//! in-level order. The edge log is the same machinery for `(event,
//! destination)` pairs, replayed once at the end of the exploration.

use super::arena::{read_words_at, write_words_at};
use super::manifest::SpillManifest;
use std::fs::File;
use std::rc::Rc;

/// The two alternating run-file names.
const RUN_NAMES: [&str; 2] = ["frontier-a.run", "frontier-b.run"];

/// The spillable BFS frontier.
pub(crate) struct SpillFrontier {
    /// Words per record.
    rec_words: usize,
    /// Next-level write buffer (whole records only) and its flush
    /// threshold in words (a multiple of `rec_words`).
    write_buf: Vec<u64>,
    write_cap_words: usize,
    /// Words already flushed to the write-side run file this level.
    write_file_words: u64,
    /// Current-level memory tail and read cursor (in words).
    read_buf: Vec<u64>,
    read_buf_pos: usize,
    /// Current-level file part: total words, staging chunk, cursors.
    read_file_words: u64,
    read_file_pos: u64,
    chunk: Vec<u64>,
    chunk_len: usize,
    chunk_pos: usize,
    chunk_cap_words: usize,
    chunk_allocated: bool,
    /// Run files, created lazily; `write_side` indexes the one the
    /// writer flushes to.
    files: [Option<File>; 2],
    write_side: usize,
    manifest: Rc<SpillManifest>,
}

impl SpillFrontier {
    /// A frontier for `rec_words`-word records whose buffers fit in
    /// roughly `budget_bytes` (half write buffer, half read chunk, each
    /// floored at one record).
    pub(crate) fn new(
        rec_words: usize,
        budget_bytes: usize,
        manifest: Rc<SpillManifest>,
    ) -> SpillFrontier {
        let rec_words = rec_words.max(1);
        let half_recs = (budget_bytes / 2 / 8 / rec_words).max(1);
        let cap_words = half_recs * rec_words;
        SpillFrontier {
            rec_words,
            write_buf: Vec::with_capacity(cap_words),
            write_cap_words: cap_words,
            write_file_words: 0,
            read_buf: Vec::new(),
            read_buf_pos: 0,
            read_file_words: 0,
            read_file_pos: 0,
            chunk: Vec::new(),
            chunk_len: 0,
            chunk_pos: 0,
            chunk_cap_words: cap_words,
            chunk_allocated: false,
            files: [None, None],
            write_side: 0,
            manifest,
        }
    }

    /// Peak buffer footprint in bytes (fixed-capacity buffers, so the
    /// peak is the committed capacity).
    pub(crate) fn peak_bytes(&self) -> u64 {
        let chunk = if self.chunk_allocated { self.chunk_cap_words as u64 * 8 } else { 0 };
        self.write_cap_words as u64 * 8 + chunk
    }

    /// Appends one record (marking + enabled mask) to the next level.
    pub(crate) fn push(&mut self, marking: &[u64], mask: &[u64]) -> std::io::Result<()> {
        debug_assert_eq!(marking.len() + mask.len(), self.rec_words);
        self.write_buf.extend_from_slice(marking);
        self.write_buf.extend_from_slice(mask);
        if self.write_buf.len() >= self.write_cap_words {
            self.flush()?;
        }
        Ok(())
    }

    /// Streams the sealed-but-unread next level (the write side: run-file
    /// part first, then the memory tail) through `f`, in record order.
    /// Only meaningful at a level boundary — which is the only moment a
    /// checkpoint is taken.
    pub(crate) fn snapshot_pending(
        &self,
        mut f: impl FnMut(&[u64]) -> std::io::Result<()>,
    ) -> std::io::Result<u64> {
        let mut chunk = vec![0u64; self.chunk_cap_words.min(1 << 16)];
        let mut pos = 0u64;
        while pos < self.write_file_words {
            let n = ((self.write_file_words - pos) as usize).min(chunk.len());
            let file = self.files[self.write_side].as_ref().expect("file words imply the run file");
            read_words_at(file, pos * 8, &mut chunk[..n])?;
            f(&chunk[..n])?;
            pos += n as u64;
        }
        f(&self.write_buf)?;
        Ok(self.write_file_words + self.write_buf.len() as u64)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.write_buf.is_empty() {
            return Ok(());
        }
        if self.files[self.write_side].is_none() {
            self.files[self.write_side] =
                Some(self.manifest.create_file(RUN_NAMES[self.write_side])?);
        }
        let file = self.files[self.write_side].as_ref().expect("just created");
        let bytes = write_words_at(file, self.write_file_words * 8, &self.write_buf)?;
        self.manifest.note_spilled(bytes);
        self.write_file_words += self.write_buf.len() as u64;
        self.write_buf.clear();
        Ok(())
    }

    /// Seals the level written so far and makes it the one [`Self::next`]
    /// streams; subsequent pushes build the level after it. Returns the
    /// number of records in the sealed level.
    pub(crate) fn begin_level(&mut self) -> u64 {
        debug_assert!(
            self.read_file_pos >= self.read_file_words && self.read_buf_pos >= self.read_buf.len(),
            "previous level fully consumed"
        );
        std::mem::swap(&mut self.read_buf, &mut self.write_buf);
        self.write_buf.clear();
        self.read_buf_pos = 0;
        self.read_file_words = self.write_file_words;
        self.read_file_pos = 0;
        self.chunk_len = 0;
        self.chunk_pos = 0;
        self.write_file_words = 0;
        self.write_side ^= 1;
        (self.read_file_words + self.read_buf.len() as u64) / self.rec_words as u64
    }

    /// Copies the next record of the current level into `out`; `false`
    /// when the level is exhausted. File part streams first (it holds the
    /// level's oldest records), then the memory tail.
    pub(crate) fn next(&mut self, out: &mut [u64]) -> std::io::Result<bool> {
        debug_assert_eq!(out.len(), self.rec_words);
        if self.read_file_pos < self.read_file_words {
            if self.chunk_pos >= self.chunk_len {
                let remaining = (self.read_file_words - self.read_file_pos) as usize;
                let n = remaining.min(self.chunk_cap_words);
                if !self.chunk_allocated {
                    self.chunk = Vec::with_capacity(self.chunk_cap_words);
                    self.chunk_allocated = true;
                }
                self.chunk.resize(n, 0);
                // The read side is the file the writer is *not* using.
                let file = self.files[self.write_side ^ 1]
                    .as_ref()
                    .expect("file words imply the run file exists");
                read_words_at(file, self.read_file_pos * 8, &mut self.chunk[..n])?;
                self.chunk_len = n;
                self.chunk_pos = 0;
            }
            out.copy_from_slice(&self.chunk[self.chunk_pos..self.chunk_pos + self.rec_words]);
            self.chunk_pos += self.rec_words;
            self.read_file_pos += self.rec_words as u64;
            return Ok(true);
        }
        if self.read_buf_pos < self.read_buf.len() {
            out.copy_from_slice(
                &self.read_buf[self.read_buf_pos..self.read_buf_pos + self.rec_words],
            );
            self.read_buf_pos += self.rec_words;
            return Ok(true);
        }
        Ok(false)
    }
}

/// Append-only spillable log of `(event code, destination id)` pairs,
/// replayed in order once the exploration completes.
pub(crate) struct EdgeLog {
    buf: Vec<u64>,
    /// Flush threshold in words (even: two words per edge).
    cap_words: usize,
    file: Option<File>,
    file_words: u64,
    edges: usize,
    manifest: Rc<SpillManifest>,
}

impl EdgeLog {
    pub(crate) fn new(budget_bytes: usize, manifest: Rc<SpillManifest>) -> EdgeLog {
        let cap_words = ((budget_bytes / 8) & !1).max(2);
        EdgeLog {
            buf: Vec::with_capacity(cap_words),
            cap_words,
            file: None,
            file_words: 0,
            edges: 0,
            manifest,
        }
    }

    /// Edges logged so far (the CSR offsets index this count).
    pub(crate) fn len(&self) -> usize {
        self.edges
    }

    /// Peak buffer footprint in bytes.
    pub(crate) fn peak_bytes(&self) -> u64 {
        self.cap_words as u64 * 8
    }

    pub(crate) fn push(&mut self, code: u64, dst: u64) -> std::io::Result<()> {
        self.buf.push(code);
        self.buf.push(dst);
        self.edges += 1;
        if self.buf.len() >= self.cap_words {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.file.is_none() {
            self.file = Some(self.manifest.create_file("edges.log")?);
        }
        let file = self.file.as_ref().expect("just created");
        let bytes = write_words_at(file, self.file_words * 8, &self.buf)?;
        self.manifest.note_spilled(bytes);
        self.file_words += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Streams the whole log so far (file part, then the memory tail)
    /// through `f` as raw words, without consuming the log — the
    /// checkpoint twin of [`EdgeLog::replay`].
    pub(crate) fn snapshot(
        &self,
        mut f: impl FnMut(&[u64]) -> std::io::Result<()>,
    ) -> std::io::Result<u64> {
        let mut chunk = vec![0u64; self.cap_words.min(1 << 16)];
        let mut pos = 0u64;
        while pos < self.file_words {
            let n = ((self.file_words - pos) as usize).min(chunk.len());
            let file = self.file.as_ref().expect("file words imply the log file");
            read_words_at(file, pos * 8, &mut chunk[..n])?;
            f(&chunk[..n])?;
            pos += n as u64;
        }
        f(&self.buf)?;
        Ok(self.file_words + self.buf.len() as u64)
    }

    /// Streams every logged edge, in push order, through `f`.
    pub(crate) fn replay(mut self, mut f: impl FnMut(u64, u64)) -> std::io::Result<()> {
        if self.file.is_some() {
            // Flush the tail so the file holds the whole log, then reuse
            // the buffer as the read chunk.
            self.flush()?;
            let file = self.file.as_ref().expect("flushed above");
            let mut chunk = std::mem::take(&mut self.buf);
            let mut pos = 0u64;
            while pos < self.file_words {
                let n = ((self.file_words - pos) as usize).min(self.cap_words);
                chunk.resize(n, 0);
                read_words_at(file, pos * 8, &mut chunk[..n])?;
                for pair in chunk[..n].chunks_exact(2) {
                    f(pair[0], pair[1]);
                }
                pos += n as u64;
            }
        } else {
            for pair in self.buf.chunks_exact(2) {
                f(pair[0], pair[1]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_levels_roundtrip_through_disk() {
        let manifest = Rc::new(SpillManifest::create(None).unwrap());
        // 3-word records, budget so small every level spills.
        let mut frontier = SpillFrontier::new(3, 96, Rc::clone(&manifest));
        let mut expect_level = Vec::new();
        let mut rec = [0u64; 3];
        for level in 0u64..5 {
            for i in 0..200u64 {
                frontier.push(&[level, i], &[level ^ i]).unwrap();
                expect_level.push([level, i, level ^ i]);
            }
            assert_eq!(frontier.begin_level(), 200);
            let mut got = Vec::new();
            while frontier.next(&mut rec).unwrap() {
                got.push(rec);
            }
            assert_eq!(got, expect_level, "level {level} order preserved");
            expect_level.clear();
        }
        assert_eq!(frontier.begin_level(), 0, "drained frontier ends the BFS");
        assert!(manifest.bytes_spilled() > 0);
        assert_eq!(manifest.files_created(), 2, "two alternating run files");
    }

    #[test]
    fn frontier_stays_in_memory_under_budget() {
        let manifest = Rc::new(SpillManifest::create(None).unwrap());
        let mut frontier = SpillFrontier::new(2, 1 << 20, Rc::clone(&manifest));
        for i in 0..100u64 {
            frontier.push(&[i], &[i]).unwrap();
        }
        assert_eq!(frontier.begin_level(), 100);
        let mut rec = [0u64; 2];
        let mut n = 0;
        while frontier.next(&mut rec).unwrap() {
            assert_eq!(rec, [n, n]);
            n += 1;
        }
        assert_eq!(n, 100);
        assert_eq!(manifest.bytes_spilled(), 0);
    }

    #[test]
    fn edge_log_replays_in_order_across_spills() {
        let manifest = Rc::new(SpillManifest::create(None).unwrap());
        let mut log = EdgeLog::new(64, Rc::clone(&manifest));
        for i in 0..1000u64 {
            log.push(i, i * 3).unwrap();
        }
        assert_eq!(log.len(), 1000);
        assert!(manifest.bytes_spilled() > 0);
        let mut next = 0u64;
        log.replay(|code, dst| {
            assert_eq!((code, dst), (next, next * 3));
            next += 1;
        })
        .unwrap();
        assert_eq!(next, 1000);
    }
}
