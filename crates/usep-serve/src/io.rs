//! The journal's storage interface.
//!
//! [`Journal`](crate::journal::Journal) never touches the filesystem
//! directly: every byte goes through a [`JournalIo`], so the same
//! journaling, framing and replay logic runs against the production
//! [`StdIo`] (a real file, fsynced) and against `usep-chaos`'s
//! `FaultyIo` (an in-memory disk model injecting torn writes, lying
//! fsyncs, bit rot and ENOSPC from a seeded plan). The trait is
//! deliberately tiny — append, sync, read, atomic replace — because
//! that is the entire contract the journal's crash-safety argument
//! rests on.
//!
//! [`crc32`], the frame checksum, lives here too: the standard IEEE
//! CRC32, so every journal ever written verifies unchanged, computed
//! slice-by-8 over lookup tables built at compile time.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Storage backend for a write-ahead journal.
///
/// Contract the journal relies on:
///
/// * `append` may land partially (a torn write) but never reorders;
/// * `sync` returning `Ok` means every previously appended byte
///   survives a crash (a backend may *lie* — that is exactly the fault
///   class the CRC frames and quarantine replay defend against);
/// * `replace` is all-or-nothing across a crash: afterwards a reader
///   sees either the old contents or the new, never a mixture.
pub trait JournalIo: std::fmt::Debug + Send + Sync {
    /// Appends raw bytes (one framed line, newline included).
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// Durably flushes everything appended so far (fsync).
    fn sync(&self) -> io::Result<()>;
    /// Reads the whole journal; missing backing store reads as empty.
    fn read(&self) -> io::Result<Vec<u8>>;
    /// Atomically replaces the journal contents (compaction).
    fn replace(&self, bytes: &[u8]) -> io::Result<()>;
    /// Current journal length in bytes (0 when missing).
    fn len(&self) -> io::Result<u64>;
    /// Whether the journal is empty (or missing).
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// Production backend: a real file opened in append mode.
///
/// `replace` stages the new contents in a sibling `<path>.compact.tmp`,
/// fsyncs it, renames it over the journal, fsyncs the directory, and
/// reopens the append handle — the rename swaps inodes, so appending
/// through the old descriptor would write to the unlinked file.
#[derive(Debug)]
pub struct StdIo {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl StdIo {
    /// Opens (creating if missing) `path` for appending.
    pub fn open(path: &Path) -> io::Result<StdIo> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(StdIo { path: path.to_path_buf(), file: Mutex::new(file) })
    }

    /// The sibling path `replace` stages the new contents in.
    pub fn tmp_path(&self) -> PathBuf {
        compact_tmp_path(&self.path)
    }
}

/// `<path>.compact.tmp` — fixed, so an interrupted compaction's
/// leftover is simply overwritten by the next one.
pub fn compact_tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".compact.tmp");
    PathBuf::from(os)
}

impl JournalIo for StdIo {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        file.write_all(bytes)
    }

    fn sync(&self) -> io::Result<()> {
        let file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        file.sync_data()
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        // Hold the append lock across the whole swap so no append can
        // land between the rename and the handle reopen.
        let mut guard = self.file.lock().unwrap_or_else(|p| p.into_inner());
        let tmp = self.tmp_path();
        {
            let mut staged = std::fs::File::create(&tmp)?;
            staged.write_all(bytes)?;
            staged.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // fsync the directory so the rename itself survives a crash
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        *guard = std::fs::OpenOptions::new().create(true).append(true).open(&self.path)?;
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        match std::fs::metadata(&self.path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// CRC32 (IEEE, reflected, poly `0xEDB88320`) — the per-record frame
/// checksum. Detects every error burst shorter than 32 bits, which is
/// what makes the "every single-byte corruption is quarantined"
/// property provable rather than probabilistic.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// Extends `crc`, the [`crc32`] of some bytes, over `bytes`:
/// `crc32_extend(crc32(a), b) == crc32(a ++ b)`, so a record held in
/// pieces is checksummed without joining them first. Slice-by-8: eight
/// table lookups per eight bytes.
pub(crate) fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[k][b]`: the CRC register after byte `b` followed by `k`
/// zero bytes, built at compile time.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("usep_io_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // reference values for the IEEE polynomial
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_any_single_byte_change() {
        let base = b"{\"Accepted\":{\"request\":{\"id\":\"r1\"}}}";
        let reference = crc32(base);
        for i in 0..base.len() {
            for bit in 0..8u8 {
                let mut mutated = base.to_vec();
                mutated[i] ^= 1 << bit;
                assert_ne!(crc32(&mutated), reference, "flip byte {i} bit {bit} undetected");
            }
        }
    }

    /// The bit-at-a-time CRC32 the table-driven one must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// A reproducible pseudo-random buffer (xorshift64).
    fn seeded_bytes(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn slice_by_8_agrees_with_the_bitwise_reference() {
        let buf = seeded_bytes(2 << 20, 0x9E37_79B9_7F4A_7C15);
        // every length up to 1 KiB at every alignment, so each tail
        // length meets each position of the eight-byte stride
        for offset in 0..8 {
            for len in 0..=1024 {
                let piece = &buf[offset..offset + len];
                assert_eq!(crc32(piece), crc32_bitwise(piece), "offset {offset} len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bitwise(&buf), "2 MiB buffer");
    }

    #[test]
    fn crc32_extends_over_pieces_as_over_the_whole() {
        let buf = seeded_bytes(300, 7);
        let whole = crc32(&buf);
        for cut in 0..=buf.len() {
            assert_eq!(crc32_extend(crc32(&buf[..cut]), &buf[cut..]), whole, "cut at {cut}");
        }
    }

    #[test]
    fn std_io_appends_reads_and_reports_length() {
        let dir = tempdir("append");
        let path = dir.join("wal.jsonl");
        let io = StdIo::open(&path).unwrap();
        assert!(io.is_empty().unwrap());
        io.append(b"one\n").unwrap();
        io.append(b"two\n").unwrap();
        io.sync().unwrap();
        assert_eq!(io.read().unwrap(), b"one\ntwo\n");
        assert_eq!(io.len().unwrap(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn std_io_missing_file_reads_empty() {
        let dir = tempdir("missing");
        let path = dir.join("wal.jsonl");
        let io = StdIo::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(io.read().unwrap(), Vec::<u8>::new());
        assert_eq!(io.len().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn std_io_replace_swaps_contents_and_keeps_appends_working() {
        let dir = tempdir("replace");
        let path = dir.join("wal.jsonl");
        let io = StdIo::open(&path).unwrap();
        io.append(b"old-1\nold-2\n").unwrap();
        io.replace(b"new-1\n").unwrap();
        assert_eq!(io.read().unwrap(), b"new-1\n");
        assert!(!io.tmp_path().exists(), "tmp file must be consumed by the rename");
        // the append handle must follow the new inode, not the unlinked one
        io.append(b"new-2\n").unwrap();
        io.sync().unwrap();
        assert_eq!(io.read().unwrap(), b"new-1\nnew-2\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
