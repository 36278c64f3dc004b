//! The byte substrate every file and hash in the workspace shares: one
//! CRC-32 for integrity, one FNV-1a for identity, and one atomic
//! whole-file write.
//!
//! * [`crc32`] seals checkpoint records and surface artifacts, so torn or
//!   bit-flipped bytes are detected instead of parsed.
//! * [`Fnv1a`] fingerprints specs, models and stress keys. It is a
//!   stable identity, not a checksum: the same inputs hash the same on
//!   every platform and build.
//! * [`write_atomic`] replaces a file so a crash leaves either the old
//!   content or the new, never a mix.
//!
//! Each file format keeps its own framing and salvage policy on top of
//! these; this module knows nothing about records.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends a finished CRC-32 with more bytes:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`. This lets a caller seal
/// a buffer in pieces without concatenating them.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!crc, |c, &b| {
        (c >> 8) ^ CRC_TABLE[usize::from((c as u8) ^ b)]
    })
}

/// 64-bit FNV-1a. Numbers are hashed as their little-endian bytes, floats
/// by their bit patterns, so a fingerprint is the same on every platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    /// Mixes in raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Mixes in a word as its 8 little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes in a float's bit pattern as 8 little-endian bytes.
    #[inline]
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The hash of everything mixed in so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Replaces `path` with `bytes` atomically: the bytes go to the sibling
/// `<file name>.tmp`, are synced to disk, and the sibling is renamed over
/// `path`. A crash leaves either the old file or the new one.
///
/// # Errors
///
/// Any I/O error from the write, the sync or the rename, and
/// [`io::ErrorKind::InvalidInput`] when `path` has no file name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path)?;
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)
}

/// `<dir>/<file name>.tmp`: appending (rather than swapping the
/// extension) keeps the temp name from colliding with a sibling such as
/// `surface.tmp` next to `surface.rls`.
fn tmp_sibling(path: &Path) -> io::Result<PathBuf> {
    let mut name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} has no file name", path.display()),
            )
        })?
        .to_os_string();
    name.push(".tmp");
    Ok(path.with_file_name(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_update_chains_pieces() {
        let whole = b"relia sealed record";
        for cut in 0..=whole.len() {
            let (a, b) = whole.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), crc32(whole), "cut {cut}");
        }
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xCBF2_9CE4_8422_2325);
        assert_eq!(Fnv1a::new().bytes(b"a").finish(), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(
            Fnv1a::new().bytes(b"foobar").finish(),
            0x8594_4171_F739_67E8
        );
        // Words and floats are their little-endian bytes.
        let mut by_word = Fnv1a::new();
        by_word.u64(7).f64(1.5);
        let mut by_bytes = Fnv1a::new();
        by_bytes
            .bytes(&7u64.to_le_bytes())
            .bytes(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(by_word, by_bytes);
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("relia-seal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("out.bin.tmp").exists());
        assert!(write_atomic(Path::new("/"), b"x").is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
