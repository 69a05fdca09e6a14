//! The workspace's one codec layer (DESIGN.md §5): [`fnv1a64`], the
//! [`json`] tree and string escaper, the durable [`atomic_write`], and the
//! checksummed [`container`] every on-disk artifact is stored in. It lives
//! in `ct-tensor` because every crate already depends on this one.

pub mod container;
pub mod json;

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

pub use container::{read_file, write_container, write_file, Container, SliceReader};

/// Incremental FNV-1a, 64-bit (Fowler–Noll–Vo): feeding bytes in any
/// split gives [`fnv1a64`] of their concatenation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The 64-bit FNV prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of every byte fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    /// A hash over no bytes yet: the 64-bit FNV offset basis.
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// An `InvalidData` error: the typed error of every decoder in the
/// workspace for bytes that are present but wrong.
pub fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Distinguishes concurrent temp files of one process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `path` durably and atomically: into a sibling temp file unique
/// per process and call (`<name>.tmp-<pid>-<seq>`), fsync, rename over
/// `path`, then fsync the directory so the rename survives a power loss.
/// A crash leaves the old file or the complete new one, never a torn
/// write; on error the temp file is removed.
pub fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let file = OpenOptions::new().write(true).create_new(true).open(&tmp)?;
        let mut w = BufWriter::new(file);
        write(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    if result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    result
}

/// Fsync the directory holding `path`, making a create or rename of
/// `path` durable: without it a power loss can drop the directory entry
/// of a file whose bytes were fsynced.
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_hash_ignores_split_points() {
        let bytes = b"topic-wise contrastive learning";
        for cut in 0..=bytes.len() {
            let mut h = Fnv1a::default();
            h.update(&bytes[..cut]);
            h.update(&bytes[cut..]);
            assert_eq!(h.finish(), fnv1a64(bytes), "cut at {cut}");
        }
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("ct_codec_atomic_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        atomic_write(&path, |w| w.write_all(b"first")).unwrap();
        atomic_write(&path, |w| w.write_all(b"second")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let failed = atomic_write(&path, |w| {
            w.write_all(b"torn")?;
            Err(io::Error::other("writer failed"))
        });
        assert!(failed.is_err());
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["out.txt"]);
        fs::remove_dir_all(&dir).ok();
    }
}
