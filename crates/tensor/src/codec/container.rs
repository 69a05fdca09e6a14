//! The one binary framing for on-disk artifacts.
//!
//! ```text
//! magic    [u8; 8]      artifact kind, e.g. b"CTBUNDLE"
//! version  u32 LE       container layout version (1)
//! count    u32 LE       number of sections
//! count × { name_len u32 LE, name (UTF-8), body_len u64 LE, body }
//! trailer  u64 LE       FNV-1a 64 of every byte before it
//! ```
//!
//! Decoding checks the magic, then the trailer, and only then parses the
//! section table, so no length inside a corrupted file is ever trusted.
//! Every length is bounded by the bytes present ([`SliceReader`]).
//! Section bodies are the artifact's own encodings.

use std::io::{self, Write};
use std::path::Path;

use super::{atomic_write, invalid_data as invalid, Fnv1a};

/// Container layout version written by [`write_container`].
pub const VERSION: u32 = 1;

/// Bytes of magic, version and section count.
const HEADER_LEN: usize = 16;
/// Bytes of the checksum trailer.
const TRAILER_LEN: usize = 8;

/// A bounded little-endian reader over a byte slice: every read checks
/// the requested length against the bytes left, so a corrupt length
/// field fails with `UnexpectedEof` instead of over-reading or
/// allocating.
#[derive(Clone, Debug)]
pub struct SliceReader<'a> {
    rest: &'a [u8],
}

impl<'a> SliceReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("need {n} bytes, {} left", self.rest.len()),
            ));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64` count or length (rejected when it does not
    /// fit `usize`).
    pub fn size(&mut self) -> io::Result<usize> {
        let v = u64::from_le_bytes(self.array()?);
        usize::try_from(v).map_err(|_| invalid(format!("length {v} overflows usize")))
    }

    /// `n` bytes as UTF-8.
    pub fn str(&mut self, n: usize) -> io::Result<&'a str> {
        std::str::from_utf8(self.take(n)?).map_err(|_| invalid("non-UTF-8 string"))
    }

    fn words(&mut self, n: usize) -> io::Result<impl Iterator<Item = [u8; 4]> + 'a> {
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| invalid(format!("{n} words overflow usize")))?;
        Ok(self
            .take(bytes)?
            .chunks_exact(4)
            .map(|w| w.try_into().expect("4-byte chunk")))
    }

    /// `n` little-endian `f32`s.
    pub fn f32s(&mut self, n: usize) -> io::Result<Vec<f32>> {
        Ok(self.words(n)?.map(f32::from_le_bytes).collect())
    }

    /// `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: usize) -> io::Result<Vec<u32>> {
        Ok(self.words(n)?.map(u32::from_le_bytes).collect())
    }

    /// Succeed only if every byte was read: trailing bytes mean the
    /// encoding undercounts or was appended to.
    pub fn finish(self) -> io::Result<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(invalid(format!("{n} trailing bytes"))),
        }
    }
}

/// Write a container of `sections` under `magic` to `w`, hashing as it
/// goes (no second copy of the bodies is made).
pub fn write_container<S: AsRef<[u8]>>(
    w: &mut dyn Write,
    magic: &[u8; 8],
    sections: &[(&str, S)],
) -> io::Result<()> {
    let mut hash = Fnv1a::default();
    let mut put = |bytes: &[u8]| {
        hash.update(bytes);
        w.write_all(bytes)
    };
    put(magic)?;
    put(&VERSION.to_le_bytes())?;
    put(&(sections.len() as u32).to_le_bytes())?;
    for (name, body) in sections {
        put(&(name.len() as u32).to_le_bytes())?;
        put(name.as_bytes())?;
        let body = body.as_ref();
        put(&(body.len() as u64).to_le_bytes())?;
        put(body)?;
    }
    w.write_all(&hash.finish().to_le_bytes())
}

/// A decoded container: its sections borrowed from the file's bytes.
#[derive(Debug)]
pub struct Container<'a> {
    sections: Vec<(&'a str, &'a [u8])>,
}

impl<'a> Container<'a> {
    /// Decode `bytes` as a container of kind `magic`, verifying the
    /// trailer before the section table is read.
    pub fn parse(magic: &[u8; 8], bytes: &'a [u8]) -> io::Result<Self> {
        if bytes.get(..magic.len()).is_some_and(|m| m != magic) {
            return Err(invalid(format!(
                "bad magic: not a {} file",
                String::from_utf8_lossy(magic)
            )));
        }
        let Some(body_len) = bytes
            .len()
            .checked_sub(TRAILER_LEN)
            .filter(|&n| n >= HEADER_LEN)
        else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("{} bytes is shorter than a container", bytes.len()),
            ));
        };
        let (body, trailer) = bytes.split_at(body_len);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let mut hash = Fnv1a::default();
        hash.update(body);
        if hash.finish() != stored {
            return Err(invalid("checksum mismatch"));
        }
        let mut r = SliceReader::new(&body[magic.len()..]);
        let version = r.u32()?;
        if version != VERSION {
            return Err(invalid(format!("unsupported container version {version}")));
        }
        let count = r.u32()? as usize;
        let mut sections = Vec::new();
        for _ in 0..count {
            let name_len = r.u32()? as usize;
            let name = r.str(name_len)?;
            let body_len = r.size()?;
            sections.push((name, r.take(body_len)?));
        }
        r.finish()?;
        Ok(Self { sections })
    }

    /// The body of section `name`; a missing section is `InvalidData`.
    pub fn section(&self, name: &str) -> io::Result<&'a [u8]> {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, body)| *body)
            .ok_or_else(|| invalid(format!("missing section '{name}'")))
    }
}

/// Write a container file at `path` through [`atomic_write`].
pub fn write_file<S: AsRef<[u8]>>(
    path: &Path,
    magic: &[u8; 8],
    sections: &[(&str, S)],
) -> io::Result<()> {
    atomic_write(path, |w| write_container(w, magic, sections))
}

/// Read the container file at `path` and hand it to `decode`. Errors
/// keep their kind and name the file.
pub fn read_file<T>(
    path: &Path,
    magic: &[u8; 8],
    decode: impl FnOnce(&Container<'_>) -> io::Result<T>,
) -> io::Result<T> {
    let bytes = std::fs::read(path)?;
    Container::parse(magic, &bytes)
        .and_then(|c| decode(&c))
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"CTTEST01";

    fn sample() -> Vec<u8> {
        let mut out = Vec::new();
        let sections: [(&str, &[u8]); 3] = [("meta", b"k=v\n"), ("empty", b""), ("data", &[7; 40])];
        write_container(&mut out, MAGIC, &sections).unwrap();
        out
    }

    #[test]
    fn roundtrips_sections_by_name() {
        let bytes = sample();
        let c = Container::parse(MAGIC, &bytes).unwrap();
        assert_eq!(c.section("meta").unwrap(), b"k=v\n");
        assert_eq!(c.section("empty").unwrap(), b"");
        assert_eq!(c.section("data").unwrap(), &[7; 40]);
        let err = c.section("absent").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_kind_is_bad_magic() {
        let err = Container::parse(b"CTOTHER1", &sample()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn lengths_are_bounded_by_the_bytes_present() {
        // A well-checksummed container whose one section claims 2^40
        // bytes: rejected by the bounded reader, with nothing reserved.
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&VERSION.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'x');
        body.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let mut hash = Fnv1a::default();
        hash.update(&body);
        body.extend_from_slice(&hash.finish().to_le_bytes());
        let err = Container::parse(MAGIC, &body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn slice_reader_rejects_overlong_counts_and_trailing_bytes() {
        let mut r = SliceReader::new(&[1, 0, 0, 0, 9]);
        assert_eq!(r.u32().unwrap(), 1);
        assert!(r.f32s(usize::MAX).is_err());
        assert_eq!(r.u32s(1).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.finish().is_err());
    }
}
