//! Parameter checkpoints. A registry encodes to [`params_to_bytes`]:
//! `b"CTCKPT01"`, a `u64` count, then per entry the name (`u64` length +
//! bytes), a frozen flag byte and the tensor ([`write_tensor`]), all
//! little-endian. The golden-trajectory and determinism suites pin those
//! bytes. On disk they are the `params` section of a checksummed
//! [`codec`](crate::codec) container ([`Params::save`], model bundles,
//! stream checkpoints).
//!
//! Usage pattern: build the model architecture from the same `TrainConfig`
//! (which registers parameters under the same names), then
//! [`Params::load_named`] restores the trained values by name. A full
//! [`Params::load`] reconstructs a registry standalone.

use std::collections::HashMap;
use std::io::{self, Read, Write};

use crate::codec::{invalid_data, write_container, Container, SliceReader};
use crate::params::Params;
use crate::tensor::Tensor;

/// Leading tag of the [`params_to_bytes`] encoding.
const MAGIC: &[u8; 8] = b"CTCKPT01";

/// Container magic of a standalone parameter checkpoint.
const PARAMS_FILE_MAGIC: &[u8; 8] = b"CTPARAMS";

/// Append one tensor (rows u64, cols u64, little-endian f32 data).
pub fn write_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.extend_from_slice(&(t.rows() as u64).to_le_bytes());
    out.extend_from_slice(&(t.cols() as u64).to_le_bytes());
    out.reserve(t.data().len() * 4);
    for &v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Read one tensor written by [`write_tensor`]. The element count is
/// bounded by the bytes left in `r`, so a corrupt shape fails without
/// allocating.
pub fn read_tensor(r: &mut SliceReader<'_>) -> io::Result<Tensor> {
    let rows = r.size()?;
    let cols = r.size()?;
    let numel = rows
        .checked_mul(cols)
        .ok_or_else(|| invalid_data("tensor shape overflow"))?;
    Ok(Tensor::from_vec(r.f32s(numel)?, rows, cols))
}

impl Params {
    /// Write a parameter checkpoint: a container holding the
    /// [`params_to_bytes`] encoding as its `params` section.
    pub fn save<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_container(w, PARAMS_FILE_MAGIC, &[("params", &params_to_bytes(self))])
    }

    /// Read a standalone registry from a checkpoint written by
    /// [`Params::save`].
    pub fn load<R: Read>(r: &mut R) -> io::Result<Params> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let file = Container::parse(PARAMS_FILE_MAGIC, &bytes)?;
        params_from_bytes(file.section("params")?)
    }

    /// Restore values into an *existing* registry by parameter name (the
    /// architecture must have been rebuilt with the same layer names).
    /// Returns the number of parameters restored; unknown names in the
    /// checkpoint are ignored, missing ones are an error.
    pub fn load_named<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        self.restore_from(&Params::load(r)?)
    }

    /// [`Params::load_named`] from an already decoded registry.
    pub fn restore_from(&mut self, loaded: &Params) -> io::Result<usize> {
        let by_name: HashMap<&str, _> = loaded.ids().map(|l| (loaded.name(l), l)).collect();
        let mut restored = 0;
        let my_ids: Vec<_> = self.ids().collect();
        for id in my_ids {
            let name = self.name(id).to_string();
            let Some(&src) = by_name.get(name.as_str()) else {
                return Err(invalid_data(format!(
                    "checkpoint is missing parameter '{name}'"
                )));
            };
            let value = loaded.value(src);
            if value.shape() != self.value(id).shape() {
                return Err(invalid_data(format!(
                    "shape mismatch for '{name}': checkpoint {:?} vs model {:?}",
                    value.shape(),
                    self.value(id).shape()
                )));
            }
            *self.value_mut(id) = value.clone();
            restored += 1;
        }
        Ok(restored)
    }
}

/// Encode a registry (names, frozen flags, values) to bytes.
pub fn params_to_bytes(params: &Params) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(params.len() as u64).to_le_bytes());
    for id in params.ids() {
        let name = params.name(id);
        out.extend_from_slice(&(name.len() as u64).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.push(u8::from(params.is_frozen(id)));
        write_tensor(&mut out, params.value(id));
    }
    out
}

/// Decode a registry from [`params_to_bytes`] output. Rejects a bad tag,
/// truncation and trailing bytes with typed errors.
pub fn params_from_bytes(bytes: &[u8]) -> io::Result<Params> {
    let mut r = SliceReader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(invalid_data(
            "not a ct-tensor parameter encoding (bad magic)",
        ));
    }
    let count = r.size()?;
    let mut params = Params::new();
    for _ in 0..count {
        let name_len = r.size()?;
        let name = r.str(name_len)?.to_string();
        let frozen = r.take(1)?[0] != 0;
        let tensor = read_tensor(&mut r)?;
        if frozen {
            params.add_frozen(name, tensor);
        } else {
            params.add(name, tensor);
        }
    }
    r.finish()?;
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params() -> Params {
        let mut p = Params::new();
        p.add("enc.w", Tensor::from_vec(vec![1.0, -2.0, 3.5, 0.25], 2, 2));
        p.add_frozen("rho", Tensor::from_vec(vec![9.0, 8.0, 7.0], 1, 3));
        p.add("dec.topics", Tensor::zeros(3, 1));
        p
    }

    fn saved(p: &Params) -> Vec<u8> {
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample_params();
        let bytes = params_to_bytes(&p);
        let q = params_from_bytes(&bytes).unwrap();
        assert_eq!(q.len(), 3);
        for (a, b) in p.ids().zip(q.ids()) {
            assert_eq!(p.name(a), q.name(b));
            assert_eq!(p.is_frozen(a), q.is_frozen(b));
            assert_eq!(p.value(a), q.value(b));
        }
    }

    #[test]
    fn load_named_restores_by_name() {
        let trained = sample_params();
        let bytes = saved(&trained);
        // Fresh architecture with the same names but different values.
        let mut fresh = Params::new();
        fresh.add("enc.w", Tensor::zeros(2, 2));
        fresh.add_frozen("rho", Tensor::zeros(1, 3));
        fresh.add("dec.topics", Tensor::ones(3, 1));
        let restored = fresh.load_named(&mut io::Cursor::new(&bytes)).unwrap();
        assert_eq!(restored, 3);
        let w = fresh.ids().next().unwrap();
        assert_eq!(fresh.value(w).data(), &[1.0, -2.0, 3.5, 0.25]);
    }

    #[test]
    fn load_named_rejects_shape_mismatch() {
        let bytes = saved(&sample_params());
        let mut fresh = Params::new();
        fresh.add("enc.w", Tensor::zeros(3, 3)); // wrong shape
        let err = fresh.load_named(&mut io::Cursor::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
    }

    #[test]
    fn load_named_rejects_missing_param() {
        let bytes = saved(&sample_params());
        let mut fresh = Params::new();
        fresh.add("brand.new", Tensor::zeros(1, 1));
        let err = fresh.load_named(&mut io::Cursor::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("missing parameter"), "{err}");
    }

    #[test]
    fn rejects_bad_magic() {
        let err = params_from_bytes(b"NOTACKPTxxxx").unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn tensor_roundtrip() {
        let t = Tensor::from_vec(vec![0.5, -0.25, f32::MAX, f32::MIN_POSITIVE], 4, 1);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t);
        let mut r = SliceReader::new(&buf);
        let back = read_tensor(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn tensor_roundtrip_across_chunk_boundary() {
        let n = 4096 + 37;
        let t = Tensor::from_vec((0..n).map(|i| i as f32 * 0.5).collect(), n, 1);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t);
        let mut r = SliceReader::new(&buf);
        let back = read_tensor(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_truncated_checkpoint() {
        let bytes = params_to_bytes(&sample_params());
        for cut in [bytes.len() - 1, bytes.len() / 2, MAGIC.len() + 3] {
            let err = params_from_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = params_to_bytes(&sample_params());
        bytes.push(0xAB);
        let err = params_from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn huge_header_fails_without_preallocating() {
        // A header claiming 2^31 - 1 elements with the payload absent:
        // the bounded reader fails at once and reserves nothing.
        let mut buf = Vec::new();
        buf.extend_from_slice(&((1u64 << 31) - 1).to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        let err = read_tensor(&mut SliceReader::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // A shape whose element count overflows is rejected outright.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        let err = read_tensor(&mut SliceReader::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
