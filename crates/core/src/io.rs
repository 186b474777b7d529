//! Binary persistence for built SSJoin inputs.
//!
//! Building a [`BuiltInput`] over a large corpus (interning, frequency
//! counting, global ordering) is a one-time cost worth caching; this module
//! writes the whole structure — every collection plus the shared element
//! metadata — to a compact little-endian binary file and reads it back.
//! Loaded collections share a fresh universe tag, so they can be joined
//! with each other but not with collections from other builds (the same
//! invariant as a fresh build).
//!
//! Format (versioned, all integers little-endian):
//!
//! ```text
//! magic "SSJN" | u32 version | u64 universe_size
//! per element: u32 token_len | token bytes | u32 ordinal | u64 weight_raw
//! u32 collection_count
//! per collection: u64 set_count, per set: f64 norm | u32 len | (u32 rank, u64 w)*
//! ```

use crate::builder::BuiltInput;
use crate::error::{SsJoinError, SsJoinResult};
use crate::set::SetCollection;
use crate::weight::Weight;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SSJN";
const VERSION: u32 = 1;

fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
pub(crate) fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
pub(crate) fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
pub(crate) fn r_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

pub(crate) fn bad(msg: &str) -> SsJoinError {
    SsJoinError::Io(msg.to_string())
}

/// Serialize a built input to `path`.
///
/// # Errors
/// Returns [`SsJoinError::Io`] on any filesystem failure.
pub fn save_built_input<P: AsRef<Path>>(input: &BuiltInput, path: P) -> SsJoinResult<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC)?;
    w_u32(&mut w, VERSION)?;
    let universe = input.universe_size();
    w_u64(&mut w, universe as u64)?;
    for rank in 0..universe as u32 {
        let (token, ordinal) = input.element(rank);
        w_u32(&mut w, token.len() as u32)?;
        w.write_all(token.as_bytes())?;
        w_u32(&mut w, ordinal)?;
        w_u64(&mut w, input.element_weight(rank).raw())?;
    }
    let collections = input.collections();
    w_u32(&mut w, collections.len() as u32)?;
    for c in collections {
        w_u64(&mut w, c.len() as u64)?;
        for set in c.iter() {
            w_f64(&mut w, set.norm())?;
            w_u32(&mut w, set.len() as u32)?;
            for (&rank, &weight) in set.ranks().iter().zip(set.weights()) {
                w_u32(&mut w, rank)?;
                w_u64(&mut w, weight.raw())?;
            }
        }
    }
    w.flush()?;
    Ok(())
}

/// Deserialize a built input from `path`. All restored collections share a
/// fresh universe tag.
///
/// # Errors
/// Returns [`SsJoinError::Io`] on filesystem failures or malformed files,
/// and propagates collection-construction errors (e.g.
/// [`SsJoinError::TooManyElements`]) from the decoded data.
pub fn load_built_input<P: AsRef<Path>>(path: P) -> SsJoinResult<BuiltInput> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not an SSJoin input file"));
    }
    if r_u32(&mut r)? != VERSION {
        return Err(bad("unsupported SSJoin input file version"));
    }
    let universe = r_u64(&mut r)? as usize;
    // Lengths read from the file size nothing up front: a corrupt count
    // must fail on the short read, not on a huge allocation.
    let mut tokens: Vec<Box<str>> = Vec::new();
    let mut element_meta = Vec::new();
    let mut weights = Vec::new();
    for rank in 0..universe {
        let len = r_u32(&mut r)? as usize;
        if len > 1 << 24 {
            return Err(bad("token length out of range"));
        }
        let mut buf = vec![0u8; len];
        r.read_exact(&mut buf)?;
        let token = String::from_utf8(buf).map_err(|_| bad("token is not valid UTF-8"))?;
        let ordinal = r_u32(&mut r)?;
        if ordinal == 0 || ordinal as usize > universe {
            return Err(bad("element ordinal out of range"));
        }
        tokens.push(token.into_boxed_str());
        element_meta.push((rank as u32, ordinal));
        weights.push(Weight::from_raw(r_u64(&mut r)?));
    }
    let tag = crate::builder::fresh_universe_tag();
    let n_collections = r_u32(&mut r)? as usize;
    let mut collections = Vec::new();
    for _ in 0..n_collections {
        let n_sets = r_u64(&mut r)?;
        let mut offsets = vec![0u32];
        let mut elements = Vec::new();
        let mut norms = Vec::new();
        for _ in 0..n_sets {
            norms.push(r_f64(&mut r)?);
            let len = r_u32(&mut r)?;
            for _ in 0..len {
                let rank = r_u32(&mut r)?;
                if rank as usize >= universe {
                    return Err(bad("element rank out of range"));
                }
                elements.push((rank, Weight::from_raw(r_u64(&mut r)?)));
            }
            let end = u32::try_from(elements.len()).map_err(|_| SsJoinError::TooManyElements {
                elements: elements.len(),
            })?;
            offsets.push(end);
        }
        collections.push(SetCollection::from_flat(
            offsets, elements, norms, universe, tag,
        )?);
    }
    Ok(BuiltInput::from_parts(
        collections,
        tokens,
        element_meta,
        weights,
    ))
}

// ---------------------------------------------------------------------------
// Spill frames (out-of-core partitioned execution, `crate::spill`)
// ---------------------------------------------------------------------------

/// Magic prefix of a spill file: distinct from the input-cache format so a
/// truncated or cross-purposed file fails loudly on the typed `Io` path.
pub(crate) const SPILL_MAGIC: &[u8; 4] = b"SSPF";
/// Spill file format version.
pub(crate) const SPILL_VERSION: u32 = 1;

/// FNV-1a 64-bit checksum — cheap, dependency-free, and plenty to catch the
/// torn or truncated frames a crashed/interrupted spill can leave behind.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Largest frame payload [`read_spill_frame`] will buffer: a declared length
/// beyond this is treated as corruption rather than honored with a giant
/// allocation.
const SPILL_FRAME_CAP: u64 = 1 << 40;

/// A uniquely-named temp-dir spill file removed on drop. The guard is held
/// for the whole out-of-core run, so any exit — completion, typed budget
/// abort, error propagation, or panic unwind — deletes the file; no stray
/// temp files survive an interrupted spill.
#[derive(Debug)]
pub(crate) struct TempSpillFile {
    path: std::path::PathBuf,
}

impl TempSpillFile {
    /// Create an empty, uniquely-named spill file in the OS temp directory.
    pub(crate) fn create() -> io::Result<(Self, std::fs::File)> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("ssjoin-spill-{}-{n}.tmp", std::process::id()));
        let file = std::fs::OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)?;
        Ok((Self { path }, file))
    }

    /// The file's path.
    #[cfg(test)]
    pub(crate) fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for TempSpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Write the spill file header (magic, version, partition count).
pub(crate) fn write_spill_header<W: Write>(w: &mut W, partitions: u32) -> io::Result<()> {
    w.write_all(SPILL_MAGIC)?;
    w_u32(w, SPILL_VERSION)?;
    w_u32(w, partitions)
}

/// Read and validate the spill file header; returns the partition count.
pub(crate) fn read_spill_header<R: Read>(r: &mut R) -> SsJoinResult<u32> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != SPILL_MAGIC {
        return Err(bad("not an SSJoin spill file"));
    }
    if r_u32(r)? != SPILL_VERSION {
        return Err(bad("unsupported SSJoin spill file version"));
    }
    Ok(r_u32(r)?)
}

/// Write one checksummed frame: `u64 payload_len | payload | u64 fnv1a64`.
pub(crate) fn write_spill_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w_u64(w, payload.len() as u64)?;
    w.write_all(payload)?;
    w_u64(w, fnv1a64(payload))
}

/// Read one frame into `buf` (reused across calls — the warm spill path
/// allocates nothing once `buf` has grown to the largest frame), verifying
/// the trailing checksum.
pub(crate) fn read_spill_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> SsJoinResult<()> {
    let len = r_u64(r)?;
    if len > SPILL_FRAME_CAP {
        return Err(bad("spill frame length out of range"));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    let expect = r_u64(r)?;
    if fnv1a64(buf) != expect {
        return Err(bad("spill frame checksum mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SsJoinInputBuilder, WeightScheme};
    use crate::exec::{ssjoin, Algorithm, SsJoinConfig};
    use crate::order::ElementOrder;
    use crate::predicate::OverlapPredicate;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ssjoin_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_input() -> BuiltInput {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
        let groups: Vec<Vec<String>> = (0..20)
            .map(|i| (0..4).map(|j| format!("tok{}", (i * 3 + j) % 13)).collect())
            .collect();
        b.add_relation(groups.clone());
        b.add_relation(groups[..10].to_vec());
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let input = sample_input();
        let path = temp_path("roundtrip.ssjn");
        save_built_input(&input, &path).unwrap();
        let loaded = load_built_input(&path).unwrap();

        assert_eq!(loaded.universe_size(), input.universe_size());
        for rank in 0..input.universe_size() as u32 {
            assert_eq!(loaded.element(rank), input.element(rank));
            assert_eq!(loaded.element_weight(rank), input.element_weight(rank));
        }
        assert_eq!(loaded.collections().len(), 2);
        for (lc, ic) in loaded.collections().iter().zip(input.collections()) {
            assert_eq!(lc.len(), ic.len());
            for (ls, is) in lc.iter().zip(ic.iter()) {
                assert_eq!(ls, is);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loaded_collections_are_joinable_with_identical_results() {
        let input = sample_input();
        let pred = OverlapPredicate::two_sided(0.5);
        let expect = ssjoin(
            &input.collections()[0],
            &input.collections()[1],
            &pred,
            &SsJoinConfig::new(Algorithm::Inline),
        )
        .unwrap()
        .pairs;

        let path = temp_path("joinable.ssjn");
        save_built_input(&input, &path).unwrap();
        let loaded = load_built_input(&path).unwrap();
        let got = ssjoin(
            &loaded.collections()[0],
            &loaded.collections()[1],
            &pred,
            &SsJoinConfig::new(Algorithm::Inline),
        )
        .unwrap()
        .pairs;
        assert_eq!(got, expect);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loaded_cannot_join_with_other_builds() {
        let input = sample_input();
        let path = temp_path("mismatch.ssjn");
        save_built_input(&input, &path).unwrap();
        let loaded = load_built_input(&path).unwrap();
        let err = ssjoin(
            &loaded.collections()[0],
            &input.collections()[0],
            &OverlapPredicate::absolute(1.0),
            &SsJoinConfig::default(),
        );
        assert!(err.is_err(), "cross-build joins must be rejected");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = temp_path("garbage.ssjn");
        std::fs::write(&path, b"not an ssjoin file at all").unwrap();
        assert!(load_built_input(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_ordinals_and_oversized_counts() {
        // One element ("a", ordinal) followed by `tail`.
        let file = |ordinal: u32, tail: &[u8]| {
            let mut b = Vec::new();
            b.extend_from_slice(MAGIC);
            b.extend_from_slice(&VERSION.to_le_bytes());
            b.extend_from_slice(&1u64.to_le_bytes());
            b.extend_from_slice(&1u32.to_le_bytes());
            b.push(b'a');
            b.extend_from_slice(&ordinal.to_le_bytes());
            b.extend_from_slice(&Weight::ONE.raw().to_le_bytes());
            b.extend_from_slice(tail);
            b
        };
        let path = temp_path("bad_meta.ssjn");
        for ordinal in [0, 2, u32::MAX] {
            std::fs::write(&path, file(ordinal, &0u32.to_le_bytes())).unwrap();
            let err = load_built_input(&path).unwrap_err();
            assert!(
                matches!(err, SsJoinError::Io(ref m) if m.contains("ordinal")),
                "{err:?}"
            );
        }
        // Counts claiming far more collections, sets and elements than the
        // file holds fail on the short read instead of allocating for them.
        let mut tail = u32::MAX.to_le_bytes().to_vec();
        tail.extend_from_slice(&u64::MAX.to_le_bytes());
        tail.extend_from_slice(&1.0f64.to_le_bytes());
        tail.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, file(1, &tail)).unwrap();
        assert!(matches!(load_built_input(&path), Err(SsJoinError::Io(_))));
        std::fs::write(&path, file(1, &0u32.to_le_bytes())).unwrap();
        let loaded = load_built_input(&path).unwrap();
        assert_eq!(loaded.element(0), ("a", 1));
        assert!(loaded.collections().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated() {
        let input = sample_input();
        let path = temp_path("truncated.ssjn");
        save_built_input(&input, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_built_input(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spill_frames_roundtrip_with_header() {
        let mut file = Vec::new();
        write_spill_header(&mut file, 3).unwrap();
        let frames: [&[u8]; 3] = [b"first frame", b"", b"third, longer frame payload"];
        for f in frames {
            write_spill_frame(&mut file, f).unwrap();
        }
        let mut r = &file[..];
        assert_eq!(read_spill_header(&mut r).unwrap(), 3);
        let mut buf = Vec::new();
        for f in frames {
            read_spill_frame(&mut r, &mut buf).unwrap();
            assert_eq!(buf, f);
        }
    }

    #[test]
    fn spill_frame_detects_corruption() {
        let mut file = Vec::new();
        write_spill_frame(&mut file, b"payload under test").unwrap();
        // Flip one payload byte: the checksum must catch it.
        file[10] ^= 0x40;
        let mut buf = Vec::new();
        let err = read_spill_frame(&mut &file[..], &mut buf).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Truncation fails too (as a read error, not a panic).
        let mut good = Vec::new();
        write_spill_frame(&mut good, b"payload under test").unwrap();
        assert!(read_spill_frame(&mut &good[..good.len() - 4], &mut buf).is_err());
    }

    #[test]
    fn spill_header_rejects_wrong_magic() {
        let mut file = Vec::new();
        write_spill_header(&mut file, 1).unwrap();
        file[0] = b'X';
        assert!(read_spill_header(&mut &file[..]).is_err());
    }

    #[test]
    fn temp_spill_file_removed_on_drop() {
        let (guard, file) = TempSpillFile::create().unwrap();
        let path = guard.path().to_path_buf();
        assert!(path.exists());
        drop(file);
        drop(guard);
        assert!(!path.exists());
    }

    #[test]
    fn fnv1a64_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
