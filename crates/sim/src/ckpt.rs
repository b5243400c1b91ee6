//! Binary checkpoint primitives shared by every snapshottable layer.
//!
//! The `nwckpt-v1` container mirrors the `nwtrace-v1` codec: a magic /
//! version header, LEB128 varints for every scalar, and strict
//! rejection of malformed input (truncation, varint overflow, trailing
//! bytes). On top of that it adds what a checkpoint needs and a trace
//! does not:
//!
//! * **per-section length framing** — the file is a sequence of
//!   `(section id, byte length, payload)` records, so a reader can
//!   verify each subsystem consumed exactly its own bytes and a
//!   diff tool can align two files section by section;
//! * **a whole-file checksum** — FNV-1a 64 over everything before the
//!   trailing 8 checksum bytes, so a torn or bit-flipped file is
//!   rejected before any section is interpreted.
//!
//! The writer/reader pair knows bytes, varints and sections, nothing
//! about machines. Components describe their state to it through the
//! [`Persist`] trait: each type lists its persisted fields once, in
//! a [`persist!`](crate::persist) invocation next to its definition,
//! and the macro generates both `save` and `restore` from that one
//! list, so the two directions cannot drift apart. Scalars, options,
//! tuples and the standard collections have one shared impl each;
//! `nwcache-core` owns the section layout.

use crate::time::Time;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::Hash;

/// File magic for `nwckpt` checkpoints.
pub const MAGIC: [u8; 4] = *b"NWCK";
/// Frozen format version. Readers reject anything else.
pub const VERSION: u8 = 1;
/// Size of the trailing FNV-1a 64 checksum.
const CHECKSUM_BYTES: usize = 8;

/// Errors produced while decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The file does not start with the `NWCK` magic.
    BadMagic,
    /// The version byte is not the supported [`VERSION`].
    BadVersion {
        /// Version byte found in the file.
        found: u8,
        /// Version this reader supports.
        expected: u8,
    },
    /// The whole-file checksum does not match the contents.
    BadChecksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the body.
        computed: u64,
    },
    /// The input ended before a read completed.
    Truncated {
        /// Bytes the read wanted.
        wanted: usize,
        /// Offset at which the read started.
        offset: usize,
    },
    /// A varint ran past 64 bits.
    VarintOverflow {
        /// Offset of the offending varint.
        offset: usize,
    },
    /// A section header named an unexpected section id.
    SectionMismatch {
        /// Section id the reader expected.
        expected: u32,
        /// Section id found in the file.
        found: u32,
        /// Offset of the section header.
        offset: usize,
    },
    /// A section's payload length overruns the file body, or a reader
    /// crossed the end of the section it was decoding.
    SectionOverrun {
        /// Id of the offending section.
        section: u32,
        /// Offset where the overrun was detected.
        offset: usize,
    },
    /// A section reader finished with payload bytes left over, or the
    /// file has bytes after the last section.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
    /// A decoded value is structurally impossible (bad enum tag,
    /// count mismatch, ...).
    Invalid {
        /// Offset just after the offending value.
        offset: usize,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not an nwckpt file (bad magic)"),
            CkptError::BadVersion { found, expected } => {
                write!(f, "unsupported nwckpt version {found} (expected {expected})")
            }
            CkptError::BadChecksum { stored, computed } => write!(
                f,
                "checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}"
            ),
            CkptError::Truncated { wanted, offset } => {
                write!(f, "truncated checkpoint: wanted {wanted} bytes at offset {offset}")
            }
            CkptError::VarintOverflow { offset } => {
                write!(f, "varint overflow at offset {offset}")
            }
            CkptError::SectionMismatch {
                expected,
                found,
                offset,
            } => write!(
                f,
                "expected section {expected}, found section {found} at offset {offset}"
            ),
            CkptError::SectionOverrun { section, offset } => {
                write!(f, "section {section} overruns its frame at offset {offset}")
            }
            CkptError::TrailingBytes { offset } => {
                write!(f, "unconsumed bytes starting at offset {offset}")
            }
            CkptError::Invalid { offset, what } => {
                write!(f, "invalid checkpoint data at offset {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializer for an `nwckpt-v1` file.
///
/// All data lives inside sections: open one with
/// [`begin_section`](CkptWriter::begin_section), emit values, close it
/// with [`end_section`](CkptWriter::end_section), and call
/// [`finish`](CkptWriter::finish) to obtain the checksummed bytes.
#[derive(Debug)]
pub struct CkptWriter {
    buf: Vec<u8>,
    section: Option<u32>,
    payload: Vec<u8>,
}

impl Default for CkptWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl CkptWriter {
    /// A writer with the magic/version header already emitted.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        CkptWriter {
            buf,
            section: None,
            payload: Vec::new(),
        }
    }

    /// Open section `id`. Panics if a section is already open —
    /// sections never nest.
    pub fn begin_section(&mut self, id: u32) {
        assert!(self.section.is_none(), "section {id} opened inside another");
        self.section = Some(id);
        self.payload.clear();
    }

    /// Close the open section, framing its payload with id + length.
    pub fn end_section(&mut self) {
        let id = self.section.take().expect("no section open");
        put_varint(&mut self.buf, id as u64);
        put_varint(&mut self.buf, self.payload.len() as u64);
        self.buf.extend_from_slice(&self.payload);
    }

    fn out(&mut self) -> &mut Vec<u8> {
        assert!(self.section.is_some(), "checkpoint value outside a section");
        &mut self.payload
    }

    /// Emit a `u64` as a LEB128 varint.
    pub fn u64(&mut self, v: u64) {
        let out = self.out();
        put_varint(out, v);
    }

    /// Emit a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }

    /// Emit a `usize`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Emit a simulated time.
    pub fn time(&mut self, v: Time) {
        self.u64(v);
    }

    /// Emit a `bool` as one varint (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u64(v as u64);
    }

    /// Emit an `f64` via its IEEE-754 bit pattern (bit-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Emit a `u128` as two `u64` halves (low, high).
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Emit an `Option<u64>` as a presence flag plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.bool(false),
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
        }
    }

    /// Emit a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.out().extend_from_slice(v);
    }

    /// Emit a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Seal the file: append the FNV-1a 64 checksum and return the
    /// complete byte image.
    pub fn finish(self) -> Vec<u8> {
        assert!(self.section.is_none(), "unfinished section at finish()");
        let mut buf = self.buf;
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }
}

/// Deserializer for an `nwckpt-v1` file.
///
/// Construction verifies magic, version and checksum; sections are then
/// consumed in order with [`begin_section`](CkptReader::begin_section)
/// / [`end_section`](CkptReader::end_section), and
/// [`finish`](CkptReader::finish) asserts nothing is left over.
#[derive(Debug)]
pub struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// End of the file body (start of the trailing checksum).
    body_end: usize,
    /// End of the open section's payload; `body_end` outside sections.
    limit: usize,
    section: Option<u32>,
}

impl<'a> CkptReader<'a> {
    /// Validate the container (magic, version, checksum) and position
    /// the reader at the first section.
    pub fn new(buf: &'a [u8]) -> Result<Self, CkptError> {
        if buf.len() < MAGIC.len() + 1 + CHECKSUM_BYTES {
            return Err(CkptError::Truncated {
                wanted: MAGIC.len() + 1 + CHECKSUM_BYTES,
                offset: 0,
            });
        }
        if buf[..4] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = buf[4];
        if version != VERSION {
            return Err(CkptError::BadVersion {
                found: version,
                expected: VERSION,
            });
        }
        let body_end = buf.len() - CHECKSUM_BYTES;
        let stored = u64::from_le_bytes(buf[body_end..].try_into().expect("8 bytes"));
        let computed = fnv1a(&buf[..body_end]);
        if stored != computed {
            return Err(CkptError::BadChecksum { stored, computed });
        }
        Ok(CkptReader {
            buf,
            pos: MAGIC.len() + 1,
            body_end,
            limit: body_end,
            section: None,
        })
    }

    /// Current byte offset (for error context).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// A [`CkptError::Invalid`] at the current offset.
    pub fn invalid(&self, what: impl Into<String>) -> CkptError {
        CkptError::Invalid {
            offset: self.pos,
            what: what.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.pos + n > self.limit {
            return Err(if self.limit == self.body_end {
                CkptError::Truncated {
                    wanted: n,
                    offset: self.pos,
                }
            } else {
                CkptError::SectionOverrun {
                    section: self.section.unwrap_or(0),
                    offset: self.pos,
                }
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        let start = self.pos;
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take(1)?[0];
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(CkptError::VarintOverflow { offset: start });
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a `u32`, rejecting values that do not fit.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| CkptError::Invalid {
            offset: self.pos,
            what: format!("u32 out of range: {v}"),
        })
    }

    /// Read a `usize`.
    pub fn usize(&mut self) -> Result<usize, CkptError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CkptError::Invalid {
            offset: self.pos,
            what: format!("usize out of range: {v}"),
        })
    }

    /// Read a simulated time.
    pub fn time(&mut self) -> Result<Time, CkptError> {
        self.u64()
    }

    /// Read a `bool` (0/1).
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CkptError::Invalid {
                offset: self.pos,
                what: format!("bool tag {v}"),
            }),
        }
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u128` from two `u64` halves.
    pub fn u128(&mut self) -> Result<u128, CkptError> {
        let lo = self.u64()? as u128;
        let hi = self.u64()? as u128;
        Ok(lo | (hi << 64))
    }

    /// Read an `Option<u64>`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, CkptError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        let start = self.pos;
        let raw = self.bytes()?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| CkptError::Invalid {
                offset: start,
                what: "string is not UTF-8".into(),
            })
    }

    /// Open the next section, requiring its id to be `expect`.
    pub fn begin_section(&mut self, expect: u32) -> Result<(), CkptError> {
        assert!(self.section.is_none(), "section {expect} opened inside another");
        let offset = self.pos;
        let id = self.u32()?;
        if id != expect {
            return Err(CkptError::SectionMismatch {
                expected: expect,
                found: id,
                offset,
            });
        }
        let len = self.usize()?;
        if self.pos + len > self.body_end {
            return Err(CkptError::SectionOverrun {
                section: id,
                offset: self.pos,
            });
        }
        self.section = Some(id);
        self.limit = self.pos + len;
        Ok(())
    }

    /// Close the open section, requiring its payload to be exactly
    /// consumed.
    pub fn end_section(&mut self) -> Result<(), CkptError> {
        self.section.take().expect("no section open");
        if self.pos != self.limit {
            return Err(CkptError::TrailingBytes { offset: self.pos });
        }
        self.limit = self.body_end;
        Ok(())
    }

    /// Bytes remaining in the open section's payload. Formats that
    /// append optional trailing fields to a section (newer writers
    /// only emit them when non-default) use this to decide whether to
    /// consume them — old checkpoints simply have none left.
    pub fn section_remaining(&self) -> usize {
        assert!(self.section.is_some(), "section_remaining outside a section");
        self.limit - self.pos
    }

    /// Read the next raw section header + payload without interpreting
    /// it (used by the structural validator and the diff tool).
    /// Returns `None` at the end of the body.
    pub fn next_raw_section(&mut self) -> Result<Option<(u32, &'a [u8])>, CkptError> {
        assert!(self.section.is_none(), "raw scan inside a section");
        if self.pos == self.body_end {
            return Ok(None);
        }
        let id = self.u32()?;
        let len = self.usize()?;
        if self.pos + len > self.body_end {
            return Err(CkptError::SectionOverrun {
                section: id,
                offset: self.pos,
            });
        }
        let payload = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(Some((id, payload)))
    }

    /// Assert the whole body was consumed.
    pub fn finish(self) -> Result<(), CkptError> {
        assert!(self.section.is_none(), "unfinished section at finish()");
        if self.pos != self.body_end {
            return Err(CkptError::TrailingBytes { offset: self.pos });
        }
        Ok(())
    }
}

/// LEB128-encode `v` into `out`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one LEB128 varint from `buf` starting at `*pos`, advancing
/// `*pos`. Standalone helper for tools that walk raw section payloads
/// (the checkpoint diff) without a full [`CkptReader`].
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CkptError> {
    let start = *pos;
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if *pos >= buf.len() {
            return Err(CkptError::Truncated {
                wanted: 1,
                offset: *pos,
            });
        }
        let byte = buf[*pos];
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CkptError::VarintOverflow { offset: start });
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

pub use crate::atomic_write::write_atomic;

/// State a checkpoint saves and later restores in place.
///
/// `restore` overlays saved state onto a value built from the same
/// configuration, so configuration-derived fields (capacities,
/// geometry, names) are never written: they are already right.
/// Implement it with [`persist!`](crate::persist) rather than by hand.
pub trait Persist {
    /// Append this value's state to the open section.
    fn save(&self, w: &mut CkptWriter);
    /// Overlay state written by [`Persist::save`].
    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError>;
}

/// A [`Persist`] value with no configuration-derived state, so it can
/// be decoded from nothing. Elements of the collections a checkpoint
/// rebuilds (queues, maps, options) are `Load`.
pub trait Load: Persist + Sized {
    /// Decode a fresh value.
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError>;
}

/// Elements a rebuilt collection preallocates at most: a corrupt
/// length costs a failed decode, never a huge allocation.
const PREALLOC_CAP: usize = 1 << 20;

macro_rules! scalar {
    ($($t:ty => $m:ident),* $(,)?) => {$(
        impl Persist for $t {
            fn save(&self, w: &mut CkptWriter) {
                w.$m(*self);
            }
            fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
                *self = r.$m()?;
                Ok(())
            }
        }
        impl Load for $t {
            fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
                r.$m()
            }
        }
    )*};
}

scalar!(u64 => u64, u32 => u32, usize => usize, bool => bool, f64 => f64, u128 => u128);

impl Persist for String {
    fn save(&self, w: &mut CkptWriter) {
        w.str(self);
    }
    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        *self = r.str()?;
        Ok(())
    }
}

impl Load for String {
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        r.str()
    }
}

impl<T: Load> Persist for Option<T> {
    fn save(&self, w: &mut CkptWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        *self = Self::load(r)?;
        Ok(())
    }
}

impl<T: Load> Load for Option<T> {
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(if r.bool()? { Some(T::load(r)?) } else { None })
    }
}

macro_rules! tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Load),+> Persist for ($($t,)+) {
            fn save(&self, w: &mut CkptWriter) {
                $(self.$i.save(w);)+
            }
            fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
                *self = Self::load(r)?;
                Ok(())
            }
        }
        impl<$($t: Load),+> Load for ($($t,)+) {
            fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
                Ok(($($t::load(r)?,)+))
            }
        }
    };
}

tuple!(A.0, B.1);
tuple!(A.0, B.1, C.2);

/// Dynamic sequences (`Vec`, `VecDeque`): a length, then the elements
/// in order. Restore rebuilds the contents in place, keeping the
/// allocation.
macro_rules! sequence {
    ($($seq:ident),*) => {$(
        impl<T: Load> Persist for $seq<T> {
            fn save(&self, w: &mut CkptWriter) {
                w.usize(self.len());
                for v in self {
                    v.save(w);
                }
            }
            fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
                let n = r.usize()?;
                self.clear();
                self.reserve(n.min(PREALLOC_CAP));
                for _ in 0..n {
                    self.extend([T::load(r)?]);
                }
                Ok(())
            }
        }
        impl<T: Load> Load for $seq<T> {
            fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
                let mut v = $seq::new();
                v.restore(r)?;
                Ok(v)
            }
        }
    )*};
}

sequence!(Vec, VecDeque);

/// Maps and sets save their entries in ascending key order, so a
/// checkpoint is canonical whatever the container's iteration order.
/// Restore rejects a repeated key.
fn save_sorted<'a, K: Persist + Ord + 'a, V: Persist + 'a>(
    w: &mut CkptWriter,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) {
    let mut entries: Vec<_> = entries.collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    w.usize(entries.len());
    for (k, v) in entries {
        k.save(w);
        v.save(w);
    }
}

fn restore_map<K: Load, V: Load>(
    r: &mut CkptReader<'_>,
    mut insert: impl FnMut(K, V) -> bool,
) -> Result<(), CkptError> {
    let n = r.usize()?;
    for _ in 0..n {
        let k = K::load(r)?;
        let v = V::load(r)?;
        if !insert(k, v) {
            return Err(r.invalid("duplicate map key"));
        }
    }
    Ok(())
}

impl<K: Load + Ord + Hash, V: Load> Persist for HashMap<K, V> {
    fn save(&self, w: &mut CkptWriter) {
        save_sorted(w, self.iter());
    }
    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.clear();
        restore_map(r, |k, v| self.insert(k, v).is_none())
    }
}

impl<K: Load + Ord, V: Load> Persist for BTreeMap<K, V> {
    fn save(&self, w: &mut CkptWriter) {
        save_sorted(w, self.iter());
    }
    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.clear();
        restore_map(r, |k, v| self.insert(k, v).is_none())
    }
}

impl<K: Load + Ord + Hash> Persist for HashSet<K> {
    fn save(&self, w: &mut CkptWriter) {
        let mut keys: Vec<&K> = self.iter().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for k in keys {
            k.save(w);
        }
    }
    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let n = r.usize()?;
        self.clear();
        for _ in 0..n {
            if !self.insert(K::load(r)?) {
                return Err(r.invalid("duplicate set key"));
            }
        }
        Ok(())
    }
}

impl<T: Persist + ?Sized> Persist for Box<T> {
    fn save(&self, w: &mut CkptWriter) {
        (**self).save(w);
    }
    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        (**self).restore(r)
    }
}

/// Save a collection whose length the configuration fixes: the
/// length, then each element.
#[doc(hidden)]
pub fn save_fixed<T: Persist>(items: &[T], w: &mut CkptWriter) {
    w.usize(items.len());
    for v in items {
        v.save(w);
    }
}

/// Restore each element of a configuration-sized collection in
/// place, rejecting a checkpoint whose length differs.
#[doc(hidden)]
pub fn restore_fixed<T: Persist>(
    items: &mut [T],
    r: &mut CkptReader<'_>,
    what: &str,
) -> Result<(), CkptError> {
    let n = r.usize()?;
    if n != items.len() {
        return Err(r.invalid(format!(
            "checkpoint has {n} {what}, expected {}",
            items.len()
        )));
    }
    for v in items {
        v.restore(r)?;
    }
    Ok(())
}

/// Read a configuration value the checkpoint repeats, rejecting a
/// checkpoint that disagrees with the receiving value.
#[doc(hidden)]
pub fn restore_same<T: Load + PartialEq + std::fmt::Debug>(
    current: &T,
    r: &mut CkptReader<'_>,
    what: &str,
) -> Result<(), CkptError> {
    let saved = T::load(r)?;
    if saved != *current {
        return Err(r.invalid(format!(
            "checkpoint has {what} {saved:?}, expected {current:?}"
        )));
    }
    Ok(())
}

/// Implement [`Persist`] (and, for values and enums, [`Load`]) from
/// one list of fields or variants.
///
/// **Components** — state restored in place onto a value built from
/// the same configuration. Fields not listed are configuration and
/// are never written. Items, in file order:
///
/// * `field` — the field's own [`Persist`] impl;
/// * `fixed field` — a `Vec` or `Option` whose length the
///   configuration fixes: the length, then each element restored in
///   place; a length mismatch is rejected;
/// * `each field` — like `fixed`, with no length written;
/// * `same field` — a configuration value the checkpoint repeats; a
///   mismatch is rejected;
/// * `section(ID) { items }` — the items framed as section `ID`;
///   `section(ID, if field.method) { items }` writes the section only
///   when `self.field.method()` holds, and restore expects it under
///   the same condition;
/// * `optional(if method) { items }` — trailing items written only
///   when `self.method()` holds and read back only when the open
///   section has bytes left (so it must close its section).
///
/// An optional `check |value| ...` closure runs after restore and
/// rejects the checkpoint with its `Some(message)`.
///
/// ```
/// use nw_sim::ckpt::{CkptReader, CkptWriter, Persist};
///
/// struct Tlb {
///     capacity: usize,
///     entries: Vec<(u64, u64)>,
///     hits: u64,
/// }
///
/// nw_sim::persist!(Tlb { entries, hits } check |t| {
///     (t.entries.len() > t.capacity).then(|| "TLB over capacity".into())
/// });
///
/// let full = Tlb { capacity: 2, entries: vec![(7, 1), (9, 2)], hits: 3 };
/// let mut w = CkptWriter::new();
/// w.begin_section(1);
/// full.save(&mut w);
/// w.end_section();
/// let bytes = w.finish();
///
/// let mut small = Tlb { capacity: 1, entries: Vec::new(), hits: 0 };
/// let mut r = CkptReader::new(&bytes).unwrap();
/// r.begin_section(1).unwrap();
/// assert!(small.restore(&mut r).is_err());
/// ```
///
/// **Values** — `persist!(value Type { fields })` lists every field;
/// restore builds a fresh value, so the type is also [`Load`].
///
/// **Enums** — `persist!(enum Type { 0 => Unit, 1 => Tuple(a, b),
/// 2 => Struct { x, y } })` writes the tag, then the variant's fields;
/// an unknown tag is rejected.
#[macro_export]
macro_rules! persist {
    (enum $ty:ident {
        $($tag:literal => $var:ident $(( $($tf:ident),* ))? $({ $($sf:ident),* })?),* $(,)?
    }) => {
        impl $crate::ckpt::Persist for $ty {
            fn save(&self, w: &mut $crate::ckpt::CkptWriter) {
                match self {
                    $($ty::$var $(( $($tf),* ))? $({ $($sf),* })? => {
                        w.u32($tag);
                        $($($crate::ckpt::Persist::save($tf, w);)*)?
                        $($($crate::ckpt::Persist::save($sf, w);)*)?
                    })*
                }
            }
            fn restore(
                &mut self,
                r: &mut $crate::ckpt::CkptReader<'_>,
            ) -> Result<(), $crate::ckpt::CkptError> {
                *self = <Self as $crate::ckpt::Load>::load(r)?;
                Ok(())
            }
        }
        impl $crate::ckpt::Load for $ty {
            fn load(r: &mut $crate::ckpt::CkptReader<'_>) -> Result<Self, $crate::ckpt::CkptError> {
                Ok(match r.u32()? {
                    $($tag => $ty::$var
                        $(( $({ let $tf = $crate::ckpt::Load::load(r)?; $tf }),* ))?
                        $({ $($sf: $crate::ckpt::Load::load(r)?),* })?,)*
                    tag => {
                        return Err(r.invalid(format!(
                            concat!("unknown ", stringify!($ty), " tag {}"),
                            tag
                        )))
                    }
                })
            }
        }
    };
    (value $ty:ident { $($f:ident),* $(,)? }) => {
        impl $crate::ckpt::Persist for $ty {
            fn save(&self, w: &mut $crate::ckpt::CkptWriter) {
                $($crate::ckpt::Persist::save(&self.$f, w);)*
            }
            fn restore(
                &mut self,
                r: &mut $crate::ckpt::CkptReader<'_>,
            ) -> Result<(), $crate::ckpt::CkptError> {
                *self = <Self as $crate::ckpt::Load>::load(r)?;
                Ok(())
            }
        }
        impl $crate::ckpt::Load for $ty {
            fn load(r: &mut $crate::ckpt::CkptReader<'_>) -> Result<Self, $crate::ckpt::CkptError> {
                Ok($ty { $($f: $crate::ckpt::Load::load(r)?),* })
            }
        }
    };
    ($ty:ty { $($items:tt)* } $(check $check:expr)?) => {
        impl $crate::ckpt::Persist for $ty {
            fn save(&self, w: &mut $crate::ckpt::CkptWriter) {
                $crate::persist!(@save self w [$($items)*]);
            }
            fn restore(
                &mut self,
                r: &mut $crate::ckpt::CkptReader<'_>,
            ) -> Result<(), $crate::ckpt::CkptError> {
                $crate::persist!(@restore self r [$($items)*]);
                $(
                    let check: fn(&Self) -> Option<String> = $check;
                    if let Some(what) = check(self) {
                        return Err(r.invalid(what));
                    }
                )?
                Ok(())
            }
        }
    };

    (@save $s:ident $w:ident []) => {};
    (@save $s:ident $w:ident [fixed $f:ident $(, $($rest:tt)*)?]) => {
        $crate::ckpt::save_fixed($s.$f.as_slice(), $w);
        $crate::persist!(@save $s $w [$($($rest)*)?]);
    };
    (@save $s:ident $w:ident [each $f:ident $(, $($rest:tt)*)?]) => {
        for v in $s.$f.iter() {
            $crate::ckpt::Persist::save(v, $w);
        }
        $crate::persist!(@save $s $w [$($($rest)*)?]);
    };
    (@save $s:ident $w:ident [same $f:ident $(, $($rest:tt)*)?]) => {
        $crate::ckpt::Persist::save(&$s.$f, $w);
        $crate::persist!(@save $s $w [$($($rest)*)?]);
    };
    (@save $s:ident $w:ident
        [section($id:expr $(, if $($cond:ident).+)?) { $($inner:tt)* } $(, $($rest:tt)*)?]) => {
        if true $(&& $s.$($cond).+())? {
            $w.begin_section($id);
            $crate::persist!(@save $s $w [$($inner)*]);
            $w.end_section();
        }
        $crate::persist!(@save $s $w [$($($rest)*)?]);
    };
    (@save $s:ident $w:ident [optional(if $cond:ident) { $($inner:tt)* } $(, $($rest:tt)*)?]) => {
        if $s.$cond() {
            $crate::persist!(@save $s $w [$($inner)*]);
        }
        $crate::persist!(@save $s $w [$($($rest)*)?]);
    };
    (@save $s:ident $w:ident [$f:ident $(, $($rest:tt)*)?]) => {
        $crate::ckpt::Persist::save(&$s.$f, $w);
        $crate::persist!(@save $s $w [$($($rest)*)?]);
    };

    (@restore $s:ident $r:ident []) => {};
    (@restore $s:ident $r:ident [fixed $f:ident $(, $($rest:tt)*)?]) => {
        $crate::ckpt::restore_fixed($s.$f.as_mut_slice(), $r, stringify!($f))?;
        $crate::persist!(@restore $s $r [$($($rest)*)?]);
    };
    (@restore $s:ident $r:ident [each $f:ident $(, $($rest:tt)*)?]) => {
        for v in $s.$f.iter_mut() {
            $crate::ckpt::Persist::restore(v, $r)?;
        }
        $crate::persist!(@restore $s $r [$($($rest)*)?]);
    };
    (@restore $s:ident $r:ident [same $f:ident $(, $($rest:tt)*)?]) => {
        $crate::ckpt::restore_same(&$s.$f, $r, stringify!($f))?;
        $crate::persist!(@restore $s $r [$($($rest)*)?]);
    };
    (@restore $s:ident $r:ident
        [section($id:expr $(, if $($cond:ident).+)?) { $($inner:tt)* } $(, $($rest:tt)*)?]) => {
        if true $(&& $s.$($cond).+())? {
            $r.begin_section($id)?;
            $crate::persist!(@restore $s $r [$($inner)*]);
            $r.end_section()?;
        }
        $crate::persist!(@restore $s $r [$($($rest)*)?]);
    };
    (@restore $s:ident $r:ident [optional(if $cond:ident) { $($inner:tt)* } $(, $($rest:tt)*)?]) => {
        if $r.section_remaining() > 0 {
            $crate::persist!(@restore $s $r [$($inner)*]);
        }
        $crate::persist!(@restore $s $r [$($($rest)*)?]);
    };
    (@restore $s:ident $r:ident [$f:ident $(, $($rest:tt)*)?]) => {
        $crate::ckpt::Persist::restore(&mut $s.$f, $r)?;
        $crate::persist!(@restore $s $r [$($($rest)*)?]);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.begin_section(1);
        w.u64(0);
        w.u64(300);
        w.u128(u128::MAX - 5);
        w.opt_u64(Some(7));
        w.opt_u64(None);
        w.f64(0.25);
        w.str("hello");
        w.end_section();
        w.begin_section(2);
        w.bool(true);
        w.end_section();
        w.finish()
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let mut r = CkptReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        assert_eq!(r.u64().unwrap(), 0);
        assert_eq!(r.u64().unwrap(), 300);
        assert_eq!(r.u128().unwrap(), u128::MAX - 5);
        assert_eq!(r.opt_u64().unwrap(), Some(7));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.str().unwrap(), "hello");
        r.end_section().unwrap();
        r.begin_section(2).unwrap();
        assert!(r.bool().unwrap());
        r.end_section().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(CkptReader::new(&bytes).unwrap_err(), CkptError::BadMagic);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut w = CkptWriter::new();
        w.begin_section(1);
        w.u64(9);
        w.end_section();
        let mut bytes = w.finish();
        // Patch the version byte and re-seal the checksum so only the
        // version check can fire.
        bytes[4] = 99;
        let body_end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CkptReader::new(&bytes).unwrap_err(),
            CkptError::BadVersion {
                found: 99,
                expected: VERSION
            }
        );
    }

    #[test]
    fn rejects_bit_flip_via_checksum() {
        let mut bytes = sample();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            CkptReader::new(&bytes).unwrap_err(),
            CkptError::BadChecksum { .. }
        ));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = sample();
        for cut in [0, 3, 5, bytes.len() - 9, bytes.len() - 1] {
            let err = CkptReader::new(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CkptError::Truncated { .. } | CkptError::BadChecksum { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_section_mismatch_and_overrun() {
        let bytes = sample();
        let mut r = CkptReader::new(&bytes).unwrap();
        assert!(matches!(
            r.begin_section(7).unwrap_err(),
            CkptError::SectionMismatch {
                expected: 7,
                found: 1,
                ..
            }
        ));
        // Under-consuming a section is caught at end_section.
        let mut r = CkptReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        assert!(matches!(
            r.end_section().unwrap_err(),
            CkptError::TrailingBytes { .. }
        ));
        // Over-consuming is caught as a section overrun.
        let mut r = CkptReader::new(&bytes).unwrap();
        r.begin_section(2).unwrap_err(); // wrong id, section 1 is first
    }

    #[test]
    fn raw_section_scan_sees_all_sections() {
        let bytes = sample();
        let mut r = CkptReader::new(&bytes).unwrap();
        let (id1, p1) = r.next_raw_section().unwrap().unwrap();
        let (id2, p2) = r.next_raw_section().unwrap().unwrap();
        assert_eq!((id1, id2), (1, 2));
        assert!(!p1.is_empty() && !p2.is_empty());
        assert_eq!(r.next_raw_section().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn varint_overflow_rejected() {
        let mut w = CkptWriter::new();
        w.begin_section(1);
        w.end_section();
        let mut bytes = w.finish();
        // Replace the (empty) section with a 10-byte varint of all
        // continuation bits — overflow. Rebuild: header + section id 1,
        // len 10, payload, checksum.
        bytes.truncate(5);
        put_varint(&mut bytes, 1);
        put_varint(&mut bytes, 10);
        bytes.extend_from_slice(&[0xff; 10]);
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        let mut r = CkptReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        assert!(matches!(
            r.u64().unwrap_err(),
            CkptError::VarintOverflow { .. }
        ));
    }

    #[test]
    fn standalone_varint_helpers_agree() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    // ---- Persist ----------------------------------------------------------

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Shape {
        Dot,
        Line(u64),
        Box { w: u32, h: u32 },
    }

    crate::persist!(enum Shape {
        0 => Dot,
        1 => Line(len),
        2 => Box { w, h },
    });

    #[derive(Debug, PartialEq)]
    struct Part {
        id: u64,
        shape: Shape,
    }

    crate::persist!(value Part { id, shape });

    /// A component: `cap` is configuration and never written.
    #[derive(Debug, PartialEq)]
    struct Bin {
        cap: usize,
        slots: Vec<u64>,
        parts: Vec<Part>,
        spare: Option<(u32, bool)>,
        index: HashMap<u64, u32>,
    }

    crate::persist!(Bin { same cap, fixed slots, parts, spare, index } check |b| {
        (b.parts.len() > b.cap).then(|| format!("{} parts, cap {}", b.parts.len(), b.cap))
    });

    fn bin() -> Bin {
        Bin {
            cap: 3,
            slots: vec![0; 2],
            parts: Vec::new(),
            spare: None,
            index: HashMap::new(),
        }
    }

    fn section_bytes(f: impl FnOnce(&mut CkptWriter)) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.begin_section(1);
        f(&mut w);
        w.end_section();
        w.finish()
    }

    fn restore_into<T: Persist>(bytes: &[u8], v: &mut T) -> Result<(), CkptError> {
        let mut r = CkptReader::new(bytes)?;
        r.begin_section(1)?;
        v.restore(&mut r)?;
        r.end_section()
    }

    #[test]
    fn persist_bytes_match_the_primitive_calls() {
        let mut b = bin();
        b.slots = vec![7, 300];
        b.parts = vec![
            Part {
                id: 1,
                shape: Shape::Box { w: 2, h: 3 },
            },
            Part {
                id: 2,
                shape: Shape::Dot,
            },
        ];
        b.spare = Some((9, true));
        b.index = HashMap::from([(20, 2), (10, 1)]);
        let typed = section_bytes(|w| b.save(w));
        let manual = section_bytes(|w| {
            w.usize(3);
            w.usize(2);
            w.u64(7);
            w.u64(300);
            w.usize(2);
            w.u64(1);
            w.u32(2);
            w.u32(2);
            w.u32(3);
            w.u64(2);
            w.u32(0);
            w.bool(true);
            w.u32(9);
            w.bool(true);
            // map entries in ascending key order
            w.usize(2);
            w.u64(10);
            w.u32(1);
            w.u64(20);
            w.u32(2);
        });
        assert_eq!(typed, manual);
        let mut back = bin();
        restore_into(&typed, &mut back).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn persist_rejects_malformed_values_with_structured_errors() {
        let invalid = |bytes: Vec<u8>| match restore_into(&bytes, &mut bin()) {
            Err(CkptError::Invalid { offset, what }) => {
                assert!(offset > 5, "offset {offset}");
                what
            }
            other => panic!("expected Invalid, got {other:?}"),
        };
        let head = |w: &mut CkptWriter, cap: usize, slots: usize| {
            w.usize(cap);
            w.usize(slots);
            for _ in 0..slots {
                w.u64(0);
            }
        };
        let what = invalid(section_bytes(|w| head(w, 4, 2)));
        assert!(what.contains("cap"), "{what}");
        let what = invalid(section_bytes(|w| head(w, 3, 5)));
        assert!(what.contains("slots"), "{what}");
        let what = invalid(section_bytes(|w| {
            head(w, 3, 2);
            w.usize(1);
            w.u64(1);
            w.u32(9);
        }));
        assert!(what.contains("unknown Shape tag 9"), "{what}");
        let what = invalid(section_bytes(|w| {
            head(w, 3, 2);
            w.usize(0);
            w.u64(2);
        }));
        assert!(what.contains("bool"), "{what}");
        let what = invalid(section_bytes(|w| {
            head(w, 3, 2);
            w.usize(0);
            w.bool(false);
            w.usize(2);
            w.u64(5);
            w.u32(1);
            w.u64(5);
            w.u32(2);
        }));
        assert!(what.contains("duplicate"), "{what}");
        let what = invalid(section_bytes(|w| {
            head(w, 3, 2);
            w.usize(4);
            for id in 0..4 {
                w.u64(id);
                w.u32(0);
            }
            w.bool(false);
            w.usize(0);
        }));
        assert!(what.contains("4 parts, cap 3"), "{what}");
    }

    #[test]
    fn absurd_lengths_fail_without_allocating_them() {
        let bytes = section_bytes(|w| {
            w.usize(3);
            w.usize(2);
            w.u64(0);
            w.u64(0);
            w.u64(u64::MAX >> 1);
        });
        assert!(matches!(
            restore_into(&bytes, &mut bin()),
            Err(CkptError::Truncated { .. } | CkptError::SectionOverrun { .. })
        ));
    }
}
