//! Versioned, std-only snapshot codec: full simulator state to bytes and
//! back, bit-identically.
//!
//! The format is deliberately primitive — little-endian fixed-width
//! integers, `u64` length prefixes, one tag byte per enum/option — and no
//! external serialisation dependency enters the workspace. Floats travel as
//! raw IEEE bit patterns ([`f64::to_bits`]): restoring a run must reproduce
//! *bit* equality, including signed zeros and NaN payloads, or twin traces
//! would diverge after a resume.
//!
//! A complete snapshot starts with an 8-byte magic and a `u16` version
//! (see [`SnapshotWriter::with_header`] / [`SnapshotReader::with_header`]).
//! Decoding is total: truncated input, unknown tags, malformed UTF-8 or
//! trailing bytes yield a clean [`SnapError`], never a panic and never a
//! silently defaulted field. Compatibility rule: the version bumps on *any*
//! layout change — there is no in-place migration, a simulator only
//! restores snapshots taken by its own format version
//! (`tests/fixtures/snapshot_layout.txt` is the gate).
//!
//! Layer crates state each record's layout once, through
//! [`snap_record!`](crate::snap_record) for a list of fields and
//! [`snap_enum!`](crate::snap_enum) for a tagged enum: the macro writes the
//! encoder and the decoder from the one list, in the module that owns the
//! type, so private fields stay private and the two halves cannot drift.
//! Only what is not a field list — a sentinel, a derived structure rebuilt
//! on decode — implements [`Snapshotable`] by hand (DESIGN §11.1 lists
//! them). Configuration is not state: a record that holds some decodes
//! *given* it (`given (cfg: Cfg)`), and the bytes never carry it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;

use crate::{SimDuration, SimTime};

/// First 8 bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MUZSNAP0";

/// Current snapshot format version. Bumps on any layout change; decoders
/// reject every other version outright (no migration).
pub const SNAPSHOT_VERSION: u16 = 17;

/// Why a snapshot failed to decode. Always an error value, never a panic:
/// snapshots cross process boundaries and must be treated as untrusted
/// input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the field being read.
    Truncated,
    /// The first 8 bytes were not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The header version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u16),
    /// Decoding finished with bytes left over — the snapshot and the
    /// decoder disagree about the layout.
    TrailingBytes(usize),
    /// A field held a value outside its domain (bad enum tag, non-boolean
    /// byte, malformed UTF-8, ...). Names the offending field kind.
    Invalid(&'static str),
    /// The snapshot is well-formed but belongs to a different simulation
    /// (config fingerprint, node count or flow table mismatch).
    Mismatch(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated mid-field"),
            SnapError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})")
            }
            SnapError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} trailing bytes after the last field")
            }
            SnapError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
            SnapError::Mismatch(why) => write!(f, "snapshot mismatch: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only byte sink for encoding snapshot state.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer with no header (for nested or test encodings).
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// A writer primed with the snapshot magic and format version.
    pub fn with_header() -> Self {
        let mut w = SnapshotWriter::default();
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.put_u16(SNAPSHOT_VERSION);
        w
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64` (the format is 64-bit regardless
    /// of host width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an `f64` as its raw bit pattern — exact, including NaN
    /// payloads and signed zero.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a string (length-prefixed UTF-8).
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Encodes any [`Snapshotable`] value.
    pub fn put<T: Snapshotable>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked cursor over snapshot bytes.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `buf` with no header expectation.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    /// A reader that first validates the magic and format version.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`] or [`SnapError::UnsupportedVersion`] when the
    /// header does not match this build's format.
    pub fn with_header(buf: &'a [u8]) -> Result<Self, SnapError> {
        let mut r = SnapshotReader::new(buf);
        let magic = r.take_raw(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.take_u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapError::UnsupportedVersion(version));
        }
        Ok(r)
    }

    fn take_raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(SnapError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one raw byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take_raw(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, SnapError> {
        let raw = self.take_raw(2)?;
        let mut bytes = [0u8; 2];
        bytes.copy_from_slice(raw);
        Ok(u16::from_le_bytes(bytes))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapError> {
        let raw = self.take_raw(4)?;
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(raw);
        Ok(u32::from_le_bytes(bytes))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapError> {
        let raw = self.take_raw(8)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(raw);
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads a `u64` and narrows it to the host `usize`.
    pub fn take_usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.take_u64()?).map_err(|_| SnapError::Invalid("usize out of range"))
    }

    /// Reads a bool; any byte other than 0 or 1 is invalid.
    pub fn take_bool(&mut self) -> Result<bool, SnapError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Invalid("bool byte")),
        }
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads length-prefixed raw bytes.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.take_usize()?;
        self.take_raw(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, SnapError> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Invalid("utf-8 string"))
    }

    /// Decodes any [`Snapshotable`] value.
    pub fn get<T: Snapshotable>(&mut self) -> Result<T, SnapError> {
        T::decode(self)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts exact consumption: every decode must account for every byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::TrailingBytes`] when input remains.
    pub fn finish(self) -> Result<(), SnapError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapError::TrailingBytes(n)),
        }
    }
}

/// State that can round-trip through the snapshot codec.
///
/// The contract, pinned by the codec fuzz tests: `decode(encode(x)) == x`
/// observationally (bit-identical continued behaviour), and `decode` of
/// truncated or corrupted bytes returns an error — it never panics and
/// never invents a default.
pub trait Snapshotable: Sized {
    /// Appends this value's state to `w`.
    fn encode(&self, w: &mut SnapshotWriter);
    /// Reads a value back from `r`, consuming exactly what `encode` wrote.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on truncated or out-of-domain input.
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError>;
}

/// Decoded collections reserve at most this many elements up front, so a
/// corrupt length prefix cannot force a huge allocation before the
/// (inevitable) truncation error surfaces.
const MAX_PREALLOC: usize = 4096;

macro_rules! snap_uint {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Snapshotable for $ty {
            fn encode(&self, w: &mut SnapshotWriter) {
                w.$put(*self);
            }
            fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
                r.$take()
            }
        }
    };
}

snap_uint!(u8, put_u8, take_u8);
snap_uint!(u16, put_u16, take_u16);
snap_uint!(u32, put_u32, take_u32);
snap_uint!(u64, put_u64, take_u64);
snap_uint!(usize, put_usize, take_usize);
snap_uint!(bool, put_bool, take_bool);
snap_uint!(f64, put_f64, take_f64);

impl Snapshotable for String {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        r.take_str()
    }
}

impl Snapshotable for SimTime {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.as_nanos());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(SimTime::from_nanos(r.take_u64()?))
    }
}

impl Snapshotable for SimDuration {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.as_nanos());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(SimDuration::from_nanos(r.take_u64()?))
    }
}

impl<T: Snapshotable> Snapshotable for Option<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(SnapError::Invalid("option tag")),
        }
    }
}

impl<T: Snapshotable> Snapshotable for Vec<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_usize()?;
        let mut out = Vec::with_capacity(len.min(MAX_PREALLOC));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshotable> Snapshotable for VecDeque<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_usize()?;
        let mut out = VecDeque::with_capacity(len.min(MAX_PREALLOC));
        for _ in 0..len {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshotable + Ord> Snapshotable for BTreeSet<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_usize()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Snapshotable + Ord, V: Snapshotable> Snapshotable for BTreeMap<K, V> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_usize()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snapshotable> Snapshotable for Rc<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.as_ref().encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(Rc::new(T::decode(r)?))
    }
}

impl<A: Snapshotable, B: Snapshotable> Snapshotable for (A, B) {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let a = A::decode(r)?;
        let b = B::decode(r)?;
        Ok((a, b))
    }
}

impl<A: Snapshotable, B: Snapshotable, C: Snapshotable> Snapshotable for (A, B, C) {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let a = A::decode(r)?;
        let b = B::decode(r)?;
        let c = C::decode(r)?;
        Ok((a, b, c))
    }
}

/// States a field-list record's snapshot layout once: the fields, in wire
/// order, each travelling through its own [`Snapshotable`] impl, then any
/// number of `check |v| <bool> => "what";` clauses that run on the decoded
/// value after its last field and yield [`SnapError::Invalid`]`("what")`.
/// Expand it in the module that owns the type; private fields stay private,
/// and a tuple struct names its fields `0`, `1`, ….
///
/// ```
/// use sim_core::{snap_record, SnapError, SnapshotReader, Snapshotable};
///
/// struct Span { start: u64, end: u64 }
/// snap_record! {
///     Span { start, end }
///     check |s| s.start < s.end => "span bounds";
/// }
/// let mut r = SnapshotReader::new(&[9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]);
/// assert_eq!(Span::decode(&mut r).err(), Some(SnapError::Invalid("span bounds")));
/// ```
///
/// A record that holds configuration does not write it. `given (cfg: Cfg)`
/// names what the decoder is handed instead, and the record gets inherent
/// `encode_state(&self, w)` / `decode_state(r, cfg)` in place of the trait,
/// which has no room for the argument. In such a record `field = expr` is a
/// field that is not on the wire, and `field: Type(args)` one whose own
/// record is of this kind.
///
/// ```
/// use sim_core::{snap_record, SnapshotReader, SnapshotWriter};
///
/// struct Queue { capacity: usize, items: Vec<u32> }
/// snap_record! {
///     given (capacity: usize) Queue { capacity = capacity, items }
///     check |q| q.items.len() <= q.capacity => "queue over capacity";
/// }
/// struct Port { queue: Queue, drops: u64 }
/// snap_record! { given (capacity: usize) Port { queue: Queue(capacity), drops } }
///
/// let port = Port { queue: Queue { capacity: 2, items: vec![7] }, drops: 1 };
/// let mut w = SnapshotWriter::new();
/// port.encode_state(&mut w);
/// let bytes = w.finish();
/// assert_eq!(bytes.len(), 8 + 4 + 8); // no capacity on the wire
/// assert!(Port::decode_state(&mut SnapshotReader::new(&bytes), 2).is_ok());
/// assert!(Port::decode_state(&mut SnapshotReader::new(&bytes), 0).is_err());
/// ```
#[macro_export]
macro_rules! snap_record {
    (@put $w:ident, $val:expr) => { $crate::Snapshotable::encode(&$val, $w) };
    (@put $w:ident, $val:expr, $fty:ident) => { $val.encode_state($w) };
    (@put $w:ident, $val:expr; $from:expr) => {};
    (@get $r:ident) => { $crate::Snapshotable::decode($r)? };
    (@get $r:ident, $fty:ident($($arg:expr),*)) => { $fty::decode_state($r $(, $arg)*)? };
    (@get $r:ident; $from:expr) => { $from };
    (@checked $value:ident $(, |$v:ident| $ok:expr => $what:literal)*) => {{
        $({
            let $v = &$value;
            if !($ok) {
                return Err($crate::SnapError::Invalid($what));
            }
        })*
        Ok($value)
    }};
    (
        given ($($ctx:ident: $cty:ty),*)
        $ty:ident {
            $($field:tt $(: $fty:ident($($arg:expr),*))? $(= $from:expr)?),+ $(,)?
        }
        $(check |$v:ident| $ok:expr => $what:literal;)*
    ) => {
        impl $ty {
            /// Appends this record's fields to `w` in their declared order;
            /// what `decode_state` is given is not written.
            pub fn encode_state(&self, w: &mut $crate::SnapshotWriter) {
                $($crate::snap_record!(@put w, self.$field $(, $fty)? $(; $from)?);)+
            }

            /// Reads back what [`Self::encode_state`] wrote, around the
            /// configuration it is given.
            ///
            /// # Errors
            ///
            /// Any `SnapError` on truncated or out-of-domain input.
            pub fn decode_state(
                r: &mut $crate::SnapshotReader<'_>
                $(, $ctx: $cty)*
            ) -> Result<Self, $crate::SnapError> {
                let value = Self {
                    $($field: $crate::snap_record!(@get r $(, $fty($($arg),*))? $(; $from)?),)+
                };
                $crate::snap_record!(@checked value $(, |$v| $ok => $what)*)
            }
        }
    };
    (
        $ty:ty { $($field:tt),+ $(,)? }
        $(check |$v:ident| $ok:expr => $what:literal;)*
    ) => {
        impl $crate::Snapshotable for $ty {
            fn encode(&self, w: &mut $crate::SnapshotWriter) {
                $($crate::Snapshotable::encode(&self.$field, w);)+
            }

            fn decode(r: &mut $crate::SnapshotReader<'_>) -> Result<Self, $crate::SnapError> {
                let value = Self { $($field: $crate::Snapshotable::decode(r)?,)+ };
                $crate::snap_record!(@checked value $(, |$v| $ok => $what)*)
            }
        }
    };
}

/// States a tagged enum's snapshot layout once: one explicit `u8` tag per
/// variant — unit, tuple (name the fields to bind them) or struct — then the
/// variant's fields in the order written, each through [`Snapshotable`]. A
/// tag no variant claims is [`SnapError::Invalid`] under the name given
/// after the type; `check` clauses work as in [`snap_record!`].
///
/// ```
/// use sim_core::{snap_enum, SnapError, SnapshotReader, Snapshotable};
///
/// enum Shape { Dot, Circle(f64), Rect { w: f64, h: f64 } }
/// snap_enum! {
///     Shape, "shape tag" { 0 => Dot, 1 => Circle(radius), 2 => Rect { w, h } }
/// }
/// let bad = Shape::decode(&mut SnapshotReader::new(&[3]));
/// assert_eq!(bad.err(), Some(SnapError::Invalid("shape tag")));
/// ```
#[macro_export]
macro_rules! snap_enum {
    (@get $r:ident $bound:ident) => { $crate::Snapshotable::decode($r)? };
    (
        $ty:ty, $bad_tag:literal {
            $($tag:literal => $variant:ident $(($($tf:ident),+))? $({ $($sf:ident),+ })?),+ $(,)?
        }
        $(check |$v:ident| $ok:expr => $what:literal;)*
    ) => {
        impl $crate::Snapshotable for $ty {
            fn encode(&self, w: &mut $crate::SnapshotWriter) {
                match self {
                    $(Self::$variant $(($($tf),+))? $({ $($sf),+ })? => {
                        w.put_u8($tag);
                        $($($crate::Snapshotable::encode($tf, w);)+)?
                        $($($crate::Snapshotable::encode($sf, w);)+)?
                    })+
                }
            }

            fn decode(r: &mut $crate::SnapshotReader<'_>) -> Result<Self, $crate::SnapError> {
                let value = match r.take_u8()? {
                    $($tag => Self::$variant
                        $(($($crate::snap_enum!(@get r $tf)),+))?
                        $({ $($sf: $crate::Snapshotable::decode(r)?),+ })?,)+
                    _ => return Err($crate::SnapError::Invalid($bad_tag)),
                };
                $crate::snap_record!(@checked value $(, |$v| $ok => $what)*)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let mut w = SnapshotWriter::with_header();
        w.put_u64(7);
        let bytes = w.finish();
        let mut r = SnapshotReader::with_header(&bytes).expect("own header is valid");
        assert_eq!(r.take_u64(), Ok(7));
        assert!(r.finish().is_ok());
    }

    #[test]
    fn foreign_magic_is_rejected() {
        let mut bytes = SnapshotWriter::with_header().finish();
        bytes[0] ^= 0xff;
        assert_eq!(SnapshotReader::with_header(&bytes).err(), Some(SnapError::BadMagic));
    }

    #[test]
    fn bumped_version_is_rejected_not_misread() {
        // The next version, and every earlier one from v3: no reader of an
        // older layout exists.
        for version in [SNAPSHOT_VERSION + 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16] {
            let mut w = SnapshotWriter::new();
            w.put_bytes(&[]); // placeholder so the buffer is non-trivial
            let mut bytes = Vec::from(SNAPSHOT_MAGIC);
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&w.finish());
            assert_eq!(
                SnapshotReader::with_header(&bytes).err(),
                Some(SnapError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn queue_blob_with_the_old_kind_byte_is_rejected_not_misread() {
        // Format v3 tagged the queue with a scheduler-kind byte. v4 has no
        // field for it: wherever the stray byte sits, decoding ends in a
        // typed error instead of a queue built from shifted fields.
        let mut q = crate::EventQueue::new();
        q.push(crate::SimTime::from_nanos(5), 7u64);
        q.push(crate::SimTime::from_nanos(9), 8u64);
        let mut w = SnapshotWriter::new();
        q.encode(&mut w);
        let clean = w.finish();
        let decode = |bytes: &[u8]| {
            let mut r = SnapshotReader::new(bytes);
            crate::EventQueue::<u64>::decode(&mut r).and_then(|q| r.finish().map(|()| q.len()))
        };
        assert_eq!(decode(&clean), Ok(2));
        let mut trailing = clean.clone();
        trailing.push(1);
        assert_eq!(decode(&trailing), Err(SnapError::TrailingBytes(1)));
        let mut leading = vec![1u8];
        leading.extend_from_slice(&clean);
        assert_eq!(decode(&leading), Err(SnapError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut w = SnapshotWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        let _ = r.take_u8().unwrap();
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes(1)));
    }

    #[test]
    fn out_of_domain_bytes_are_invalid_not_defaulted() {
        let mut r = SnapshotReader::new(&[2]);
        assert_eq!(r.take_bool(), Err(SnapError::Invalid("bool byte")));
        let mut r = SnapshotReader::new(&[9, 0]);
        assert_eq!(Option::<u8>::decode(&mut r), Err(SnapError::Invalid("option tag")));
        let mut w = SnapshotWriter::new();
        w.put_bytes(&[0xff, 0xfe]); // invalid UTF-8 under a valid length
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.take_str(), Err(SnapError::Invalid("utf-8 string")));
    }

    #[test]
    fn corrupt_length_prefix_cannot_force_a_huge_allocation() {
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX / 2); // a length no input could back
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(Vec::<u64>::decode(&mut r), Err(SnapError::Truncated));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One value exercising every primitive and container impl of the base
    /// codec, generated from a seed. Layer structs round-trip transitively
    /// through the whole-simulator snapshot fuzz (`tests/fuzz_sim.rs`).
    #[derive(Clone, Debug, PartialEq)]
    struct Mixed {
        a: u8,
        b: u16,
        c: u32,
        d: u64,
        e: usize,
        f: bool,
        g: f64,
        s: String,
        v: Vec<u64>,
        dq: VecDeque<(u32, bool)>,
        o: Option<(u64, String, SimTime)>,
        map: BTreeMap<u32, SimDuration>,
        set: BTreeSet<u16>,
        rc: Rc<u32>,
        tagged: Vec<Tagged>,
    }

    /// Unit, tuple and struct variants under tags that are not `0, 1, 2`.
    #[derive(Clone, Debug, PartialEq)]
    enum Tagged {
        Unit,
        Pair(u32, bool),
        Named { at: SimTime, label: String },
    }

    snap_enum! {
        Tagged, "tagged tag" { 2 => Unit, 5 => Pair(n, flag), 9 => Named { at, label } }
        check |t| !matches!(t, Tagged::Pair(0, true)) => "tagged pair";
    }

    snap_record! {
        Mixed { a, b, c, d, e, f, g, s, v, dq, o, map, set, rc, tagged }
        check |m| m.a != 0xee || m.b != 0xeeee => "mixed sentinel";
        check |m| m.v.len() < 9 => "mixed vector length";
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "a draw's low bits are a uniform value of the narrower type"
    )]
    fn mixed_from(seed: u64) -> Mixed {
        let mut rng = proptest::TestRng::new(seed);
        let mut next = move || rng.next_u64();
        Mixed {
            a: next() as u8,
            b: next() as u16,
            c: next() as u32,
            d: next(),
            e: next() as u32 as usize,
            f: next() % 2 == 0,
            // Raw bit patterns deliberately cover NaNs, infinities and
            // signed zero — the codec must reproduce them bit for bit.
            g: f64::from_bits(next()),
            s: format!("níl aon tintéan {}", next()),
            v: (0..next() % 9).map(|_| next()).collect(),
            dq: (0..next() % 7).map(|_| (next() as u32, next() % 2 == 0)).collect(),
            o: if next() % 2 == 0 {
                None
            } else {
                Some((next(), String::new(), SimTime::from_nanos(next())))
            },
            map: (0..next() % 6)
                .map(|_| (next() as u32, SimDuration::from_nanos(next())))
                .collect(),
            set: (0..next() % 6).map(|_| next() as u16).collect(),
            rc: Rc::new(next() as u32),
            tagged: (0..next() % 4)
                .map(|_| match next() % 3 {
                    0 => Tagged::Unit,
                    1 => Tagged::Pair(next() as u32 | 1, next() % 2 == 0),
                    _ => Tagged::Named { at: SimTime::from_nanos(next()), label: "lá".into() },
                })
                .collect(),
        }
    }

    fn encoded(value: &Mixed) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        value.encode(&mut w);
        w.finish()
    }

    /// The macros write exactly the `put_*` calls a hand-written impl made,
    /// in the declared order.
    #[test]
    fn macro_layout_is_the_field_list() {
        let mut value = mixed_from(1);
        value.tagged = vec![Tagged::Pair(7, true), Tagged::Unit];
        let mut w = SnapshotWriter::new();
        w.put_u8(value.a);
        w.put_u16(value.b);
        w.put_u32(value.c);
        w.put_u64(value.d);
        w.put_usize(value.e);
        w.put_bool(value.f);
        w.put_f64(value.g);
        w.put_str(&value.s);
        w.put(&value.v);
        w.put(&value.dq);
        w.put(&value.o);
        w.put(&value.map);
        w.put(&value.set);
        w.put(&value.rc);
        w.put_usize(2);
        w.put_u8(5);
        w.put_u32(7);
        w.put_bool(true);
        w.put_u8(2);
        assert_eq!(encoded(&value), w.finish());
    }

    /// `check` clauses run after the last field, in order, and name what
    /// failed; a tag no variant claims is the enum's own named error.
    #[test]
    fn failing_checks_and_unknown_tags_are_named() {
        let decode = |bytes: &[u8]| Mixed::decode(&mut SnapshotReader::new(bytes)).err();
        let mut value = mixed_from(2);
        value.tagged = vec![Tagged::Unit];
        assert_eq!(decode(&encoded(&value)), None);

        let mut bytes = encoded(&value);
        *bytes.last_mut().expect("non-empty") = 3;
        assert_eq!(decode(&bytes), Some(SnapError::Invalid("tagged tag")));

        (value.a, value.b) = (0xee, 0xeeee);
        assert_eq!(decode(&encoded(&value)), Some(SnapError::Invalid("mixed sentinel")));
        // Both clauses fail: the first one declared reports.
        value.v = vec![0; 9];
        assert_eq!(decode(&encoded(&value)), Some(SnapError::Invalid("mixed sentinel")));
        value.a = 0;
        assert_eq!(decode(&encoded(&value)), Some(SnapError::Invalid("mixed vector length")));
        // A truncated record never reaches its checks.
        let bytes = encoded(&value);
        assert_eq!(decode(&bytes[..bytes.len() - 1]), Some(SnapError::Truncated));

        value.v.clear();
        value.tagged = vec![Tagged::Pair(0, true)];
        assert_eq!(decode(&encoded(&value)), Some(SnapError::Invalid("tagged pair")));
    }

    /// Bit-equality for `Mixed` that treats NaN by pattern, not by `==`.
    fn bit_eq(a: &Mixed, b: &Mixed) -> bool {
        let mut wa = SnapshotWriter::new();
        let mut wb = SnapshotWriter::new();
        a.encode(&mut wa);
        b.encode(&mut wb);
        wa.finish() == wb.finish()
    }

    proptest! {
        /// decode(encode(x)) reproduces x exactly and consumes every byte.
        #[test]
        fn codec_round_trips(seed in any::<u64>()) {
            let value = mixed_from(seed);
            let mut w = SnapshotWriter::with_header();
            w.put(&value);
            let bytes = w.finish();
            let mut r = SnapshotReader::with_header(&bytes).expect("own header");
            let back: Mixed = r.get().expect("own encoding decodes");
            r.finish().expect("no trailing bytes");
            prop_assert!(bit_eq(&value, &back), "round trip changed the value");
        }

        /// Every proper prefix of a snapshot fails to decode with a clean
        /// error — never a panic, never a silently short value.
        #[test]
        fn every_truncation_errors_cleanly(seed in any::<u64>(), cut_seed in any::<u64>()) {
            let value = mixed_from(seed);
            let mut w = SnapshotWriter::with_header();
            w.put(&value);
            let bytes = w.finish();
            let cut = usize::try_from(cut_seed % bytes.len() as u64).unwrap();
            let err = SnapshotReader::with_header(&bytes[..cut])
                .and_then(|mut r| {
                    let v: Mixed = r.get()?;
                    r.finish()?;
                    Ok(v)
                })
                .err();
            prop_assert!(err.is_some(), "a {cut}-byte prefix of {} decoded", bytes.len());
        }

        /// Arbitrary single-byte corruption past the header either decodes
        /// to some value or errors — it must never panic. (Corrupting a
        /// float or counter byte legitimately yields a different value;
        /// totality is the property, not rejection.)
        #[test]
        fn byte_flips_never_panic(seed in any::<u64>(), pos_seed in any::<u64>(), xor in 1u8..=255) {
            let value = mixed_from(seed);
            let mut w = SnapshotWriter::with_header();
            w.put(&value);
            let mut bytes = w.finish();
            let pos = usize::try_from(pos_seed % bytes.len() as u64).unwrap();
            bytes[pos] ^= xor;
            let _ = SnapshotReader::with_header(&bytes).and_then(|mut r| {
                let v: Mixed = r.get()?;
                r.finish()?;
                Ok(v)
            });
        }
    }
}
