//! The compact binary snapshot codec substrate.
//!
//! Session checkpoints are dominated by float arrays (the matcher's
//! flat parameters, tens of thousands of `f32`s), which JSON renders at
//! ~2–4× their binary width and parses slowly. This module provides the
//! shared little-endian wire layer every snapshot type builds its
//! `to_bytes` / `from_bytes` on:
//!
//! * [`ByteWriter`] — primitive little-endian emitters plus
//!   length-prefixed arrays and strings; fixed-width arrays are reserved
//!   once and copied in bulk,
//! * [`ByteReader`] — the mirror decoder; every read is bounds-checked
//!   and returns a structured [`EmError::Codec`] (never panics, never
//!   over-allocates on a corrupt length prefix); a fixed-width array is
//!   one bounds-checked take, then a bulk conversion,
//! * [`write_frame`] / [`read_frame`] — the self-describing envelope:
//!   a 4-byte magic, a format version byte, a length-prefixed payload
//!   and a trailing [`frame_checksum`] over everything before it.
//!
//! The checksum makes corruption detection deterministic. It reads the
//! frame as little-endian `u64` words dealt round-robin to 4 lanes, and
//! advances a lane by the step `h ← rotl(h ⊕ w, 29) · P` (`P` the FNV-1a
//! 64 prime). The lanes are then folded in order through the same step,
//! followed by the 0–31 tail bytes (one step each) and the length. The
//! step is a bijection of `h` for every `w` (xor, rotate and a multiply
//! by an odd number mod 2⁶⁴ all invert) and a bijection of `w` for every
//! `h`. So one changed word changes its lane's state at that step, every
//! later step of the lane carries the difference through, the fold
//! carries it into the digest, and any single flipped bit anywhere in
//! the frame yields a different digest. The codec robustness tests flip
//! bits at every position and require a structured error each time.
//!
//! The rotate matters. Without it, flipping bit 63 of `h` before the
//! multiply flips exactly bit 63 after it (`2⁶³ · P ≡ 2⁶³` for odd `P`),
//! so flips of bit 63 in two words of the same lane would cancel. With
//! it, the difference lands on bit 28 before the multiply, so bit 28
//! is the lowest bit in which the lane's next states differ, and a
//! bit-63 flip in the lane's next word cannot cancel it.
//!
//! Four independent lanes let the multiplies of consecutive words
//! overlap, so the checksum runs at about memory speed instead of one
//! dependent multiply per byte. [`fnv1a64`] is the byte-wise hash of
//! feature slots and of digests pinned elsewhere; no frame uses it.
//!
//! Floats are written as their IEEE-754 bit patterns, so a decoded
//! value is *bit-identical* to the encoded one — the same contract the
//! JSON path provides via shortest-round-trip formatting, pinned by the
//! snapshot golden tests.

use crate::error::{EmError, Result};

/// Panic-free slice→array conversion. Every caller has already
/// length-validated (via [`ByteReader::take`] or explicit frame
/// bounds), but the codec's panic-freedom contract bans `expect` even
/// for "impossible" mismatches: corrupt input must surface as a
/// structured [`EmError::Codec`] the whole way down, never a panic.
fn to_array<const N: usize>(b: &[u8]) -> Result<[u8; N]> {
    if b.len() != N {
        return Err(EmError::Codec(format!(
            "internal length mismatch: expected {N} bytes, got {}",
            b.len()
        )));
    }
    let mut out = [0u8; N];
    out.copy_from_slice(b);
    Ok(out)
}

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 over `bytes`, one byte at a time. Frames use the faster
/// [`frame_checksum`]; this is the feature-slot hash of the matcher's
/// featurizer and the blocking tier (pinned, unlike the std hasher, so
/// a toolchain bump never shifts a feature layout) and the digest other
/// crates pin. Any byte iterator works, so a caller can hash
/// `namespace ++ token` as `a.iter().chain(b)` without allocating.
pub fn fnv1a64<'a>(bytes: impl IntoIterator<Item = &'a u8>) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Left-rotate of the [`frame_checksum`] step.
const WORD_ROTATE: u32 = 29;

/// One step of [`frame_checksum`]: a bijection of `h` for every `w` and
/// of `w` for every `h`.
#[inline(always)]
fn word_step(h: u64, w: u64) -> u64 {
    (h ^ w).rotate_left(WORD_ROTATE).wrapping_mul(FNV_PRIME)
}

/// The frame checksum: 4 interleaved lanes over little-endian `u64`
/// words, folded in order, then the tail bytes and the length (see the
/// module docs for why any single changed word changes the digest).
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<32>();
    let mut lanes = [FNV_OFFSET; 4];
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = word_step(*lane, u64::from_le_bytes(*word));
        }
    }
    let h = lanes.into_iter().fold(FNV_OFFSET, word_step);
    let h = tail.iter().fold(h, |h, &b| word_step(h, b as u64));
    word_step(h, bytes.len() as u64)
}

/// A growable little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer into its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append `Some(f64)` as `1 + bits`, `None` as `0`.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed array of fixed-width elements: one
    /// reservation, then a bulk copy of each element's bytes.
    fn put_array<T: Copy, const N: usize>(&mut self, xs: &[T], to_le: impl Fn(T) -> [u8; N]) {
        self.put_usize(xs.len());
        let start = self.buf.len();
        self.buf.resize(start + N * xs.len(), 0);
        for (dst, &x) in self.buf[start..].chunks_exact_mut(N).zip(xs) {
            dst.copy_from_slice(&to_le(x));
        }
    }

    /// Append a length-prefixed `u32` array.
    pub fn put_u32s(&mut self, xs: &[u32]) {
        self.put_array(xs, u32::to_le_bytes);
    }

    /// Append a length-prefixed `u64` array.
    pub fn put_u64s(&mut self, xs: &[u64]) {
        self.put_array(xs, u64::to_le_bytes);
    }

    /// Append a length-prefixed `usize` array (as `u64`s).
    pub fn put_usizes(&mut self, xs: &[usize]) {
        self.put_array(xs, |x| (x as u64).to_le_bytes());
    }

    /// Append a length-prefixed `f32` array (bit patterns).
    pub fn put_f32s(&mut self, xs: &[f32]) {
        self.put_array(xs, f32::to_le_bytes);
    }

    /// Append a length-prefixed opaque byte block (nested frames).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u64` as an LEB128 varint (1 byte per 7 bits, low
    /// first) — the compact form for index-like values, which are
    /// small far more often than not.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Append a varint-count-prefixed array of varint `usize`s (pair
    /// indices, stamp vectors, layer widths, …).
    pub fn put_varints(&mut self, xs: &[usize]) {
        self.put_varint(xs.len() as u64);
        for &x in xs {
            self.put_varint(x as u64);
        }
    }
}

/// A bounds-checked little-endian byte cursor.
///
/// Every failure is a structured [`EmError::Codec`] naming the decode
/// `context`; a corrupt length prefix can never cause a panic or an
/// attacker-sized allocation (lengths are validated against the bytes
/// actually remaining before any buffer is reserved).
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`; `context` names the structure being
    /// decoded in every error.
    pub fn new(bytes: &'a [u8], context: &'static str) -> Self {
        ByteReader {
            bytes,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn err(&self, detail: impl Into<String>) -> EmError {
        EmError::Codec(format!("{}: {}", self.context, detail.into()))
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.err(format!(
                "truncated: needed {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(to_array(b)?))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(to_array(b)?))
    }

    /// Read a `usize` (stored as `u64`), rejecting values that cannot
    /// index memory on this platform.
    pub fn get_usize(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.err(format!("value {v} exceeds usize")))
    }

    /// Read an `f32` bit pattern.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool byte (must be exactly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.err(format!("invalid bool byte {other}"))),
        }
    }

    /// Read an optional `f64` (tag byte then bits).
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>> {
        Ok(if self.get_bool()? {
            Some(self.get_f64()?)
        } else {
            None
        })
    }

    /// Read a length prefix for elements of `elem_size` bytes,
    /// validating it against the bytes actually remaining.
    fn get_len(&mut self, elem_size: usize) -> Result<usize> {
        let n = self.get_usize()?;
        if n.checked_mul(elem_size)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(self.err(format!(
                "corrupt length prefix {n} (×{elem_size} B) with {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| self.err(format!("invalid UTF-8: {e}")))
    }

    /// Read a length-prefixed array of fixed-width elements: one
    /// bounds-checked take of all its bytes, then a bulk conversion.
    fn get_array<T, const N: usize>(&mut self, from_le: impl Fn([u8; N]) -> T) -> Result<Vec<T>> {
        let n = self.get_len(N)?;
        let (words, _) = self.take(N * n)?.as_chunks::<N>();
        Ok(words.iter().map(|&w| from_le(w)).collect())
    }

    /// Read a length-prefixed `u32` array.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>> {
        self.get_array(u32::from_le_bytes)
    }

    /// Read a length-prefixed `u64` array.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>> {
        self.get_array(u64::from_le_bytes)
    }

    /// Read a length-prefixed `usize` array.
    pub fn get_usizes(&mut self) -> Result<Vec<usize>> {
        self.get_u64s()?
            .into_iter()
            .map(|v| usize::try_from(v).map_err(|_| self.err(format!("value {v} exceeds usize"))))
            .collect()
    }

    /// Read a length-prefixed `f32` array.
    pub fn get_f32s(&mut self) -> Result<Vec<f32>> {
        self.get_array(f32::from_le_bytes)
    }

    /// Read a length-prefixed opaque byte block (nested frames).
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_len(1)?;
        self.take(n)
    }

    /// Read an LEB128 varint (at most 10 bytes; a non-terminated run is
    /// corruption).
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            let bits = (byte & 0x7F) as u64;
            // 9 full bytes carry 63 bits; the 10th may only add bit 63.
            if shift >= 64 || (shift == 63 && bits > 1) {
                return Err(self.err("varint overruns 64 bits"));
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a varint as `usize`.
    pub fn get_varint_usize(&mut self) -> Result<usize> {
        let v = self.get_varint()?;
        usize::try_from(v).map_err(|_| self.err(format!("varint {v} exceeds usize")))
    }

    /// Read a varint-count-prefixed array of varint `usize`s. Each
    /// element is at least one byte, so the count is validated against
    /// the bytes remaining before anything is allocated.
    pub fn get_varints(&mut self) -> Result<Vec<usize>> {
        let n = self.get_varint_usize()?;
        if n > self.remaining() {
            return Err(self.err(format!(
                "corrupt varint count {n} with {} bytes remaining",
                self.remaining()
            )));
        }
        (0..n).map(|_| self.get_varint_usize()).collect()
    }

    /// Require that every byte has been consumed (trailing garbage is
    /// corruption, not slack).
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.err(format!("{} trailing bytes after payload", self.remaining())));
        }
        Ok(())
    }
}

/// Wrap `payload` in the standard frame:
/// `magic(4) | version(1) | payload_len(u64 LE) | payload | checksum(u64 LE)`
/// where the [`frame_checksum`] covers everything before it.
pub fn write_frame(magic: [u8; 4], version: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 21);
    out.extend_from_slice(&magic);
    out.push(version);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = frame_checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Open a frame written by [`write_frame`], verifying magic, version,
/// length and checksum, and return its payload slice.
pub fn read_frame<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    version: u8,
    context: &'static str,
) -> Result<&'a [u8]> {
    let err = |detail: String| EmError::Codec(format!("{context}: {detail}"));
    let header = 4 + 1 + 8;
    if bytes.len() < header + 8 {
        return Err(err(format!(
            "frame of {} bytes is shorter than the {}-byte envelope",
            bytes.len(),
            header + 8
        )));
    }
    if bytes[..4] != magic {
        return Err(err(format!(
            "bad magic {:02x?} (expected {:02x?})",
            &bytes[..4],
            magic
        )));
    }
    if bytes[4] != version {
        return Err(err(format!(
            "unsupported format version {} (expected {version})",
            bytes[4]
        )));
    }
    let payload_len = u64::from_le_bytes(to_array(&bytes[5..13])?) as usize;
    let expected_total = header
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(8));
    if expected_total != Some(bytes.len()) {
        return Err(err(format!(
            "length prefix {payload_len} disagrees with frame size {}",
            bytes.len()
        )));
    }
    let body = &bytes[..header + payload_len];
    let stored = u64::from_le_bytes(to_array(&bytes[header + payload_len..])?);
    let computed = frame_checksum(body);
    if stored != computed {
        return Err(err(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(&bytes[header..header + payload_len])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_usize(42);
        w.put_f32(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_opt_f64(Some(1.5e-300));
        w.put_opt_f64(None);
        w.put_str("snapshot ≠ checkpoint");
        w.put_f32s(&[1.0, f32::MIN_POSITIVE, f32::INFINITY]);
        w.put_u32s(&[1, 2, 3]);
        w.put_u64s(&[u64::MAX]);
        w.put_usizes(&[0, 9]);
        w.put_bytes(b"nested");
        for xs in &special_f32_arrays() {
            w.put_f32s(xs);
        }
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(
            r.get_opt_f64().unwrap().unwrap().to_bits(),
            1.5e-300f64.to_bits()
        );
        assert_eq!(r.get_opt_f64().unwrap(), None);
        assert_eq!(r.get_str().unwrap(), "snapshot ≠ checkpoint");
        let f = r.get_f32s().unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(f[2], f32::INFINITY);
        assert_eq!(r.get_u32s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u64s().unwrap(), vec![u64::MAX]);
        assert_eq!(r.get_usizes().unwrap(), vec![0, 9]);
        assert_eq!(r.get_bytes().unwrap(), b"nested");
        for xs in &special_f32_arrays() {
            let back = r.get_f32s().unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(xs));
        }
        r.finish().unwrap();
    }

    /// `f32` arrays of length 0, 1 and 7 holding a quiet NaN with
    /// payload bits, a signalling NaN, −0.0 and subnormals.
    fn special_f32_arrays() -> [Vec<f32>; 3] {
        let quiet_nan = f32::from_bits(0x7FC0_1234);
        let signalling_nan = f32::from_bits(0xFF80_0001);
        let subnormal = f32::from_bits(0x0000_0001);
        [
            Vec::new(),
            vec![quiet_nan],
            vec![
                -0.0,
                subnormal,
                signalling_nan,
                quiet_nan,
                -f32::from_bits(0x007F_FFFF),
                1.0,
                f32::NEG_INFINITY,
            ],
        ]
    }

    #[test]
    fn arrays_one_byte_short_are_structured_errors() {
        let mut w = ByteWriter::new();
        w.put_f32s(&[1.0, 2.0, 3.0]);
        let f32s = w.into_bytes();
        let mut w = ByteWriter::new();
        w.put_u32s(&[1, 2, 3]);
        let u32s = w.into_bytes();
        let mut w = ByteWriter::new();
        w.put_u64s(&[1, 2, 3]);
        let u64s = w.into_bytes();
        let short = |b: &Vec<u8>| b[..b.len() - 1].to_vec();
        let errors = [
            ByteReader::new(&short(&f32s), "short").get_f32s().map(drop),
            ByteReader::new(&short(&u32s), "short").get_u32s().map(drop),
            ByteReader::new(&short(&u64s), "short").get_u64s().map(drop),
            ByteReader::new(&short(&u64s), "short")
                .get_usizes()
                .map(drop),
        ];
        for e in errors {
            let e = e.unwrap_err();
            assert!(matches!(e, EmError::Codec(_)), "{e}");
            assert!(e.to_string().contains("short"), "{e}");
        }
    }

    #[test]
    fn truncated_reads_are_structured_errors() {
        let mut w = ByteWriter::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..3], "trunc");
        let e = r.get_u64().unwrap_err();
        assert!(matches!(e, EmError::Codec(_)), "{e}");
        assert!(e.to_string().contains("trunc"));
    }

    #[test]
    fn corrupt_length_prefix_cannot_overallocate() {
        // A length prefix claiming u64::MAX elements must be rejected
        // before any allocation happens.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes, "len").get_f32s().is_err());
        assert!(ByteReader::new(&bytes, "len").get_str().is_err());
        assert!(ByteReader::new(&bytes, "len").get_bytes().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut r = ByteReader::new(&[1, 2], "tail");
        r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn frame_round_trips_and_detects_every_single_bit_flip() {
        let payload: Vec<u8> = (0..140u32).map(|i| (i * 37 % 251) as u8).collect();
        let frame = write_frame(*b"TEST", 3, &payload);
        // The checksummed body (header + payload) spans 4 full 32-byte
        // blocks, so every lane takes several steps, plus a tail.
        let body = frame.len() - 8;
        assert!(body / 32 >= 3 && (1..32).contains(&(body % 32)), "{body}");
        assert_eq!(read_frame(&frame, *b"TEST", 3, "frame").unwrap(), payload);
        // Wrong magic / version / truncation are structured errors.
        assert!(read_frame(&frame, *b"NOPE", 3, "frame").is_err());
        assert!(read_frame(&frame, *b"TEST", 4, "frame").is_err());
        assert!(read_frame(&frame[..frame.len() - 1], *b"TEST", 3, "frame").is_err());
        // Exhaustive single-bit corruption: every flip must be caught
        // (the checksum step is bijective in the word and in the lane
        // state, so one changed word always changes the digest).
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    read_frame(&bad, *b"TEST", 3, "frame").is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn bit_63_flips_in_two_words_of_one_lane_are_detected() {
        let payload = vec![0x5Au8; 100];
        let frame = write_frame(*b"TEST", 3, &payload);
        // Words at frame offsets 16 and 48 are 32 bytes apart, so lane 0
        // consumes them on consecutive steps; byte 7 of a word holds its
        // bit 63.
        let mut bad = frame.clone();
        bad[16 + 7] ^= 0x80;
        bad[48 + 7] ^= 0x80;
        assert_ne!(frame_checksum(&bad), frame_checksum(&frame));
        assert!(read_frame(&bad, *b"TEST", 3, "frame").is_err());
        // Without the rotate the two flips cancel exactly: this is the
        // case the rotate exists for.
        let unrotated = |bytes: &[u8]| {
            let (blocks, _) = bytes.as_chunks::<32>();
            let mut lanes = [FNV_OFFSET; 4];
            for block in blocks {
                let (words, _) = block.as_chunks::<8>();
                for (lane, word) in lanes.iter_mut().zip(words) {
                    *lane = (*lane ^ u64::from_le_bytes(*word)).wrapping_mul(FNV_PRIME);
                }
            }
            lanes
        };
        assert_eq!(unrotated(&bad), unrotated(&frame));
    }

    #[test]
    fn varints_round_trip_and_reject_overruns() {
        let values = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_varint(v);
        }
        w.put_varints(&[0, 300, 70_000]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "varint");
        for &v in &values {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        assert_eq!(r.get_varints().unwrap(), vec![0, 300, 70_000]);
        r.finish().unwrap();
        // Small values really are small on the wire.
        let mut w = ByteWriter::new();
        w.put_varint(5);
        assert_eq!(w.as_slice().len(), 1);
        // A never-terminating continuation run is corruption, not a hang
        // or a silent wrap.
        let bad = [0xFFu8; 11];
        assert!(ByteReader::new(&bad, "varint").get_varint().is_err());
        // A 10th byte with payload above bit 63 is rejected.
        let mut too_big = [0x80u8; 10];
        too_big[9] = 0x02;
        assert!(ByteReader::new(&too_big, "varint").get_varint().is_err());
        // Corrupt counts cannot over-allocate.
        let mut w = ByteWriter::new();
        w.put_varint(u64::MAX);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes, "varint").get_varints().is_err());
    }

    #[test]
    fn fnv_is_the_reference_function() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_F739_67E8);
        // A chained iterator hashes the concatenation.
        assert_eq!(fnv1a64(b"foo".iter().chain(b"bar")), fnv1a64(b"foobar"));
    }

    #[test]
    fn frame_checksum_reference_vectors() {
        // Pinned: the frame checksum is the wire format, so a changed
        // vector means every stored frame stops decoding.
        let vectors = [
            (0usize, 0x42F2_BF91_82FE_A436u64),
            (31, 0x7979_179F_35CB_7A70),
            (32, 0x08A3_FCAC_9ED1_F49F),
            (33, 0x5057_F0DD_15D4_CA2F),
            (100, 0x7E9C_4619_6143_C6A6),
        ];
        for (n, digest) in vectors {
            let bytes: Vec<u8> = (0..n).map(|i| i as u8).collect();
            assert_eq!(frame_checksum(&bytes), digest, "{n} bytes");
        }
    }
}
