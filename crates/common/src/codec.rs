//! A small fixed binary codec for row payloads and functor arguments.
//!
//! TPC-C rows and user-defined f-arguments are stored as opaque byte blobs in
//! the multi-version store. This module provides a deliberately simple,
//! dependency-free writer/reader pair with length-prefixed strings and
//! fixed-width integers (big endian). It favors debuggability over density.
//!
//! # Examples
//!
//! ```
//! use aloha_common::codec::{Writer, Reader};
//! let mut w = Writer::new();
//! w.put_u32(7).put_str("abc").put_i64(-5);
//! let buf = w.into_bytes();
//! let mut r = Reader::new(&buf);
//! assert_eq!(r.get_u32().unwrap(), 7);
//! assert_eq!(r.get_str().unwrap(), "abc");
//! assert_eq!(r.get_i64().unwrap(), -5);
//! assert!(r.is_empty());
//! ```

use crate::error::{Error, Result};
use bytes::Bytes;

/// The smallest encoding of a length-prefixed byte field
/// ([`Writer::put_bytes`]): its `u32` length prefix alone.
pub const LEN_PREFIX_BYTES: usize = 4;

/// Incrementally builds a binary payload.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends an unsigned 8-bit integer.
    pub fn put_u8(&mut self, v: u8) -> &mut Writer {
        self.buf.push(v);
        self
    }

    /// Appends an unsigned 16-bit integer (big endian).
    pub fn put_u16(&mut self, v: u16) -> &mut Writer {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an unsigned 32-bit integer (big endian).
    pub fn put_u32(&mut self, v: u32) -> &mut Writer {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an unsigned 64-bit integer (big endian).
    pub fn put_u64(&mut self, v: u64) -> &mut Writer {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a signed 64-bit integer (big endian).
    pub fn put_i64(&mut self, v: i64) -> &mut Writer {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a 64-bit float (big-endian IEEE-754 bits).
    pub fn put_f64(&mut self, v: f64) -> &mut Writer {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-prefixed UTF-8 string (max 64 KiB).
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds 64 KiB; row fields in this workspace are
    /// all short.
    pub fn put_str(&mut self, s: &str) -> &mut Writer {
        let len = u16::try_from(s.len()).expect("string field longer than 64 KiB");
        self.put_u16(len);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends a length-prefixed byte slice (max 4 GiB).
    pub fn put_bytes(&mut self, b: &[u8]) -> &mut Writer {
        let len = u32::try_from(b.len()).expect("byte field longer than 4 GiB");
        self.put_u32(len);
        self.buf.extend_from_slice(b);
        self
    }

    /// Consumes the writer, returning the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequentially decodes a payload produced by [`Writer`].
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    /// When the payload is a view of a shared [`Bytes`] buffer (a received
    /// wire frame), [`Reader::get_bytes_shared`] can lend out sub-windows of
    /// that buffer instead of copying each field.
    backing: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Creates a reader over a payload.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, backing: None }
    }

    /// Creates a reader over a shared buffer; byte fields decoded with
    /// [`Reader::get_bytes_shared`] are zero-copy windows of `bytes`.
    pub fn shared(bytes: &'a Bytes) -> Reader<'a> {
        Reader {
            buf: bytes.as_ref(),
            backing: Some(bytes),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(Error::Codec(format!(
                "truncated payload: wanted {n} bytes, {} remain",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads an unsigned 8-bit integer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the payload is exhausted.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads an unsigned 16-bit integer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the payload is exhausted.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads an unsigned 32-bit integer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the payload is exhausted.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an unsigned 64-bit integer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the payload is exhausted.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a signed 64-bit integer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the payload is exhausted.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a 64-bit float.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the payload is exhausted.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the payload is exhausted or the bytes are
    /// not valid UTF-8.
    pub fn get_str(&mut self) -> Result<&'a str> {
        let len = self.get_u16()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|e| Error::Codec(format!("invalid utf-8 string: {e}")))
    }

    /// Reads a length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the payload is exhausted.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed byte field as owned [`Bytes`]. When the
    /// reader was built with [`Reader::shared`], this is a zero-copy window
    /// of the backing buffer (one refcount bump, no allocation); otherwise
    /// it copies the field.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the payload is exhausted.
    pub fn get_bytes_shared(&mut self) -> Result<Bytes> {
        let raw = self.get_bytes()?;
        Ok(match self.backing {
            Some(backing) => backing.slice_ref(raw),
            None => Bytes::copy_from_slice(raw),
        })
    }

    /// A preallocation capacity for `count` elements (a count read off the
    /// input) whose encodings take at least `min_elem_bytes` each: never
    /// more elements than the remaining bytes could hold. Decoders size
    /// their vectors with this rather than with the raw count, so a forged
    /// count cannot make them allocate beyond the input's size.
    pub fn capacity_for(&self, count: u32, min_elem_bytes: usize) -> usize {
        (count as usize).min(self.remaining() / min_elem_bytes.max(1))
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether the payload has been fully consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_fields_round_trip() {
        let mut w = Writer::new();
        w.put_u8(9)
            .put_u16(65535)
            .put_u32(1 << 30)
            .put_u64(u64::MAX)
            .put_i64(i64::MIN)
            .put_f64(2.5)
            .put_str("hello, aloha")
            .put_bytes(&[0, 1, 2]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 9);
        assert_eq!(r.get_u16().unwrap(), 65535);
        assert_eq!(r.get_u32().unwrap(), 1 << 30);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), i64::MIN);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert_eq!(r.get_str().unwrap(), "hello, aloha");
        assert_eq!(r.get_bytes().unwrap(), &[0, 1, 2]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_read_is_an_error_not_a_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
    }

    #[test]
    fn truncated_string_reports_codec_error() {
        let mut w = Writer::new();
        w.put_u16(10); // claims 10 bytes follow; none do
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let err = r.get_str().unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn invalid_utf8_reports_codec_error() {
        let mut w = Writer::new();
        w.put_u16(1).put_u8(0xff);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn empty_string_and_bytes_are_fine() {
        let mut w = Writer::new();
        w.put_str("").put_bytes(&[]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_str().unwrap(), "");
        assert_eq!(r.get_bytes().unwrap(), &[] as &[u8]);
    }

    #[test]
    fn shared_reader_lends_windows_of_the_backing_buffer() {
        let mut w = Writer::new();
        w.put_u32(7).put_bytes(b"zero-copy payload").put_u8(3);
        let backing = Bytes::from(w.into_bytes());
        let mut r = Reader::shared(&backing);
        assert_eq!(r.get_u32().unwrap(), 7);
        let field = r.get_bytes_shared().unwrap();
        assert_eq!(field.as_ref(), b"zero-copy payload");
        assert!(field.shares_storage_with(&backing));
        assert_eq!(r.get_u8().unwrap(), 3);
        assert!(r.is_empty());
    }

    #[test]
    fn unshared_reader_falls_back_to_copying() {
        let mut w = Writer::new();
        w.put_bytes(b"copied");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let field = r.get_bytes_shared().unwrap();
        assert_eq!(field.as_ref(), b"copied");
    }

    #[test]
    fn reader_tracks_remaining() {
        let mut w = Writer::new();
        w.put_u64(1).put_u64(2);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.remaining(), 16);
        r.get_u64().unwrap();
        assert_eq!(r.remaining(), 8);
    }
}
