//! The low-level byte codec of cache-file frames.
//!
//! The workspace is offline (no serde), so frames use a hand-rolled
//! binary format: LEB128 varints for lengths, counts and tags, zigzag
//! varints for signed numbers, and length-prefixed UTF-8 for strings.  The
//! reader is total — every malformed input becomes a [`DecodeError`], never
//! a panic — because a corrupt cache file must degrade to a cold start, not
//! kill the process.

use std::fmt;

/// A decoding failure, with a human-readable description of what was
/// malformed.  Carrying the description (rather than a variant per site)
/// keeps the reader's error paths one-liners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err<T>(message: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError(message.into()))
}

/// An append-only byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    /// The bytes written so far (the frame layer patches headers in place).
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte (tags, sorts, booleans).
    pub fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// An unsigned LEB128 varint.
    pub fn varint(&mut self, mut n: u64) {
        loop {
            let byte = (n & 0x7f) as u8;
            n >>= 7;
            if n == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// A length (usize) as a varint.
    pub fn write_len(&mut self, n: usize) {
        self.varint(n as u64);
    }

    /// A signed number, zigzag-encoded then varint-encoded.
    pub fn zigzag(&mut self, n: i64) {
        self.varint(((n << 1) ^ (n >> 63)) as u64);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.write_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A bounds-checked byte source over a borrowed buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        match self.buf.get(self.pos) {
            Some(b) => {
                self.pos += 1;
                Ok(*b)
            }
            None => err("unexpected end of input"),
        }
    }

    /// An unsigned LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut n: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = (byte & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return err("varint overflows u64");
            }
            n |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(n);
            }
        }
        err("varint longer than 10 bytes")
    }

    /// A length, bounded by the bytes actually remaining so that a corrupt
    /// count can never trigger a huge allocation.
    pub fn read_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return err(format!(
                "length {n} exceeds the {remaining} bytes remaining"
            ));
        }
        Ok(n as usize)
    }

    /// A zigzag-encoded signed number.
    pub fn zigzag(&mut self) -> Result<i64, DecodeError> {
        let n = self.varint()?;
        Ok(((n >> 1) as i64) ^ -((n & 1) as i64))
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.read_len()?;
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => err("string is not valid UTF-8"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_across_magnitudes() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut w = Writer::new();
        for v in values {
            w.varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in values {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn zigzag_roundtrip_with_negatives() {
        let values = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        let mut w = Writer::new();
        for v in values {
            w.zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in values {
            assert_eq!(r.zigzag().unwrap(), v);
        }
    }

    #[test]
    fn strings_roundtrip_and_reject_bad_utf8() {
        let mut w = Writer::new();
        w.str("∀ ∆. Φₐ ⟹ Φ");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str().unwrap(), "∀ ∆. Φₐ ⟹ Φ");

        let bad = [2u8, 0xff, 0xfe];
        assert!(Reader::new(&bad).str().is_err());
    }

    #[test]
    fn truncation_and_oversized_lengths_are_errors_not_panics() {
        let mut w = Writer::new();
        w.str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.str().is_err(), "cut at {cut} must fail cleanly");
        }
        // A length claiming more bytes than remain is rejected up front.
        let mut w = Writer::new();
        w.varint(u64::MAX);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).read_len().is_err());
    }
}
