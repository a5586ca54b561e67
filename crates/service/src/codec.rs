//! The wire framing: newline-delimited JSON.
//!
//! The serving plane speaks the JSON wire objects of [`crate::daemon`]
//! (`{"check": ...}`, `{"metrics": "dump"}`, `{"cache": "stats"}`, ...),
//! one object per newline-terminated line, request and response alike, on
//! stdin/stdout and TCP through the same code path.  `decode` consumes bytes
//! from the front of a connection's read buffer and yields complete
//! requests; `encode` appends one response line to a write buffer.  A
//! streamed response (per-job batch results) is simply several lines.
//!
//! Framing violations split in two: a line that is not JSON becomes an error
//! *response*, so a serving process survives bad input, while an oversized
//! line produces one final response and closes the connection — there is no
//! trustworthy way to find the next line boundary after it.

use std::io::Write;

use crate::json::{self, Value};

/// The framing a listener speaks.  NDJSON is the only one; the type remains
/// in [`crate::serve_reactor`]'s signature so existing callers keep
/// compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// Newline-delimited JSON (stdin/stdout and raw TCP).
    Ndjson,
}

/// One step of [`decode`].
#[derive(Debug)]
pub(crate) enum Decode {
    /// No complete line in the buffer yet; read more bytes.
    Incomplete,
    /// One complete line was consumed: the parsed wire object, or the
    /// malformed-request message to answer with (the framing survived, the
    /// payload did not).
    Request(Result<Value, String>),
    /// The line is over the size limit.  Holds the final response to flush
    /// before the caller closes the connection.
    Fatal(Vec<u8>),
}

/// Tries to consume one request line from the front of `buf`.  Blank lines
/// are skipped; a line longer than `max_request_bytes` (or an unterminated
/// one that has already grown past it) is [`Decode::Fatal`].
pub(crate) fn decode(buf: &mut Vec<u8>, max_request_bytes: usize) -> Decode {
    loop {
        let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
            if buf.len() > max_request_bytes {
                return oversized(buf.len(), max_request_bytes);
            }
            return Decode::Incomplete;
        };
        let line: Vec<u8> = buf.drain(..=nl).take(nl).collect();
        if nl > max_request_bytes {
            return oversized(nl, max_request_bytes);
        }
        let text = String::from_utf8_lossy(&line);
        if text.trim().is_empty() {
            continue;
        }
        return Decode::Request(json::parse(&text).map_err(|e| format!("malformed request: {e}")));
    }
}

/// Appends `payload` to `out` as one line: the compact JSON and a newline.
pub(crate) fn encode(payload: &Value, out: &mut Vec<u8>) {
    writeln!(out, "{payload}").expect("writing to a Vec cannot fail");
}

/// The final response to an over-limit request line.
fn oversized(got: usize, limit: usize) -> Decode {
    let payload = Value::obj([
        (
            "error",
            Value::Str(format!(
                "request too large: {got} bytes exceeds the {limit}-byte limit"
            )),
        ),
        ("max_request_bytes", Value::Int(limit as i64)),
    ]);
    let mut response = Vec::new();
    encode(&payload, &mut response);
    Decode::Fatal(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: usize = 4 << 20;

    #[test]
    fn decodes_lines_and_skips_blanks() {
        let mut buf = b"\n  \n{\"stats\": true}\n{\"next\"".to_vec();
        match decode(&mut buf, LIMIT) {
            Decode::Request(payload) => assert!(payload.unwrap().get("stats").is_some()),
            other => panic!("expected a request, got {other:?}"),
        }
        assert!(matches!(decode(&mut buf, LIMIT), Decode::Incomplete));
        assert_eq!(buf, b"{\"next\"");
    }

    #[test]
    fn malformed_line_is_recoverable() {
        match decode(&mut b"not json\n".to_vec(), LIMIT) {
            Decode::Request(payload) => {
                let err = payload.unwrap_err();
                assert!(err.starts_with("malformed request:"), "{err}");
            }
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn oversized_line_is_fatal() {
        for bytes in [vec![b'x'; 64], [vec![b'x'; 64], b"\n".to_vec()].concat()] {
            match decode(&mut bytes.clone(), 16) {
                Decode::Fatal(response) => {
                    let text = String::from_utf8(response).unwrap();
                    assert!(
                        text.starts_with("{\"error\":\"request too large: 64 bytes"),
                        "{text}"
                    );
                    assert!(text.ends_with(",\"max_request_bytes\":16}\n"), "{text}");
                }
                other => panic!("expected fatal, got {other:?}"),
            }
        }
    }

    #[test]
    fn encode_writes_one_compact_line() {
        let mut out = b"{}\n".to_vec();
        encode(&Value::obj([("ok", Value::Bool(true))]), &mut out);
        assert_eq!(out, b"{}\n{\"ok\":true}\n");
    }
}
