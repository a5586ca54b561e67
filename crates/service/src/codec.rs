//! Wire codecs: how request/response JSON objects are framed on a byte
//! stream.
//!
//! The serving plane speaks one *content* protocol — the JSON wire objects
//! of [`crate::daemon`] (`{"check": ...}`, `{"metrics": "dump"}`,
//! `{"cache": "stats"}`, ...) — over two *framings*:
//!
//! * [`NdjsonCodec`] — one JSON object per newline-delimited line, request
//!   and response alike.  This is the original daemon protocol, now usable
//!   over stdin/stdout and TCP through the same code path.
//! * [`HttpCodec`] — a hand-rolled HTTP/1.1 server framing.  `POST /check`
//!   carries any request object as its JSON body; `GET /metrics` and
//!   `GET /cache/stats` are aliases for the `{"metrics": "dump"}` and
//!   `{"cache": "stats"}` wire objects; `POST /shutdown` aliases
//!   `{"shutdown": true}`.  Response bodies are the *byte-identical* JSON
//!   lines the NDJSON plane answers (trailing newline included) — the
//!   conformance suite holds the two planes to that.
//!
//! A codec is a small state machine: `decode` consumes bytes from the front
//! of a connection's read buffer and yields complete requests; the `encode_*`
//! methods append response frames to a write buffer.  Streaming responses
//! (per-job batch results) map to NDJSON lines on one plane and HTTP chunked
//! transfer encoding on the other.
//!
//! Framing violations split in two: recoverable ones (a line that is not
//! JSON) become error *responses* so a serving process survives bad input,
//! while protocol-fatal ones (an oversized request, a malformed HTTP
//! preamble) produce one final response and close the connection — there is
//! no trustworthy way to find the next request boundary after them.

use crate::json::{self, Value};

/// Which framing a connection speaks (used for per-codec metrics names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// Newline-delimited JSON (stdin/stdout and raw TCP).
    Ndjson,
    /// HTTP/1.1 with JSON bodies.
    Http,
    /// The daemon-to-daemon replication plane: NDJSON framing, but strict
    /// request/response alternation.  Replication applies must land in the
    /// order the sending session shipped them *per connection* — letting the
    /// worker pool interleave a connection's applies would turn every
    /// in-order stream into a reorder storm — so this codec is the NDJSON
    /// state machine with the HTTP plane's half-duplex discipline.
    Replica,
}

impl CodecKind {
    /// Short lowercase label, used in metric names
    /// (`serve.request_ns.ndjson`) and BENCH_service.json keys.
    pub fn label(self) -> &'static str {
        match self {
            CodecKind::Ndjson => "ndjson",
            CodecKind::Http => "http",
            CodecKind::Replica => "replica",
        }
    }
}

/// Byte-size limits a codec enforces while decoding.
#[derive(Debug, Clone, Copy)]
pub struct CodecLimits {
    /// Longest accepted request frame: NDJSON line length, HTTP body length.
    pub max_request_bytes: usize,
    /// Longest accepted HTTP preamble (request line + headers).
    pub max_head_bytes: usize,
}

impl Default for CodecLimits {
    fn default() -> Self {
        CodecLimits {
            max_request_bytes: 4 << 20,
            max_head_bytes: 16 << 10,
        }
    }
}

/// One step of [`Codec::decode`].
#[derive(Debug)]
pub enum Decode {
    /// No complete request in the buffer yet; read more bytes.
    Incomplete,
    /// One complete request was consumed from the buffer.
    Request(DecodedRequest),
    /// The stream is unrecoverable (oversized frame, malformed framing).
    /// The codec already encoded a final response for the peer; the caller
    /// writes it and closes the connection.
    Fatal {
        /// Final bytes to flush before closing.
        response: Vec<u8>,
        /// Why the connection is being closed (for logs/counters).
        reason: String,
    },
}

/// A request decoded off the wire.
#[derive(Debug)]
pub struct DecodedRequest {
    /// The parsed wire object, or the malformed-request message to answer
    /// with (recoverable: the framing survived, the payload did not).
    pub payload: Result<Value, String>,
}

/// A wire framing for the daemon's JSON protocol.
///
/// Implementations are per-connection state machines (the HTTP codec
/// remembers the in-flight request's keep-alive disposition between
/// `decode` and `encode_response`), so every connection owns its own boxed
/// codec instance.
pub trait Codec: Send {
    /// Which framing this is.
    fn kind(&self) -> CodecKind;

    /// Tries to consume one complete request from the front of `buf`.
    fn decode(&mut self, buf: &mut Vec<u8>) -> Decode;

    /// Appends one complete (non-streamed) response frame to `out`.
    fn encode_response(&mut self, payload: &Value, out: &mut Vec<u8>);

    /// Begins a streamed response (headers on HTTP, nothing on NDJSON).
    fn encode_stream_begin(&mut self, out: &mut Vec<u8>);

    /// Appends one streamed item.
    fn encode_stream_item(&mut self, payload: &Value, out: &mut Vec<u8>);

    /// Appends the terminal item of a stream and closes the stream framing.
    fn encode_stream_end(&mut self, payload: &Value, out: &mut Vec<u8>);

    /// Whether the codec requires strict request/response alternation.
    /// HTTP/1.1 does (responses must land in request order, so the reactor
    /// decodes the next request only after the current one is answered);
    /// NDJSON pipelines freely and relies on `id` echoing.
    fn half_duplex(&self) -> bool;

    /// Whether the peer asked to close the connection after the current
    /// response (`Connection: close`); always `false` for NDJSON.
    fn close_after_response(&self) -> bool {
        false
    }
}

/// The JSON content of a response as one NDJSON line (trailing newline
/// included).  Both codecs answer exactly these bytes — HTTP wraps them in
/// its framing without touching them, which is what makes the two planes
/// byte-identical in content.
pub fn content_line(payload: &Value) -> Vec<u8> {
    let mut line = payload.to_string().into_bytes();
    line.push(b'\n');
    line
}

// ---------------------------------------------------------------------------
// NDJSON
// ---------------------------------------------------------------------------

/// Newline-delimited JSON framing: one request per line, one response (or
/// stream item) per line.
#[derive(Debug)]
pub struct NdjsonCodec {
    limits: CodecLimits,
}

impl NdjsonCodec {
    pub fn new(limits: CodecLimits) -> NdjsonCodec {
        NdjsonCodec { limits }
    }
}

impl Default for NdjsonCodec {
    fn default() -> Self {
        NdjsonCodec::new(CodecLimits::default())
    }
}

impl Codec for NdjsonCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Ndjson
    }

    fn decode(&mut self, buf: &mut Vec<u8>) -> Decode {
        loop {
            let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
                if buf.len() > self.limits.max_request_bytes {
                    let payload = oversized_payload(buf.len(), self.limits.max_request_bytes);
                    return Decode::Fatal {
                        response: content_line(&payload),
                        reason: "oversized request line".to_string(),
                    };
                }
                return Decode::Incomplete;
            };
            let line: Vec<u8> = buf.drain(..=nl).take(nl).collect();
            if nl > self.limits.max_request_bytes {
                let payload = oversized_payload(nl, self.limits.max_request_bytes);
                return Decode::Fatal {
                    response: content_line(&payload),
                    reason: "oversized request line".to_string(),
                };
            }
            let text = String::from_utf8_lossy(&line);
            if text.trim().is_empty() {
                continue; // blank lines are ignored
            }
            let payload = json::parse(&text).map_err(|e| format!("malformed request: {e}"));
            return Decode::Request(DecodedRequest { payload });
        }
    }

    fn encode_response(&mut self, payload: &Value, out: &mut Vec<u8>) {
        out.extend_from_slice(&content_line(payload));
    }

    fn encode_stream_begin(&mut self, _out: &mut Vec<u8>) {}

    fn encode_stream_item(&mut self, payload: &Value, out: &mut Vec<u8>) {
        out.extend_from_slice(&content_line(payload));
    }

    fn encode_stream_end(&mut self, payload: &Value, out: &mut Vec<u8>) {
        out.extend_from_slice(&content_line(payload));
    }

    fn half_duplex(&self) -> bool {
        false
    }
}

/// The replication-plane framing: NDJSON lines with half-duplex discipline
/// (see [`CodecKind::Replica`]).
#[derive(Debug)]
pub struct ReplicaCodec {
    inner: NdjsonCodec,
}

impl ReplicaCodec {
    pub fn new(limits: CodecLimits) -> ReplicaCodec {
        ReplicaCodec {
            inner: NdjsonCodec::new(limits),
        }
    }
}

impl Codec for ReplicaCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Replica
    }

    fn decode(&mut self, buf: &mut Vec<u8>) -> Decode {
        self.inner.decode(buf)
    }

    fn encode_response(&mut self, payload: &Value, out: &mut Vec<u8>) {
        self.inner.encode_response(payload, out);
    }

    fn encode_stream_begin(&mut self, out: &mut Vec<u8>) {
        self.inner.encode_stream_begin(out);
    }

    fn encode_stream_item(&mut self, payload: &Value, out: &mut Vec<u8>) {
        self.inner.encode_stream_item(payload, out);
    }

    fn encode_stream_end(&mut self, payload: &Value, out: &mut Vec<u8>) {
        self.inner.encode_stream_end(payload, out);
    }

    fn half_duplex(&self) -> bool {
        true
    }
}

/// The error payload for an over-limit request, shared by both codecs so the
/// planes answer identical content.
fn oversized_payload(got: usize, limit: usize) -> Value {
    Value::obj([
        (
            "error",
            Value::Str(format!(
                "request too large: {got} bytes exceeds the {limit}-byte limit"
            )),
        ),
        ("max_request_bytes", Value::Int(limit as i64)),
    ])
}

// ---------------------------------------------------------------------------
// HTTP/1.1
// ---------------------------------------------------------------------------

/// What the HTTP state machine is waiting for.
#[derive(Debug)]
enum HttpState {
    /// Reading the request line + headers (up to the blank line).
    Head,
    /// Reading a `Content-Length` body for the parsed head.
    Body { head: HttpHead, len: usize },
}

/// The parsed preamble of one HTTP request.
#[derive(Debug)]
struct HttpHead {
    method: String,
    path: String,
    content_length: usize,
    keep_alive: bool,
}

/// Hand-rolled HTTP/1.1 framing for the daemon protocol.
///
/// Routes:
///
/// | request                 | wire object                      |
/// |-------------------------|----------------------------------|
/// | `POST /check` (body)    | the body itself (`{"check": …}`, `{"batch": …}`, any daemon request) |
/// | `GET /metrics`          | `{"metrics": "dump"}`            |
/// | `GET /cache/stats`      | `{"cache": "stats"}`             |
/// | `POST /shutdown`        | `{"shutdown": true}`             |
///
/// Unknown routes answer 404 with an error object; content errors map onto
/// HTTP status codes by inspecting the response payload (`error: deadline` →
/// 504, `error: backpressure` → 503, other errors → 400) while the body
/// stays the exact NDJSON content line.
pub struct HttpCodec {
    limits: CodecLimits,
    state: HttpState,
    /// Keep-alive disposition of the request currently being answered.
    respond_keep_alive: bool,
    /// Status override recorded at decode time (404 for unknown routes,
    /// 405 for unsupported methods); otherwise derived from the payload.
    forced_status: Option<(u16, &'static str)>,
}

impl HttpCodec {
    pub fn new(limits: CodecLimits) -> HttpCodec {
        HttpCodec {
            limits,
            state: HttpState::Head,
            respond_keep_alive: true,
            forced_status: None,
        }
    }

    /// Status line for a response payload: 200 unless the payload is an
    /// error object (or the route already forced a status).
    fn status_for(&self, payload: &Value) -> (u16, &'static str) {
        if let Some(forced) = self.forced_status {
            return forced;
        }
        // A degraded health report is still a well-formed answer, but load
        // balancers route on the status line: degraded → 503.
        if payload.get("health").and_then(Value::as_str) == Some("degraded") {
            return (503, "Service Unavailable");
        }
        match payload.get("error").and_then(Value::as_str) {
            None => (200, "OK"),
            Some("deadline") => (504, "Gateway Timeout"),
            Some("backpressure") => (503, "Service Unavailable"),
            Some(e) if e.starts_with("request too large") => (413, "Content Too Large"),
            Some(_) => (400, "Bad Request"),
        }
    }

    fn head(
        &self,
        out: &mut Vec<u8>,
        status: (u16, &'static str),
        content_length: Option<usize>,
        chunked: bool,
    ) {
        out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", status.0, status.1).as_bytes());
        out.extend_from_slice(b"Content-Type: application/x-ndjson\r\n");
        if let Some(len) = content_length {
            out.extend_from_slice(format!("Content-Length: {len}\r\n").as_bytes());
        }
        if chunked {
            out.extend_from_slice(b"Transfer-Encoding: chunked\r\n");
        }
        if self.respond_keep_alive {
            out.extend_from_slice(b"Connection: keep-alive\r\n");
        } else {
            out.extend_from_slice(b"Connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
    }

    fn chunk(out: &mut Vec<u8>, data: &[u8]) {
        out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
        out.extend_from_slice(data);
        out.extend_from_slice(b"\r\n");
    }

    /// Encodes a final error response and returns the fatal decode outcome.
    fn fatal(&mut self, status: (u16, &'static str), payload: Value, reason: &str) -> Decode {
        self.respond_keep_alive = false;
        self.forced_status = Some(status);
        let mut response = Vec::new();
        self.encode_response(&payload, &mut response);
        Decode::Fatal {
            response,
            reason: reason.to_string(),
        }
    }

    /// Parses the preamble in `head` (which excludes the terminating blank
    /// line).  Errors are returned as (status, message).
    fn parse_head(&self, head: &str) -> Result<HttpHead, (u16, &'static str, String)> {
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err((
                400,
                "Bad Request",
                format!("malformed request line: `{request_line}`"),
            ));
        };
        if !version.starts_with("HTTP/1.") {
            return Err((
                505,
                "HTTP Version Not Supported",
                format!("unsupported version `{version}`"),
            ));
        }
        let mut content_length = 0usize;
        // HTTP/1.1 defaults to keep-alive; HTTP/1.0 defaults to close.
        let mut keep_alive = version != "HTTP/1.0";
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue; // tolerate malformed header lines
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse::<usize>()
                    .map_err(|_| (400, "Bad Request", format!("bad Content-Length `{value}`")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Chunked *requests* are not worth the state machine: the
                // clients this plane serves send sized bodies.
                return Err((
                    411,
                    "Length Required",
                    "chunked request bodies are not supported; send Content-Length".to_string(),
                ));
            }
        }
        Ok(HttpHead {
            method: method.to_string(),
            path: path.to_string(),
            content_length,
            keep_alive,
        })
    }

    /// Maps a parsed head + body onto the daemon's wire object.
    fn route(&mut self, head: &HttpHead, body: &[u8]) -> Result<Value, String> {
        match (head.method.as_str(), head.path.as_str()) {
            ("POST", "/check") => {
                let text = String::from_utf8_lossy(body);
                json::parse(&text).map_err(|e| format!("malformed request: {e}"))
            }
            ("GET", "/metrics") => Ok(Value::obj([("metrics", Value::Str("dump".to_string()))])),
            ("GET", "/cache/stats") => Ok(Value::obj([("cache", Value::Str("stats".to_string()))])),
            ("GET", "/healthz") => Ok(Value::obj([("health", Value::Bool(true))])),
            ("POST", "/shutdown") => Ok(Value::obj([("shutdown", Value::Bool(true))])),
            (method, path) => {
                self.forced_status = Some(match method {
                    "GET" | "POST" => (404, "Not Found"),
                    _ => (405, "Method Not Allowed"),
                });
                Err(format!(
                    "unknown endpoint {method} {path}: expected POST /check, GET /metrics, \
                     GET /cache/stats, GET /healthz or POST /shutdown"
                ))
            }
        }
    }
}

impl Codec for HttpCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Http
    }

    fn decode(&mut self, buf: &mut Vec<u8>) -> Decode {
        loop {
            match &self.state {
                HttpState::Head => {
                    let Some(end) = find_head_end(buf) else {
                        if buf.len() > self.limits.max_head_bytes {
                            return self.fatal(
                                (431, "Request Header Fields Too Large"),
                                Value::obj([(
                                    "error",
                                    Value::Str(format!(
                                        "request head exceeds the {}-byte limit",
                                        self.limits.max_head_bytes
                                    )),
                                )]),
                                "oversized request head",
                            );
                        }
                        return Decode::Incomplete;
                    };
                    // The limit also binds when the whole head arrives in a
                    // single read — not just while it is accumulating.
                    if end > self.limits.max_head_bytes {
                        return self.fatal(
                            (431, "Request Header Fields Too Large"),
                            Value::obj([(
                                "error",
                                Value::Str(format!(
                                    "request head exceeds the {}-byte limit",
                                    self.limits.max_head_bytes
                                )),
                            )]),
                            "oversized request head",
                        );
                    }
                    let head_bytes: Vec<u8> = buf.drain(..end + 4).take(end).collect();
                    let head_text = String::from_utf8_lossy(&head_bytes).into_owned();
                    match self.parse_head(&head_text) {
                        Ok(head) => {
                            if head.content_length > self.limits.max_request_bytes {
                                return self.fatal(
                                    (413, "Content Too Large"),
                                    oversized_payload(
                                        head.content_length,
                                        self.limits.max_request_bytes,
                                    ),
                                    "oversized request body",
                                );
                            }
                            let len = head.content_length;
                            self.state = HttpState::Body { head, len };
                        }
                        Err((code, text, message)) => {
                            return self.fatal(
                                (code, text),
                                Value::obj([("error", Value::Str(message))]),
                                "malformed http preamble",
                            );
                        }
                    }
                }
                HttpState::Body { len, .. } => {
                    let len = *len;
                    if buf.len() < len {
                        return Decode::Incomplete;
                    }
                    let body: Vec<u8> = buf.drain(..len).collect();
                    let HttpState::Body { head, .. } =
                        std::mem::replace(&mut self.state, HttpState::Head)
                    else {
                        unreachable!("state checked above");
                    };
                    self.respond_keep_alive = head.keep_alive;
                    self.forced_status = None;
                    let payload = self.route(&head, &body);
                    return Decode::Request(DecodedRequest { payload });
                }
            }
        }
    }

    fn encode_response(&mut self, payload: &Value, out: &mut Vec<u8>) {
        let body = content_line(payload);
        let status = self.status_for(payload);
        self.head(out, status, Some(body.len()), false);
        out.extend_from_slice(&body);
        self.forced_status = None;
    }

    fn encode_stream_begin(&mut self, out: &mut Vec<u8>) {
        let status = self.forced_status.unwrap_or((200, "OK"));
        self.head(out, status, None, true);
        self.forced_status = None;
    }

    fn encode_stream_item(&mut self, payload: &Value, out: &mut Vec<u8>) {
        Self::chunk(out, &content_line(payload));
    }

    fn encode_stream_end(&mut self, payload: &Value, out: &mut Vec<u8>) {
        Self::chunk(out, &content_line(payload));
        out.extend_from_slice(b"0\r\n\r\n");
    }

    fn half_duplex(&self) -> bool {
        true
    }

    fn close_after_response(&self) -> bool {
        !self.respond_keep_alive
    }
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Builds a codec of the given kind with the given limits.
pub fn make_codec(kind: CodecKind, limits: CodecLimits) -> Box<dyn Codec> {
    match kind {
        CodecKind::Ndjson => Box::new(NdjsonCodec::new(limits)),
        CodecKind::Http => Box::new(HttpCodec::new(limits)),
        CodecKind::Replica => Box::new(ReplicaCodec::new(limits)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_one(codec: &mut dyn Codec, bytes: &[u8]) -> Decode {
        let mut buf = bytes.to_vec();
        codec.decode(&mut buf)
    }

    #[test]
    fn ndjson_decodes_lines_and_skips_blanks() {
        let mut codec = NdjsonCodec::default();
        let mut buf = b"\n  \n{\"stats\": true}\n{\"next\"".to_vec();
        match codec.decode(&mut buf) {
            Decode::Request(r) => {
                assert!(r.payload.unwrap().get("stats").is_some());
            }
            other => panic!("expected a request, got {other:?}"),
        }
        assert!(matches!(codec.decode(&mut buf), Decode::Incomplete));
        assert_eq!(buf, b"{\"next\"");
    }

    #[test]
    fn ndjson_malformed_line_is_recoverable() {
        let mut codec = NdjsonCodec::default();
        match decode_one(&mut codec, b"not json\n") {
            Decode::Request(r) => {
                let err = r.payload.unwrap_err();
                assert!(err.starts_with("malformed request:"), "{err}");
            }
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn ndjson_oversized_line_is_fatal() {
        let mut codec = NdjsonCodec::new(CodecLimits {
            max_request_bytes: 16,
            ..CodecLimits::default()
        });
        let long = vec![b'x'; 64];
        match decode_one(&mut codec, &long) {
            Decode::Fatal { response, .. } => {
                let text = String::from_utf8(response).unwrap();
                assert!(text.contains("request too large"), "{text}");
            }
            other => panic!("expected fatal, got {other:?}"),
        }
    }

    #[test]
    fn http_routes_and_body_is_ndjson_content() {
        let mut codec = HttpCodec::new(CodecLimits::default());
        let body = r#"{"stats": true}"#;
        let req = format!(
            "POST /check HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        match decode_one(&mut codec, req.as_bytes()) {
            Decode::Request(r) => {
                assert!(r.payload.unwrap().get("stats").is_some());
            }
            other => panic!("expected request, got {other:?}"),
        }
        let payload = Value::obj([("ok", Value::Bool(true))]);
        let mut out = Vec::new();
        codec.encode_response(&payload, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}\n"), "{text}");
        // 12 = the 11 JSON bytes plus the trailing newline shared with the
        // NDJSON plane (the body IS the NDJSON line).
        assert!(text.contains("Content-Length: 12\r\n"), "{text}");
    }

    #[test]
    fn http_get_aliases_wire_objects() {
        let mut codec = HttpCodec::new(CodecLimits::default());
        let mut buf = b"GET /metrics HTTP/1.1\r\n\r\nGET /cache/stats HTTP/1.1\r\n\r\n".to_vec();
        let Decode::Request(r) = codec.decode(&mut buf) else {
            panic!("expected request");
        };
        assert_eq!(
            r.payload.unwrap().get("metrics").and_then(Value::as_str),
            Some("dump")
        );
        let Decode::Request(r) = codec.decode(&mut buf) else {
            panic!("expected second pipelined request");
        };
        assert_eq!(
            r.payload.unwrap().get("cache").and_then(Value::as_str),
            Some("stats")
        );
    }

    #[test]
    fn http_unknown_route_is_404_but_recoverable() {
        let mut codec = HttpCodec::new(CodecLimits::default());
        match decode_one(&mut codec, b"GET /nope HTTP/1.1\r\n\r\n") {
            Decode::Request(r) => {
                let err = r.payload.unwrap_err();
                assert!(err.contains("unknown endpoint GET /nope"), "{err}");
                let mut out = Vec::new();
                codec.encode_response(&Value::obj([("error", Value::Str(err))]), &mut out);
                assert!(String::from_utf8(out).unwrap().starts_with("HTTP/1.1 404 "));
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn http_error_payloads_map_to_statuses() {
        let mut codec = HttpCodec::new(CodecLimits::default());
        let cases = [
            ("deadline", "HTTP/1.1 504 "),
            ("backpressure", "HTTP/1.1 503 "),
            ("parse error: nope", "HTTP/1.1 400 "),
        ];
        for (error, expected) in cases {
            let mut out = Vec::new();
            codec.encode_response(
                &Value::obj([("error", Value::Str(error.to_string()))]),
                &mut out,
            );
            let text = String::from_utf8(out).unwrap();
            assert!(text.starts_with(expected), "{error}: {text}");
        }
    }

    #[test]
    fn http_oversized_body_is_fatal_413() {
        let mut codec = HttpCodec::new(CodecLimits {
            max_request_bytes: 8,
            ..CodecLimits::default()
        });
        match decode_one(
            &mut codec,
            b"POST /check HTTP/1.1\r\nContent-Length: 4096\r\n\r\n",
        ) {
            Decode::Fatal { response, .. } => {
                let text = String::from_utf8(response).unwrap();
                assert!(text.starts_with("HTTP/1.1 413 "), "{text}");
                assert!(text.contains("Connection: close"), "{text}");
            }
            other => panic!("expected fatal, got {other:?}"),
        }
    }

    #[test]
    fn http_oversized_head_is_fatal_431_even_when_complete() {
        let mut codec = HttpCodec::new(CodecLimits {
            max_head_bytes: 32,
            ..CodecLimits::default()
        });
        // The entire (oversized) head arrives in one read, so the
        // accumulation check never fires — the post-parse check must.
        let mut request = b"GET /metrics HTTP/1.1\r\n".to_vec();
        request.extend_from_slice(format!("X-Junk: {}\r\n\r\n", "j".repeat(64)).as_bytes());
        match decode_one(&mut codec, &request) {
            Decode::Fatal { response, .. } => {
                let text = String::from_utf8(response).unwrap();
                assert!(text.starts_with("HTTP/1.1 431 "), "{text}");
            }
            other => panic!("expected fatal, got {other:?}"),
        }
    }

    #[test]
    fn http_chunked_stream_framing() {
        let mut codec = HttpCodec::new(CodecLimits::default());
        let mut out = Vec::new();
        codec.encode_stream_begin(&mut out);
        codec.encode_stream_item(&Value::obj([("seq", Value::Int(0))]), &mut out);
        codec.encode_stream_end(&Value::obj([("done", Value::Bool(true))]), &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(text.contains("\r\n{\"seq\":0}\n\r\n"), "{text}");
        assert!(text.ends_with("{\"done\":true}\n\r\n0\r\n\r\n"), "{text}");
    }

    #[test]
    fn http_connection_close_is_honored() {
        let mut codec = HttpCodec::new(CodecLimits::default());
        let mut buf =
            b"POST /check HTTP/1.1\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}".to_vec();
        let Decode::Request(_) = codec.decode(&mut buf) else {
            panic!("expected request");
        };
        assert!(codec.close_after_response());
        let mut out = Vec::new();
        codec.encode_response(&Value::obj([("ok", Value::Bool(true))]), &mut out);
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: close"));
    }
}
