//! The campaign wire protocol: length-prefixed JSON frames.
//!
//! One frame = the payload's byte length as ASCII decimal digits, a
//! newline, then exactly that many bytes of UTF-8 JSON. The length line
//! makes framing trivial for any client (read digits to `\n`, then read N
//! bytes) while keeping the stream inspectable with `nc`/`socat`. Frames
//! above [`MAX_FRAME_BYTES`] are rejected before allocation.
//!
//! Requests are JSON objects with an `"op"` discriminator; responses are
//! `{"ok": true, ...}` or `{"ok": false, "error": {"code", "message"}}`.
//! The full catalogue lives in `DESIGN.md` §4; [`Request`] is its
//! authoritative in-code form.
//!
//! Checkpoint frames (RLCP bytes) travel inside JSON as lowercase hex
//! strings — a 2× size tax that keeps the protocol single-format, and
//! checkpoints are small (tens of KiB).

use relock_trace::json::Value;
use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload. Large enough for any model a
/// test suite ships over `submit`, small enough to bound a malicious
/// length line.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The transport failed.
    Io(io::Error),
    /// The peer sent bytes that violate the framing or request schema.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, doc: &Value) -> io::Result<()> {
    let payload = doc.to_compact();
    writeln!(w, "{}", payload.len())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF before any header byte.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Value>, ProtoError> {
    // Length line: ASCII digits terminated by '\n'.
    let mut len: usize = 0;
    let mut saw_digit = false;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) if !saw_digit => return Ok(None),
            Ok(0) => return Err(ProtoError::Malformed("EOF inside length line".into())),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
        match byte[0] {
            b'\n' if saw_digit => break,
            d @ b'0'..=b'9' => {
                saw_digit = true;
                len = len
                    .checked_mul(10)
                    .and_then(|l| l.checked_add((d - b'0') as usize))
                    .filter(|&l| l <= MAX_FRAME_BYTES)
                    .ok_or_else(|| {
                        ProtoError::Malformed(format!("frame length exceeds {MAX_FRAME_BYTES}"))
                    })?;
            }
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unexpected byte 0x{other:02x} in length line"
                )))
            }
        }
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|_| ProtoError::Malformed("payload is not UTF-8".into()))?;
    Value::parse(&text)
        .map(Some)
        .map_err(|e| ProtoError::Malformed(e.to_string()))
}

/// A decoded client request. `Request::to_value` and
/// `Request::from_value` are inverse; the round trip is pinned by tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answers `{"ok": true}`.
    Ping,
    /// Start a campaign against the model stored at `model_path` (a
    /// `LockedModel::save` file readable by the daemon).
    Submit {
        /// Daemon-side path of the serialized model.
        model_path: String,
        /// Billing tenant.
        tenant: String,
        /// Attack seed.
        seed: u64,
        /// Fair-share weight.
        weight: u64,
        /// Underlying-query budget.
        budget: Option<u64>,
        /// Fast attack preset.
        fast: bool,
        /// Monolithic baseline instead of Algorithm 2.
        monolithic: bool,
        /// Lock variant of the victim (`sign`, `scale:<factor>`, `sar`,
        /// `antisat`). Kept as the wire spelling here; the server parses
        /// it and answers `bad_request` for an unknown name.
        variant: String,
        /// RLCP frame (hex) to resume from — the migration path.
        checkpoint: Option<Vec<u8>>,
    },
    /// One campaign's status.
    Status {
        /// Campaign id.
        id: u64,
    },
    /// All campaigns, ordered by id.
    List,
    /// Hold a campaign at its next checkpoint cut.
    Pause {
        /// Campaign id.
        id: u64,
    },
    /// Release a held campaign.
    Resume {
        /// Campaign id.
        id: u64,
    },
    /// Cancel a campaign.
    Cancel {
        /// Campaign id.
        id: u64,
    },
    /// Fetch a campaign's last RLCP frame (hex), for migration.
    Checkpoint {
        /// Campaign id.
        id: u64,
    },
    /// Process-global cache occupancy and eviction counters.
    Stats,
    /// Stop accepting connections and exit the accept loop.
    Shutdown,
}

pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes a hex string over its bytes, so a non-ASCII character is an
/// invalid digit rather than a slice across a char boundary.
fn hex_decode(text: &str) -> Result<Vec<u8>, ProtoError> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(ProtoError::Malformed("odd-length hex string".into()));
    }
    let digit = |b: u8| {
        char::from(b)
            .to_digit(16)
            .ok_or_else(|| ProtoError::Malformed("invalid hex digit".into()))
    };
    bytes
        .chunks_exact(2)
        .map(|pair| Ok((digit(pair[0])? * 16 + digit(pair[1])?) as u8))
        .collect()
}

/// An optional field, read by `get`: `None` when absent. A field present
/// with another type is malformed, never taken for an absent one.
fn opt_field<'a, T>(
    doc: &'a Value,
    key: &str,
    get: fn(&'a Value) -> Option<T>,
) -> Result<Option<T>, ProtoError> {
    doc.get(key)
        .map(|v| {
            get(v).ok_or_else(|| ProtoError::Malformed(format!("field {key:?} has the wrong type")))
        })
        .transpose()
}

/// A required field, read by `get`.
fn field<'a, T>(
    doc: &'a Value,
    key: &str,
    get: fn(&'a Value) -> Option<T>,
) -> Result<T, ProtoError> {
    opt_field(doc, key, get)?.ok_or_else(|| ProtoError::Malformed(format!("missing field {key:?}")))
}

impl Request {
    /// Encodes the request as its wire object.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::new();
        let op = match self {
            Request::Ping => "ping",
            Request::Submit {
                model_path,
                tenant,
                seed,
                weight,
                budget,
                fast,
                monolithic,
                variant,
                checkpoint,
            } => {
                fields.push(("model_path".into(), Value::str(model_path.clone())));
                fields.push(("tenant".into(), Value::str(tenant.clone())));
                fields.push(("seed".into(), Value::num_u64(*seed)));
                fields.push(("weight".into(), Value::num_u64(*weight)));
                if let Some(b) = budget {
                    fields.push(("budget".into(), Value::num_u64(*b)));
                }
                fields.push(("fast".into(), Value::Bool(*fast)));
                fields.push(("monolithic".into(), Value::Bool(*monolithic)));
                fields.push(("variant".into(), Value::str(variant.clone())));
                if let Some(bytes) = checkpoint {
                    fields.push(("checkpoint".into(), Value::str(hex_encode(bytes))));
                }
                "submit"
            }
            Request::Status { id } => {
                fields.push(("id".into(), Value::num_u64(*id)));
                "status"
            }
            Request::List => "list",
            Request::Pause { id } => {
                fields.push(("id".into(), Value::num_u64(*id)));
                "pause"
            }
            Request::Resume { id } => {
                fields.push(("id".into(), Value::num_u64(*id)));
                "resume"
            }
            Request::Cancel { id } => {
                fields.push(("id".into(), Value::num_u64(*id)));
                "cancel"
            }
            Request::Checkpoint { id } => {
                fields.push(("id".into(), Value::num_u64(*id)));
                "checkpoint"
            }
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        };
        fields.insert(0, ("op".into(), Value::str(op)));
        Value::Obj(fields)
    }

    /// Decodes a wire object. An absent optional field takes its default;
    /// a field of the wrong type is [`ProtoError::Malformed`]; an unknown
    /// field is ignored.
    pub fn from_value(doc: &Value) -> Result<Request, ProtoError> {
        let id = || field(doc, "id", Value::as_u64);
        Ok(match field(doc, "op", Value::as_str)? {
            "ping" => Request::Ping,
            "submit" => Request::Submit {
                model_path: field(doc, "model_path", Value::as_str)?.to_string(),
                tenant: opt_field(doc, "tenant", Value::as_str)?
                    .unwrap_or("default")
                    .to_string(),
                seed: opt_field(doc, "seed", Value::as_u64)?.unwrap_or(1),
                weight: opt_field(doc, "weight", Value::as_u64)?.unwrap_or(1),
                budget: opt_field(doc, "budget", Value::as_u64)?,
                fast: opt_field(doc, "fast", Value::as_bool)?.unwrap_or(true),
                monolithic: opt_field(doc, "monolithic", Value::as_bool)?.unwrap_or(false),
                variant: opt_field(doc, "variant", Value::as_str)?
                    .unwrap_or("sign")
                    .to_string(),
                checkpoint: opt_field(doc, "checkpoint", Value::as_str)?
                    .map(hex_decode)
                    .transpose()?,
            },
            "status" => Request::Status { id: id()? },
            "list" => Request::List,
            "pause" => Request::Pause { id: id()? },
            "resume" => Request::Resume { id: id()? },
            "cancel" => Request::Cancel { id: id()? },
            "checkpoint" => Request::Checkpoint { id: id()? },
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            other => {
                return Err(ProtoError::Malformed(format!("unknown op {other:?}")));
            }
        })
    }
}

/// A success response with extra fields appended after `"ok": true`.
pub(crate) fn ok_response(extra: Vec<(String, Value)>) -> Value {
    let mut fields = vec![("ok".to_string(), Value::Bool(true))];
    fields.extend(extra);
    Value::Obj(fields)
}

/// An error response with a stable machine-readable code.
pub(crate) fn err_response(code: &str, message: &str) -> Value {
    Value::Obj(vec![
        ("ok".to_string(), Value::Bool(false)),
        (
            "error".to_string(),
            Value::Obj(vec![
                ("code".to_string(), Value::str(code)),
                ("message".to_string(), Value::str(message)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_byte_pipe() {
        let docs = [
            Request::Ping.to_value(),
            Request::Submit {
                model_path: "/tmp/m.rlk".into(),
                tenant: "alice".into(),
                seed: 42,
                weight: 3,
                budget: Some(10_000),
                fast: true,
                monolithic: false,
                variant: "sar".into(),
                checkpoint: Some(vec![0xde, 0xad, 0x00, 0xbe]),
            }
            .to_value(),
            ok_response(vec![("id".into(), Value::num_u64(7))]),
        ];
        let mut pipe = Vec::new();
        for doc in &docs {
            write_frame(&mut pipe, doc).unwrap();
        }
        let mut r = pipe.as_slice();
        for doc in &docs {
            let got = read_frame(&mut r).unwrap().expect("frame present");
            assert_eq!(&got, doc);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn every_request_survives_encode_decode() {
        let requests = [
            Request::Ping,
            Request::Submit {
                model_path: "m.rlk".into(),
                tenant: "bob".into(),
                seed: 5,
                weight: 1,
                budget: None,
                fast: false,
                monolithic: true,
                variant: "sign".into(),
                checkpoint: None,
            },
            Request::Status { id: 3 },
            Request::List,
            Request::Pause { id: 9 },
            Request::Resume { id: 9 },
            Request::Cancel { id: 1 },
            Request::Checkpoint { id: 2 },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            let decoded = Request::from_value(&req.to_value()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Garbage in the length line.
        let mut bad = &b"12x\n{}"[..];
        assert!(matches!(
            read_frame(&mut bad),
            Err(ProtoError::Malformed(_))
        ));
        // Oversized length.
        let huge = format!("{}\n", MAX_FRAME_BYTES + 1);
        let mut bad = huge.as_bytes();
        assert!(matches!(
            read_frame(&mut bad),
            Err(ProtoError::Malformed(_))
        ));
        // Truncated payload.
        let mut bad = &b"10\n{\"op\""[..];
        assert!(matches!(read_frame(&mut bad), Err(ProtoError::Io(_))));
        // Unknown op.
        let doc = Value::parse(r#"{"op":"explode"}"#).unwrap();
        assert!(matches!(
            Request::from_value(&doc),
            Err(ProtoError::Malformed(_))
        ));
        // Hex with odd length.
        let doc = Value::parse(r#"{"op":"submit","model_path":"m","checkpoint":"abc"}"#).unwrap();
        assert!(matches!(
            Request::from_value(&doc),
            Err(ProtoError::Malformed(_))
        ));
        // An even byte count whose second character is two bytes wide: the
        // decoder must not slice inside it.
        let doc = Value::parse(r#"{"op":"submit","model_path":"x","checkpoint":"aéa"}"#).unwrap();
        assert!(matches!(
            Request::from_value(&doc),
            Err(ProtoError::Malformed(_))
        ));
        // A present field of the wrong type is rejected, never read as its
        // default: a string or negative budget would run unbudgeted.
        for field in [
            r#""budget":"5""#,
            r#""budget":-5"#,
            r#""budget":null"#,
            r#""seed":"7""#,
            r#""seed":1.5"#,
            r#""weight":true"#,
            r#""fast":"yes""#,
            r#""monolithic":0"#,
            r#""checkpoint":12"#,
            r#""tenant":3"#,
            r#""variant":["sign"]"#,
        ] {
            let text = format!(r#"{{"op":"submit","model_path":"m",{field}}}"#);
            let doc = Value::parse(&text).unwrap();
            assert!(
                matches!(Request::from_value(&doc), Err(ProtoError::Malformed(_))),
                "{text}"
            );
        }
        for text in [
            r#"{"op":"submit","model_path":7}"#,
            r#"{"op":"status","id":"3"}"#,
        ] {
            let doc = Value::parse(text).unwrap();
            assert!(
                matches!(Request::from_value(&doc), Err(ProtoError::Malformed(_))),
                "{text}"
            );
        }
    }

    /// A field the protocol no longer has (an older client's `threads`) is
    /// ignored like any other unknown field.
    #[test]
    fn unknown_submit_fields_are_ignored() {
        let doc = Value::parse(r#"{"op":"submit","model_path":"m","threads":4}"#).unwrap();
        let Request::Submit { model_path, .. } = Request::from_value(&doc).unwrap() else {
            panic!("a submit frame decodes to Submit");
        };
        assert_eq!(model_path, "m");
    }

    /// A real RLCP frame: a tiny MLP attack checkpointed at every cut.
    fn real_checkpoint() -> Vec<u8> {
        use relock_attack::{AttackConfig, Decryptor, MemoryCheckpointSink};
        use relock_locking::{CountingOracle, LockSpec};
        use relock_nn::{build_mlp, MlpSpec};
        use relock_serve::Broker;
        use relock_tensor::rng::Prng;
        let spec = MlpSpec {
            input: 5,
            hidden: vec![7],
            classes: 3,
        };
        let model = build_mlp(&spec, LockSpec::evenly(4), &mut Prng::seed_from_u64(3)).unwrap();
        let oracle = CountingOracle::new(&model);
        let sink = MemoryCheckpointSink::new();
        Decryptor::new(AttackConfig::fast())
            .run_with_checkpoints(
                model.white_box(),
                &Broker::new(&oracle),
                &mut Prng::seed_from_u64(4),
                &sink,
            )
            .unwrap();
        sink.contents().expect("a checkpointed run persists frames")
    }

    /// Seeded mutations of real `submit` (with a checkpoint), `status` and
    /// `list` frames — bit flips, JSON-significant bytes, hex digits,
    /// multi-byte characters, deleted and duplicated runs — go through
    /// `read_frame` and `Request::from_value` without a panic: frames are
    /// untrusted input. Half the mutants keep a correct length line, so
    /// most of them reach the request decoder.
    #[test]
    fn mutated_frames_never_panic_the_decoder() {
        use relock_tensor::rng::Prng;
        let requests = [
            Request::Submit {
                model_path: "/srv/victim.rlk".into(),
                tenant: "alice".into(),
                seed: 42,
                weight: 2,
                budget: Some(5_000),
                fast: true,
                monolithic: false,
                variant: "sign".into(),
                checkpoint: Some(real_checkpoint()),
            },
            Request::Status { id: 7 },
            Request::List,
        ];
        let payloads: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| r.to_value().to_compact().into_bytes())
            .collect();
        const SIGNIFICANT: &[u8] = b"{}[]:,\"\\-+.0123456789abcdefABCDEF \n";
        let mut rng = Prng::seed_from_u64(0xf4a3);
        let (mut decoded, mut rejected) = (0u32, 0u32);
        for case in 0..10_000 {
            let mut payload = payloads[case % payloads.len()].clone();
            for _ in 0..1 + rng.below(3) {
                if payload.is_empty() {
                    break;
                }
                let at = rng.below(payload.len());
                match rng.below(5) {
                    0 => payload[at] ^= 1 << rng.below(8),
                    1 => payload[at] = SIGNIFICANT[rng.below(SIGNIFICANT.len())],
                    2 => {
                        let wide = ["é", "€", "𝄞"][rng.below(3)].as_bytes();
                        payload.splice(at..at, wide.iter().copied());
                    }
                    3 => {
                        let end = (at + 1 + rng.below(32)).min(payload.len());
                        payload.drain(at..end);
                    }
                    _ => {
                        let end = (at + 1 + rng.below(64)).min(payload.len());
                        let run = payload[at..end].to_vec();
                        payload.splice(at..at, run);
                    }
                }
            }
            let mut wire = format!("{}\n", payload.len()).into_bytes();
            wire.extend_from_slice(&payload);
            if case % 2 == 1 {
                // Damage the framing too: the length line or the cut.
                let at = rng.below(wire.len());
                match rng.below(3) {
                    0 => wire[at] ^= 1 << rng.below(8),
                    1 => wire.truncate(at),
                    _ => wire.insert(at, b'9'),
                }
            }
            let mut r = wire.as_slice();
            while let Ok(Some(doc)) = read_frame(&mut r) {
                match Request::from_value(&doc) {
                    Ok(_) => decoded += 1,
                    Err(ProtoError::Malformed(_)) => rejected += 1,
                    Err(ProtoError::Io(e)) => panic!("decoding a value did I/O: {e}"),
                }
            }
        }
        assert!(
            decoded > 0 && rejected > 0,
            "decoded {decoded}, rejected {rejected}"
        );
    }
}
