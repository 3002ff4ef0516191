//! Wire codecs for the coordinator ↔ worker protocol (DESIGN.md §4b).
//!
//! Frames reuse the campaign conventions — one length-prefixed compact
//! JSON object per frame, read and written with
//! [`relock_campaign::read_frame`] / [`relock_campaign::write_frame`] —
//! so the stream stays inspectable with `nc`/`socat` and the framing code
//! is shared, not re-invented.
//!
//! Everything that feeds the attack's arithmetic crosses the wire
//! **exactly**: `f64` values travel as their IEEE-754 bit patterns
//! (config fields, PRNG spare normals) or as lowercase-hex little-endian
//! byte strings (tensor payloads). JSON's decimal notation is never used
//! for a value the worker computes with, so a distributed run consumes
//! bit-identical inputs to an in-process one.

use relock_attack::{AttackConfig, LearningConfig, ValidationTarget, ValidationVerdict};
use relock_campaign::ProtoError;
use relock_graph::{KeySlot, NodeId, UnitLayout};
use relock_locking::{LockVariant, OracleError};
use relock_tensor::rng::PrngState;
use relock_trace::json::Value;
use std::time::Duration;

pub(crate) fn malformed(why: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(why.into())
}

/// Required `u64` field.
pub(crate) fn field_u64(doc: &Value, key: &str) -> Result<u64, ProtoError> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| malformed(format!("missing or non-integer field {key:?}")))
}

/// Required string field.
pub(crate) fn field_str<'a>(doc: &'a Value, key: &str) -> Result<&'a str, ProtoError> {
    doc.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| malformed(format!("missing or non-string field {key:?}")))
}

/// Required `f64` field, transported as its bit pattern.
fn field_f64_bits(doc: &Value, key: &str) -> Result<f64, ProtoError> {
    Ok(f64::from_bits(field_u64(doc, key)?))
}

/// Required bool field.
fn field_bool(doc: &Value, key: &str) -> Result<bool, ProtoError> {
    doc.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| malformed(format!("missing or non-bool field {key:?}")))
}

fn num_f64_bits(v: f64) -> Value {
    Value::num_u64(v.to_bits())
}

/// Encodes an `f64` slice as lowercase hex of the little-endian bytes
/// (16 hex chars per value) — exact and allocation-cheap to parse.
pub fn encode_f64s(data: &[f64]) -> String {
    let mut out = String::with_capacity(data.len() * 16);
    for v in data {
        for b in v.to_le_bytes() {
            out.push_str(&format!("{b:02x}"));
        }
    }
    out
}

/// Decodes [`encode_f64s`] output.
pub fn decode_f64s(text: &str) -> Result<Vec<f64>, ProtoError> {
    if !text.len().is_multiple_of(16) {
        return Err(malformed("f64 hex payload length not a multiple of 16"));
    }
    let bytes = text.as_bytes();
    let nib = |c: u8| -> Result<u8, ProtoError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            _ => Err(malformed("invalid hex digit in f64 payload")),
        }
    };
    let mut out = Vec::with_capacity(text.len() / 16);
    for chunk in bytes.chunks_exact(16) {
        let mut le = [0u8; 8];
        for (i, pair) in chunk.chunks_exact(2).enumerate() {
            le[i] = (nib(pair[0])? << 4) | nib(pair[1])?;
        }
        out.push(f64::from_le_bytes(le));
    }
    Ok(out)
}

/// Key-assignment bits as a `"0101…"` string.
pub fn encode_bits(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Decodes [`encode_bits`] output.
pub fn decode_bits(text: &str) -> Result<Vec<bool>, ProtoError> {
    text.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            _ => Err(malformed("key bits must be 0 or 1")),
        })
        .collect()
}

/// Encodes the full [`AttackConfig`] (floats as bit patterns).
pub fn encode_config(cfg: &AttackConfig) -> Value {
    Value::Obj(vec![
        ("input_scale".into(), num_f64_bits(cfg.input_scale)),
        (
            "line_samples".into(),
            Value::num_u64(cfg.line_samples as u64),
        ),
        ("line_extent".into(), num_f64_bits(cfg.line_extent)),
        ("bisect_tol".into(), num_f64_bits(cfg.bisect_tol)),
        (
            "bisect_iters".into(),
            Value::num_u64(cfg.bisect_iters as u64),
        ),
        ("max_lines".into(), Value::num_u64(cfg.max_lines as u64)),
        (
            "max_site_attempts".into(),
            Value::num_u64(cfg.max_site_attempts as u64),
        ),
        ("epsilon".into(), num_f64_bits(cfg.epsilon)),
        ("epsilon_min".into(), num_f64_bits(cfg.epsilon_min)),
        ("eq_tol".into(), num_f64_bits(cfg.eq_tol)),
        ("diff_tol".into(), num_f64_bits(cfg.diff_tol)),
        ("preimage_tol".into(), num_f64_bits(cfg.preimage_tol)),
        ("skip_expansive".into(), Value::Bool(cfg.skip_expansive)),
        (
            "learn_samples".into(),
            Value::num_u64(cfg.learning.samples as u64),
        ),
        (
            "learn_batch".into(),
            Value::num_u64(cfg.learning.batch as u64),
        ),
        (
            "learn_epochs".into(),
            Value::num_u64(cfg.learning.epochs as u64),
        ),
        ("learn_lr".into(), num_f64_bits(cfg.learning.lr)),
        (
            "learn_confidence".into(),
            num_f64_bits(cfg.learning.confidence),
        ),
        (
            "learn_patience".into(),
            Value::num_u64(cfg.learning.patience as u64),
        ),
        (
            "validation_neurons".into(),
            Value::num_u64(cfg.validation_neurons as u64),
        ),
        (
            "validation_majority".into(),
            num_f64_bits(cfg.validation_majority),
        ),
        (
            "validation_directions".into(),
            Value::num_u64(cfg.validation_directions as u64),
        ),
        (
            "witness_attempts".into(),
            Value::num_u64(cfg.witness_attempts as u64),
        ),
        ("probe_delta".into(), num_f64_bits(cfg.probe_delta)),
        ("kink_tol".into(), num_f64_bits(cfg.kink_tol)),
        (
            "continue_on_failure".into(),
            Value::Bool(cfg.continue_on_failure),
        ),
        (
            "final_check_samples".into(),
            Value::num_u64(cfg.final_check_samples as u64),
        ),
        ("max_hamming".into(), Value::num_u64(cfg.max_hamming as u64)),
        (
            "max_candidates_per_hd".into(),
            Value::num_u64(cfg.max_candidates_per_hd as u64),
        ),
        (
            "correction_window".into(),
            Value::num_u64(cfg.correction_window as u64),
        ),
        ("threads".into(), Value::num_u64(cfg.threads as u64)),
        (
            "disable_algebraic".into(),
            Value::Bool(cfg.disable_algebraic),
        ),
        (
            "preimage_perturbation".into(),
            num_f64_bits(cfg.preimage_perturbation),
        ),
        (
            "query_budget".into(),
            match cfg.query_budget {
                Some(b) => Value::num_u64(b),
                None => Value::Null,
            },
        ),
        (
            "variant".into(),
            Value::str(match cfg.variant {
                LockVariant::Sign => "sign",
                LockVariant::Scale(_) => "scale",
                LockVariant::SarTrigger => "sar",
                LockVariant::AntiSatTrigger => "antisat",
            }),
        ),
        (
            "variant_factor".into(),
            match cfg.variant {
                // The scale factor feeds the arithmetic, so it crosses the
                // wire as its bit pattern like every other f64 field.
                LockVariant::Scale(factor) => Value::num_u64(factor.to_bits()),
                _ => Value::Null,
            },
        ),
    ])
}

/// Decodes [`encode_config`] output.
pub fn decode_config(doc: &Value) -> Result<AttackConfig, ProtoError> {
    Ok(AttackConfig {
        input_scale: field_f64_bits(doc, "input_scale")?,
        line_samples: field_u64(doc, "line_samples")? as usize,
        line_extent: field_f64_bits(doc, "line_extent")?,
        bisect_tol: field_f64_bits(doc, "bisect_tol")?,
        bisect_iters: field_u64(doc, "bisect_iters")? as usize,
        max_lines: field_u64(doc, "max_lines")? as usize,
        max_site_attempts: field_u64(doc, "max_site_attempts")? as usize,
        epsilon: field_f64_bits(doc, "epsilon")?,
        epsilon_min: field_f64_bits(doc, "epsilon_min")?,
        eq_tol: field_f64_bits(doc, "eq_tol")?,
        diff_tol: field_f64_bits(doc, "diff_tol")?,
        preimage_tol: field_f64_bits(doc, "preimage_tol")?,
        skip_expansive: field_bool(doc, "skip_expansive")?,
        learning: LearningConfig {
            samples: field_u64(doc, "learn_samples")? as usize,
            batch: field_u64(doc, "learn_batch")? as usize,
            epochs: field_u64(doc, "learn_epochs")? as usize,
            lr: field_f64_bits(doc, "learn_lr")?,
            confidence: field_f64_bits(doc, "learn_confidence")?,
            patience: field_u64(doc, "learn_patience")? as usize,
        },
        validation_neurons: field_u64(doc, "validation_neurons")? as usize,
        validation_majority: field_f64_bits(doc, "validation_majority")?,
        validation_directions: field_u64(doc, "validation_directions")? as usize,
        witness_attempts: field_u64(doc, "witness_attempts")? as usize,
        probe_delta: field_f64_bits(doc, "probe_delta")?,
        kink_tol: field_f64_bits(doc, "kink_tol")?,
        continue_on_failure: field_bool(doc, "continue_on_failure")?,
        final_check_samples: field_u64(doc, "final_check_samples")? as usize,
        max_hamming: field_u64(doc, "max_hamming")? as usize,
        max_candidates_per_hd: field_u64(doc, "max_candidates_per_hd")? as usize,
        correction_window: field_u64(doc, "correction_window")? as usize,
        threads: field_u64(doc, "threads")? as usize,
        disable_algebraic: field_bool(doc, "disable_algebraic")?,
        preimage_perturbation: field_f64_bits(doc, "preimage_perturbation")?,
        query_budget: doc.get("query_budget").and_then(Value::as_u64),
        variant: match field_str(doc, "variant")? {
            "sign" => LockVariant::Sign,
            "scale" => LockVariant::Scale(field_f64_bits(doc, "variant_factor")?),
            "sar" => LockVariant::SarTrigger,
            "antisat" => LockVariant::AntiSatTrigger,
            other => return Err(malformed(format!("unknown lock variant {other:?}"))),
        },
    })
}

/// Encodes a PRNG snapshot: the four xoshiro state words plus the cached
/// Box–Muller spare (as a bit pattern when present).
pub fn encode_rng(st: &PrngState) -> Value {
    Value::Obj(vec![
        (
            "s".into(),
            Value::Arr(st.s.iter().map(|&w| Value::num_u64(w)).collect()),
        ),
        (
            "spare".into(),
            match st.spare_normal {
                Some(v) => Value::num_u64(v.to_bits()),
                None => Value::Null,
            },
        ),
    ])
}

/// Decodes [`encode_rng`] output.
pub fn decode_rng(doc: &Value) -> Result<PrngState, ProtoError> {
    let words = doc
        .get("s")
        .and_then(Value::as_arr)
        .ok_or_else(|| malformed("rng state missing \"s\""))?;
    if words.len() != 4 {
        return Err(malformed("rng state needs 4 words"));
    }
    let mut s = [0u64; 4];
    for (i, w) in words.iter().enumerate() {
        s[i] = w
            .as_u64()
            .ok_or_else(|| malformed("rng state word is not an integer"))?;
    }
    let spare_normal = match doc.get("spare") {
        None | Some(Value::Null) => None,
        Some(v) => {
            Some(f64::from_bits(v.as_u64().ok_or_else(|| {
                malformed("rng spare is neither null nor an integer")
            })?))
        }
    };
    Ok(PrngState { s, spare_normal })
}

/// Encodes a validation target (node/layout indices plus the probed units
/// with their optional key slots).
pub fn encode_target(t: &ValidationTarget) -> Value {
    Value::Obj(vec![
        (
            "surface".into(),
            Value::num_u64(t.surface_node.index() as u64),
        ),
        ("n_units".into(), Value::num_u64(t.layout.n_units as u64)),
        ("unit_len".into(), Value::num_u64(t.layout.unit_len as u64)),
        (
            "unit_stride".into(),
            Value::num_u64(t.layout.unit_stride as u64),
        ),
        (
            "elem_stride".into(),
            Value::num_u64(t.layout.elem_stride as u64),
        ),
        (
            "units".into(),
            Value::Arr(
                t.units
                    .iter()
                    .map(|&(u, slot)| {
                        Value::Arr(vec![
                            Value::num_u64(u as u64),
                            match slot {
                                Some(s) => Value::num_u64(s.index() as u64),
                                None => Value::Null,
                            },
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes [`encode_target`] output.
pub fn decode_target(doc: &Value) -> Result<ValidationTarget, ProtoError> {
    let units =
        doc.get("units")
            .and_then(Value::as_arr)
            .ok_or_else(|| malformed("target missing \"units\""))?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| malformed("target unit is not a pair"))?;
                let u = pair[0]
                    .as_u64()
                    .ok_or_else(|| malformed("target unit index is not an integer"))?
                    as usize;
                let slot =
                    match &pair[1] {
                        Value::Null => None,
                        v => Some(KeySlot(v.as_u64().ok_or_else(|| {
                            malformed("target slot is neither null nor an integer")
                        })? as usize)),
                    };
                Ok((u, slot))
            })
            .collect::<Result<Vec<_>, ProtoError>>()?;
    Ok(ValidationTarget {
        surface_node: NodeId(field_u64(doc, "surface")? as usize),
        layout: UnitLayout {
            n_units: field_u64(doc, "n_units")? as usize,
            unit_len: field_u64(doc, "unit_len")? as usize,
            unit_stride: field_u64(doc, "unit_stride")? as usize,
            elem_stride: field_u64(doc, "elem_stride")? as usize,
        },
        units,
    })
}

/// Encodes an oracle error for a `qerr` or `done` frame.
pub fn encode_oracle_error(e: &OracleError) -> Value {
    match e {
        OracleError::BudgetExhausted {
            spent,
            budget,
            requested,
        } => Value::Obj(vec![
            ("kind".into(), Value::str("budget")),
            ("spent".into(), Value::num_u64(*spent)),
            ("budget".into(), Value::num_u64(*budget)),
            ("requested".into(), Value::num_u64(*requested)),
        ]),
        OracleError::DeadlineExceeded { elapsed, deadline } => Value::Obj(vec![
            ("kind".into(), Value::str("deadline")),
            ("elapsed".into(), Value::num_u64(elapsed.as_nanos() as u64)),
            (
                "deadline".into(),
                Value::num_u64(deadline.as_nanos() as u64),
            ),
        ]),
        OracleError::Backend { message, attempts } => Value::Obj(vec![
            ("kind".into(), Value::str("backend")),
            ("message".into(), Value::str(message.clone())),
            ("attempts".into(), Value::num_u64(*attempts as u64)),
        ]),
    }
}

/// Decodes [`encode_oracle_error`] output.
pub fn decode_oracle_error(doc: &Value) -> Result<OracleError, ProtoError> {
    Ok(match field_str(doc, "kind")? {
        "budget" => OracleError::BudgetExhausted {
            spent: field_u64(doc, "spent")?,
            budget: field_u64(doc, "budget")?,
            requested: field_u64(doc, "requested")?,
        },
        "deadline" => OracleError::DeadlineExceeded {
            elapsed: Duration::from_nanos(field_u64(doc, "elapsed")?),
            deadline: Duration::from_nanos(field_u64(doc, "deadline")?),
        },
        "backend" => OracleError::Backend {
            message: field_str(doc, "message")?.to_string(),
            attempts: field_u64(doc, "attempts")? as u32,
        },
        other => return Err(malformed(format!("unknown oracle error kind {other:?}"))),
    })
}

/// Stable wire name of a verdict.
pub fn verdict_str(v: ValidationVerdict) -> &'static str {
    match v {
        ValidationVerdict::Pass => "pass",
        ValidationVerdict::Fail => "fail",
        ValidationVerdict::NoEvidence => "no_evidence",
    }
}

/// Inverse of [`verdict_str`].
pub fn parse_verdict(s: &str) -> Result<ValidationVerdict, ProtoError> {
    match s {
        "pass" => Ok(ValidationVerdict::Pass),
        "fail" => Ok(ValidationVerdict::Fail),
        "no_evidence" => Ok(ValidationVerdict::NoEvidence),
        other => Err(malformed(format!("unknown verdict {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_tensor::rng::Prng;

    #[test]
    fn f64_hex_round_trips_exactly() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -3.5e-17,
            f64::MIN_POSITIVE,
            f64::MAX,
            std::f64::consts::PI,
        ];
        let hex = encode_f64s(&values);
        let back = decode_f64s(&hex).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_f64s("abc").is_err());
        assert!(decode_f64s(&"zz".repeat(8)).is_err());
    }

    #[test]
    fn config_round_trips_bit_exactly() {
        let mut cfg = AttackConfig::fast();
        cfg.query_budget = Some(123_456);
        cfg.threads = 3;
        cfg.diff_tol = 5.4321e-5;
        let doc = encode_config(&cfg);
        let back = decode_config(&doc).unwrap();
        assert_eq!(back.diff_tol.to_bits(), cfg.diff_tol.to_bits());
        assert_eq!(back.learning.lr.to_bits(), cfg.learning.lr.to_bits());
        assert_eq!(back.query_budget, cfg.query_budget);
        assert_eq!(back.threads, 3);
        // And through an actual frame serialization.
        let text = doc.to_compact();
        let reparsed = Value::parse(&text).unwrap();
        let back2 = decode_config(&reparsed).unwrap();
        assert_eq!(back2.epsilon_min.to_bits(), cfg.epsilon_min.to_bits());
    }

    #[test]
    fn config_variant_round_trips_and_rejects_unknowns() {
        for variant in [
            LockVariant::Sign,
            LockVariant::Scale(-0.7543e-3),
            LockVariant::SarTrigger,
            LockVariant::AntiSatTrigger,
        ] {
            let cfg = AttackConfig {
                variant,
                ..AttackConfig::fast()
            };
            let back = decode_config(&encode_config(&cfg)).unwrap();
            match (back.variant, variant) {
                (LockVariant::Scale(a), LockVariant::Scale(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                (a, b) => assert_eq!(a, b),
            }
        }
        // A coordinator speaking a newer dialect must be rejected, not
        // silently downgraded to some default variant.
        let mut doc = encode_config(&AttackConfig::fast());
        if let Value::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "variant" {
                    *v = Value::str("quantum");
                }
            }
        }
        assert!(matches!(decode_config(&doc), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn rng_state_round_trip_preserves_the_stream() {
        let mut rng = Prng::seed_from_u64(99);
        rng.normal(); // leave a cached spare behind
        let st = rng.state();
        let back = decode_rng(&encode_rng(&st)).unwrap();
        let mut a = Prng::from_state(st);
        let mut b = Prng::from_state(back);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.normal().to_bits(), b.normal().to_bits());
    }

    #[test]
    fn target_and_error_codecs_round_trip() {
        let t = ValidationTarget {
            surface_node: NodeId(7),
            layout: UnitLayout {
                n_units: 10,
                unit_len: 2,
                unit_stride: 2,
                elem_stride: 1,
            },
            units: vec![(0, None), (3, Some(KeySlot(5))), (9, None)],
        };
        let back = decode_target(&encode_target(&t)).unwrap();
        assert_eq!(back.surface_node, t.surface_node);
        assert_eq!(back.layout.n_units, 10);
        assert_eq!(back.units, t.units);

        for e in [
            OracleError::BudgetExhausted {
                spent: 1,
                budget: 2,
                requested: 3,
            },
            OracleError::DeadlineExceeded {
                elapsed: Duration::from_millis(5),
                deadline: Duration::from_millis(4),
            },
            OracleError::Backend {
                message: "lost".into(),
                attempts: 2,
            },
        ] {
            let back = decode_oracle_error(&encode_oracle_error(&e)).unwrap();
            assert_eq!(back, e);
        }
        for v in [
            ValidationVerdict::Pass,
            ValidationVerdict::Fail,
            ValidationVerdict::NoEvidence,
        ] {
            assert_eq!(parse_verdict(verdict_str(v)).unwrap(), v);
        }
    }
}
