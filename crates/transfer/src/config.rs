//! The streaming data plane's tunables, declared once.
//!
//! The paper's §3 data plane has two knobs — `k` readers per SQL worker
//! and a send buffer — and the batched plane adds the wire-byte size at
//! which a frame is cut. [`TransferConfig`] is the only place
//! those three are declared and validated; cluster, session and bench
//! configs embed it. The `stream_transfer` table UDF only receives SQL
//! values, so a transfer's settings travel to it as its argument list:
//! [`TransferArgs::to_sql`] is the one formatter of that list and
//! [`TransferArgs::from_values`] the one parser.

use sqlml_common::codec::FRAME_BYTES;
use sqlml_common::{sql_string_literal, Result, SqlmlError, Value};

/// Default in-memory send queue per peer: a benchmark-sized partition's
/// frames (0.67 MB) fit, so a spill file exists only when a reader
/// really lags — §3's "if an ML worker is slow". The smallest size the
/// A1 sweep (EXPERIMENTS.md) shows at zero spill events.
pub const SEND_BUFFER_BYTES: usize = 1 << 20;

/// Tunables of one streaming transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferConfig {
    /// The paper's `k`: readers per SQL worker (`m = n·k` splits).
    pub splits_per_worker: u32,
    /// In-memory send-buffer bytes per peer before spilling (paper:
    /// 4 KiB, one frame; here [`SEND_BUFFER_BYTES`]).
    pub send_buffer_bytes: usize,
    /// Wire-byte target per frame (default [`FRAME_BYTES`]), cut by
    /// [`frame_ranges`](sqlml_common::codec::frame_ranges).
    pub frame_bytes: usize,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            splits_per_worker: 1,
            send_buffer_bytes: SEND_BUFFER_BYTES,
            frame_bytes: FRAME_BYTES,
        }
    }
}

impl TransferConfig {
    /// Every tunable must be at least 1; the error names the offender.
    pub fn validate(&self) -> Result<()> {
        let at_least_one = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(SqlmlError::Plan(format!("{what} must be >= 1")))
            }
        };
        at_least_one(self.splits_per_worker >= 1, "k (splits_per_worker)")?;
        at_least_one(self.send_buffer_bytes >= 1, "buffer_bytes")?;
        at_least_one(self.frame_bytes >= 1, "frame_bytes")
    }
}

/// The scalar arguments of one `stream_transfer(table, ...)` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferArgs {
    pub coord_addr: String,
    pub transfer_id: u64,
    /// The ML command the coordinator launches once all workers register.
    pub command: String,
    pub config: TransferConfig,
}

impl TransferArgs {
    /// The argument list as SQL text, to follow the input table inside
    /// `stream_transfer(<table>, ...)`. The two strings go through the
    /// shared literal renderer, so a quote in a command or an address
    /// cannot end its literal and become further arguments.
    pub fn to_sql(&self) -> String {
        let c = &self.config;
        format!(
            "{}, {}, {}, {}, {}, {}",
            sql_string_literal(&self.coord_addr),
            self.transfer_id,
            sql_string_literal(&self.command),
            c.splits_per_worker,
            c.send_buffer_bytes,
            c.frame_bytes,
        )
    }

    /// Parse and validate the scalar arguments the SQL engine hands the
    /// UDF. The frame size is optional (the paper-shaped call has five
    /// arguments) and defaults as [`TransferConfig::default`] does.
    pub fn from_values(args: &[Value]) -> Result<TransferArgs> {
        if !(5..=6).contains(&args.len()) {
            return Err(SqlmlError::Plan(
                "stream_transfer takes (coordinator_addr, transfer_id, command, k, \
                 buffer_bytes[, frame_bytes])"
                    .into(),
            ));
        }
        // SQL integers are i64; a value outside the field's range is an
        // error rather than a wrapping cast.
        fn int<T: TryFrom<i64>>(v: &Value, what: &str) -> Result<T> {
            let n = v.as_i64()?;
            T::try_from(n).map_err(|_| SqlmlError::Plan(format!("{what} out of range: {n}")))
        }
        let defaults = TransferConfig::default();
        let parsed = TransferArgs {
            coord_addr: args[0].as_str()?.to_string(),
            transfer_id: int(&args[1], "transfer_id")?,
            command: args[2].as_str()?.to_string(),
            config: TransferConfig {
                splits_per_worker: int(&args[3], "k (splits_per_worker)")?,
                send_buffer_bytes: int(&args[4], "buffer_bytes")?,
                frame_bytes: match args.get(5) {
                    Some(v) => int(v, "frame_bytes")?,
                    None => defaults.frame_bytes,
                },
            },
        };
        parsed.config.validate()?;
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_args() -> Vec<Value> {
        vec![
            Value::Str("127.0.0.1:1".into()),
            Value::Int(1),
            Value::Str("svm label=0".into()),
            Value::Int(2),
            Value::Int(4096),
        ]
    }

    #[test]
    fn arg_validation() {
        let five = TransferArgs::from_values(&good_args()).unwrap();
        assert_eq!(five.transfer_id, 1);
        assert_eq!(five.config.splits_per_worker, 2);
        assert_eq!(five.config.frame_bytes, FRAME_BYTES);

        let mut six = good_args();
        six.push(Value::Int(512));
        let parsed = TransferArgs::from_values(&six).unwrap();
        assert_eq!(parsed.config.frame_bytes, 512);

        // Too few and too many arguments.
        assert!(TransferArgs::from_values(&good_args()[..4]).is_err());
        let mut seven = six.clone();
        seven.push(Value::Int(64));
        assert!(TransferArgs::from_values(&seven).is_err());

        // Every tunable must be >= 1.
        for (pos, bad) in [(3, 0), (4, 0), (5, 0), (5, -1)] {
            let mut args = six.clone();
            args[pos] = Value::Int(bad);
            let err = TransferArgs::from_values(&args).unwrap_err();
            assert!(matches!(err, SqlmlError::Plan(_)), "arg {pos}: {err}");
        }

        // A negative transfer id must not wrap into a huge unsigned one
        // (which would resolve a never-cancelled default token).
        let mut negative_id = good_args();
        negative_id[1] = Value::Int(-1);
        let err = TransferArgs::from_values(&negative_id).unwrap_err();
        assert!(matches!(err, SqlmlError::Plan(_)), "{err}");
        assert!(err.to_string().contains("transfer_id"), "{err}");
    }

    #[test]
    fn formatter_and_parser_agree_on_argument_order() {
        let args = TransferArgs {
            coord_addr: "127.0.0.1:4000".into(),
            transfer_id: 9,
            command: "svm label=3 iterations=5".into(),
            config: TransferConfig {
                splits_per_worker: 3,
                send_buffer_bytes: 64,
                frame_bytes: 256,
            },
        };
        assert_eq!(
            args.to_sql(),
            "'127.0.0.1:4000', 9, 'svm label=3 iterations=5', 3, 64, 256"
        );
        let values = vec![
            Value::Str(args.coord_addr.as_str().into()),
            Value::Int(9),
            Value::Str(args.command.as_str().into()),
            Value::Int(3),
            Value::Int(64),
            Value::Int(256),
        ];
        assert_eq!(TransferArgs::from_values(&values).unwrap(), args);
    }
}
