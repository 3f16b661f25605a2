//! The streaming data plane's tunables, declared once.
//!
//! The paper's §3 data plane has two knobs — `k` readers per SQL worker
//! and a 4 KiB send buffer — and the batched plane adds the row and byte
//! targets at which a frame is cut. [`TransferConfig`] is the only place
//! those four are declared and validated; cluster, session and bench
//! configs embed it. The `stream_transfer` table UDF only receives SQL
//! values, so a transfer's settings travel to it as its argument list:
//! [`TransferArgs::to_sql`] is the one formatter of that list and
//! [`TransferArgs::from_values`] the one parser.

use sqlml_common::{Result, SqlmlError, Value};

/// Default rows per `RowBatch` frame (the adaptive floor).
pub const BATCH_ROWS: usize = 64;

/// Default wire-byte target per frame — the paper's 4 KiB send buffer.
pub const FRAME_BYTES: usize = 4096;

/// Tunables of one streaming transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferConfig {
    /// The paper's `k`: readers per SQL worker (`m = n·k` splits).
    pub splits_per_worker: u32,
    /// In-memory send-buffer bytes per peer before spilling (paper: 4 KiB).
    pub send_buffer_bytes: usize,
    /// Rows per `RowBatch` frame: the floor of the adaptive row target,
    /// which grows to at most [`BATCH_GROWTH_CAP`] times this under
    /// sender-queue stalls.
    ///
    /// [`BATCH_GROWTH_CAP`]: crate::stream_udf::BATCH_GROWTH_CAP
    pub batch_rows: usize,
    /// Wire-byte target per frame (a frame closes at the row target or
    /// `frame_bytes` bytes, whichever comes first).
    pub frame_bytes: usize,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            splits_per_worker: 1,
            send_buffer_bytes: 4 * 1024,
            batch_rows: BATCH_ROWS,
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
        at_least_one(self.batch_rows >= 1, "batch_rows")?;
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
    /// `stream_transfer(<table>, ...)`.
    pub fn to_sql(&self) -> String {
        let c = &self.config;
        format!(
            "'{}', {}, '{}', {}, {}, {}, {}",
            self.coord_addr,
            self.transfer_id,
            self.command,
            c.splits_per_worker,
            c.send_buffer_bytes,
            c.batch_rows,
            c.frame_bytes,
        )
    }

    /// Parse and validate the scalar arguments the SQL engine hands the
    /// UDF. The two frame targets are optional (the paper-shaped call has
    /// five arguments) and default as [`TransferConfig::default`] does.
    pub fn from_values(args: &[Value]) -> Result<TransferArgs> {
        if !(5..=7).contains(&args.len()) {
            return Err(SqlmlError::Plan(
                "stream_transfer takes (coordinator_addr, transfer_id, command, k, \
                 buffer_bytes[, batch_rows[, frame_bytes]])"
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
                batch_rows: match args.get(5) {
                    Some(v) => int(v, "batch_rows")?,
                    None => defaults.batch_rows,
                },
                frame_bytes: match args.get(6) {
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
        assert_eq!(five.config.batch_rows, BATCH_ROWS);
        assert_eq!(five.config.frame_bytes, FRAME_BYTES);

        let mut seven = good_args();
        seven.push(Value::Int(8));
        seven.push(Value::Int(512));
        let parsed = TransferArgs::from_values(&seven).unwrap();
        assert_eq!(parsed.config.batch_rows, 8);
        assert_eq!(parsed.config.frame_bytes, 512);

        // Too few and too many arguments.
        assert!(TransferArgs::from_values(&good_args()[..4]).is_err());
        let mut eight = seven.clone();
        eight.push(Value::Int(0));
        assert!(TransferArgs::from_values(&eight).is_err());

        // Every tunable must be >= 1.
        for (pos, bad) in [(3, 0), (4, 0), (5, 0), (6, -1)] {
            let mut args = seven.clone();
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
                batch_rows: 4,
                frame_bytes: 256,
            },
        };
        assert_eq!(
            args.to_sql(),
            "'127.0.0.1:4000', 9, 'svm label=3 iterations=5', 3, 64, 4, 256"
        );
        let values = vec![
            Value::Str(args.coord_addr.as_str().into()),
            Value::Int(9),
            Value::Str(args.command.as_str().into()),
            Value::Int(3),
            Value::Int(64),
            Value::Int(4),
            Value::Int(256),
        ];
        assert_eq!(TransferArgs::from_values(&values).unwrap(), args);
    }
}
