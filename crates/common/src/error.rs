//! Workspace-wide error type.
//!
//! A single error enum keeps cross-crate plumbing simple: the SQL engine,
//! DFS, ML engine and transfer layer all return [`Result`] so a pipeline
//! driver can propagate any failure with `?`.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, SqlmlError>;

/// All error conditions surfaced by the sqlml crates.
#[derive(Debug)]
pub enum SqlmlError {
    /// SQL text failed to lex or parse. Carries a human-readable message
    /// including the offending position or token.
    Parse(String),
    /// A query referenced an unknown table, column, or UDF, or used a
    /// construct the planner does not support.
    Plan(String),
    /// Type mismatch detected during planning or expression evaluation.
    Type(String),
    /// Runtime failure while executing a query fragment.
    Execution(String),
    /// Distributed-file-system failure (missing file, short read, replica
    /// placement impossible, …).
    Dfs(String),
    /// Machine-learning job failure (bad input shape, empty split, …).
    Ml(String),
    /// Streaming-transfer failure (coordinator protocol violation, peer
    /// connection loss, …).
    Transfer(String),
    /// Cache layer failure (corrupt entry, key collision, …).
    Cache(String),
    /// Wrapped I/O error with context.
    Io(std::io::Error),
    /// Injected fault (used by the fault-tolerance tests and ablations to
    /// distinguish deliberate failures from genuine bugs).
    InjectedFault(String),
    /// A wire frame, string payload, or row batch exceeded the limits of
    /// its on-the-wire representation (e.g. a length that does not fit in
    /// the `u32` prefix). Raised instead of silently truncating.
    FrameTooLarge(String),
    /// A counter (row, byte, worker, attempt, …) did not fit its target
    /// integer representation. Raised instead of a lossy `as` cast.
    Overflow(String),
    /// A plan tree violated a static invariant (schema mismatch at a node
    /// boundary, out-of-range column reference, bad UDF signature, …).
    /// Produced by the plan semantic analyzer, never at runtime.
    PlanValidation(String),
    /// The request was cooperatively cancelled (explicitly, or by passing
    /// its deadline) before it completed. Carries the stage that observed
    /// the cancellation and the recorded reason. Not a fault: resources
    /// are released through the normal error path.
    Cancelled(String),
}

impl fmt::Display for SqlmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlmlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlmlError::Plan(m) => write!(f, "plan error: {m}"),
            SqlmlError::Type(m) => write!(f, "type error: {m}"),
            SqlmlError::Execution(m) => write!(f, "execution error: {m}"),
            SqlmlError::Dfs(m) => write!(f, "dfs error: {m}"),
            SqlmlError::Ml(m) => write!(f, "ml error: {m}"),
            SqlmlError::Transfer(m) => write!(f, "transfer error: {m}"),
            SqlmlError::Cache(m) => write!(f, "cache error: {m}"),
            SqlmlError::Io(e) => write!(f, "io error: {e}"),
            SqlmlError::InjectedFault(m) => write!(f, "injected fault: {m}"),
            SqlmlError::FrameTooLarge(m) => write!(f, "frame too large: {m}"),
            SqlmlError::Overflow(m) => write!(f, "counter overflow: {m}"),
            SqlmlError::PlanValidation(m) => write!(f, "plan validation error: {m}"),
            SqlmlError::Cancelled(m) => write!(f, "cancelled: {m}"),
        }
    }
}

impl std::error::Error for SqlmlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SqlmlError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SqlmlError {
    fn from(e: std::io::Error) -> Self {
        SqlmlError::Io(e)
    }
}

impl SqlmlError {
    /// True when the error was produced by deliberate fault injection
    /// (directly, or as the io/transfer surface of an injected fault).
    pub fn is_injected(&self) -> bool {
        matches!(self, SqlmlError::InjectedFault(_))
    }

    /// True when the error is a cooperative cancellation (deadline or
    /// explicit cancel) rather than a genuine failure.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SqlmlError::Cancelled(_))
    }
}

/// Convert a `usize` counter to the `u32` wire representation, failing
/// with a descriptive [`SqlmlError::FrameTooLarge`] instead of silently
/// truncating. `what` names the counter for the diagnostic.
pub fn wire_u32(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n)
        .map_err(|_| SqlmlError::FrameTooLarge(format!("{what} {n} exceeds the u32 wire limit")))
}

/// Convert any integer counter to `u32`, failing with a descriptive
/// [`SqlmlError::Overflow`] on values that do not fit (including negative
/// ones). `what` names the counter for the diagnostic.
pub fn counter_u32<T>(n: T, what: &str) -> Result<u32>
where
    T: Copy + std::fmt::Display + TryInto<u32>,
{
    n.try_into()
        .map_err(|_| SqlmlError::Overflow(format!("{what} {n} does not fit in u32")))
}

/// [`counter_u32`] for 64-bit counters: what a count read back out of a
/// SQL `Int` (an `i64`) goes through, so a negative value is an error
/// instead of an `as` cast wrapping it to ~1.8e19.
pub fn counter_u64<T>(n: T, what: &str) -> Result<u64>
where
    T: Copy + std::fmt::Display + TryInto<u64>,
{
    n.try_into()
        .map_err(|_| SqlmlError::Overflow(format!("{what} {n} does not fit in u64")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = SqlmlError::Parse("unexpected token `,` at 7".into());
        assert_eq!(e.to_string(), "parse error: unexpected token `,` at 7");
        let e = SqlmlError::Transfer("peer hung up".into());
        assert!(e.to_string().starts_with("transfer error:"));
    }

    #[test]
    fn io_errors_wrap_with_source() {
        use std::error::Error;
        let io = std::io::Error::other("boom");
        let e = SqlmlError::from(io);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn wire_u32_rejects_oversized_counters() {
        assert_eq!(wire_u32(42, "rows").unwrap(), 42);
        assert_eq!(wire_u32(u32::MAX as usize, "rows").unwrap(), u32::MAX);
        let err = wire_u32(u32::MAX as usize + 1, "rows").unwrap_err();
        assert!(matches!(err, SqlmlError::FrameTooLarge(_)));
        assert!(err.to_string().contains("rows"), "{err}");
    }

    #[test]
    fn counter_u32_rejects_negatives_and_overflow() {
        assert_eq!(counter_u32(7i64, "attempts").unwrap(), 7);
        let err = counter_u32(-3i64, "attempts").unwrap_err();
        assert!(matches!(err, SqlmlError::Overflow(_)));
        assert!(err.to_string().contains("attempts"), "{err}");
        assert!(counter_u32(u64::MAX, "bytes").is_err());
        assert_eq!(counter_u64(7i64, "rows").unwrap(), 7);
        let err = counter_u64(-1i64, "rows").unwrap_err();
        assert!(matches!(err, SqlmlError::Overflow(_)));
        assert!(err.to_string().contains("rows -1"), "{err}");
    }

    #[test]
    fn injected_fault_is_detectable() {
        assert!(SqlmlError::InjectedFault("kill worker 2".into()).is_injected());
        assert!(!SqlmlError::Execution("real bug".into()).is_injected());
    }
}
