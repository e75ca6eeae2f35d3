//! Typed errors for input-dependent failure modes.
//!
//! The workspace's panic policy (DESIGN.md §12): panics are reserved for
//! *invariants* — conditions that only a bug inside this codebase can
//! violate — and every remaining panic site carries a comment stating the
//! invariant. Everything an external input can trigger (malformed samples,
//! out-of-order telemetry, truncated or corrupted checkpoint files) must
//! surface as an [`XatuError`] so a long-running deployment can log, skip,
//! or fall back instead of dying.

use std::fmt;
use xatu_netflow::addr::Ipv4;

/// The current checkpoint container version (see `checkpoint` module).
/// Version 2: a detector record holds an open pooling bucket for every
/// timescale coarser than a minute, the short one included, and a short
/// state of granularity above 1 steps on short-bucket means.
pub const CHECKPOINT_VERSION: u16 = 2;

/// Every recoverable failure the core crate can report.
#[derive(Clone, Debug, PartialEq)]
pub enum XatuError {
    /// A minute older than (or equal to) the newest one already observed
    /// was fed to a streaming detector for this customer. Accepting it
    /// would corrupt the rolling survival window, so it is rejected.
    OutOfOrderMinute {
        /// Customer whose stream regressed.
        customer: Ipv4,
        /// The offending minute.
        minute: u32,
        /// The newest minute already observed for this customer.
        last: u32,
    },
    /// A feature frame with the wrong dimensionality was fed to a detector.
    DimensionMismatch {
        /// What the detector expected.
        expected: usize,
        /// What the caller supplied.
        found: usize,
    },
    /// A training sample failed validation.
    InvalidSample {
        /// Index of the sample in the caller's slice.
        index: usize,
        /// Human-readable cause.
        reason: String,
    },
    /// A checkpoint file failed structural validation (bad magic, short
    /// read, checksum mismatch, truncated payload).
    CorruptCheckpoint {
        /// The file in question.
        path: String,
        /// What was wrong.
        reason: String,
    },
    /// A checkpoint file has an unsupported format version.
    CheckpointVersion {
        /// The file in question.
        path: String,
        /// Version found in the header.
        found: u16,
        /// Version this build writes and reads.
        expected: u16,
    },
    /// A structurally-valid checkpoint does not match the run trying to
    /// resume from it (different model shape, sample count, seed, …).
    CheckpointMismatch {
        /// The file in question.
        path: String,
        /// What disagreed.
        reason: String,
    },
    /// A decoded, structurally-valid checkpoint carries values that cannot
    /// be loaded into a live detector (shape disagreements, non-finite
    /// state, internally-inconsistent cursors). Unlike
    /// [`XatuError::CorruptCheckpoint`] this is an in-memory validation
    /// failure, so it carries no file path; callers that loaded the
    /// checkpoint from disk can re-wrap it with
    /// [`XatuError::corrupt`] to attach one.
    InvalidCheckpoint {
        /// What was wrong.
        reason: String,
    },
    /// An I/O failure while reading or writing a checkpoint.
    Io {
        /// The file in question.
        path: String,
        /// The operation that failed (`"read"`, `"write"`, `"rename"`…).
        op: &'static str,
        /// The underlying error message.
        message: String,
    },
}

impl fmt::Display for XatuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XatuError::OutOfOrderMinute {
                customer,
                minute,
                last,
            } => write!(
                f,
                "out-of-order minute {minute} for customer {customer} (newest already observed: {last})"
            ),
            XatuError::DimensionMismatch { expected, found } => {
                write!(f, "feature frame has {found} values, detector expects {expected}")
            }
            XatuError::InvalidSample { index, reason } => {
                write!(f, "invalid training sample #{index}: {reason}")
            }
            XatuError::CorruptCheckpoint { path, reason } => {
                write!(f, "corrupt checkpoint {path}: {reason}")
            }
            XatuError::CheckpointVersion {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {path} has format version {found}, this build supports {expected}"
            ),
            XatuError::CheckpointMismatch { path, reason } => {
                write!(f, "checkpoint {path} does not match this run: {reason}")
            }
            XatuError::InvalidCheckpoint { reason } => {
                write!(f, "invalid checkpoint state: {reason}")
            }
            XatuError::Io { path, op, message } => {
                write!(f, "checkpoint {op} failed for {path}: {message}")
            }
        }
    }
}

impl std::error::Error for XatuError {}

impl XatuError {
    /// Wraps an [`std::io::Error`] with path and operation context.
    pub fn io(path: &std::path::Path, op: &'static str, e: std::io::Error) -> Self {
        XatuError::Io {
            path: path.display().to_string(),
            op,
            message: e.to_string(),
        }
    }

    /// A [`XatuError::CorruptCheckpoint`] with path context.
    pub fn corrupt(path: &std::path::Path, reason: impl Into<String>) -> Self {
        XatuError::CorruptCheckpoint {
            path: path.display().to_string(),
            reason: reason.into(),
        }
    }

    /// An [`XatuError::InvalidCheckpoint`] from any displayable cause.
    pub fn invalid_checkpoint(reason: impl Into<String>) -> Self {
        XatuError::InvalidCheckpoint {
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = XatuError::OutOfOrderMinute {
            customer: Ipv4(7),
            minute: 10,
            last: 12,
        };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains("12"), "{s}");

        let e = XatuError::CheckpointVersion {
            path: "x.ckpt".into(),
            found: 9,
            expected: CHECKPOINT_VERSION,
        };
        assert!(e.to_string().contains("version 9"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = XatuError::DimensionMismatch {
            expected: 273,
            found: 3,
        };
        assert_eq!(
            a,
            XatuError::DimensionMismatch {
                expected: 273,
                found: 3
            }
        );
    }
}
