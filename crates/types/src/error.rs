//! Typed errors for the chronicle workspace.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T, E = ChronicleError> = std::result::Result<T, E>;

/// Every failure mode in the chronicle data model surfaces as one of these
/// variants; the library never panics on user input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChronicleError {
    /// A schema was malformed (duplicate names, stray SEQ attribute, ...).
    InvalidSchema(String),
    /// An attribute name did not resolve.
    UnknownAttribute {
        /// The name that failed to resolve.
        name: String,
        /// Where resolution was attempted.
        context: String,
    },
    /// A tuple's arity did not match its schema.
    ArityMismatch {
        /// Expected arity.
        expected: usize,
        /// Found arity.
        found: usize,
    },
    /// Two values (or a value and a declared type) were incompatible.
    TypeMismatch {
        /// Where the mismatch occurred.
        context: String,
        /// Description of the left/actual side.
        left: String,
        /// Description of the right/expected side.
        right: String,
    },
    /// An append violated sequence-number monotonicity within a chronicle
    /// group (paper §2.3: inserts must carry a sequence number greater than
    /// every existing one in the group).
    NonMonotonicAppend {
        /// Highest sequence number already in the group.
        high_water: u64,
        /// Offending sequence number.
        attempted: u64,
    },
    /// A sliding-window insert landed in a bucket strictly older than the
    /// newest bucket already folded for its key. Bucket indices are signed
    /// offsets from the window anchor, so chronons before the anchor
    /// legitimately produce negative indices (§5.1); this variant keeps them
    /// signed instead of wrapping through `u64`.
    NonMonotonicBucket {
        /// Newest bucket index already present for the key.
        newest: i64,
        /// Offending (older) bucket index.
        attempted: i64,
    },
    /// A periodic-calendar interval index maps to a chronon outside the
    /// representable `i64` range (`anchor + idx·step` overflows). Surfaced
    /// as a typed error instead of wrapping in release / panicking in
    /// debug builds (§5.1).
    CalendarOutOfRange {
        /// The offending interval index.
        index: u64,
        /// Human-readable description of the overflowing bound.
        detail: String,
    },
    /// A relation update would have been *retroactive*: it changes versions
    /// already seen by some chronicle sequence number (paper §2.3 excludes
    /// these from the model).
    RetroactiveUpdate {
        /// Human-readable description of the offending update.
        detail: String,
    },
    /// An operation mixed chronicles from different chronicle groups
    /// (union/difference/SN-join are only defined within one group, §4).
    CrossGroupOperation {
        /// Description of the two groups involved.
        detail: String,
    },
    /// An expression fell outside the language fragment it was validated
    /// against (the Theorem 4.3 rejections and friends).
    NotInLanguage {
        /// The fragment that was required (e.g. "CA", "CA_join", "SCA_1").
        language: &'static str,
        /// Why the expression is outside it.
        reason: String,
    },
    /// A catalog object (chronicle/relation/view) was not found.
    NotFound {
        /// Kind of object ("chronicle", "relation", "view", "calendar").
        kind: &'static str,
        /// Name or id that failed to resolve.
        name: String,
    },
    /// A catalog object with this name already exists.
    AlreadyExists {
        /// Kind of object.
        kind: &'static str,
        /// The conflicting name.
        name: String,
    },
    /// A key constraint was violated (duplicate primary key on insert).
    KeyViolation {
        /// Description of the duplicate key.
        detail: String,
    },
    /// An operation needed the chronicle contents but the chronicle is not
    /// stored (or the needed prefix has been evicted from the retention
    /// window). SCA maintenance never hits this; baselines and window
    /// queries can.
    ChronicleNotStored {
        /// Which chronicle and what was needed.
        detail: String,
    },
    /// A parse error in the declarative view-definition language.
    Parse {
        /// Error message.
        message: String,
        /// Byte offset in the source text.
        offset: usize,
    },
    /// An aggregate was applied to an incompatible type (e.g. SUM over
    /// strings).
    BadAggregate {
        /// Description.
        detail: String,
    },
    /// Durable storage failed: an I/O error in the WAL/checkpoint layer, or
    /// an operation that requires a database opened with a durability
    /// directory (e.g. `checkpoint()` on an in-memory database).
    Durability {
        /// What failed and where.
        detail: String,
    },
    /// Durable state failed integrity validation: a CRC mismatch outside
    /// the torn tail, a gap in the log-sequence numbering, or an
    /// undecodable checkpoint. Recovery refuses to continue rather than
    /// silently dropping acknowledged data.
    Corruption {
        /// What failed validation.
        detail: String,
    },
    /// A durable artifact is intact but written in a format this build
    /// does not read (another generation of the same family of magics, or
    /// a section an older format used). Unlike [`ChronicleError::Corruption`]
    /// nothing is damaged: recovery refuses the artifact instead of
    /// skipping or quarantining it, so the operator learns the reason.
    UnsupportedFormat {
        /// Which artifact, e.g. the checkpoint file's path.
        artifact: String,
        /// The format found.
        found: String,
        /// The format this build reads.
        supported: String,
    },
    /// A request carried a stale leadership term: the sender is (or is
    /// talking to) a deposed leader. Fencing keeps a zombie ex-leader — or
    /// its WAL shipper — from diverging the replicated history; the caller
    /// should rediscover the current leader and retry there.
    Fenced {
        /// The term the rejected request carried.
        observed: u64,
        /// The rejecting node's current term.
        current: u64,
    },
    /// The server's admission budget is exhausted: the maintenance
    /// pipeline's bounded queue is full, and blocking the session thread
    /// would let one slow shard stall every connection. The request was
    /// *not* applied; retry after the hinted delay.
    Overloaded {
        /// Suggested client-side delay before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A request's read deadline elapsed before the reply arrived. The
    /// request may or may not have been applied — an idempotent retry
    /// (same session, same seq) is the safe way to find out.
    Timeout {
        /// What was being waited for.
        detail: String,
    },
    /// Internal invariant breakage — indicates a bug in this library, kept
    /// as an error instead of a panic so servers can shed the request.
    Internal(String),
}

impl fmt::Display for ChronicleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChronicleError::InvalidSchema(s) => write!(f, "invalid schema: {s}"),
            ChronicleError::UnknownAttribute { name, context } => {
                write!(f, "unknown attribute `{name}` in {context}")
            }
            ChronicleError::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: expected {expected}, found {found}")
            }
            ChronicleError::TypeMismatch {
                context,
                left,
                right,
            } => write!(f, "type mismatch in {context}: {left} vs {right}"),
            ChronicleError::NonMonotonicAppend {
                high_water,
                attempted,
            } => write!(
                f,
                "non-monotonic append: sequence number {attempted} is not greater than group high-water mark {high_water}"
            ),
            ChronicleError::NonMonotonicBucket { newest, attempted } => write!(
                f,
                "non-monotonic window insert: bucket {attempted} is older than the newest bucket {newest}"
            ),
            ChronicleError::CalendarOutOfRange { index, detail } => write!(
                f,
                "calendar interval {index} is out of chronon range: {detail}"
            ),
            ChronicleError::RetroactiveUpdate { detail } => {
                write!(f, "retroactive relation update rejected: {detail}")
            }
            ChronicleError::CrossGroupOperation { detail } => {
                write!(f, "operands belong to different chronicle groups: {detail}")
            }
            ChronicleError::NotInLanguage { language, reason } => {
                write!(f, "expression is not in {language}: {reason}")
            }
            ChronicleError::NotFound { kind, name } => write!(f, "{kind} `{name}` not found"),
            ChronicleError::AlreadyExists { kind, name } => {
                write!(f, "{kind} `{name}` already exists")
            }
            ChronicleError::KeyViolation { detail } => write!(f, "key violation: {detail}"),
            ChronicleError::ChronicleNotStored { detail } => {
                write!(f, "chronicle contents unavailable: {detail}")
            }
            ChronicleError::Parse { message, offset } => {
                write!(f, "parse error at offset {offset}: {message}")
            }
            ChronicleError::BadAggregate { detail } => write!(f, "bad aggregate: {detail}"),
            ChronicleError::Durability { detail } => {
                write!(f, "durable storage failure: {detail}")
            }
            ChronicleError::Corruption { detail } => {
                write!(f, "durable state corrupted: {detail}")
            }
            ChronicleError::UnsupportedFormat {
                artifact,
                found,
                supported,
            } => write!(
                f,
                "unsupported format: {artifact} is {found}, this build reads {supported}"
            ),
            ChronicleError::Fenced { observed, current } => write!(
                f,
                "fenced: request carried stale term {observed}, current term is {current}"
            ),
            ChronicleError::Overloaded { retry_after_ms } => write!(
                f,
                "overloaded: admission queue is full, retry after {retry_after_ms} ms"
            ),
            ChronicleError::Timeout { detail } => {
                write!(f, "timed out waiting for {detail}")
            }
            ChronicleError::Internal(s) => write!(f, "internal invariant violated: {s}"),
        }
    }
}

impl std::error::Error for ChronicleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ChronicleError::NonMonotonicAppend {
            high_water: 10,
            attempted: 7,
        };
        let msg = e.to_string();
        assert!(msg.contains("10") && msg.contains('7'));

        let e = ChronicleError::NotInLanguage {
            language: "CA",
            reason: "cross product between two chronicles".into(),
        };
        assert!(e.to_string().contains("CA"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&ChronicleError::Internal("x".into()));
    }
}
