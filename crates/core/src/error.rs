//! The unified `simap` error type: every failure mode of the synthesis
//! pipeline — benchmark lookup, `.g` parsing, Petri-net construction,
//! reachability, Complete State Coding, CSC repair, event insertion and
//! speed-independence verification — as one enum carrying the stage it
//! occurred in plus enough context (signal names, codes, the original
//! conflict list) to act on programmatically.
//!
//! The crate-level error types it unifies ([`McError`], [`InsertionError`],
//! [`CscRepairError`], [`VerifyError`], [`ParseStgError`], [`ReachError`],
//! [`StgError`]) remain the `source()` of the corresponding variants, so
//! `Box<dyn Error>` consumers keep the full chain.

use crate::csc::{CscConflict, CscRepairError};
use crate::insertion::InsertionError;
use crate::mc::McError;
use simap_netlist::VerifyError;
use simap_stg::{ParseStgError, ReachError, StgError};
use std::fmt;

/// The pipeline stage an error belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Validating the run configuration (before any flow work).
    Configure,
    /// Resolving the specification source (benchmark name, `.g` text, STG).
    Load,
    /// Token-game reachability: STG → state graph, plus CSC repair.
    Elaborate,
    /// Monotonous-cover synthesis.
    Covers,
    /// The decomposition/resynthesis loop.
    Decompose,
    /// Standard-C netlist construction.
    Map,
    /// Speed-independence verification.
    Verify,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Configure => "configure",
            Stage::Load => "load",
            Stage::Elaborate => "elaborate",
            Stage::Covers => "covers",
            Stage::Decompose => "decompose",
            Stage::Map => "map",
            Stage::Verify => "verify",
        })
    }
}

/// Unified error of the [`crate::pipeline`] API (re-exported as
/// `simap::Error`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A [`crate::Config`] value failed validation at build time.
    InvalidConfig {
        /// What was wrong with the configuration.
        message: String,
    },
    /// The requested benchmark is not in the embedded Table 1 suite.
    UnknownBenchmark {
        /// The name that failed to resolve.
        name: String,
    },
    /// The `.g` source failed to parse.
    Parse(ParseStgError),
    /// The signal transition graph is structurally broken.
    Stg(StgError),
    /// Reachability failed: unbounded place, state explosion or an
    /// inconsistent STG.
    Elaborate(ReachError),
    /// The specification violates Complete State Coding and repair was not
    /// requested: no cover over the existing signals exists.
    CscViolation {
        /// The signal whose cover is ill-defined.
        signal: String,
        /// The shared code of the first conflict.
        code: u64,
        /// Every conflicting state pair of the specification, by
        /// ascending code.
        conflicts: Vec<CscConflict>,
    },
    /// CSC repair was requested but no legal state-signal insertion
    /// resolves the conflicts.
    CscRepairFailed {
        /// Why the repair gave up.
        error: CscRepairError,
        /// The conflicts the repair was asked to separate.
        conflicts: Vec<CscConflict>,
    },
    /// A speed-independence-preserving insertion was rejected.
    Insertion(InsertionError),
    /// The mapped circuit was refuted (or could not be checked): the
    /// verifier's verdict, with the signal the offending gate drives when
    /// one is known.
    Verify {
        /// The underlying verifier error.
        error: VerifyError,
    },
}

impl Error {
    /// The pipeline stage this error belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            Error::InvalidConfig { .. } => Stage::Configure,
            Error::UnknownBenchmark { .. } | Error::Parse(_) | Error::Stg(_) => Stage::Load,
            Error::Elaborate(_) | Error::CscRepairFailed { .. } => Stage::Elaborate,
            Error::CscViolation { .. } => Stage::Covers,
            Error::Insertion(_) => Stage::Decompose,
            Error::Verify { .. } => Stage::Verify,
        }
    }

    /// The CSC conflicts attached to this error, when it carries any, in
    /// [`crate::csc_conflicts`]'s order: by ascending code, then
    /// ascending state id.
    pub fn csc_conflicts(&self) -> &[CscConflict] {
        match self {
            Error::CscViolation { conflicts, .. } | Error::CscRepairFailed { conflicts, .. } => {
                conflicts
            }
            _ => &[],
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.stage())?;
        match self {
            Error::InvalidConfig { message } => {
                write!(f, "invalid configuration: {message}")
            }
            Error::UnknownBenchmark { name } => {
                write!(f, "unknown benchmark `{name}` (see simap::stg::benchmark_names())")
            }
            Error::Parse(e) => write!(f, "cannot parse .g source: {e}"),
            Error::Stg(e) => write!(f, "malformed signal transition graph: {e}"),
            Error::Elaborate(e) => write!(f, "cannot elaborate specification: {e}"),
            Error::CscViolation { signal, code, conflicts } => write!(
                f,
                "CSC violation on signal `{signal}` at code {code:b} ({} conflicting state \
                 pair(s); enable repair_csc to insert state signals)",
                conflicts.len()
            ),
            Error::CscRepairFailed { error, conflicts } => write!(
                f,
                "CSC repair failed with {} conflicting state pair(s) outstanding: {error}",
                conflicts.len()
            ),
            Error::Insertion(e) => write!(f, "signal insertion rejected: {e}"),
            Error::Verify { error } => write!(f, "speed-independence check: {error}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::InvalidConfig { .. }
            | Error::UnknownBenchmark { .. }
            | Error::CscViolation { .. } => None,
            Error::Parse(e) => Some(e),
            Error::Stg(e) => Some(e),
            Error::Elaborate(e) => Some(e),
            Error::CscRepairFailed { error, .. } => Some(error),
            Error::Insertion(e) => Some(e),
            Error::Verify { error } => Some(error),
        }
    }
}

impl From<ParseStgError> for Error {
    fn from(e: ParseStgError) -> Self {
        Error::Parse(e)
    }
}

impl From<StgError> for Error {
    fn from(e: StgError) -> Self {
        Error::Stg(e)
    }
}

impl From<ReachError> for Error {
    fn from(e: ReachError) -> Self {
        Error::Elaborate(e)
    }
}

impl From<McError> for Error {
    fn from(e: McError) -> Self {
        match e {
            McError::CscConflict { signal, code } => {
                Error::CscViolation { signal, code, conflicts: Vec::new() }
            }
        }
    }
}

impl From<InsertionError> for Error {
    fn from(e: InsertionError) -> Self {
        Error::Insertion(e)
    }
}

impl From<VerifyError> for Error {
    fn from(error: VerifyError) -> Self {
        Error::Verify { error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn stages_and_display() {
        let e = Error::UnknownBenchmark { name: "nope".into() };
        assert_eq!(e.stage(), Stage::Load);
        assert!(e.to_string().contains("[load] unknown benchmark `nope`"));

        let e = Error::CscViolation { signal: "q".into(), code: 0b101, conflicts: Vec::new() };
        assert_eq!(e.stage(), Stage::Covers);
        assert!(e.to_string().contains("signal `q`"));
        assert!(e.to_string().contains("101"));
    }

    #[test]
    fn sources_chain() {
        let inner = ParseStgError { line: 3, column: 7, message: "bad".into() };
        let e = Error::from(inner.clone());
        assert_eq!(e.source().unwrap().to_string(), inner.to_string());
        assert!(Error::UnknownBenchmark { name: "x".into() }.source().is_none());
    }

    #[test]
    fn conflicts_accessor() {
        use crate::csc::CscConflict;
        use simap_sg::StateId;
        let c = CscConflict { a: StateId(0), b: StateId(1), code: 3 };
        let e = Error::CscRepairFailed { error: CscRepairError::Inconsistent, conflicts: vec![c] };
        assert_eq!(e.csc_conflicts(), &[c]);
        assert!(Error::Insertion(InsertionError::ConstantFunction).csc_conflicts().is_empty());
    }
}
