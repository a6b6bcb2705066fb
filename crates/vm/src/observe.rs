//! What a run observably produced, as one comparable value.
//!
//! Every config axis the reproduction adds on the host side — execution
//! tier, artifact cache, check elision, host pooling — is admissible
//! only because it leaves some part of a run's result unchanged. An
//! [`Observation`] is that result with host telemetry stripped (fusion
//! counters, the trace ring, forensics), so harnesses compare two runs
//! by plain equality instead of each re-deriving which fields matter.

use crate::{RunResult, RunStats, VmError};
use ifp_hw::Trap;

/// How a run ended, in the vocabulary of the paper's functional
/// evaluation (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Ran to completion.
    Completed,
    /// Stopped by a memory-safety trap (spatial or temporal) at a check:
    /// the detection the functional evaluation counts.
    SafetyTrap,
    /// Stopped by a trap that is not a safety detection, typically a
    /// page fault after a wild access escaped the checks.
    OtherTrap,
    /// Stopped outside the trap model (allocator failure, fuel, invalid
    /// program).
    Error,
}

impl Verdict {
    /// Short label for summaries.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Completed => "completed",
            Verdict::SafetyTrap => "detected",
            Verdict::OtherTrap => "trapped-other",
            Verdict::Error => "errored",
        }
    }
}

/// Everything a run produced that a host-side config axis could change.
/// Compared by `==`; [`Observation::same_behaviour`] is the weaker
/// equality that ignores [`RunStats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observation {
    /// How the run ended.
    pub verdict: Verdict,
    /// `main`'s return value; `None` unless the run completed.
    pub exit_code: Option<i64>,
    /// Everything the program printed; empty unless the run completed
    /// (a stopped run hands back no output).
    pub output: Vec<i64>,
    /// The trap and the function that raised it; `None` unless the run
    /// trapped.
    pub trap: Option<(Trap, String)>,
    /// The error rendering; `None` unless the verdict is
    /// [`Verdict::Error`].
    pub error: Option<String>,
    /// The modeled statistics, up to the trap for trapped runs; `None`
    /// for errors, which carry none.
    pub stats: Option<RunStats>,
}

impl Observation {
    /// Observes one run result.
    #[must_use]
    pub fn of(result: &Result<RunResult, VmError>) -> Observation {
        let stopped = Observation {
            verdict: Verdict::Error,
            exit_code: None,
            output: Vec::new(),
            trap: None,
            error: None,
            stats: None,
        };
        match result {
            Ok(r) => Observation {
                verdict: Verdict::Completed,
                exit_code: Some(r.exit_code),
                output: r.output.clone(),
                stats: Some(r.stats.clone()),
                ..stopped
            },
            Err(VmError::Trap {
                trap, func, stats, ..
            }) => Observation {
                verdict: if trap.is_safety_violation() {
                    Verdict::SafetyTrap
                } else {
                    Verdict::OtherTrap
                },
                trap: Some((*trap, func.clone())),
                stats: Some((**stats).clone()),
                ..stopped
            },
            Err(e) => Observation {
                error: Some(e.to_string()),
                ..stopped
            },
        }
    }

    /// Whether `other` ended the same way — verdict, exit code, output,
    /// trap, error — whatever its [`RunStats`]. This is the contract
    /// check elision keeps: it may save modeled work, never change what
    /// the program did.
    #[must_use]
    pub fn same_behaviour(&self, other: &Observation) -> bool {
        self.verdict == other.verdict
            && self.exit_code == other.exit_code
            && self.output == other.output
            && self.trap == other.trap
            && self.error == other.error
    }

    /// Modeled instructions executed (up to the trap; zero for errors).
    #[must_use]
    pub fn total_instrs(&self) -> u64 {
        self.stats.as_ref().map_or(0, RunStats::total_instrs)
    }

    /// One-line rendering of how the run ended, e.g. `detected (bounds
    /// violation … in `main`)`.
    #[must_use]
    pub fn describe(&self) -> String {
        let label = self.verdict.label();
        match (&self.exit_code, &self.trap, &self.error) {
            (Some(exit), _, _) => format!("{label} (exit {exit})"),
            (_, Some((trap, func)), _) => format!("{label} ({trap} in `{func}`)"),
            (_, _, Some(error)) => format!("{label} ({error})"),
            _ => label.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, AllocatorKind, Mode, VmConfig};
    use ifp_compiler::{Operand, ProgramBuilder};

    fn overflow_program(index: i64) -> ifp_compiler::Program {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.types.int64();
        let mut f = pb.func("main", 0);
        let a = f.malloc_n(i64t, 4i64);
        let i = f.mov(index);
        let p = f.index_addr(a, i64t, i);
        f.store(p, 7i64, i64t);
        f.print_int(index);
        f.ret(Some(Operand::Imm(0)));
        pb.finish_func(f);
        pb.build()
    }

    #[test]
    fn verdicts_classify_completion_detection_and_errors() {
        let cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
        let ok = Observation::of(&run(&overflow_program(1), &cfg));
        assert_eq!(ok.verdict, Verdict::Completed);
        assert_eq!((ok.exit_code, ok.output.as_slice()), (Some(0), &[1][..]));
        assert!(ok.stats.is_some() && ok.trap.is_none());

        let bad = Observation::of(&run(&overflow_program(4), &cfg));
        assert_eq!(bad.verdict, Verdict::SafetyTrap);
        assert_eq!(bad.trap.as_ref().map(|(_, f)| f.as_str()), Some("main"));
        assert!(bad.stats.is_some() && bad.output.is_empty());
        assert!(
            bad.describe().starts_with("detected ("),
            "{}",
            bad.describe()
        );

        let err = Observation::of(&run(&ifp_compiler::Program::default(), &cfg));
        assert_eq!(err.verdict, Verdict::Error);
        assert!(err.stats.is_none() && err.error.is_some());
        assert_eq!(err.total_instrs(), 0);
    }

    #[test]
    fn behaviour_ignores_stats_but_equality_does_not() {
        let cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Wrapped));
        let a = Observation::of(&run(&overflow_program(4), &cfg));
        let mut b = a.clone();
        b.stats.as_mut().expect("trapped runs carry stats").cycles += 1;
        assert!(a.same_behaviour(&b));
        assert_ne!(a, b);
        b.verdict = Verdict::OtherTrap;
        assert!(!a.same_behaviour(&b));
    }
}
