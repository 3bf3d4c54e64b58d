//! Structural shrinking of failing cases.
//!
//! The vendored `proptest` stand-in has no shrinking machinery (a
//! documented deviation from upstream), so the differential suite carries
//! its own: a greedy pass over a fixed menu of structure-preserving
//! reductions — fewer keys, shorter stream, no noise, fewer chain steps.
//! Each candidate keeps the original seed for reporting (the *seed* is the
//! replay handle; the shrunk case is a diagnosis aid, printed in full).

use crate::oracle::{run_case, CaseFailure};
use crate::plangen::Shape;
use crate::streamgen::Case;

/// A checker the shrinker can drive: `Ok(())` means the candidate passes
/// (reject the reduction), `Err` means it still fails (adopt it). The
/// plain oracle and the optimizer-equivalence check both fit.
pub type CaseCheck<'a> = &'a dyn Fn(&Case) -> Result<(), CaseFailure>;

fn candidates(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut Case)| {
        let mut c = case.clone();
        f(&mut c);
        out.push(c);
    };
    if case.stream.tracks.keys > 1 {
        push(&|c| c.stream.tracks.keys /= 2);
        push(&|c| c.stream.tracks.keys -= 1);
    }
    if case.stream.duration > 3.0 {
        push(&|c| c.stream.duration *= 0.6);
    }
    if case.stream.tracks.noise > 0.0 {
        push(&|c| c.stream.tracks.noise = 0.0);
    }
    let steps = match &case.plan.shape {
        Shape::Chain { steps } => steps.len(),
        _ => 0,
    };
    for i in 0..steps {
        push(&|c| {
            if let Shape::Chain { steps } = &mut c.plan.shape {
                steps.remove(i);
            }
        });
    }
    if let Shape::Agg(a) = &case.plan.shape {
        if !a.pre.is_empty() {
            push(&|c| {
                if let Shape::Agg(a) = &mut c.plan.shape {
                    // `axis` stays valid: slot lookup is modulo the slot
                    // count, and with no pre-map both slots are raw tracks.
                    a.pre.clear();
                }
            });
        }
    }
    if let Shape::Join(j) = &case.plan.shape {
        if !j.left.is_empty() {
            push(&|c| {
                if let Shape::Join(j) = &mut c.plan.shape {
                    j.left.clear();
                }
            });
        }
        if !j.right.is_empty() {
            push(&|c| {
                if let Shape::Join(j) = &mut c.plan.shape {
                    j.right.clear();
                }
            });
        }
        if j.diff {
            push(&|c| {
                if let Shape::Join(j) = &mut c.plan.shape {
                    j.diff = false;
                }
            });
        }
    }
    out
}

/// Greedily minimizes a failing case against the plain three-way oracle.
pub fn minimize(case: &Case, original: CaseFailure) -> (Case, CaseFailure) {
    minimize_by(case, original, &|c| run_case(c).map(|_| ()))
}

/// Greedily minimizes a failing case against an arbitrary checker:
/// repeatedly adopts the first still-failing reduction until none applies
/// (bounded, so a flaky non-reproducing failure cannot loop forever).
/// `opt_equiv` passes its optimized-vs-unoptimized equivalence check here,
/// so equivalence failures shrink exactly like oracle failures.
pub fn minimize_by(
    case: &Case,
    original: CaseFailure,
    check: CaseCheck<'_>,
) -> (Case, CaseFailure) {
    let mut best = case.clone();
    let mut failure = original;
    for _ in 0..24 {
        let mut progressed = false;
        for cand in candidates(&best) {
            // An empty chain would change the plan's sink shape; skip.
            if matches!(&cand.plan.shape, Shape::Chain { steps } if steps.is_empty()) {
                continue;
            }
            if let Err(f) = check(&cand) {
                best = cand;
                failure = f;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    (best, failure)
}

/// Formats a failing case for the panic message: the failure, the shrunk
/// plan (via `LogicalPlan`'s `Display`), and the stream parameters.
pub fn explain_failure(shrunk: &Case, failure: &CaseFailure) -> String {
    let (lp, _) = shrunk.plan.to_logical();
    format!(
        "{failure}\n--- shrunk plan ---\n{lp}--- stream ---\n{:#?}\nduration {:.2}s, bound {}, horizon {}\n",
        shrunk.stream.tracks, shrunk.stream.duration, shrunk.stream.bound, shrunk.stream.horizon
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic checker that fails exactly while `keys > 1` must shrink
    /// to the 2-key boundary with every unrelated reduction (noise,
    /// duration) also applied — and the reported failure must track the
    /// last adopted candidate, not the original case.
    #[test]
    fn minimize_by_drives_a_custom_checker_to_the_boundary() {
        let case = (0..200u64)
            .map(Case::from_seed)
            .find(|c| c.stream.tracks.keys > 2 && c.stream.tracks.noise > 0.0)
            .expect("some seed draws >2 keys with noise");
        let check = |c: &Case| -> Result<(), CaseFailure> {
            if c.stream.tracks.keys > 1 {
                Err(CaseFailure {
                    seed: c.seed,
                    stage: "synthetic",
                    detail: format!("still failing at {} keys", c.stream.tracks.keys),
                })
            } else {
                Ok(())
            }
        };
        let original = check(&case).unwrap_err();
        let (shrunk, failure) = minimize_by(&case, original, &check);
        assert_eq!(shrunk.stream.tracks.keys, 2, "2 keys is the minimal failing count");
        assert_eq!(shrunk.stream.tracks.noise, 0.0, "noise reduction is failure-preserving");
        assert!(shrunk.stream.duration <= 3.0, "duration shrinks while > 3.0");
        assert_eq!(failure.detail, "still failing at 2 keys");
        assert_eq!(failure.stage, "synthetic");
    }

    /// Pre-map clearing is on the candidate menu for aggregate shapes.
    #[test]
    fn agg_pre_clearing_is_a_candidate() {
        use crate::plangen::Shape;
        let case = (0..40u64)
            .map(Case::from_seed_opt)
            .find(|c| matches!(&c.plan.shape, Shape::Agg(a) if !a.pre.is_empty()))
            .expect("opt generator emits pre-mapped aggregates");
        assert!(
            candidates(&case)
                .iter()
                .any(|c| matches!(&c.plan.shape, Shape::Agg(a) if a.pre.is_empty())),
            "no candidate cleared the aggregate pre-map"
        );
    }
}
