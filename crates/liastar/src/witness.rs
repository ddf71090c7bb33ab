//! Proof witnesses recorded by the id-native decision procedure.
//!
//! [`prove_with_witness`] runs the prover's own decide (arena interning,
//! disjoint-squash splitting, normalization, summand simplification,
//! isomorphism matching, class counting — with every thread-local cache the
//! proving path uses) under a recording `Recorder`, and captures
//! everything an independent checker needs to re-validate the proof without
//! re-running SMT:
//!
//! - which summands were zero-pruned and which atoms were removed as implied
//!   (so the structural simplification can be replayed);
//! - the exact isomorphism pairing when the kept summands matched
//!   bijectively (so the checker can re-unify each pair under one shared
//!   variable mapping);
//! - the class representatives, per-summand assignments, and per-class
//!   counts when class counting decided the proof.
//!
//! The recorder keeps arena ids while the decide runs and externs them to
//! `GExpr` trees only once the proof is complete. A memoized summand
//! simplification replays its removed atoms from the cache entry, so a
//! witness emitted right after a prove re-pays no SMT call. The proving path
//! records nothing: it runs the same decide with the no-op recorder.

use gexpr::arena::{GStore, NodeId};
use gexpr::GExpr;

use crate::{DecisionStats, Recorder, Side};

/// One kept summand with its simplification record. Expressions are trees
/// (`E = GExpr`) in a finished witness and arena ids while the decide runs.
#[derive(Debug, Clone, PartialEq)]
pub struct KeptRecord<E = GExpr> {
    /// Index into the side's original summand list.
    pub index: usize,
    /// Atoms removed as SMT-implied, in removal order.
    pub removed_atoms: Vec<E>,
    /// The simplified summand.
    pub result: E,
}

/// One side's summand accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SideRecord<E = GExpr> {
    /// Number of summands before pruning.
    pub total: usize,
    /// Indices of summands pruned as identically zero.
    pub zero_pruned: Vec<usize>,
    /// Surviving summands in original order.
    pub kept: Vec<KeptRecord<E>>,
}

/// How the two sides' kept summands were matched.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchingRecord<E = GExpr> {
    /// `(left kept position, right kept position)` pairs unifiable in order
    /// under a single shared variable mapping.
    Bijection(Vec<(usize, usize)>),
    /// Isomorphism-class counting with a final (trusted-free) count equality.
    Classes {
        /// Class representative expressions.
        representatives: Vec<E>,
        /// Class of each left kept summand.
        left_assign: Vec<usize>,
        /// Class of each right kept summand.
        right_assign: Vec<usize>,
        /// Per-class counts on the left.
        left_counts: Vec<usize>,
        /// Per-class counts on the right.
        right_counts: Vec<usize>,
    },
}

/// The recorded proof tree.
#[derive(Debug, Clone, PartialEq)]
pub enum ProofRecord {
    /// The normalized trees are structurally identical.
    Identical,
    /// Both sides are squashes; the proof continues on the bodies.
    Peel(Box<ProofRecord>),
    /// Summand decomposition, simplification, and matching.
    Summands(Box<SummandsRecord>),
}

/// The summand-level record of one decision step.
#[derive(Debug, Clone, PartialEq)]
pub struct SummandsRecord {
    /// Left side accounting.
    pub left: SideRecord,
    /// Right side accounting.
    pub right: SideRecord,
    /// The matching that closed the proof.
    pub matching: MatchingRecord,
}

/// A complete witness for one pair of G-expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentRecord {
    /// The left tree after disjoint-squash splitting and normalization.
    pub left: GExpr,
    /// The right tree after disjoint-squash splitting and normalization.
    pub right: GExpr,
    /// The recorded proof relating them.
    pub proof: ProofRecord,
}

/// Proves `g1 ≡ g2` with the id-native decision procedure, emitting a full
/// witness. Returns `None` when the decision cannot establish equivalence
/// (or a limit trips): the verdict and the witness come from one decide, so
/// this happens exactly when [`crate::check_equivalence`] is not `Proved`.
pub fn prove_with_witness(g1: &GExpr, g2: &GExpr) -> Option<SegmentRecord> {
    gexpr::arena::with_thread_store(|store| {
        let (left, right) = crate::prepare(store, g1, g2).ok()?;
        let mut recording = Recording::default();
        let (decision, _) = crate::decide_prepared(
            store,
            left,
            right,
            &mut DecisionStats::default(),
            &mut recording,
        )
        .ok()?;
        decision.is_proved().then(|| recording.finish(store, left, right))
    })
}

/// The recording [`Recorder`]: the proof steps of one decide, on arena ids.
#[derive(Default)]
struct Recording {
    /// Squash layers peeled before the final step.
    peels: usize,
    /// The final step was a structural identity.
    identical: bool,
    /// The summand accounting of each side, left first, in report order.
    sides: Vec<SideRecord<NodeId>>,
    /// The class of each kept summand, per side.
    classes: [Vec<usize>; 2],
    matching: Option<MatchingRecord<NodeId>>,
}

impl Recorder for Recording {
    fn peel(&mut self) {
        self.peels += 1;
    }

    fn identical(&mut self) {
        self.identical = true;
    }

    fn side(&mut self, total: usize) {
        self.sides.push(SideRecord { total, zero_pruned: Vec::new(), kept: Vec::new() });
    }

    fn summand(&mut self, index: usize, removed: &[NodeId], result: Option<NodeId>) {
        let side = self.sides.last_mut().expect("summands are reported after their side");
        match result {
            Some(result) => {
                side.kept.push(KeptRecord { index, removed_atoms: removed.to_vec(), result })
            }
            None => side.zero_pruned.push(index),
        }
    }

    fn bijection(&mut self, assignment: Vec<usize>) {
        self.matching =
            Some(MatchingRecord::Bijection(assignment.into_iter().enumerate().collect()));
    }

    fn class_of(&mut self, side: Side, class: usize) {
        self.classes[side as usize].push(class);
    }

    fn classes(&mut self, representatives: &[NodeId], left: &[i64], right: &[i64]) {
        let counts = |counts: &[i64]| counts.iter().map(|&count| count as usize).collect();
        let [left_assign, right_assign] = std::mem::take(&mut self.classes);
        self.matching = Some(MatchingRecord::Classes {
            representatives: representatives.to_vec(),
            left_assign,
            right_assign,
            left_counts: counts(left),
            right_counts: counts(right),
        });
    }
}

impl Recording {
    /// The recorded proof of the prepared pair `(left, right)`, externed to
    /// trees.
    fn finish(self, store: &GStore, left: NodeId, right: NodeId) -> SegmentRecord {
        let extern_ = |id: NodeId| store.extern_expr(id);
        let mut proof = if self.identical {
            ProofRecord::Identical
        } else {
            let (Ok([left_side, right_side]), Some(matching)) =
                (<[_; 2]>::try_from(self.sides), self.matching)
            else {
                unreachable!("a proved decide ends in an identity or a summand matching");
            };
            ProofRecord::Summands(Box::new(SummandsRecord {
                left: left_side.map(extern_),
                right: right_side.map(extern_),
                matching: matching.map(extern_),
            }))
        };
        for _ in 0..self.peels {
            proof = ProofRecord::Peel(Box::new(proof));
        }
        SegmentRecord { left: extern_(left), right: extern_(right), proof }
    }
}

impl<E> SideRecord<E> {
    fn map<F>(self, f: impl Fn(E) -> F + Copy) -> SideRecord<F> {
        SideRecord {
            total: self.total,
            zero_pruned: self.zero_pruned,
            kept: self
                .kept
                .into_iter()
                .map(|kept| KeptRecord {
                    index: kept.index,
                    removed_atoms: kept.removed_atoms.into_iter().map(f).collect(),
                    result: f(kept.result),
                })
                .collect(),
        }
    }
}

impl<E> MatchingRecord<E> {
    fn map<F>(self, f: impl Fn(E) -> F) -> MatchingRecord<F> {
        match self {
            MatchingRecord::Bijection(pairs) => MatchingRecord::Bijection(pairs),
            MatchingRecord::Classes {
                representatives,
                left_assign,
                right_assign,
                left_counts,
                right_counts,
            } => MatchingRecord::Classes {
                representatives: representatives.into_iter().map(f).collect(),
                left_assign,
                right_assign,
                left_counts,
                right_counts,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::{cloning, VarMapping};
    use cypher_parser::parse_query;
    use gexpr::build_query;

    fn gexpr_of(query: &str) -> GExpr {
        build_query(&parse_query(query).unwrap()).unwrap().expr
    }

    const PAIRS: [(&str, &str); 4] = [
        ("MATCH (n1) RETURN n1", "MATCH (n1) RETURN n1"),
        ("MATCH (n1) RETURN n1.a", "MATCH (n2) RETURN n2.a"),
        ("MATCH (n1) WHERE n1.a > 5 AND n1.a > 3 RETURN n1", "MATCH (n1) WHERE n1.a > 5 RETURN n1"),
        ("MATCH (n:Person) RETURN n", "MATCH (n:Book) RETURN n"),
    ];

    #[test]
    fn witness_matches_the_tree_pipeline_verdict() {
        for (q1, q2) in PAIRS {
            let (g1, g2) = (gexpr_of(q1), gexpr_of(q2));
            let proved = crate::check_equivalence(&g1, &g2).is_proved();
            let by_tree = crate::check_equivalence_with_opts(
                &g1,
                &g2,
                crate::DecideOptions { tree_normalizer: true },
            )
            .0
            .is_proved();
            assert_eq!(proved, by_tree, "pipelines disagree on {q1} vs {q2}");
            assert_eq!(prove_with_witness(&g1, &g2).is_some(), proved, "{q1} vs {q2}");
        }
    }

    #[test]
    fn recorded_bijection_unifies_sequentially() {
        let g1 = gexpr_of("MATCH (n1) RETURN n1.a");
        let g2 = gexpr_of("MATCH (n2) RETURN n2.a");
        let witness = prove_with_witness(&g1, &g2).expect("witness exists");
        let ProofRecord::Summands(record) = &witness.proof else {
            // Identical after normalization is also a fine outcome here.
            return;
        };
        let MatchingRecord::Bijection(pairs) = &record.matching else {
            panic!("expected a bijection");
        };
        let mut mapping = VarMapping::new();
        for &(l, r) in pairs {
            let extended = cloning::unify_expr(
                &record.left.kept[l].result,
                &record.right.kept[r].result,
                &mapping,
            )
            .expect("pair unifies under the shared mapping");
            mapping = extended;
        }
    }

    fn removed_count(proof: &ProofRecord) -> usize {
        match proof {
            ProofRecord::Identical => 0,
            ProofRecord::Peel(inner) => removed_count(inner),
            ProofRecord::Summands(record) => record
                .left
                .kept
                .iter()
                .chain(record.right.kept.iter())
                .map(|k| k.removed_atoms.len())
                .sum(),
        }
    }

    #[test]
    fn implied_atom_removal_is_recorded() {
        let g1 = gexpr_of("MATCH (n1) WHERE n1.a > 5 AND n1.a > 3 RETURN n1");
        let g2 = gexpr_of("MATCH (n1) WHERE n1.a > 5 RETURN n1");
        let witness = prove_with_witness(&g1, &g2).expect("witness exists");
        assert!(
            removed_count(&witness.proof) >= 1,
            "the implied atom [n1.a > 3] should be recorded as removed"
        );
    }

    #[test]
    fn cached_and_carried_summands_replay_the_same_witness() {
        crate::reset_thread_caches();
        let g1 = gexpr_of("MATCH (n1) WHERE n1.a > 5 AND n1.a > 3 RETURN n1");
        let g2 = gexpr_of("MATCH (n1) WHERE n1.a > 5 RETURN n1");
        // Cold: every summand simplification misses and runs the SMT solver.
        let cold = prove_with_witness(&g1, &g2).expect("witness exists");
        // Warm: the same thread's summand cache replays the removals.
        let warm = prove_with_witness(&g1, &g2).expect("witness exists");
        assert_eq!(cold, warm);
        // Across an epoch reset the carried-over entries were externed and
        // re-interned, removed atoms included.
        crate::reset_thread_caches();
        let carried = prove_with_witness(&g1, &g2).expect("witness exists");
        assert_eq!(cold, carried);
        assert!(removed_count(&carried.proof) >= 1);
    }
}
