//! The CyEqSet/CyNeqSet corpus, its seeded replay order and the pinned
//! verdict counts every pass must reproduce.

use std::collections::BTreeMap;

use crate::gen::Rng;
use crate::workload::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Set {
    CyEqSet,
    CyNeqSet,
}

impl Set {
    /// Pinned `[equivalent, not_equivalent, unknown]` counts of one pass.
    pub fn pinned(self) -> [usize; 3] {
        match self {
            Set::CyEqSet => [138, 0, 10],
            Set::CyNeqSet => [0, 121, 27],
        }
    }
}

pub struct CorpusPair {
    pub left: String,
    pub right: String,
    pub set: Set,
    /// CyEqSet only: whether the pair is one of the 138 the prover proves.
    pub provable: bool,
}

/// All 296 pairs, CyEqSet first.
pub fn load() -> Vec<CorpusPair> {
    let tag = |set: Set| {
        move |pair: cyeqset::QueryPair| CorpusPair {
            left: pair.left,
            right: pair.right,
            set,
            provable: pair.expected_provable,
        }
    };
    let mut pairs: Vec<CorpusPair> =
        cyeqset::cyeqset().into_iter().map(tag(Set::CyEqSet)).collect();
    pairs.extend(cyeqset::cyneqset().into_iter().map(tag(Set::CyNeqSet)));
    pairs
}

/// The verdict each pair must get in every later pass, derived from a first
/// (warm-up) pass: a CyEqSet pair is EQUIVALENT exactly when it is one of
/// the provable ones and UNKNOWN otherwise; a CyNeqSet pair keeps its
/// warm-up verdict unless that was EQUIVALENT, which is never right. Returns
/// the reference and the number of warm-up verdicts that broke these rules;
/// the pinned totals are checked separately by [`Tally`].
pub fn reference(pairs: &[CorpusPair], warmup: &[Kind]) -> (Vec<Kind>, usize) {
    let mut wrong = 0;
    let reference = pairs
        .iter()
        .zip(warmup)
        .map(|(pair, &seen)| {
            let expected = match pair.set {
                Set::CyEqSet if pair.provable => Kind::Equivalent,
                Set::CyEqSet => Kind::Unknown,
                Set::CyNeqSet if seen == Kind::Equivalent => Kind::Unknown,
                Set::CyNeqSet => seen,
            };
            wrong += usize::from(expected != seen);
            expected
        })
        .collect();
    (reference, wrong)
}

/// The corpus in a seeded order, reshuffled for every pass.
pub struct Order {
    rng: Rng,
    permutation: Vec<usize>,
    position: usize,
    pass: usize,
}

impl Order {
    pub fn new(len: usize, seed: u64) -> Order {
        let mut order =
            Order { rng: Rng::new(seed), permutation: (0..len).collect(), position: 0, pass: 0 };
        order.rng.shuffle(&mut order.permutation);
        order
    }

    /// The next `(pass, pair index)`.
    pub fn next(&mut self) -> (usize, usize) {
        if self.position == self.permutation.len() {
            self.rng.shuffle(&mut self.permutation);
            self.position = 0;
            self.pass += 1;
        }
        self.position += 1;
        (self.pass, self.permutation[self.position - 1])
    }
}

/// Verdict counts per pass and set.
#[derive(Default)]
pub struct Tally {
    passes: BTreeMap<usize, [[usize; 3]; 2]>,
}

impl Tally {
    pub fn add(&mut self, pass: usize, set: Set, kind: Kind) {
        self.passes.entry(pass).or_default()[set as usize][kind as usize] += 1;
    }

    pub fn merge(&mut self, other: Tally) {
        for (pass, counts) in other.passes {
            let mine = self.passes.entry(pass).or_default();
            for (mine, theirs) in mine.iter_mut().flatten().zip(counts.iter().flatten()) {
                *mine += theirs;
            }
        }
    }

    /// Whether every complete pass reproduced the pinned counts.
    pub fn complete_passes_match(&self, corpus_len: usize) -> bool {
        self.passes.values().all(|counts| {
            let complete = counts.iter().flatten().sum::<usize>() == corpus_len;
            !complete || (counts[0] == Set::CyEqSet.pinned() && counts[1] == Set::CyNeqSet.pinned())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(set: Set, provable: bool) -> CorpusPair {
        CorpusPair { left: String::new(), right: String::new(), set, provable }
    }

    #[test]
    fn the_reference_fixes_what_a_wrong_warm_up_got_wrong() {
        let pairs =
            [pair(Set::CyEqSet, true), pair(Set::CyEqSet, false), pair(Set::CyNeqSet, false)];
        let warmup = [Kind::Unknown, Kind::Unknown, Kind::Equivalent];
        let (reference, wrong) = reference(&pairs, &warmup);
        assert_eq!(reference, [Kind::Equivalent, Kind::Unknown, Kind::Unknown]);
        assert_eq!(wrong, 2);
    }

    #[test]
    fn only_complete_passes_are_held_to_the_pinned_counts() {
        let mut tally = Tally::default();
        tally.add(0, Set::CyEqSet, Kind::Unknown);
        assert!(tally.complete_passes_match(296));
        assert!(!tally.complete_passes_match(1));
    }

    #[test]
    fn every_pass_visits_every_pair_once() {
        let mut order = Order::new(5, 9);
        let mut seen: Vec<(usize, usize)> = (0..10).map(|_| order.next()).collect();
        seen.sort();
        let expected: Vec<(usize, usize)> =
            (0..2).flat_map(|p| (0..5).map(move |i| (p, i))).collect();
        assert_eq!(seen, expected);
    }
}
