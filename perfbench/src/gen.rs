//! The seeded `fresh-stream` pair generator.
//!
//! Every pair starts from a corpus query whose variable names and literals
//! are redrawn through the AST and `cypher_parser::pretty`. Pairs meant to be
//! equivalent apply one or two `cyeqset::rewrite` steps to that query; pairs
//! meant to be inequivalent apply one `cyeqset::mutate` rule. The second side
//! is then alpha-renamed once more, so both texts are new. The same seed
//! always gives the same pair sequence, and no query text is handed out
//! twice by one generator.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

use cypher_parser::ast::{Clause, Expr, Literal, PathPattern, Projection, ProjectionItems, Query};
use cypher_parser::pretty::query_to_string;

/// SplitMix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What the generator meant a pair to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    Equivalent,
    NotEquivalent,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FreshPair {
    pub left: String,
    pub right: String,
    pub intent: Intent,
}

/// The equivalence-preserving rewrite steps of CyEqSet.
const REWRITES: [fn(&str) -> Option<String>; 4] = [
    cyeqset::rewrite::rename_variables,
    cyeqset::rewrite::reverse_direction,
    cyeqset::rewrite::split_pattern,
    cyeqset::rewrite::commute_conjuncts,
];

pub struct Generator {
    bases: Vec<Query>,
    rng: Rng,
    /// 64-bit hashes of every text handed out; a colliding draft is redrawn.
    seen: HashSet<u64>,
}

impl Generator {
    /// A generator over every distinct CyEqSet query text.
    pub fn from_corpus(seed: u64) -> Generator {
        let texts: BTreeSet<String> =
            cyeqset::cyeqset().into_iter().flat_map(|pair| [pair.left, pair.right]).collect();
        Generator::new(texts.iter().map(String::as_str), seed)
    }

    /// A generator over the given base queries. Bases that fail the parser,
    /// the semantic check or the analyzer, or that project `*` (whose column
    /// order follows variable names), are skipped.
    fn new<'a>(texts: impl IntoIterator<Item = &'a str>, seed: u64) -> Generator {
        let bases = texts
            .into_iter()
            .filter_map(well_typed)
            .filter(|query| !projects_star(query))
            .collect::<Vec<_>>();
        assert!(!bases.is_empty(), "the generator needs at least one usable base query");
        Generator { bases, rng: Rng::new(seed), seen: HashSet::new() }
    }

    /// The next pair; drafts whose text repeats or fails a check are redrawn.
    pub fn next_pair(&mut self) -> FreshPair {
        loop {
            if let Some(pair) = self.draft() {
                return pair;
            }
        }
    }

    fn draft(&mut self) -> Option<FreshPair> {
        let base = self.bases[self.rng.below(self.bases.len())].clone();
        let left = query_to_string(&redraw(base, &mut self.rng, true));
        let (intent, right) = if self.rng.below(2) == 0 {
            let mut text = left.clone();
            for _ in 0..1 + self.rng.below(2) {
                if let Some(rewritten) = REWRITES[self.rng.below(REWRITES.len())](&text) {
                    text = rewritten;
                }
            }
            (Intent::Equivalent, text)
        } else {
            let (_rule, mutated) = cyeqset::mutate::mutate(&left, self.rng.below(5))?;
            (Intent::NotEquivalent, mutated)
        };
        let right = cypher_parser::parse_query(&right).ok()?;
        let right = query_to_string(&redraw(right, &mut self.rng, false));
        let (left_hash, right_hash) = (text_hash(&left), text_hash(&right));
        let fresh = left_hash != right_hash
            && !self.seen.contains(&left_hash)
            && !self.seen.contains(&right_hash);
        if !fresh || well_typed(&left).is_none() || well_typed(&right).is_none() {
            return None;
        }
        self.seen.insert(left_hash);
        self.seen.insert(right_hash);
        Some(FreshPair { left, right, intent })
    }
}

/// SipHash with fixed keys, so the redraws, too, follow from the seed alone.
fn text_hash(text: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

/// The query if it passes parsing, the semantic check and the analyzer.
fn well_typed(text: &str) -> Option<Query> {
    let query = cypher_parser::parse_and_check(text).ok()?;
    graphqe_analyzer::analyze(&query).ok()?;
    Some(query)
}

fn projects_star(query: &Query) -> bool {
    query.parts.iter().flat_map(|part| &part.clauses).any(|clause| match clause {
        Clause::With(with) => matches!(with.projection.items, ProjectionItems::Star),
        Clause::Return(projection) => matches!(projection.items, ProjectionItems::Star),
        _ => false,
    })
}

/// Alpha-renames every variable the query binds (pattern, path, `UNWIND`
/// and projection aliases) to a fresh random name and, with `literals`,
/// redraws integer literals from `0..10000` and string literals as fresh
/// random words in predicates, pattern properties and projections.
/// `SKIP`/`LIMIT` counts are kept.
fn redraw(mut query: Query, rng: &mut Rng, literals: bool) -> Query {
    let mut bound = BTreeSet::new();
    collect_bound(&query, &mut bound);
    let names: BTreeMap<String, String> =
        bound.into_iter().map(|name| (name, fresh_name(rng))).collect();
    let rewriter = Rewriter { names, rng: RefCell::new(rng), literals };
    rewriter.query(&mut query);
    query
}

fn fresh_name(rng: &mut Rng) -> String {
    let mut name = String::from("v");
    for _ in 0..6 {
        name.push((b'a' + rng.below(26) as u8) as char);
    }
    name
}

fn collect_bound(query: &Query, bound: &mut BTreeSet<String>) {
    let mut bind = |name: &Option<String>| {
        if let Some(name) = name {
            bound.insert(name.clone());
        }
    };
    let mut nested = Vec::new();
    for clause in query.parts.iter().flat_map(|part| &part.clauses) {
        let projection = match clause {
            Clause::Match(m) => {
                for pattern in &m.patterns {
                    bind(&pattern.variable);
                    pattern.nodes().for_each(|node| bind(&node.variable));
                    pattern.relationships().for_each(|rel| bind(&rel.variable));
                }
                m.where_clause.iter().for_each(|e| collect_exists(e, &mut nested));
                continue;
            }
            Clause::Unwind(unwind) => {
                bind(&Some(unwind.alias.clone()));
                continue;
            }
            Clause::With(with) => {
                with.where_clause.iter().for_each(|e| collect_exists(e, &mut nested));
                &with.projection
            }
            Clause::Return(projection) => projection,
        };
        if let ProjectionItems::Items(items) = &projection.items {
            items.iter().for_each(|item| bind(&item.alias));
        }
    }
    for query in nested {
        collect_bound(&query, bound);
    }
}

fn collect_exists(expr: &Expr, nested: &mut Vec<Query>) {
    expr.walk(&mut |e| {
        if let Expr::Exists(query) = e {
            nested.push((**query).clone());
        }
    });
}

struct Rewriter<'a> {
    names: BTreeMap<String, String>,
    rng: RefCell<&'a mut Rng>,
    literals: bool,
}

impl Rewriter<'_> {
    fn query(&self, query: &mut Query) {
        for clause in query.parts.iter_mut().flat_map(|part| &mut part.clauses) {
            match clause {
                Clause::Match(m) => {
                    m.patterns.iter_mut().for_each(|pattern| self.pattern(pattern));
                    self.opt_expr(&mut m.where_clause);
                }
                Clause::Unwind(unwind) => {
                    self.expr(&mut unwind.expr);
                    self.name(&mut unwind.alias);
                }
                Clause::With(with) => {
                    self.projection(&mut with.projection);
                    self.opt_expr(&mut with.where_clause);
                }
                Clause::Return(projection) => self.projection(projection),
            }
        }
    }

    fn pattern(&self, pattern: &mut PathPattern) {
        self.opt_name(&mut pattern.variable);
        self.opt_name(&mut pattern.start.variable);
        pattern.start.properties.iter_mut().for_each(|(_, e)| self.expr(e));
        for segment in &mut pattern.segments {
            self.opt_name(&mut segment.relationship.variable);
            segment.relationship.properties.iter_mut().for_each(|(_, e)| self.expr(e));
            self.opt_name(&mut segment.node.variable);
            segment.node.properties.iter_mut().for_each(|(_, e)| self.expr(e));
        }
    }

    fn projection(&self, projection: &mut Projection) {
        if let ProjectionItems::Items(items) = &mut projection.items {
            for item in items {
                self.expr(&mut item.expr);
                self.opt_name(&mut item.alias);
            }
        }
        projection.order_by.iter_mut().for_each(|order| self.expr(&mut order.expr));
        // Counts are renamed but never redrawn: `LIMIT 0` would empty a side.
        for count in [&mut projection.skip, &mut projection.limit].into_iter().flatten() {
            self.rewrite(count, false);
        }
    }

    fn opt_expr(&self, expr: &mut Option<Expr>) {
        if let Some(expr) = expr {
            self.expr(expr);
        }
    }

    fn expr(&self, expr: &mut Expr) {
        self.rewrite(expr, self.literals);
    }

    fn rewrite(&self, expr: &mut Expr, literals: bool) {
        let owned = std::mem::replace(expr, Expr::Literal(Literal::Null));
        *expr = owned.map(&|e| match e {
            Expr::Variable(name) => Expr::Variable(self.renamed(name)),
            Expr::Exists(mut query) => {
                self.query(&mut query);
                Expr::Exists(query)
            }
            Expr::Literal(Literal::Integer(_)) if literals => {
                Expr::Literal(Literal::Integer(self.rng.borrow_mut().below(10_000) as i64))
            }
            Expr::Literal(Literal::String(_)) if literals => {
                Expr::Literal(Literal::String(fresh_name(&mut self.rng.borrow_mut())))
            }
            other => other,
        });
    }

    fn renamed(&self, name: String) -> String {
        self.names.get(&name).cloned().unwrap_or(name)
    }

    fn name(&self, name: &mut String) {
        *name = self.renamed(std::mem::take(name));
    }

    fn opt_name(&self, name: &mut Option<String>) {
        if let Some(name) = name {
            self.name(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64, count: usize) -> Vec<FreshPair> {
        let mut generator = Generator::from_corpus(seed);
        (0..count).map(|_| generator.next_pair()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_pairs() {
        assert_eq!(sequence(7, 200), sequence(7, 200));
        assert_ne!(sequence(7, 50), sequence(8, 50));
    }

    #[test]
    fn no_query_text_repeats_and_every_text_is_well_typed() {
        let pairs = sequence(11, 3000);
        let mut texts = HashSet::new();
        for pair in &pairs {
            for text in [&pair.left, &pair.right] {
                assert!(texts.insert(text.clone()), "repeated text: {text}");
                assert!(well_typed(text).is_some(), "ill-typed text: {text}");
            }
        }
        let equivalent = pairs.iter().filter(|pair| pair.intent == Intent::Equivalent).count();
        assert!(equivalent > 1000 && equivalent < 2000, "intent mix: {equivalent}/3000");
    }

    #[test]
    fn redrawing_is_an_alpha_renaming() {
        let text = "MATCH (e:Emp)-[w:WORKS_IN]->(d:Dept) WHERE e.age > 30 \
                    WITH e.name AS name, d RETURN name, d.city ORDER BY name LIMIT 3";
        let query = cypher_parser::parse_query(text).unwrap();
        let renamed = query_to_string(&redraw(query, &mut Rng::new(1), false));
        assert!(!renamed.contains("(e:") && !renamed.contains("AS name"), "{renamed}");
        assert!(renamed.contains("> 30") && renamed.contains("LIMIT 3"), "{renamed}");
        assert!(well_typed(&renamed).is_some(), "{renamed}");
    }
}
