//! The CI bench report: every dataset, stage, serving and certificate
//! measurement in one run, written to `BENCH.json`.
//!
//! The report keeps the schema of the committed `BENCH_pr*.json` series, so
//! `bench_gate --current BENCH.json --previous BENCH_pr8.json` compares it
//! field by field. Extend this binary in place; to commit a new point of the
//! series, copy `BENCH.json` to `BENCH_pr<N>.json` and move the gate's
//! `--previous` to it. The blocks, in run order:
//!
//! * **serve** — a cold replay of every dataset pair as HTTP requests (one
//!   pair per request over a keep-alive connection) against a freshly
//!   spawned server: wall clock, sustained throughput and client-observed
//!   p50/p99 latency. It runs *before* the dataset suites, so the
//!   process-wide caches really are cold. Then a warm replay of the
//!   identical mix on the same (now warm) worker, with the cache hit rates
//!   `/v1/stats` reports afterwards. Verdict counts of both passes are
//!   asserted to match the committed corpus numbers exactly (138/0/10 and
//!   0/121/27). Then:
//!   - an **overload drill**: a burst against a one-worker/one-slot server
//!     whose worker is held by an injected stall — the burst must be
//!     rejected with structured `503 overloaded` responses, never buffered;
//!   - a **fault drill**: every `GRAPHQE_FAULT` spec (panic/stall at every
//!     stage, forced SMT unknown) armed against a live server; the server
//!     must keep answering with structured responses and stay healthy;
//!   - **worker scaling**: the warm corpus replayed by two concurrent
//!     connections against a 1-worker and a 2-worker server, verdict totals
//!     pinned.
//! * **cyeqset / cyneqset** — per dataset: the paper-faithful baseline
//!   against the optimized pipeline end to end and decide-only, the
//!   per-stage breakdown (tree vs arena decide asserted to agree), cache
//!   counters, the counterexample-search, evaluator, parse-cache and
//!   normalize-cache stages the gate's `--stage` flags enforce, the limits
//!   layer's overhead (verdicts asserted identical with limits on and off)
//!   and the unknown-reason taxonomy. Each suite runs three passes merged
//!   by per-field minima (`min_merge`).
//! * **certificates** — per dataset: a warm certificates-off replay, the same
//!   replay with emission (`prove_certified(check = false)`) and with
//!   emission plus independent validation (`check = true`). Every definite
//!   verdict must yield an artifact, and the checker must reject none.
//!
//! Exits non-zero if any pipeline ever disagrees on a verdict, if a replay
//! pass moves a verdict count, or if the server dies under a drill.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cyeqset::{cyeqset, cyneqset, QueryPair};
use cypher_normalizer::normalize_query;
use cypher_parser::parse_and_check;
use graphqe::counterexample::{find_counterexample, find_counterexample_parallel};
use graphqe::{CacheStats, GraphQE, ProveLimits, SearchConfig, Verdict};
use graphqe_bench::{run_pairs_report, table3_rows, PairResult};
use graphqe_serve::json::Json as ServeJson;
use graphqe_serve::{ServeConfig, Server};
use liastar::{check_equivalence_with_opts, DecideOptions};
use limits::faults::{self, FaultKind};
use limits::Stage;
use property_graph::{
    evaluate_query, evaluate_query_scan, Evaluator, GraphGenerator, PropertyGraph,
};

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1000.0
}

/// Minimum wall-clock of three samples of `measured` — the same
/// least-contaminated-estimate rationale as `interleaved_mins`, applied to
/// the parse- and normalize-stage measurements the gate enforces across
/// reports.
fn min_of_samples(mut measured: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            measured();
            ms(start.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

/// Rounds of the interleaved measurements below.
const SAMPLE_ROUNDS: usize = 9;

/// Round-robin minima: one sample of every measurement per round, minimum
/// per measurement across rounds. The gate enforces *ratios* of these
/// numbers across reports, and sampling the two sides of a ratio in
/// separate back-to-back blocks lets a single machine-noise burst
/// contaminate one whole block (every sample of one side, none of the
/// other) and flip the ratio. Interleaving puts adjacent samples of both
/// sides under the same burst, and the per-measurement minimum then
/// pierces it — the same rationale as the limits off/on interleave in
/// `run_dataset`.
fn interleaved_mins<const N: usize>(mut measured: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut mins = [f64::INFINITY; N];
    for _ in 0..SAMPLE_ROUNDS {
        for (slot, measure) in mins.iter_mut().zip(measured.iter_mut()) {
            let start = Instant::now();
            measure();
            *slot = slot.min(ms(start.elapsed()));
        }
    }
    mins
}

/// Times each pipeline stage separately over the dataset (sequentially, so
/// per-stage numbers are comparable across runs and against the committed
/// `BENCH_pr2.json`). Deliberately drives the *uncached* entry points: the
/// cached stage ①/②+③ replays are measured by `parse_stage` and
/// `normalize_stage` below.
fn stage_breakdown(pairs: &[QueryPair]) -> Vec<(&'static str, f64)> {
    let mut parse = Duration::ZERO;
    let mut rules = Duration::ZERO;
    let mut build = Duration::ZERO;
    let mut decide_tree = Duration::ZERO;
    let mut decide_arena = Duration::ZERO;
    for pair in pairs {
        let start = Instant::now();
        let parsed1 = parse_and_check(&pair.left);
        let parsed2 = parse_and_check(&pair.right);
        parse += start.elapsed();
        let (Ok(q1), Ok(q2)) = (parsed1, parsed2) else { continue };

        let start = Instant::now();
        let n1 = normalize_query(&q1);
        let n2 = normalize_query(&q2);
        rules += start.elapsed();

        let start = Instant::now();
        let built1 = gexpr::build_query(&n1);
        let built2 = gexpr::build_query(&n2);
        build += start.elapsed();
        let (Ok(b1), Ok(b2)) = (built1, built2) else { continue };

        let start = Instant::now();
        let tree = check_equivalence_with_opts(
            &b1.expr,
            &b2.expr,
            DecideOptions { tree_normalizer: true },
        );
        decide_tree += start.elapsed();

        let start = Instant::now();
        let arena = check_equivalence_with_opts(
            &b1.expr,
            &b2.expr,
            DecideOptions { tree_normalizer: false },
        );
        decide_arena += start.elapsed();
        assert_eq!(tree.0, arena.0, "decide mismatch on {} vs {}", pair.left, pair.right);
    }
    vec![
        ("parse_check", ms(parse)),
        ("rule_normalize", ms(rules)),
        ("gexpr_build", ms(build)),
        ("decide_tree", ms(decide_tree)),
        ("decide_arena", ms(decide_arena)),
    ]
}

/// Search-stage measurements over the pairs the prover actually searches
/// (those whose verdict is not EQUIVALENT), plus the scan-vs-indexed oracle
/// evaluation micro-comparison over a fixed graph set.
struct SearchStage {
    /// Sequential (lazy) search over all searched pairs, warm pools.
    sequential_ms: f64,
    /// Parallel search over the same pairs (identical on a 1-core machine).
    parallel_ms: f64,
    /// Evaluating every pair's two queries over the fixed graph set with the
    /// linear-scan matcher.
    oracle_scan_ms: f64,
    /// The same evaluations through the adjacency index.
    oracle_indexed_ms: f64,
    /// Pool index of every witness discovered by the main run, in pair
    /// order. The distribution shows how early the pool separates pairs.
    witness_indices: Vec<usize>,
    /// Search-result memo hits/misses over the optimized timed runs.
    memo_hits: u64,
    memo_misses: u64,
}

/// The fixed oracle workload shared by the search- and eval-stage
/// measurements: one graph pool and one parsed copy of every dataset pair,
/// built once per dataset run.
struct OracleWorkload {
    graphs: Vec<PropertyGraph>,
    parsed: Vec<(cypher_parser::ast::Query, cypher_parser::ast::Query)>,
}

impl OracleWorkload {
    fn new(pairs: &[QueryPair]) -> Self {
        let mut graphs = vec![PropertyGraph::new(), PropertyGraph::paper_example()];
        graphs.extend(GraphGenerator::new(0xBEEF).generate_many(16));
        let parsed = pairs
            .iter()
            .filter_map(|pair| {
                Some((parse_and_check(&pair.left).ok()?, parse_and_check(&pair.right).ok()?))
            })
            .collect();
        OracleWorkload { graphs, parsed }
    }
}

fn search_stage(
    pairs: &[QueryPair],
    results: &[PairResult],
    workload: &OracleWorkload,
    threads: usize,
) -> SearchStage {
    let witness_indices: Vec<usize> = results
        .iter()
        .filter_map(|r| match &r.verdict {
            Verdict::NotEquivalent(example) => Some(example.pool_index),
            _ => None,
        })
        .collect();

    // The searched pairs: everything the decision stage could not prove.
    let searched: Vec<(_, _)> = pairs
        .iter()
        .zip(results)
        .filter(|(_, r)| !r.verdict.is_equivalent())
        .filter_map(|(pair, _)| {
            Some((parse_and_check(&pair.left).ok()?, parse_and_check(&pair.right).ok()?))
        })
        .collect();
    // Memo bypassed: these timings must measure the search machinery itself
    // (pool iteration, evaluation, worker scheduling), not memo replay.
    // Pools stay shared/warm, which is what both variants see in steady
    // state. The four measurements are sampled interleaved because the gate
    // enforces the sequential/scan ratio across reports — see
    // `interleaved_mins`. Scan-vs-indexed oracle evaluation runs over the
    // shared fixed workload: the evaluator is what the search spends its
    // time in, so it isolates the adjacency index's contribution from pool
    // caching and early exits.
    let config = SearchConfig { use_memo: false, ..SearchConfig::default() };

    let mut sequential = || {
        for (q1, q2) in &searched {
            let _ = find_counterexample(q1, q2, &config);
        }
    };
    let mut parallel = || {
        for (q1, q2) in &searched {
            let _ = find_counterexample_parallel(q1, q2, &config, threads.max(2));
        }
    };
    let mut oracle_scan = || {
        for (q1, q2) in &workload.parsed {
            for graph in &workload.graphs {
                let _ = evaluate_query_scan(graph, q1);
                let _ = evaluate_query_scan(graph, q2);
            }
        }
    };
    let mut oracle_indexed = || {
        for (q1, q2) in &workload.parsed {
            for graph in &workload.graphs {
                let _ = evaluate_query(graph, q1);
                let _ = evaluate_query(graph, q2);
            }
        }
    };
    let [sequential_ms, parallel_ms, oracle_scan_ms, oracle_indexed_ms] =
        interleaved_mins([&mut sequential, &mut parallel, &mut oracle_scan, &mut oracle_indexed]);

    SearchStage {
        sequential_ms,
        parallel_ms,
        oracle_scan_ms,
        oracle_indexed_ms,
        witness_indices,
        memo_hits: 0,
        memo_misses: 0,
    }
}

/// Eval-stage measurements: every dataset query evaluated over a fixed
/// graph set under both row representations crossed with both matching
/// paths. The flat/map ratios are what `bench_gate --stage eval` enforces
/// across reports; the scan/indexed pairs additionally locate a regression
/// (row bookkeeping vs candidate enumeration).
struct EvalStage {
    /// Flat interned-symbol rows, adjacency-indexed matching (the
    /// production configuration of the counterexample oracle).
    flat_indexed_ms: f64,
    /// Flat rows over the linear-scan matcher.
    flat_scan_ms: f64,
    /// Map-backed rows (the differential oracle), indexed matching.
    map_indexed_ms: f64,
    /// Map-backed rows over the linear-scan matcher.
    map_scan_ms: f64,
    /// Flat rows through the name-resolving AST interpreter (the PR 5
    /// differential oracle for the compiled plans), indexed matching.
    interp_indexed_ms: f64,
    /// The interpreter over the linear-scan matcher.
    interp_scan_ms: f64,
}

fn eval_stage(workload: &OracleWorkload) -> EvalStage {
    // Plan once per query (what the search does), so the timings compare
    // evaluation proper — row bookkeeping and candidate enumeration —
    // across the six configurations.
    let prepare = |scan_matching: bool, map_rows: bool, interpret_patterns: bool| {
        let evaluator =
            Evaluator { scan_matching, map_rows, interpret_patterns, ..Evaluator::new() };
        let prepared: Vec<_> = workload
            .parsed
            .iter()
            .map(|(q1, q2)| (evaluator.prepare(q1), evaluator.prepare(q2)))
            .collect();
        (evaluator, prepared)
    };
    // (scan_matching, map_rows, interpret_patterns), in EvalStage field order.
    let configs = [
        prepare(false, false, false),
        prepare(true, false, false),
        prepare(false, true, false),
        prepare(true, true, false),
        prepare(false, false, true),
        prepare(true, false, true),
    ];
    // Sampled interleaved because the gate enforces the flat/map ratios
    // across reports — see `interleaved_mins`.
    let mut runs: Vec<_> = configs
        .iter()
        .map(|(evaluator, prepared)| {
            move || {
                for (left, right) in prepared {
                    for graph in &workload.graphs {
                        let _ = evaluator.evaluate_prepared(graph, left);
                        let _ = evaluator.evaluate_prepared(graph, right);
                    }
                }
            }
        })
        .collect();
    let [fi, fs, mi, mps, ii, is] = &mut runs[..] else { unreachable!() };
    let mins = interleaved_mins([fi, fs, mi, mps, ii, is]);
    EvalStage {
        flat_indexed_ms: mins[0],
        flat_scan_ms: mins[1],
        map_indexed_ms: mins[2],
        map_scan_ms: mins[3],
        interp_indexed_ms: mins[4],
        interp_scan_ms: mins[5],
    }
}

/// Parse-stage measurements: stage ① over every pair text of the dataset,
/// cold (cache cleared before each sample) vs warm (every text already
/// cached). The warm/cold ratio is what `bench_gate --stage parse`
/// enforces; hit/miss counters come from the timed optimized runs.
struct ParseStage {
    cold_ms: f64,
    warm_ms: f64,
    /// Parse-cache hits/misses over the timed optimized runs.
    hits: u64,
    misses: u64,
}

fn parse_stage(pairs: &[QueryPair]) -> ParseStage {
    let parse_all = || {
        for pair in pairs {
            let _ = graphqe::parse_check_cached(&pair.left);
            let _ = graphqe::parse_check_cached(&pair.right);
        }
    };
    let cold_ms = min_of_samples(|| {
        graphqe::clear_parse_cache();
        parse_all();
    });
    // Every text is now cached: the warm samples measure pure replay.
    let warm_ms = min_of_samples(parse_all);
    ParseStage { cold_ms, warm_ms, hits: 0, misses: 0 }
}

/// Normalize-stage measurements (PR 8): stages ②+③ — rule normalization
/// plus the G-expression build — over every pair text of the dataset,
/// through the shared normalize/build cache. Cold clears the cache before
/// each sample and so pays the full rewrite + build cost; warm replays the
/// memoized entries. The warm/cold ratio is what `bench_gate --stage
/// normalize` enforces; hit/miss counters come from the timed optimized
/// runs.
struct NormalizeStage {
    cold_ms: f64,
    warm_ms: f64,
    /// Normalize-cache hits/misses over the timed optimized runs.
    hits: u64,
    misses: u64,
}

fn normalize_stage(pairs: &[QueryPair]) -> NormalizeStage {
    // Parse once up front through the shared parse cache: the normalize
    // cache keys on the parsed `Arc<Query>` identity, so reusing the same
    // Arcs across samples is exactly the production replay pattern, and no
    // sample pays stage-① cost.
    let parsed: Vec<_> = pairs
        .iter()
        .flat_map(|pair| [&pair.left, &pair.right])
        .filter_map(|text| graphqe::parse_check_cached(text).ok())
        .collect();
    let normalize_all = || {
        for query in &parsed {
            if let Ok(stages) = graphqe::normalized_stages(query) {
                let _ = stages.build();
            }
        }
    };
    let cold_ms = min_of_samples(|| {
        graphqe::clear_normalize_cache();
        normalize_all();
    });
    // Every query is now cached with its build memoized: the warm samples
    // measure pure replay off the shared entries.
    let warm_ms = min_of_samples(normalize_all);
    NormalizeStage { cold_ms, warm_ms, hits: 0, misses: 0 }
}

/// Warm end-to-end cost of the cooperative limits layer (PR 6): the
/// optimized pipeline with no run token installed (`off`, the default) vs a
/// token with generous never-tripping budgets (`on`), so every checkpoint,
/// deadline probe and step counter executes.
struct LimitsOverhead {
    off_ms: f64,
    on_ms: f64,
    /// `on / off` — the acceptance target is < 1.05.
    overhead: f64,
}

struct DatasetRun {
    name: &'static str,
    baseline_ms: f64,
    arena_ms: f64,
    speedup: f64,
    /// The same comparison with the (pipeline-independent) counterexample
    /// search disabled: the speedup of the decision stages in isolation.
    baseline_decide_only_ms: f64,
    arena_decide_only_ms: f64,
    decide_only_speedup: f64,
    equivalent: usize,
    not_equivalent: usize,
    unknown: usize,
    stages: Vec<(&'static str, f64)>,
    cache: CacheStats,
    search: SearchStage,
    eval: EvalStage,
    parse: ParseStage,
    normalize: NormalizeStage,
    index_builds: u64,
    index_build_ms: f64,
    limits: LimitsOverhead,
    unknown_reasons: BTreeMap<String, usize>,
}

fn classify(results: &[PairResult]) -> (usize, usize, usize) {
    let equivalent = results.iter().filter(|r| r.verdict.is_equivalent()).count();
    let not_equivalent = results.iter().filter(|r| r.verdict.is_not_equivalent()).count();
    (equivalent, not_equivalent, results.len() - equivalent - not_equivalent)
}

/// The failure taxonomy of a run's unknown verdicts, keyed by the
/// category's display form (mirrors `BatchReport::unknown_reason_counts`).
fn unknown_reasons(results: &[PairResult]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for result in results {
        if let Some(category) = result.verdict.failure_category() {
            *counts.entry(category.to_string()).or_insert(0) += 1;
        }
    }
    counts
}

/// Whole-suite repetitions per dataset, merged by per-field minima
/// (`min_merge`). One pass's interleaved rounds span only a few seconds —
/// shorter than the multi-second load bursts of a busy shared host, so a
/// burst can still contaminate every sample of one measurement within a
/// pass. Repeating the whole pass with idle gaps spreads the samples over
/// enough wall-clock that each enforced field sees at least one quiet
/// window, which is what makes the committed report reproducible.
const SUITE_REPS: usize = 3;
const SUITE_GAP: Duration = Duration::from_secs(3);

/// Per-field minima of two measurement passes. Timings take the quieter
/// sample; deterministic outputs (verdict counts, witness indices, failure
/// taxonomy) are asserted identical; counters keep the first pass's values
/// (they describe one pass's timed runs, and later passes run warmer).
fn min_merge(mut best: DatasetRun, next: DatasetRun) -> DatasetRun {
    assert_eq!(
        (best.equivalent, best.not_equivalent, best.unknown),
        (next.equivalent, next.not_equivalent, next.unknown),
        "verdict counts changed between measurement passes"
    );
    assert_eq!(
        best.unknown_reasons, next.unknown_reasons,
        "failure taxonomy changed between measurement passes"
    );
    assert_eq!(
        best.search.witness_indices, next.search.witness_indices,
        "witness indices changed between measurement passes"
    );
    best.baseline_ms = best.baseline_ms.min(next.baseline_ms);
    best.arena_ms = best.arena_ms.min(next.arena_ms);
    best.baseline_decide_only_ms = best.baseline_decide_only_ms.min(next.baseline_decide_only_ms);
    best.arena_decide_only_ms = best.arena_decide_only_ms.min(next.arena_decide_only_ms);
    best.speedup = best.baseline_ms / best.arena_ms.max(f64::EPSILON);
    best.decide_only_speedup =
        best.baseline_decide_only_ms / best.arena_decide_only_ms.max(f64::EPSILON);
    for (slot, (stage, value)) in best.stages.iter_mut().zip(&next.stages) {
        assert_eq!(slot.0, *stage, "stage order changed between measurement passes");
        slot.1 = slot.1.min(*value);
    }
    best.search.sequential_ms = best.search.sequential_ms.min(next.search.sequential_ms);
    best.search.parallel_ms = best.search.parallel_ms.min(next.search.parallel_ms);
    best.search.oracle_scan_ms = best.search.oracle_scan_ms.min(next.search.oracle_scan_ms);
    best.search.oracle_indexed_ms =
        best.search.oracle_indexed_ms.min(next.search.oracle_indexed_ms);
    best.eval.flat_indexed_ms = best.eval.flat_indexed_ms.min(next.eval.flat_indexed_ms);
    best.eval.flat_scan_ms = best.eval.flat_scan_ms.min(next.eval.flat_scan_ms);
    best.eval.map_indexed_ms = best.eval.map_indexed_ms.min(next.eval.map_indexed_ms);
    best.eval.map_scan_ms = best.eval.map_scan_ms.min(next.eval.map_scan_ms);
    best.eval.interp_indexed_ms = best.eval.interp_indexed_ms.min(next.eval.interp_indexed_ms);
    best.eval.interp_scan_ms = best.eval.interp_scan_ms.min(next.eval.interp_scan_ms);
    best.parse.cold_ms = best.parse.cold_ms.min(next.parse.cold_ms);
    best.parse.warm_ms = best.parse.warm_ms.min(next.parse.warm_ms);
    best.normalize.cold_ms = best.normalize.cold_ms.min(next.normalize.cold_ms);
    best.normalize.warm_ms = best.normalize.warm_ms.min(next.normalize.warm_ms);
    best.limits.off_ms = best.limits.off_ms.min(next.limits.off_ms);
    best.limits.on_ms = best.limits.on_ms.min(next.limits.on_ms);
    best.limits.overhead = best.limits.on_ms / best.limits.off_ms.max(f64::EPSILON);
    best
}

fn run_dataset(name: &'static str, pairs: Vec<QueryPair>, threads: usize) -> DatasetRun {
    let mut merged: Option<DatasetRun> = None;
    for rep in 0..SUITE_REPS {
        if rep > 0 {
            std::thread::sleep(SUITE_GAP);
        }
        let pass = run_dataset_pass(name, pairs.clone(), threads, rep);
        merged = Some(match merged {
            None => pass,
            Some(best) => min_merge(best, pass),
        });
    }
    merged.expect("at least one measurement pass")
}

fn run_dataset_pass(
    name: &'static str,
    pairs: Vec<QueryPair>,
    threads: usize,
    rep: usize,
) -> DatasetRun {
    property_graph::index::reset_build_stats();

    // Baseline: the paper-faithful configuration — reference tree normalizer,
    // cloning iso matcher, no decide caches, one pair at a time on one
    // thread, and the search-result memo disabled so the baseline pays the
    // real counterexample-search cost every sample (it still shares the
    // graph pools, as every configuration has since PR 1).
    let baseline_prover = GraphQE {
        use_tree_normalizer: true,
        search_config: SearchConfig { use_memo: false, ..SearchConfig::default() },
        // The baseline pays the real stage-① cost every sample, like it
        // pays the real search cost (memo off above).
        use_parse_cache: false,
        ..GraphQE::new()
    };
    // Optimized pipeline: id-native decide, indexed oracle evaluation,
    // shared pools, batched over all cores.
    let arena_prover = GraphQE::new();
    // Same two pipelines without the counterexample search (shared by both):
    // the decide-only timings isolate the speedup of the decision stages,
    // and e2e − decide-only is the search-stage time the gate enforces.
    let baseline_ns = GraphQE { search_counterexamples: false, ..baseline_prover.clone() };
    let arena_ns = GraphQE { search_counterexamples: false, ..GraphQE::new() };

    // One untimed warmup per configuration, then the four wall-clock
    // measurements sampled interleaved (see `interleaved_mins`): the gate
    // derives ratios across these numbers (speedups, e2e − decide-only), so
    // each round samples all four under the same machine conditions.
    run_pairs_report(&baseline_prover, pairs.clone(), 1);
    run_pairs_report(&arena_prover, pairs.clone(), threads);
    run_pairs_report(&baseline_ns, pairs.clone(), 1);
    run_pairs_report(&arena_ns, pairs.clone(), threads);

    let (mut baseline, mut arena) = (Vec::new(), Vec::new());
    let mut cache = CacheStats::default();
    let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
    let (mut parse_hits, mut parse_misses) = (0u64, 0u64);
    let (mut normalize_hits, mut normalize_misses) = (0u64, 0u64);
    let mut run_baseline = || baseline = run_pairs_report(&baseline_prover, pairs.clone(), 1).0;
    let mut run_arena = || {
        // Cache counters cover exactly the timed optimized runs, as before
        // the interleave: snapshot around this prover's samples only.
        let memo_before = graphqe::counterexample::search_memo_stats();
        let parse_before = graphqe::parse_cache_stats();
        let normalize_before = graphqe::normalize_cache_stats();
        (arena, cache) = run_pairs_report(&arena_prover, pairs.clone(), threads);
        let memo_after = graphqe::counterexample::search_memo_stats();
        let parse_after = graphqe::parse_cache_stats();
        let normalize_after = graphqe::normalize_cache_stats();
        memo_hits += memo_after.0.saturating_sub(memo_before.0);
        memo_misses += memo_after.1.saturating_sub(memo_before.1);
        parse_hits += parse_after.0.saturating_sub(parse_before.0);
        parse_misses += parse_after.1.saturating_sub(parse_before.1);
        normalize_hits += normalize_after.0.saturating_sub(normalize_before.0);
        normalize_misses += normalize_after.1.saturating_sub(normalize_before.1);
    };
    let mut run_baseline_ns = || drop(run_pairs_report(&baseline_ns, pairs.clone(), 1));
    let mut run_arena_ns = || drop(run_pairs_report(&arena_ns, pairs.clone(), threads));
    let [baseline_ms, arena_ms, baseline_decide_only_ms, arena_decide_only_ms] =
        interleaved_mins([
            &mut run_baseline,
            &mut run_arena,
            &mut run_baseline_ns,
            &mut run_arena_ns,
        ]);

    // The refactor must not move a single verdict.
    for (old, new) in baseline.iter().zip(arena.iter()) {
        assert_eq!(
            (old.verdict.is_equivalent(), old.verdict.is_not_equivalent()),
            (new.verdict.is_equivalent(), new.verdict.is_not_equivalent()),
            "verdict changed on {} vs {}",
            old.pair.left,
            old.pair.right,
        );
    }

    // Limits overhead: the identical optimized pipeline, but with a run
    // token installed whose budgets are generous enough to never trip — a
    // one-hour deadline and effectively unbounded step budgets. Every
    // cooperative checkpoint now really loads the cancel flag, bumps its
    // step counter and (subsampled) probes the deadline clock; the on/off
    // ratio is the end-to-end cost of the PR 6 limits layer. Off/on samples
    // are **interleaved** so both configurations see the same load drift of
    // the shared machine — two back-to-back sample blocks would attribute
    // the drift between them to the limits layer.
    let limited_prover = GraphQE {
        limits: ProveLimits {
            deadline: Some(Duration::from_secs(3600)),
            smt_step_budget: u64::MAX,
            search_graph_budget: u64::MAX,
            ..ProveLimits::default()
        },
        ..GraphQE::new()
    };
    let (limited, _) = run_pairs_report(&limited_prover, pairs.clone(), threads); // warmup
    for (off, on) in arena.iter().zip(limited.iter()) {
        assert_eq!(
            (off.verdict.is_equivalent(), off.verdict.is_not_equivalent()),
            (on.verdict.is_equivalent(), on.verdict.is_not_equivalent()),
            "a never-tripping limits token changed the verdict on {} vs {}",
            off.pair.left,
            off.pair.right,
        );
    }
    let (mut limits_off_ms, mut limits_on_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        let start = Instant::now();
        run_pairs_report(&arena_prover, pairs.clone(), threads);
        limits_off_ms = limits_off_ms.min(ms(start.elapsed()));
        let start = Instant::now();
        run_pairs_report(&limited_prover, pairs.clone(), threads);
        limits_on_ms = limits_on_ms.min(ms(start.elapsed()));
    }
    let limits = LimitsOverhead {
        off_ms: limits_off_ms,
        on_ms: limits_on_ms,
        overhead: limits_on_ms / limits_off_ms.max(f64::EPSILON),
    };

    let (index_builds, index_build) = property_graph::index::build_stats();
    let workload = OracleWorkload::new(&pairs);
    let mut search = search_stage(&pairs, &arena, &workload, threads);
    search.memo_hits = memo_hits;
    search.memo_misses = memo_misses;
    let (equivalent, not_equivalent, unknown) = classify(&arena);
    if name == "cyeqset" && rep == 0 {
        println!("\nTable III (compiled-plan oracle pipeline):");
        print!("{}", graphqe_bench::format_table3(&table3_rows(&arena)));
    }
    let eval = eval_stage(&workload);
    let mut parse = parse_stage(&pairs);
    parse.hits = parse_hits;
    parse.misses = parse_misses;
    let mut normalize = normalize_stage(&pairs);
    normalize.hits = normalize_hits;
    normalize.misses = normalize_misses;
    DatasetRun {
        name,
        baseline_ms,
        arena_ms,
        speedup: baseline_ms / arena_ms.max(f64::EPSILON),
        baseline_decide_only_ms,
        arena_decide_only_ms,
        decide_only_speedup: baseline_decide_only_ms / arena_decide_only_ms.max(f64::EPSILON),
        equivalent,
        not_equivalent,
        unknown,
        stages: stage_breakdown(&pairs),
        cache,
        search,
        eval,
        parse,
        normalize,
        index_builds,
        index_build_ms: ms(index_build),
        limits,
        unknown_reasons: unknown_reasons(&arena),
    }
}

/// One keep-alive HTTP client connection to the benched server.
struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    fn connect(server: &Server) -> ServeClient {
        let stream = TcpStream::connect(server.local_addr()).expect("connect to bench server");
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        // One write per request + no Nagle: without this, head and body land
        // in two small segments and the second waits on a delayed ACK
        // (~40 ms), which would swamp every latency number below.
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        ServeClient { reader: BufReader::new(stream), writer }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, ServeJson) {
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(message.as_bytes()).unwrap();
        self.read_response()
    }

    fn read_response(&mut self) -> (u16, ServeJson) {
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header line");
            if line.trim_end().is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("Content-Length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("response body");
        let text = String::from_utf8(body).expect("UTF-8 response");
        (status, ServeJson::parse(&text).expect("JSON response"))
    }
}

/// One replay pass: wall clock, throughput, client-observed latency tail.
struct ReplayStats {
    wall_ms: f64,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
}

/// The serve block of the report.
struct ServeBench {
    requests_per_pass: usize,
    cold: ReplayStats,
    warm: ReplayStats,
    /// Cache hit rates from `/v1/stats` after the warm pass, in stats order.
    warm_hit_rates: Vec<(String, f64)>,
    /// Per-dataset verdict counts of a replay pass (identical cold/warm).
    verdicts: Vec<(&'static str, usize, usize, usize)>,
    overload_burst: usize,
    overload_rejected: usize,
    fault_specs: usize,
    fault_survived: usize,
    /// Warm worker-scaling replays, one entry per worker count (PR 8).
    scaling: Vec<(usize, ScalingStats)>,
}

/// One worker-scaling replay: wall clock and sustained throughput of two
/// concurrent client connections replaying disjoint halves of the corpus.
struct ScalingStats {
    wall_ms: f64,
    throughput_rps: f64,
}

fn percentile(sorted_us: &[f64], fraction: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_us.len() as f64 * fraction).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// Replays every pair as its own request on one keep-alive connection,
/// returning the pass timings and the verdict counts per dataset.
fn replay_pass(
    client: &mut ServeClient,
    datasets: &[(&'static str, &[QueryPair])],
) -> (ReplayStats, Vec<(&'static str, usize, usize, usize)>) {
    let mut latencies_us = Vec::new();
    let mut verdicts = Vec::new();
    let wall = Instant::now();
    for (name, pairs) in datasets {
        let (mut eq, mut neq, mut unknown) = (0usize, 0usize, 0usize);
        for pair in *pairs {
            let body = format!("{{\"pairs\":[[{:?},{:?}]]}}", pair.left, pair.right);
            let start = Instant::now();
            let (status, response) = client.request("POST", "/v1/prove", &body);
            latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            assert_eq!(status, 200, "replay request failed on {} vs {}", pair.left, pair.right);
            eq += response.get("equivalent").and_then(ServeJson::as_u64).unwrap() as usize;
            neq += response.get("not_equivalent").and_then(ServeJson::as_u64).unwrap() as usize;
            unknown += response.get("unknown").and_then(ServeJson::as_u64).unwrap() as usize;
        }
        verdicts.push((*name, eq, neq, unknown));
    }
    let wall_ms = ms(wall.elapsed());
    latencies_us.sort_by(f64::total_cmp);
    let stats = ReplayStats {
        wall_ms,
        throughput_rps: latencies_us.len() as f64 / (wall_ms / 1000.0).max(f64::EPSILON),
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
    };
    (stats, verdicts)
}

/// The committed corpus verdict counts every replay pass must reproduce.
const EXPECTED_VERDICTS: [(&str, usize, usize, usize); 2] =
    [("cyeqset", 138, 0, 10), ("cyneqset", 0, 121, 27)];

fn assert_replay_verdicts(label: &str, verdicts: &[(&'static str, usize, usize, usize)]) {
    for ((name, eq, neq, unknown), (expected_name, exp_eq, exp_neq, exp_unknown)) in
        verdicts.iter().zip(&EXPECTED_VERDICTS)
    {
        assert_eq!(name, expected_name);
        assert_eq!(
            (*eq, *neq, *unknown),
            (*exp_eq, *exp_neq, *exp_unknown),
            "{label} replay moved the {name} verdict counts"
        );
    }
}

/// Overload drill: hold the only worker with an injected stall, then burst
/// connections at a one-slot queue — everything past the slot must get a
/// structured `503 overloaded`, and the stalled request must still succeed.
fn overload_drill() -> (usize, usize) {
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    })
    .expect("spawn overload server");
    faults::arm(Stage::Normalize, FaultKind::Stall(Duration::from_millis(600)), 1);
    let mut stalled = ServeClient::connect(&server);
    let body = "{\"pairs\":[[\"MATCH (n) RETURN n\",\"MATCH (m) RETURN m\"]]}";
    let head = format!(
        "POST /v1/prove HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stalled.writer.write_all(head.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    const BURST: usize = 6;
    let mut rejected = 0usize;
    let mut queued = Vec::new();
    for _ in 0..BURST {
        let mut client = ServeClient::connect(&server);
        // A queued connection gets no bytes until the worker frees up; a
        // rejected one gets an inline 503. Distinguish with a short read
        // timeout.
        client.reader.get_ref().set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        let mut probe = [0u8; 12];
        match client.reader.get_mut().read(&mut probe) {
            Ok(n) if n > 0 => {
                let status = std::str::from_utf8(&probe[..n])
                    .ok()
                    .and_then(|line| line.split_whitespace().nth(1).map(str::to_string));
                assert_eq!(status.as_deref(), Some("503"), "burst got a non-overload response");
                rejected += 1;
            }
            _ => queued.push(client),
        }
    }
    let (status, _) = stalled.read_response();
    assert_eq!(status, 200, "the stalled request must still complete");
    faults::disarm();
    drop(queued);
    drop(stalled);
    server.shutdown();
    (BURST, rejected)
}

/// Fault drill: every `GRAPHQE_FAULT` spec armed (one shot) against a live
/// server; each request must come back structured and the server must stay
/// healthy. Returns (specs, survived).
fn fault_drill(server: &Server) -> (usize, usize) {
    let specs: Vec<(Stage, FaultKind)> = Stage::ALL
        .iter()
        .flat_map(|stage| {
            [(*stage, FaultKind::Panic), (*stage, FaultKind::Stall(Duration::from_millis(50)))]
        })
        .chain([(Stage::Smt, FaultKind::SmtUnknown)])
        .collect();
    let mut survived = 0usize;
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut client = ServeClient::connect(server);
    for (stage, kind) in &specs {
        faults::arm(*stage, *kind, 1);
        // Stall faults need a deadline under the 50ms stall to trip; the
        // other kinds degrade on their own.
        let deadline = if matches!(kind, FaultKind::Stall(_)) { ",\"deadline_ms\":25" } else { "" };
        let body = format!(
            "{{\"pairs\":[[\"MATCH (n) WHERE n.age > 5 AND n.age > 3 RETURN n\",\
             \"MATCH (n) WHERE n.age > 5 RETURN n\"],\
             [\"MATCH (n:Person) RETURN n\",\"MATCH (n:Book) RETURN n\"],\
             [\"MATCH (a)-[r]->(b) RETURN a\",\"MATCH (b)<-[r]-(a) RETURN a\"]]{deadline}}}"
        );
        let (status, response) = client.request("POST", "/v1/prove", &body);
        faults::disarm();
        let results = response.get("results").and_then(ServeJson::as_array);
        let (health, _) = client.request("GET", "/v1/health", "");
        if status == 200 && results.map(<[ServeJson]>::len) == Some(3) && health == 200 {
            survived += 1;
        } else {
            println!("  fault drill FAILED: {kind:?}@{stage} -> status {status}");
        }
    }
    std::panic::set_hook(previous_hook);
    (specs.len(), survived)
}

/// Worker scaling (PR 8): the warm corpus split round-robin into two
/// halves and replayed by two concurrent keep-alive connections against a
/// server with `workers` workers. With one worker the second connection
/// waits in the admission queue, so the halves serialize; with two workers
/// they proceed concurrently — on a multi-core host that splits the wall
/// clock, on the one-core CI box it documents that workers without cores
/// don't help. Either way every artifact comes from the same process-wide
/// substrate, so the combined verdict totals must stay pinned.
fn scaling_pass(workers: usize, eq_pairs: &[QueryPair], neq_pairs: &[QueryPair]) -> ScalingStats {
    let server = Server::spawn(ServeConfig {
        workers,
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    })
    .expect("spawn scaling server");
    let datasets: [(&'static str, &[QueryPair]); 2] =
        [("cyeqset", eq_pairs), ("cyneqset", neq_pairs)];
    // Round-robin split, so both connections carry comparable load.
    let mut halves: [Vec<(&'static str, Vec<QueryPair>)>; 2] = [
        vec![("cyeqset", Vec::new()), ("cyneqset", Vec::new())],
        vec![("cyeqset", Vec::new()), ("cyneqset", Vec::new())],
    ];
    for (dataset_index, (_, pairs)) in datasets.iter().enumerate() {
        for (index, pair) in pairs.iter().enumerate() {
            halves[index % 2][dataset_index].1.push(pair.clone());
        }
    }
    let requests = eq_pairs.len() + neq_pairs.len();
    // One single-connection warmup: the caches are process-wide and warm
    // already, but this server's worker threads are cold.
    let mut client = ServeClient::connect(&server);
    let (_, verdicts) = replay_pass(&mut client, &datasets);
    assert_replay_verdicts("scaling warmup", &verdicts);
    drop(client);

    let mut best_wall_ms = f64::INFINITY;
    for _ in 0..3 {
        let wall = Instant::now();
        let handles: Vec<_> = halves
            .iter()
            .cloned()
            .map(|half| {
                let mut client = ServeClient::connect(&server);
                std::thread::spawn(move || {
                    let view: Vec<(&'static str, &[QueryPair])> =
                        half.iter().map(|(name, pairs)| (*name, pairs.as_slice())).collect();
                    let (_, verdicts) = replay_pass(&mut client, &view);
                    verdicts
                })
            })
            .collect();
        let mut totals = [(0usize, 0usize, 0usize); 2];
        for handle in handles {
            for (name, eq, neq, unknown) in handle.join().expect("scaling client thread") {
                let slot = usize::from(name != "cyeqset");
                totals[slot].0 += eq;
                totals[slot].1 += neq;
                totals[slot].2 += unknown;
            }
        }
        best_wall_ms = best_wall_ms.min(ms(wall.elapsed()));
        for ((eq, neq, unknown), (name, exp_eq, exp_neq, exp_unknown)) in
            totals.iter().zip(&EXPECTED_VERDICTS)
        {
            assert_eq!(
                (*eq, *neq, *unknown),
                (*exp_eq, *exp_neq, *exp_unknown),
                "{workers}-worker scaling replay moved the {name} verdict counts"
            );
        }
    }
    server.shutdown();
    ScalingStats {
        wall_ms: best_wall_ms,
        throughput_rps: requests as f64 / (best_wall_ms / 1000.0).max(f64::EPSILON),
    }
}

/// The full serving benchmark. Must run before the dataset suites: the
/// cold pass is only cold while this process has never parsed, planned or
/// searched the corpus.
fn serve_bench(eq_pairs: &[QueryPair], neq_pairs: &[QueryPair]) -> ServeBench {
    // One worker: every request lands on the same thread-local caches, so
    // the warm pass measures a genuinely warm worker (and the numbers are
    // stable on the one-core CI box).
    let server = Server::spawn(ServeConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    })
    .expect("spawn bench server");
    let datasets: [(&'static str, &[QueryPair]); 2] =
        [("cyeqset", eq_pairs), ("cyneqset", neq_pairs)];

    let mut client = ServeClient::connect(&server);
    let (cold, cold_verdicts) = replay_pass(&mut client, &datasets);
    assert_replay_verdicts("cold", &cold_verdicts);
    let (warm, warm_verdicts) = replay_pass(&mut client, &datasets);
    assert_replay_verdicts("warm", &warm_verdicts);

    let (status, stats) = client.request("GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let warm_hit_rates = match stats.get("caches") {
        Some(ServeJson::Obj(fields)) => fields
            .iter()
            .filter_map(|(name, value)| Some((name.clone(), value.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    };

    // The replay connection would sit idle past the server's read timeout
    // while the drill runs on its own connection; close it and reconnect.
    drop(client);

    let (fault_specs, fault_survived) = fault_drill(&server);
    // The drilled server still replays the corpus correctly afterwards: the
    // injections corrupted no cache.
    let mut client = ServeClient::connect(&server);
    let (_, post_drill_verdicts) = replay_pass(&mut client, &datasets);
    assert_replay_verdicts("post-drill", &post_drill_verdicts);
    drop(client);
    server.shutdown();

    let (overload_burst, overload_rejected) = overload_drill();

    let scaling = [1usize, 2]
        .iter()
        .map(|&workers| (workers, scaling_pass(workers, eq_pairs, neq_pairs)))
        .collect();

    ServeBench {
        requests_per_pass: eq_pairs.len() + neq_pairs.len(),
        cold,
        warm,
        warm_hit_rates,
        verdicts: warm_verdicts,
        overload_burst,
        overload_rejected,
        fault_specs,
        fault_survived,
        scaling,
    }
}

fn json_replay(stats: &ReplayStats) -> String {
    format!(
        "{{\"wall_ms\": {:.3}, \"throughput_rps\": {:.2}, \"p50_us\": {:.1}, \
         \"p99_us\": {:.1}}}",
        stats.wall_ms, stats.throughput_rps, stats.p50_us, stats.p99_us,
    )
}

fn json_serve(serve: &ServeBench) -> String {
    let rates: Vec<String> =
        serve.warm_hit_rates.iter().map(|(name, rate)| format!("\"{name}\": {rate:.4}")).collect();
    let verdicts: Vec<String> = serve
        .verdicts
        .iter()
        .map(|(name, eq, neq, unknown)| {
            format!(
                "\"{name}\": {{\"equivalent\": {eq}, \"not_equivalent\": {neq}, \
                 \"unknown\": {unknown}}}"
            )
        })
        .collect();
    let scaling: Vec<String> = serve
        .scaling
        .iter()
        .map(|(workers, stats)| {
            format!(
                "\"workers_{workers}\": {{\"wall_ms\": {:.3}, \"throughput_rps\": {:.2}}}",
                stats.wall_ms, stats.throughput_rps,
            )
        })
        .collect();
    format!(
        "{{\n    \"requests_per_pass\": {},\n    \"cold\": {},\n    \"warm\": {},\n    \
         \"warm_cache_hit_rates\": {{{}}},\n    \"verdicts\": {{{}}},\n    \
         \"overload\": {{\"burst\": {}, \"rejected\": {}}},\n    \
         \"fault_drill\": {{\"specs\": {}, \"survived\": {}}},\n    \
         \"worker_scaling\": {{{}}}\n  }}",
        serve.requests_per_pass,
        json_replay(&serve.cold),
        json_replay(&serve.warm),
        rates.join(", "),
        verdicts.join(", "),
        serve.overload_burst,
        serve.overload_rejected,
        serve.fault_specs,
        serve.fault_survived,
        scaling.join(", "),
    )
}

fn json_stages(stages: &[(&str, f64)]) -> String {
    let fields: Vec<String> =
        stages.iter().map(|(name, value)| format!("\"{name}\": {value:.3}")).collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_cache(cache: &CacheStats) -> String {
    format!(
        "{{\"smt_formula_hits\": {}, \"smt_formula_misses\": {}, \
         \"smt_formula_hit_rate\": {:.4}, \"summand_hits\": {}, \"summand_misses\": {}, \
         \"summand_hit_rate\": {:.4}, \"disjoint_hits\": {}, \"disjoint_misses\": {}, \
         \"disjoint_hit_rate\": {:.4}, \"search_memo_hits\": {}, \
         \"search_memo_misses\": {}, \"search_memo_evictions\": {}, \
         \"parse_cache_hits\": {}, \"parse_cache_misses\": {}, \
         \"parse_cache_evictions\": {}, \"normalize_cache_hits\": {}, \
         \"normalize_cache_misses\": {}, \"normalize_cache_evictions\": {}, \
         \"plan_cache_hits\": {}, \
         \"plan_cache_misses\": {}, \"plan_cache_evictions\": {}, \
         \"epoch_resets\": {}}}",
        cache.smt_formula_hits,
        cache.smt_formula_misses,
        cache.smt_formula_hit_rate(),
        cache.summand_hits,
        cache.summand_misses,
        cache.summand_hit_rate(),
        cache.disjoint_hits,
        cache.disjoint_misses,
        cache.disjoint_hit_rate(),
        cache.search_memo_hits,
        cache.search_memo_misses,
        cache.search_memo_evictions,
        cache.parse_cache_hits,
        cache.parse_cache_misses,
        cache.parse_cache_evictions,
        cache.normalize_cache_hits,
        cache.normalize_cache_misses,
        cache.normalize_cache_evictions,
        cache.plan_cache_hits,
        cache.plan_cache_misses,
        cache.plan_cache_evictions,
        cache.epoch_resets,
    )
}

fn json_eval(eval: &EvalStage) -> String {
    format!(
        "{{\"flat_indexed_ms\": {:.3}, \"flat_scan_ms\": {:.3}, \"map_indexed_ms\": {:.3}, \
         \"map_scan_ms\": {:.3}, \"interp_indexed_ms\": {:.3}, \"interp_scan_ms\": {:.3}}}",
        eval.flat_indexed_ms,
        eval.flat_scan_ms,
        eval.map_indexed_ms,
        eval.map_scan_ms,
        eval.interp_indexed_ms,
        eval.interp_scan_ms,
    )
}

fn json_parse(parse: &ParseStage) -> String {
    format!(
        "{{\"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"hits\": {}, \"misses\": {}}}",
        parse.cold_ms, parse.warm_ms, parse.hits, parse.misses,
    )
}

fn json_normalize(normalize: &NormalizeStage) -> String {
    format!(
        "{{\"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"hits\": {}, \"misses\": {}}}",
        normalize.cold_ms, normalize.warm_ms, normalize.hits, normalize.misses,
    )
}

fn json_search(run: &DatasetRun) -> String {
    let indices: Vec<String> =
        run.search.witness_indices.iter().map(|index| index.to_string()).collect();
    format!(
        "{{\"sequential_ms\": {:.3}, \"parallel_ms\": {:.3}, \"oracle_scan_ms\": {:.3}, \
         \"oracle_indexed_ms\": {:.3}, \"index_builds\": {}, \"index_build_ms\": {:.3}, \
         \"memo_hits\": {}, \"memo_misses\": {}, \"witness_indices\": [{}]}}",
        run.search.sequential_ms,
        run.search.parallel_ms,
        run.search.oracle_scan_ms,
        run.search.oracle_indexed_ms,
        run.index_builds,
        run.index_build_ms,
        run.search.memo_hits,
        run.search.memo_misses,
        indices.join(", "),
    )
}

fn json_limits(limits: &LimitsOverhead) -> String {
    format!(
        "{{\"off_ms\": {:.3}, \"on_ms\": {:.3}, \"overhead\": {:.4}}}",
        limits.off_ms, limits.on_ms, limits.overhead,
    )
}

fn json_unknown_reasons(reasons: &BTreeMap<String, usize>) -> String {
    let fields: Vec<String> =
        reasons.iter().map(|(reason, count)| format!("\"{reason}\": {count}")).collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_dataset(run: &DatasetRun) -> String {
    format!(
        "{{\n    \"baseline_tree_sequential_ms\": {:.3},\n    \
         \"arena_parallel_ms\": {:.3},\n    \"speedup\": {:.3},\n    \
         \"baseline_decide_only_ms\": {:.3},\n    \
         \"arena_decide_only_ms\": {:.3},\n    \"decide_only_speedup\": {:.3},\n    \
         \"equivalent\": {},\n    \"not_equivalent\": {},\n    \"unknown\": {},\n    \
         \"stages_ms\": {},\n    \"cache\": {},\n    \"peak_arena_nodes\": {},\n    \
         \"search\": {},\n    \"eval\": {},\n    \"parse\": {},\n    \
         \"normalize\": {},\n    \
         \"limits\": {},\n    \"unknown_reasons\": {}\n  }}",
        run.baseline_ms,
        run.arena_ms,
        run.speedup,
        run.baseline_decide_only_ms,
        run.arena_decide_only_ms,
        run.decide_only_speedup,
        run.equivalent,
        run.not_equivalent,
        run.unknown,
        json_stages(&run.stages),
        json_cache(&run.cache),
        run.cache.peak_arena_nodes,
        json_search(run),
        json_eval(&run.eval),
        json_parse(&run.parse),
        json_normalize(&run.normalize),
        json_limits(&run.limits),
        json_unknown_reasons(&run.unknown_reasons),
    )
}

/// Certificate-emission overhead over one dataset (PR 9), warm caches: the
/// plain certificates-off prove, the same replay with artifact emission,
/// and the same with emission plus independent validation. The three are
/// interleaved so a machine-noise burst cannot contaminate one side of the
/// overhead ratios.
struct CertificateBench {
    name: &'static str,
    /// Warm certificates-off replay — the unchanged hot path.
    prove_ms: f64,
    /// `prove_certified(check = false)`: emission without validation.
    emit_ms: f64,
    /// `prove_certified(check = true)`: emission plus the checker.
    checked_ms: f64,
    /// Definite verdicts in the dataset (every one must yield an artifact).
    definite: usize,
    /// Artifacts emitted by one clean checked pass.
    emitted: u64,
    /// Checker rejections in that pass (must be zero).
    check_failures: u64,
}

fn certificate_bench(name: &'static str, pairs: &[QueryPair]) -> CertificateBench {
    let prover = GraphQE::new();
    // One clean pass first: counts, and every cache layer warmed so the
    // timed passes compare the marginal cost of certification.
    let before = graphqe::certificate_counters();
    let mut definite = 0usize;
    for pair in pairs {
        let (verdict, _) = prover.prove_certified(&pair.left, &pair.right, true);
        if !verdict.is_unknown() {
            definite += 1;
        }
    }
    let after = graphqe::certificate_counters();
    let (emitted, check_failures) =
        (after.0.saturating_sub(before.0), after.1.saturating_sub(before.1));
    assert_eq!(
        check_failures, 0,
        "{name}: the checker rejected {check_failures} emitted certificates (prover/checker skew)"
    );
    assert_eq!(
        emitted as usize, definite,
        "{name}: not every definite verdict yielded a certificate"
    );

    let mut prove = || {
        for pair in pairs {
            std::hint::black_box(prover.prove(&pair.left, &pair.right));
        }
    };
    let mut emit = || {
        for pair in pairs {
            std::hint::black_box(prover.prove_certified(&pair.left, &pair.right, false));
        }
    };
    let mut checked = || {
        for pair in pairs {
            std::hint::black_box(prover.prove_certified(&pair.left, &pair.right, true));
        }
    };
    let [prove_ms, emit_ms, checked_ms] = interleaved_mins([&mut prove, &mut emit, &mut checked]);
    CertificateBench { name, prove_ms, emit_ms, checked_ms, definite, emitted, check_failures }
}

fn json_certificates(benches: &[CertificateBench]) -> String {
    let blocks: Vec<String> = benches
        .iter()
        .map(|b| {
            format!(
                "\"{}\": {{\"prove_ms\": {:.3}, \"emit_ms\": {:.3}, \"checked_ms\": {:.3}, \
                 \"definite\": {}, \"emitted\": {}, \"check_failures\": {}}}",
                b.name,
                b.prove_ms,
                b.emit_ms,
                b.checked_ms,
                b.definite,
                b.emitted,
                b.check_failures,
            )
        })
        .collect();
    format!("{{{}}}", blocks.join(", "))
}

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("bench: {threads} worker thread(s)");

    // The serve benchmark goes first: its cold replay is only cold while
    // this process has never parsed, planned or searched the corpus.
    let eq_pairs = cyeqset();
    let neq_pairs = cyneqset();
    let serve = serve_bench(&eq_pairs, &neq_pairs);
    println!(
        "serve: {} requests/pass, cold {:.1} ms ({:.0} rps, p50 {:.0} us, p99 {:.0} us)",
        serve.requests_per_pass,
        serve.cold.wall_ms,
        serve.cold.throughput_rps,
        serve.cold.p50_us,
        serve.cold.p99_us,
    );
    println!(
        "       warm {:.1} ms ({:.0} rps, p50 {:.0} us, p99 {:.0} us), {:.2}x cold->warm",
        serve.warm.wall_ms,
        serve.warm.throughput_rps,
        serve.warm.p50_us,
        serve.warm.p99_us,
        serve.cold.wall_ms / serve.warm.wall_ms.max(f64::EPSILON),
    );
    for (name, rate) in &serve.warm_hit_rates {
        println!("       warm cache {name}: {:.1}% hit", rate * 100.0);
    }
    println!(
        "       overload drill: {}/{} burst connections rejected with 503; \
         fault drill: {}/{} specs survived",
        serve.overload_rejected, serve.overload_burst, serve.fault_survived, serve.fault_specs,
    );
    assert_eq!(
        serve.fault_survived, serve.fault_specs,
        "server failed to survive a fault-injection spec"
    );
    for (workers, stats) in &serve.scaling {
        println!(
            "       scaling: {workers} worker(s), two-connection warm replay {:.1} ms \
             ({:.0} rps)",
            stats.wall_ms, stats.throughput_rps,
        );
    }

    let eq = run_dataset("cyeqset", eq_pairs, threads);
    let neq = run_dataset("cyneqset", neq_pairs, threads);

    for run in [&eq, &neq] {
        println!(
            "\n{}: baseline {:.1} ms -> indexed oracle {:.1} ms ({:.2}x), \
             verdicts: {} eq / {} neq / {} unknown",
            run.name,
            run.baseline_ms,
            run.arena_ms,
            run.speedup,
            run.equivalent,
            run.not_equivalent,
            run.unknown
        );
        println!(
            "  decide-only (no counterexample search): {:.1} ms -> {:.1} ms ({:.2}x)",
            run.baseline_decide_only_ms, run.arena_decide_only_ms, run.decide_only_speedup
        );
        for (stage, stage_ms) in &run.stages {
            println!("  stage {stage:<16} {stage_ms:>10.1} ms");
        }
        println!(
            "  search: sequential {:.1} ms, parallel {:.1} ms, oracle eval scan {:.1} ms -> \
             indexed {:.1} ms ({:.2}x), {} index builds in {:.2} ms",
            run.search.sequential_ms,
            run.search.parallel_ms,
            run.search.oracle_scan_ms,
            run.search.oracle_indexed_ms,
            run.search.oracle_scan_ms / run.search.oracle_indexed_ms.max(f64::EPSILON),
            run.index_builds,
            run.index_build_ms,
        );
        println!(
            "  search memo (timed optimized runs): {} hits / {} misses, {} LRU evictions \
             process-wide",
            run.search.memo_hits,
            run.search.memo_misses,
            graphqe::counterexample::search_memo_evictions(),
        );
        println!(
            "  eval stage: flat indexed {:.1} ms / map indexed {:.1} ms ({:.2}x), \
             flat scan {:.1} ms / map scan {:.1} ms ({:.2}x)",
            run.eval.flat_indexed_ms,
            run.eval.map_indexed_ms,
            run.eval.map_indexed_ms / run.eval.flat_indexed_ms.max(f64::EPSILON),
            run.eval.flat_scan_ms,
            run.eval.map_scan_ms,
            run.eval.map_scan_ms / run.eval.flat_scan_ms.max(f64::EPSILON),
        );
        println!(
            "  compiled vs interpreted: indexed {:.1} ms vs {:.1} ms ({:.2}x), \
             scan {:.1} ms vs {:.1} ms ({:.2}x)",
            run.eval.flat_indexed_ms,
            run.eval.interp_indexed_ms,
            run.eval.interp_indexed_ms / run.eval.flat_indexed_ms.max(f64::EPSILON),
            run.eval.flat_scan_ms,
            run.eval.interp_scan_ms,
            run.eval.interp_scan_ms / run.eval.flat_scan_ms.max(f64::EPSILON),
        );
        println!(
            "  parse stage: cold {:.2} ms -> warm {:.2} ms ({:.1}x), \
             {} cache hits / {} misses in the timed runs",
            run.parse.cold_ms,
            run.parse.warm_ms,
            run.parse.cold_ms / run.parse.warm_ms.max(f64::EPSILON),
            run.parse.hits,
            run.parse.misses,
        );
        println!(
            "  normalize stage (shared \u{2461}+\u{2462} cache): cold {:.2} ms -> \
             warm {:.3} ms ({:.0}x), {} cache hits / {} misses in the timed runs",
            run.normalize.cold_ms,
            run.normalize.warm_ms,
            run.normalize.cold_ms / run.normalize.warm_ms.max(0.001),
            run.normalize.hits,
            run.normalize.misses,
        );
        // The PR 8 acceptance bar: a warm prove must skip at least 5x of
        // the rewrite + build cost it used to pay per prove.
        assert!(
            run.normalize.cold_ms / run.normalize.warm_ms.max(0.001) >= 5.0,
            "{}: warm normalize+build did not collapse at least 5x (cold {:.3} ms, warm {:.3} ms)",
            run.name,
            run.normalize.cold_ms,
            run.normalize.warm_ms,
        );
        println!(
            "  limits layer: off {:.1} ms -> on (never-tripping token) {:.1} ms \
             ({:+.1}% overhead)",
            run.limits.off_ms,
            run.limits.on_ms,
            (run.limits.overhead - 1.0) * 100.0,
        );
        if !run.unknown_reasons.is_empty() {
            let reasons: Vec<String> = run
                .unknown_reasons
                .iter()
                .map(|(reason, count)| format!("{reason}: {count}"))
                .collect();
            println!("  unknown reasons: {}", reasons.join(", "));
        }
        if !run.search.witness_indices.is_empty() {
            let max = run.search.witness_indices.iter().max().unwrap();
            let sum: usize = run.search.witness_indices.iter().sum();
            println!(
                "  witnesses: {} found, pool index mean {:.1}, max {}",
                run.search.witness_indices.len(),
                sum as f64 / run.search.witness_indices.len() as f64,
                max,
            );
        }
        println!(
            "  caches (warm run): smt formula {:.0}% hit ({}h/{}m), summand {:.0}% hit \
             ({}h/{}m), disjoint {:.0}% hit ({}h/{}m), peak arena {} nodes",
            run.cache.smt_formula_hit_rate() * 100.0,
            run.cache.smt_formula_hits,
            run.cache.smt_formula_misses,
            run.cache.summand_hit_rate() * 100.0,
            run.cache.summand_hits,
            run.cache.summand_misses,
            run.cache.disjoint_hit_rate() * 100.0,
            run.cache.disjoint_hits,
            run.cache.disjoint_misses,
            run.cache.peak_arena_nodes,
        );
    }

    // PR 9: certificate-emission overhead, on warm caches (the dataset
    // suites above already replayed everything).
    let certificates =
        [certificate_bench("cyeqset", &cyeqset()), certificate_bench("cyneqset", &cyneqset())];
    println!();
    for bench in &certificates {
        println!(
            "{}: certificates — prove {:.1} ms, +emit {:.1} ms ({:.2}x), \
             +check {:.1} ms ({:.2}x); {} artifacts for {} definite verdicts, {} rejections",
            bench.name,
            bench.prove_ms,
            bench.emit_ms,
            bench.emit_ms / bench.prove_ms.max(f64::EPSILON),
            bench.checked_ms,
            bench.checked_ms / bench.prove_ms.max(f64::EPSILON),
            bench.emitted,
            bench.definite,
            bench.check_failures,
        );
    }

    let json = format!(
        "{{\n  \"threads\": {},\n  \"serve\": {},\n  \"certificates\": {},\n  \
         \"cyeqset\": {},\n  \"cyneqset\": {}\n}}\n",
        threads,
        json_serve(&serve),
        json_certificates(&certificates),
        json_dataset(&eq),
        json_dataset(&neq),
    );
    std::fs::write("BENCH.json", &json).expect("write BENCH.json");
    println!("\nwrote BENCH.json");
}
