//! The traced run: spans around the calls of the workload, then every pair
//! of those calls driven again through each layer's public entry point in
//! `GraphQE::prove`'s order, and the per-layer metrics both yield.
//!
//! Spans are recorded from the benchmark's side of each entry point. A
//! span holds a name, a start, an end and a parent; all spans of one pair
//! share that pair's id. A layer's self time is its span minus its child
//! spans; every layer span is a leaf (only the per-pair root has
//! children), so a layer's self time is its span's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cypher_parser::ast::Query;
use graphqe::counterexample::{self, SearchConfig};
use graphqe::{GraphQE, Verdict};
use graphqe_serve::json::Json;
use liastar::{DecideOptions, Decision};

use crate::report::{percentile, Metric};
use crate::workload::{clear_caches, Bench, Kind, Run, Until, Workload};

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// The pair's id; a call span carries the id of its first pair.
    pub pair: u64,
    pub start: Instant,
    pub end: Instant,
    /// Entry-point calls the span covers (both sides of a pair count).
    pub calls: u32,
}

#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        name: &'static str,
        pair: u64,
        parent: Option<usize>,
        calls: u32,
        start: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span { id, parent, name, pair, start, end: Instant::now(), calls });
        id
    }

    /// Runs `f` inside a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        pair: u64,
        parent: usize,
        calls: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, pair, Some(parent), calls, start);
        value
    }

    /// Per layer name: summed span time, summed calls and span durations.
    fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for span in &self.spans {
            let layer = layers.entry(span.name).or_default();
            layer.busy += span.end - span.start;
            layer.calls += u64::from(span.calls);
            layer.durations_us.push((span.end - span.start).as_secs_f64() * 1e6);
        }
        layers
    }

    /// The spans as JSON lines, times in microseconds from the first span.
    pub fn to_json_lines(&self) -> String {
        let origin = self.spans.iter().map(|span| span.start).min();
        let mut out = String::new();
        for span in &self.spans {
            let origin = origin.unwrap_or(span.start);
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"pair\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"calls\":{}}}",
                span.id,
                parent,
                span.name,
                span.pair,
                (span.start - origin).as_secs_f64() * 1e6,
                (span.end - origin).as_secs_f64() * 1e6,
                span.calls
            );
        }
        out
    }
}

#[derive(Default)]
struct Layer {
    busy: Duration,
    calls: u64,
    durations_us: Vec<f64>,
}

/// What driving one pair through the layers produced.
#[derive(Default)]
struct Composed {
    decided: bool,
    proved: bool,
    searched: bool,
    witness: bool,
    rejected: bool,
    kind: Kind,
}

/// One pair through parse, analyze, normalize, build and decide; the search
/// runs only when the decision did not prove the pair. With `certify`, a
/// definite verdict is then emitted as a certificate and checked.
fn compose(
    tracer: &mut Tracer,
    pair: u64,
    left: &str,
    right: &str,
    certify: Option<&GraphQE>,
) -> Composed {
    let start = Instant::now();
    let root = tracer.record("pair", pair, None, 1, start);
    let mut composed = Composed::default();
    let verdict = prove_traced(tracer, pair, root, left, right, &mut composed);
    composed.kind = Kind::of(&verdict);
    if let (Some(prover), false) = (certify, verdict.is_unknown()) {
        let emitted =
            tracer.span("cert", pair, root, 1, || prover.certificate_for(left, right, &verdict));
        composed.rejected = match emitted {
            Ok(certificate) => {
                let checked = tracer.span("checker", pair, root, 1, || {
                    graphqe_checker::check_certificate(&certificate)
                });
                checked.is_err()
            }
            Err(_) => true,
        };
    }
    tracer.spans[root].end = Instant::now();
    composed
}

fn prove_traced(
    tracer: &mut Tracer,
    pair: u64,
    root: usize,
    left: &str,
    right: &str,
    composed: &mut Composed,
) -> Verdict {
    let unknown =
        || Verdict::Unknown { category: graphqe::FailureCategory::Other, reason: String::new() };
    let parsed = tracer.span("parse", pair, root, 2, || {
        Some((graphqe::parse_check_cached(left).ok()?, graphqe::parse_check_cached(right).ok()?))
    });
    let Some((q1, q2)) = parsed else { return unknown() };
    let typed = tracer.span("analyze", pair, root, 2, || {
        graphqe_analyzer::analyze(&q1).is_ok() && graphqe_analyzer::analyze(&q2).is_ok()
    });
    if !typed {
        return unknown();
    }
    let proved = decide_traced(tracer, pair, root, &q1, &q2, composed);
    if proved {
        return Verdict::Equivalent(Default::default());
    }
    composed.searched = true;
    let threads = graphqe::machine_parallelism();
    let config = SearchConfig::default();
    let witness = tracer.span("search", pair, root, 1, || {
        counterexample::find_counterexample_parallel(&q1, &q2, &config, threads)
    });
    match witness {
        Some(example) => {
            composed.witness = true;
            Verdict::NotEquivalent(Box::new(example))
        }
        None => unknown(),
    }
}

/// Normalize, build and decide on the identity column alignment only.
fn decide_traced(
    tracer: &mut Tracer,
    pair: u64,
    root: usize,
    q1: &Arc<Query>,
    q2: &Arc<Query>,
    composed: &mut Composed,
) -> bool {
    let normalized = tracer.span("normalize", pair, root, 2, || {
        Some((graphqe::normalized_stages(q1).ok()?, graphqe::normalized_stages(q2).ok()?))
    });
    let Some((n1, n2)) = normalized else { return false };
    let built = tracer.span("build", pair, root, 2, || Some((n1.build().ok()?, n2.build().ok()?)));
    let Some((b1, b2)) = built.filter(|(b1, b2)| b1.columns == b2.columns) else { return false };
    composed.decided = true;
    let options = DecideOptions { tree_normalizer: false };
    let decision = tracer.span("decide", pair, root, 1, || {
        liastar::try_check_equivalence_with_opts(&b1.expr, &b2.expr, options)
    });
    composed.proved = matches!(decision, Ok((Decision::Proved, _)));
    composed.proved
}

/// Counter snapshot of the process-wide caches.
#[derive(Clone, Copy)]
struct Counters {
    smt: (u64, u64),
    liastar: liastar::CacheCounters,
    parse: (u64, u64),
    normalize: (u64, u64),
    memo: (u64, u64),
    plan: (u64, u64),
}

impl Counters {
    fn now() -> Counters {
        Counters {
            smt: smt::formula_cache_stats(),
            liastar: liastar::cache_counters(),
            parse: graphqe::parse_cache_stats(),
            normalize: graphqe::normalize_cache_stats(),
            memo: counterexample::search_memo_stats(),
            plan: counterexample::plan_cache_stats(),
        }
    }
}

fn rate(before: (u64, u64), after: (u64, u64)) -> f64 {
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    ratio(hits as f64, (hits + misses) as f64)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn stat(stats: &Option<Json>, key: &str) -> f64 {
    stats.as_ref().and_then(|stats| stats.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
}

pub struct Traced {
    pub run: Run,
    pub calls: usize,
    pub tracer: Tracer,
    pub metrics: Vec<Metric>,
}

/// Pairs of the traced phase of `fresh-stream`; corpus workloads trace two
/// passes.
const TRACED_FRESH_PAIRS: usize = 1024;

/// The traced phase: the workload's own calls over a fixed number of pairs, wrapped
/// in spans, then every pair of them through the layers. For `fresh-stream`
/// the caches are emptied in between, so the layers see the pairs as fresh
/// as the calls did. `untraced_pairs_per_s` is the same process's untraced
/// throughput, the base of `trace.overhead_ratio`.
pub fn traced_phase(bench: &mut Bench, untraced_pairs_per_s: f64) -> Traced {
    let workload = bench.workload();
    let pairs = match workload {
        Workload::FreshStream => TRACED_FRESH_PAIRS,
        _ => 2 * bench.corpus_len(),
    };
    let mut tracer = Tracer::default();
    let stats_before = bench.server_stats();
    gexpr::arena::reset_peak_node_count();
    let before = Counters::now();
    let run = bench.run(Until::Pairs(pairs), true);
    let after = Counters::now();
    let stats_after = bench.server_stats();
    let global_peak = gexpr::arena::peak_node_count();

    let call_name = match workload {
        Workload::CorpusReplay | Workload::FreshStream => "batch",
        Workload::Certified => "certified",
        Workload::ServeClosedLoop => "serve",
    };
    for call in &run.calls {
        let id = tracer.record(call_name, call.jobs[0].id, None, 1, call.start);
        tracer.spans[id].end = call.end;
    }

    if workload == Workload::FreshStream {
        clear_caches();
    }
    let certify = (workload == Workload::Certified).then(|| bench.prover());
    let (mut agree, mut composed_all) = (0usize, Vec::new());
    for (job, outcome) in run.calls.iter().flat_map(|call| call.jobs.iter().zip(&call.outcomes)) {
        let composed = compose(&mut tracer, job.id, &job.left, &job.right, certify);
        agree += usize::from(composed.kind == outcome.kind);
        composed_all.push(composed);
    }

    let layers = tracer.layers();
    let empty = Layer::default();
    let layer = |name: &str| layers.get(name).unwrap_or(&empty);
    let busy_ms = |name: &str| layer(name).busy.as_secs_f64() * 1e3;
    let p99_us = |name: &str| {
        let mut durations = layer(name).durations_us.clone();
        durations.sort_by(f64::total_cmp);
        percentile(&durations, 0.99)
    };
    let count = |f: fn(&Composed) -> bool| composed_all.iter().filter(|c| f(c)).count() as f64;
    let is_batch = matches!(workload, Workload::CorpusReplay | Workload::FreshStream);
    let batch_wall: Duration =
        if is_batch { run.calls.iter().map(|c| c.latency()).sum() } else { Duration::ZERO };
    let pair_busy: Duration = run.calls.iter().map(|c| c.pair_busy).sum();
    let reports = run.calls.iter().filter_map(|c| c.cache);
    let epoch_resets = if is_batch {
        reports.clone().map(|cache| cache.epoch_resets).sum::<u64>() as f64
    } else {
        stat(&stats_after, "epoch_resets") - stat(&stats_before, "epoch_resets")
    };
    // Batch reports carry their workers' peaks; otherwise the process-wide
    // peak, or the calling thread's arena when the calls ran on it.
    let peak_arena = reports
        .map(|cache| cache.peak_arena_nodes)
        .max()
        .unwrap_or(global_peak.max(gexpr::arena::thread_store_node_count()));
    let prove_busy: f64 = ["parse", "analyze", "normalize", "build", "decide", "search"]
        .iter()
        .map(|n| busy_ms(n))
        .sum();
    let mut serve_rtt: Vec<f64> = Vec::new();
    let mut serve_overhead: Vec<f64> = Vec::new();
    for call in run.calls.iter().filter(|_| workload == Workload::ServeClosedLoop) {
        serve_rtt.push(call.latency().as_secs_f64() * 1e6);
        if let Some(wall) = call.server_wall {
            serve_overhead.push(call.latency().saturating_sub(wall).as_secs_f64() * 1e6);
        }
    }
    serve_rtt.sort_by(f64::total_cmp);
    serve_overhead.sort_by(f64::total_cmp);
    // Over the span-wrapped workload calls only, on the same timed clock as
    // the untraced figure; the composition's second proof of each pair is
    // not part of it.
    let traced_pairs_per_s = run.pairs as f64 / run.timed.as_secs_f64();

    let mut metrics = vec![
        Metric::new("batch.wall_ms", batch_wall.as_secs_f64() * 1e3, "ms"),
        Metric::new(
            "batch.parallel_efficiency",
            ratio(pair_busy.as_secs_f64(), batch_wall.as_secs_f64() * bench.threads() as f64),
            "ratio",
        ),
        Metric::new("batch.epoch_resets", epoch_resets, "count"),
        Metric::new("build.peak_arena_nodes", peak_arena as f64, "count"),
        Metric::new("smt.formula_hit_rate", rate(before.smt, after.smt), "ratio"),
        Metric::new(
            "decide.summand_hit_rate",
            rate(
                (before.liastar.summand_hits, before.liastar.summand_misses),
                (after.liastar.summand_hits, after.liastar.summand_misses),
            ),
            "ratio",
        ),
        Metric::new(
            "decide.disjoint_hit_rate",
            rate(
                (before.liastar.disjoint_hits, before.liastar.disjoint_misses),
                (after.liastar.disjoint_hits, after.liastar.disjoint_misses),
            ),
            "ratio",
        ),
        Metric::new("parse.cache_hit_rate", rate(before.parse, after.parse), "ratio"),
        Metric::new("normalize.cache_hit_rate", rate(before.normalize, after.normalize), "ratio"),
        Metric::new("search.memo_hit_rate", rate(before.memo, after.memo), "ratio"),
        Metric::new("search.plan_hit_rate", rate(before.plan, after.plan), "ratio"),
    ];
    for name in ["parse", "analyze", "normalize", "build", "decide", "search"] {
        metrics.push(Metric::new(format!("{name}.busy_ms"), busy_ms(name), "ms"));
        metrics.push(Metric::new(format!("{name}.calls"), layer(name).calls as f64, "count"));
    }
    metrics.extend([
        Metric::new("decide.p99_us", p99_us("decide"), "us"),
        Metric::new(
            "decide.proved_ratio",
            ratio(count(|c| c.proved), count(|c| c.decided)),
            "ratio",
        ),
        Metric::new("search.p99_us", p99_us("search"), "us"),
        Metric::new(
            "search.witness_ratio",
            ratio(count(|c| c.witness), count(|c| c.searched)),
            "ratio",
        ),
        Metric::new("cert.emit_ms", busy_ms("cert"), "ms"),
        Metric::new("cert.emit_to_prove_ratio", ratio(busy_ms("cert"), prove_busy), "ratio"),
        Metric::new("checker.busy_ms", busy_ms("checker"), "ms"),
        Metric::new("checker.rejections", count(|c| c.rejected), "count"),
        Metric::new("serve.rtt_p50_us", percentile(&serve_rtt, 0.5), "us"),
        Metric::new("serve.overhead_p50_us", percentile(&serve_overhead, 0.5), "us"),
        Metric::new(
            "serve.rejected_overload",
            stat(&stats_after, "rejected_overload") - stat(&stats_before, "rejected_overload"),
            "count",
        ),
        Metric::new(
            "serve.panics_recovered",
            stat(&stats_after, "panics_recovered") - stat(&stats_before, "panics_recovered"),
            "count",
        ),
        Metric::new(
            "trace.overhead_ratio",
            ratio(untraced_pairs_per_s, traced_pairs_per_s),
            "ratio",
        ),
        Metric::new("trace.verdict_agreement", ratio(agree as f64, run.pairs as f64), "ratio"),
    ]);
    Traced { calls: run.calls.len(), run, tracer, metrics }
}
