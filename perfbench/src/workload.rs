//! The four workloads: their set-up, the closed loop that drives them, and
//! the checks of every verdict they produce.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use graphqe::{CacheStats, FailureCategory, GraphQE, Verdict};
use graphqe_serve::json::Json;
use graphqe_serve::{ServeConfig, Server};

use crate::client::{self, Client};
use crate::corpus::{self, CorpusPair, Order, Tally};
use crate::gen::{Generator, Intent};
use crate::{host, report};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusReplay,
    FreshStream,
    Certified,
    ServeClosedLoop,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CorpusReplay,
        Workload::FreshStream,
        Workload::Certified,
        Workload::ServeClosedLoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusReplay => "corpus-replay",
            Workload::FreshStream => "fresh-stream",
            Workload::Certified => "certified",
            Workload::ServeClosedLoop => "serve-closed-loop",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|workload| workload.name() == name)
    }

    /// Pairs per call: batch calls carry 8, certified calls and HTTP
    /// requests one.
    pub fn batch(self) -> usize {
        match self {
            Workload::CorpusReplay | Workload::FreshStream => 8,
            Workload::Certified | Workload::ServeClosedLoop => 1,
        }
    }
}

/// Fresh pairs proved by the warm-up of `fresh-stream`.
const FRESH_WARMUP_PAIRS: usize = 64;

/// Pairs a timed phase proves before its peak resident memory is read.
/// Memory is read at a fixed amount of work, not at the end of the phase,
/// because on `fresh-stream` it grows with every pair proved: read at the
/// end, a faster prover, or a quieter machine, would read as more memory.
pub const RSS_PAIRS: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kind {
    Equivalent,
    NotEquivalent,
    #[default]
    Unknown,
}

impl Kind {
    pub fn of(verdict: &Verdict) -> Kind {
        match verdict {
            Verdict::Equivalent(_) => Kind::Equivalent,
            Verdict::NotEquivalent(_) => Kind::NotEquivalent,
            Verdict::Unknown { .. } => Kind::Unknown,
        }
    }

    fn intended(intent: Intent) -> Kind {
        match intent {
            Intent::Equivalent => Kind::Equivalent,
            Intent::NotEquivalent => Kind::NotEquivalent,
        }
    }
}

/// Where a job's pair came from, which decides how its verdict is checked.
#[derive(Debug, Clone, Copy)]
pub enum Origin {
    Corpus { pass: usize, index: usize },
    Fresh(Intent),
}

/// One pair handed to the program.
pub struct Job {
    /// Position in the run's pair sequence.
    pub id: u64,
    pub left: String,
    pub right: String,
    pub origin: Origin,
}

/// The program's answer for one job.
pub struct Outcome {
    pub kind: Kind,
    /// The full verdict, kept only where a later check needs it.
    pub verdict: Option<Verdict>,
    /// A panic, a rejected certificate, a transport error or an HTTP
    /// status other than 200.
    pub failed: bool,
}

/// One call (a batch call, a certified prove or an HTTP request) as the
/// caller saw it.
pub struct Call {
    pub start: Instant,
    pub end: Instant,
    pub jobs: Vec<Job>,
    pub outcomes: Vec<Outcome>,
    /// Sum of the per-pair latencies a batch call reports.
    pub pair_busy: Duration,
    /// The cache report of a batch call.
    pub cache: Option<CacheStats>,
    /// The `wall_us` of an HTTP reply.
    pub server_wall: Option<Duration>,
}

impl Call {
    pub fn latency(&self) -> Duration {
        self.end - self.start
    }
}

/// One closed-loop phase: the latency of every call, the running verdict
/// checks and, when asked for, the calls themselves.
pub struct Run {
    pub calls: Vec<Call>,
    pub latencies_ms: Vec<f32>,
    pub pairs: usize,
    checks: Checks,
    /// Timed clock: the phase's wall clock less the mean over the clients
    /// of their time spent making inputs, checking verdicts and probing.
    pub timed: Duration,
    /// `VmHWM` in MiB once [`RSS_PAIRS`] pairs were proved, if they were.
    pub peak_rss_mb: Option<f64>,
}

/// Verdict checks accumulated call by call, so a run keeps no verdicts.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    decided: usize,
    passes: Tally,
    intent_mismatch: usize,
}

impl Checks {
    /// Checks one call; corpus verdicts are compared with `reference`
    /// unless it is still empty (during the warm-up that derives it), and
    /// definite fresh verdicts are re-certified.
    fn add(&mut self, call: &Call, corpus: &[CorpusPair], reference: &[Kind], program: &Program) {
        let mut fresh = Vec::new();
        for (job, outcome) in call.jobs.iter().zip(&call.outcomes) {
            self.attempted += 1;
            self.decided += usize::from(outcome.kind != Kind::Unknown);
            let mut failed = outcome.failed;
            match job.origin {
                Origin::Corpus { pass, index } => {
                    failed |=
                        reference.get(index).is_some_and(|&expected| expected != outcome.kind);
                    self.passes.add(pass, corpus[index].set, outcome.kind);
                }
                Origin::Fresh(intent) => {
                    if let Some(verdict) = outcome.verdict.as_ref().filter(|v| !v.is_unknown()) {
                        fresh.push((job.left.as_str(), job.right.as_str(), intent, verdict));
                    }
                }
            }
            self.failed += usize::from(failed);
        }
        let (rejected, intent_mismatch) = program.recertify(&fresh);
        self.failed += rejected;
        self.intent_mismatch += intent_mismatch;
    }

    fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.decided += other.decided;
        self.passes.merge(other.passes);
        self.intent_mismatch += other.intent_mismatch;
    }
}

#[derive(Clone, Copy)]
pub enum Until {
    /// Until this much timed clock has passed and at least [`RSS_PAIRS`]
    /// pairs were handed out.
    Timed(Duration),
    Pairs(usize),
}

enum Caller {
    InProcess,
    Http(Client),
}

enum Source {
    Corpus(Order),
    Fresh(Generator),
}

/// What the closed loop calls; shared read-only by every client thread.
struct Program {
    workload: Workload,
    prover: GraphQE,
    threads: usize,
}

impl Program {
    fn call(&self, caller: &mut Caller, jobs: Vec<Job>) -> Call {
        let pairs: Vec<(&str, &str)> =
            jobs.iter().map(|job| (job.left.as_str(), job.right.as_str())).collect();
        let mut call = Call {
            start: Instant::now(),
            end: Instant::now(),
            outcomes: Vec::new(),
            pair_busy: Duration::ZERO,
            cache: None,
            server_wall: None,
            jobs: Vec::new(),
        };
        match caller {
            Caller::Http(client) => {
                let body = client::prove_body(pairs);
                call.start = Instant::now();
                let reply = client.request("POST", "/v1/prove", &body);
                call.end = Instant::now();
                if let Ok((200, reply)) = &reply {
                    call.outcomes = http_outcomes(reply, jobs.len());
                    call.server_wall = reply
                        .get("wall_us")
                        .and_then(Json::as_f64)
                        .map(|us| Duration::from_secs_f64(us / 1e6));
                }
                // A transport error or another status fails every pair.
                call.outcomes.resize_with(jobs.len(), || Outcome {
                    kind: Kind::Unknown,
                    verdict: None,
                    failed: true,
                });
            }
            Caller::InProcess if self.workload == Workload::Certified => {
                let (left, right) = pairs[0];
                call.start = Instant::now();
                let certified = catch_unwind(AssertUnwindSafe(|| {
                    self.prover.prove_certified(left, right, true)
                }));
                call.end = Instant::now();
                call.outcomes = vec![match certified {
                    Ok((verdict, _certificate)) => self.outcome(verdict),
                    Err(_) => Outcome { kind: Kind::Unknown, verdict: None, failed: true },
                }];
            }
            Caller::InProcess => {
                call.start = Instant::now();
                let report = self.prover.prove_batch_report(&pairs, self.threads);
                call.end = Instant::now();
                call.pair_busy = report.outcomes.iter().map(|outcome| outcome.latency).sum();
                call.cache = Some(report.cache);
                call.outcomes = report
                    .outcomes
                    .into_iter()
                    .map(|outcome| self.outcome(outcome.verdict))
                    .collect();
            }
        }
        call.jobs = jobs;
        call
    }

    fn outcome(&self, verdict: Verdict) -> Outcome {
        let failed = matches!(
            verdict.failure_category(),
            Some(FailureCategory::Panicked | FailureCategory::CertificateInvalid)
        );
        let keep = self.workload == Workload::FreshStream;
        Outcome { kind: Kind::of(&verdict), verdict: keep.then_some(verdict), failed }
    }

    /// Re-certifies definite fresh verdicts with the checker on all
    /// threads, which end with the call, so their thread-local caches do not
    /// outlive it. A rejected certificate fails the pair; a verdict that
    /// contradicts the generator's intent is counted, not dropped. Returns
    /// the rejected and the intent-contradicting counts.
    fn recertify(&self, pairs: &[(&str, &str, Intent, &Verdict)]) -> (usize, usize) {
        if pairs.is_empty() {
            return (0, 0);
        }
        let cursor = AtomicUsize::new(0);
        let rejected = AtomicUsize::new(0);
        let mismatched = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(pairs.len()) {
                scope.spawn(|| {
                    while let Some(&(left, right, intent, verdict)) =
                        pairs.get(cursor.fetch_add(1, Ordering::Relaxed))
                    {
                        let certified = catch_unwind(AssertUnwindSafe(|| {
                            self.prover.certify_verdict(left, right, verdict.clone(), true).0
                        }));
                        match certified {
                            Ok(verdict) if !verdict.is_unknown() => {
                                if Kind::of(&verdict) != Kind::intended(intent) {
                                    mismatched.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            _ => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        (rejected.into_inner(), mismatched.into_inner())
    }
}

fn http_outcomes(reply: &Json, expected: usize) -> Vec<Outcome> {
    let results = reply.get("results").and_then(Json::as_array).unwrap_or_default();
    if results.len() != expected {
        return Vec::new();
    }
    results
        .iter()
        .map(|result| {
            let code =
                result.get("error").and_then(|error| error.get("code")).and_then(Json::as_str);
            let kind = match result.get("verdict").and_then(Json::as_str) {
                Some("equivalent") => Some(Kind::Equivalent),
                Some("not_equivalent") => Some(Kind::NotEquivalent),
                Some("unknown") => Some(Kind::Unknown),
                _ => None,
            };
            let failed = kind.is_none() || matches!(code, Some("panicked" | "certificate_invalid"));
            Outcome { kind: kind.unwrap_or(Kind::Unknown), verdict: None, failed }
        })
        .collect()
}

/// The verdict checks of one or more runs.
#[derive(Debug, Default)]
pub struct Checked {
    pub attempted: usize,
    pub failed: usize,
    pub decided: usize,
    /// Whether every complete corpus pass reproduced the pinned counts.
    pub pinned_ok: bool,
    /// Fresh pairs whose checker-backed verdict contradicts the intent.
    pub intent_mismatch: usize,
}

/// A workload, set up and ready to run.
pub struct Bench {
    program: Program,
    corpus: Vec<CorpusPair>,
    /// The verdict every corpus pair must get (from the warm-up pass).
    reference: Vec<Kind>,
    source: Source,
    next_id: u64,
    callers: Vec<Caller>,
    server: Option<Server>,
    /// Warm-up verdicts that broke the corpus rules or failed outright.
    warmup_failures: usize,
    warmup_pinned_ok: bool,
    /// Every host probe taken by this bench's runs, in milliseconds.
    probes_ms: Vec<f64>,
}

impl Bench {
    /// Builds the inputs, empties the caches, starts the server if the
    /// workload has one and runs the warm-up. All of it counts as set-up.
    pub fn setup(workload: Workload, seed: u64, threads: usize) -> Bench {
        let (corpus, source) = match workload {
            Workload::FreshStream => (Vec::new(), Source::Fresh(Generator::from_corpus(seed))),
            _ => {
                let corpus = corpus::load();
                let order = Order::new(corpus.len(), seed);
                (corpus, Source::Corpus(order))
            }
        };
        clear_caches();
        let (server, callers) = if workload == Workload::ServeClosedLoop {
            let config = ServeConfig { workers: threads, ..ServeConfig::default() };
            let server = Server::spawn(config).expect("start the in-process server");
            let callers = (0..threads)
                .map(|_| Caller::Http(Client::connect(server.local_addr()).expect("connect")))
                .collect();
            (Some(server), callers)
        } else {
            (None, vec![Caller::InProcess])
        };
        let program = Program { workload, prover: GraphQE::new(), threads };
        let mut bench = Bench {
            program,
            corpus,
            reference: Vec::new(),
            source,
            next_id: 0,
            callers,
            server,
            warmup_failures: 0,
            warmup_pinned_ok: true,
            probes_ms: Vec::new(),
        };
        let warmup_pairs =
            if workload == Workload::FreshStream { FRESH_WARMUP_PAIRS } else { bench.corpus.len() };
        let warmup = bench.run(Until::Pairs(warmup_pairs), true);
        if !bench.corpus.is_empty() {
            let mut kinds = vec![Kind::Unknown; bench.corpus.len()];
            for (job, outcome) in warmup.calls.iter().flat_map(|c| c.jobs.iter().zip(&c.outcomes)) {
                if let Origin::Corpus { index, .. } = job.origin {
                    kinds[index] = outcome.kind;
                }
            }
            let (reference, wrong) = corpus::reference(&bench.corpus, &kinds);
            bench.reference = reference;
            bench.warmup_failures = wrong;
        }
        bench.warmup_failures += warmup.checks.failed;
        bench.warmup_pinned_ok = warmup.checks.passes.complete_passes_match(bench.corpus.len());
        bench
    }

    /// Whether every warm-up verdict passed its checks.
    pub fn warmup_ok(&self) -> bool {
        self.warmup_failures == 0 && self.warmup_pinned_ok
    }

    pub fn workload(&self) -> Workload {
        self.program.workload
    }

    pub fn threads(&self) -> usize {
        self.program.threads
    }

    pub fn prover(&self) -> &GraphQE {
        &self.program.prover
    }

    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// How much slower than the reference the host ran during this bench's
    /// runs so far, the warm-up included.
    pub fn slowdown(&self) -> f64 {
        host::slowdown(&self.probes_ms)
    }

    /// The closed loop: every client sends its next call only after the
    /// previous one returned. With `keep`, the run keeps its calls. Making
    /// the inputs, checking the outputs and probing the host's speed every
    /// [`host::PROBE_INTERVAL`] are left out of the timed clock.
    pub fn run(&mut self, until: Until, keep: bool) -> Run {
        let start = Instant::now();
        let batch = self.program.workload.batch();
        let corpus = &self.corpus;
        let feed = Mutex::new((&mut self.source, &mut self.next_id, 0usize));
        // Wall clock the clients spent outside their calls, summed over them.
        // The timed clock leaves out its mean over the clients, each of
        // which calls while the others do such work.
        let untimed = Mutex::new(Duration::ZERO);
        let clients = self.callers.len() as u32;
        let timed_now = || {
            start
                .elapsed()
                .saturating_sub(*untimed.lock().expect("a client thread panicked") / clients)
        };
        let add_untimed = |since: Instant| {
            *untimed.lock().expect("a client thread panicked") += since.elapsed();
        };
        let proved = AtomicUsize::new(0);
        let peak_rss_mb = Mutex::new(None);
        let next = || {
            let mut guard = feed.lock().expect("a client thread panicked while taking jobs");
            let (source, next_id, handed) = &mut *guard;
            let count = match until {
                Until::Timed(limit) if *handed >= RSS_PAIRS && timed_now() >= limit => 0,
                Until::Timed(_) => batch,
                Until::Pairs(total) => batch.min(total - *handed),
            };
            if count == 0 {
                return None;
            }
            let made = Instant::now();
            let jobs: Vec<Job> = (0..count)
                .map(|_| {
                    **next_id += 1;
                    next_job(source, corpus, **next_id - 1)
                })
                .collect();
            *handed += count;
            add_untimed(made);
            Some(jobs)
        };
        let (program, reference) = (&self.program, &self.reference);
        let client = |caller: &mut Caller| {
            let mut client = (Vec::new(), Vec::new(), Checks::default(), Vec::new());
            let mut probed = Instant::now();
            while let Some(jobs) = next() {
                let call = program.call(caller, jobs);
                client.1.push(call.latency().as_secs_f32() * 1e3);
                let checked = Instant::now();
                client.2.add(&call, corpus, reference, program);
                let before = proved.fetch_add(call.jobs.len(), Ordering::Relaxed);
                if before < RSS_PAIRS && before + call.jobs.len() >= RSS_PAIRS {
                    *peak_rss_mb.lock().expect("a client thread panicked") =
                        Some(report::peak_rss_mb());
                }
                if probed.elapsed() >= host::PROBE_INTERVAL {
                    client.3.push(host::probe_ms());
                    probed = Instant::now();
                }
                add_untimed(checked);
                if keep {
                    client.0.push(call);
                }
            }
            client
        };
        let clients = if let [caller] = self.callers.as_mut_slice() {
            vec![client(caller)]
        } else {
            std::thread::scope(|scope| {
                let client = &client;
                let threads: Vec<_> = self
                    .callers
                    .iter_mut()
                    .map(|caller| scope.spawn(move || client(caller)))
                    .collect();
                threads
                    .into_iter()
                    .map(|thread| thread.join().expect("a client thread panicked"))
                    .collect()
            })
        };
        let mut run = Run {
            calls: Vec::new(),
            latencies_ms: Vec::new(),
            pairs: 0,
            checks: Checks::default(),
            timed: timed_now(),
            peak_rss_mb: peak_rss_mb.into_inner().expect("a client thread panicked"),
        };
        for (calls, latencies_ms, checks, probes_ms) in clients {
            self.probes_ms.extend(probes_ms);
            run.calls.extend(calls);
            run.latencies_ms.extend(latencies_ms);
            run.pairs += checks.attempted;
            run.checks.merge(checks);
        }
        run.calls.sort_by_key(|call| call.start);
        run
    }

    /// The verdict checks of `runs`: corpus pairs must have matched their
    /// reference verdict and complete passes the pinned counts; definite
    /// fresh verdicts were re-certified call by call, untimed.
    pub fn check(&self, runs: Vec<Run>) -> Checked {
        let mut checks = Checks::default();
        runs.into_iter().for_each(|run| checks.merge(run.checks));
        Checked {
            attempted: checks.attempted,
            failed: checks.failed,
            decided: checks.decided,
            pinned_ok: self.warmup_pinned_ok
                && checks.passes.complete_passes_match(self.corpus.len()),
            intent_mismatch: checks.intent_mismatch,
        }
    }

    /// `GET /v1/stats` of the in-process server.
    pub fn server_stats(&mut self) -> Option<Json> {
        match self.callers.first_mut() {
            Some(Caller::Http(client)) => match client.request("GET", "/v1/stats", "") {
                Ok((200, stats)) => Some(stats),
                _ => None,
            },
            _ => None,
        }
    }

    /// Closes the client connections, then stops the server and joins its
    /// threads.
    pub fn shutdown(mut self) {
        self.callers.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn next_job(source: &mut Source, corpus: &[CorpusPair], id: u64) -> Job {
    match source {
        Source::Corpus(order) => {
            let (pass, index) = order.next();
            let pair = &corpus[index];
            Job {
                id,
                left: pair.left.clone(),
                right: pair.right.clone(),
                origin: Origin::Corpus { pass, index },
            }
        }
        Source::Fresh(generator) => {
            let pair = generator.next_pair();
            Job { id, left: pair.left, right: pair.right, origin: Origin::Fresh(pair.intent) }
        }
    }
}

/// Empties every process-wide cache and this thread's decision caches, so
/// each set-up starts cold.
pub fn clear_caches() {
    graphqe::clear_parse_cache();
    graphqe::clear_normalize_cache();
    graphqe::counterexample::clear_pool_cache();
    liastar::reset_thread_caches();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fresh_pair_is_checked_and_intent_mismatches_are_only_counted() {
        let mut bench = Bench::setup(Workload::FreshStream, 3, 1);
        assert!(bench.warmup_ok());
        let run = bench.run(Until::Pairs(200), false);
        let checked = bench.check(vec![run]);
        assert_eq!(checked.attempted, 200);
        assert_eq!(checked.failed, 0);
        assert!(checked.intent_mismatch <= checked.decided);
        bench.shutdown();
    }
}
