//! `expiry_storm`: one resolver fills a whole zone at one sim instant;
//! each timed round re-queries every name at the instant the fill
//! expires, then sends fresh random-subdomain names that get NXDOMAIN.
//! The zone size and the single instant are the point: they are what
//! makes the same-instant refetch and the NXDOMAIN lookup expensive,
//! so neither may be shrunk or spread to make the costs disappear.

use crate::world::{self, AuthLog};
use crate::{mean, median, percentile, timed, us, Args, Fnv, Outcome};
use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{Network, Region, SimRng, SimTime};
use dnsttl_resolver::{RecursiveResolver, ResolutionOutcome};
use dnsttl_wire::{Name, RData, Rcode, RecordType, Ttl};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Names in the zone, all filled at one instant.
const NAMES: usize = 2_048;
/// TTL of every `A` record in the zone.
const TTL_S: u64 = 300;
/// Random-subdomain (NXDOMAIN) queries per round.
const NX_PER_ROUND: usize = 1_024;
const ROUND_QUERIES: usize = NAMES + NX_PER_ROUND;
/// Rounds per episode in the untraced run. Each episode starts from a
/// fresh set-up: nothing on the resolve path purges expired negative
/// entries, so the negative cache grows by a round's NXDOMAIN names
/// every round, and bounded episodes keep peak memory independent of
/// how many rounds a run gets through.
const EPISODE_ROUNDS: usize = 8;

/// One resolver and its world, between rounds.
struct Storm {
    net: Network,
    resolver: RecursiveResolver,
    names: Vec<Name>,
    nx_rng: SimRng,
    /// Sim instant (ms) of the next round: the fill, or the previous
    /// round, plus the TTL plus one second.
    next_at_ms: u64,
}

/// Host time of each `resolve` in one round, split by query kind.
#[derive(Default)]
struct RoundTimes {
    refetch: Vec<u64>,
    nxdomain: Vec<u64>,
}

/// Folds one response's rcode and answer records into `h`.
fn fold(h: &mut Fnv, o: &ResolutionOutcome) {
    h.bytes(&[o.answer.header.rcode.code()]);
    for r in &o.answer.answers {
        h.bytes(r.name.to_string().as_bytes());
        h.bytes(&r.ttl.as_secs().to_le_bytes());
        h.bytes(format!("{:?}", r.rdata).as_bytes());
    }
}

/// Whether `o` carries the zone's address for universe name `k`.
fn answers_name(o: &ResolutionOutcome, k: usize, name: &Name) -> bool {
    o.answer.header.rcode == Rcode::NoError
        && o.answer
            .answers
            .iter()
            .any(|r| &r.name == name && r.rdata == RData::A(world::zone_addr(k)))
}

impl Storm {
    /// Builds the world and the resolver and fills every name at one
    /// instant. Returns the per-`resolve` host times of the fill, the
    /// digest of its responses and how many were wrong.
    fn setup(seed: u64, log: Option<&Rc<RefCell<AuthLog>>>) -> (Storm, Vec<u64>, u64, u64) {
        let (mut net, roots) = world::build(NAMES, Ttl::from_secs(TTL_S as u32), log);
        let mut resolver = RecursiveResolver::new(
            "storm",
            ResolverPolicy::default(),
            Region::Eu,
            0,
            roots,
            SimRng::seed_from(seed),
        );
        let names: Vec<Name> = (0..NAMES).map(world::zone_name).collect();
        let fill_at = SimTime::from_secs(60);
        let mut times = Vec::with_capacity(NAMES);
        let mut digest = Fnv::default();
        let mut wrong = 0;
        for (k, name) in names.iter().enumerate() {
            let (o, dt) = timed(|| resolver.resolve(name, RecordType::A, fill_at, &mut net));
            times.push(dt.as_nanos() as u64);
            wrong += u64::from(!answers_name(&o, k, name));
            fold(&mut digest, &o);
        }
        let storm = Storm {
            net,
            resolver,
            names,
            nx_rng: SimRng::seed_from(seed ^ 0x9e37_79b9_7f4a_7c15),
            next_at_ms: fill_at.as_millis() + (TTL_S + 1) * 1_000,
        };
        (storm, times, digest.0, wrong)
    }

    /// Runs one round. Returns its host wall time, the digest of its
    /// refetch responses (equal to the fill's when every refetch gets
    /// the same answer) and how many responses were wrong.
    fn round(&mut self, times: &mut RoundTimes) -> (Duration, u64, u64) {
        let nx_names: Vec<Name> = (0..NX_PER_ROUND)
            .map(|_| {
                Name::parse(&format!("x{:016x}.zipf", self.nx_rng.next_u64()))
                    .expect("hex label is a valid name")
            })
            .collect();
        let now = SimTime::from_millis(self.next_at_ms);
        self.next_at_ms += (TTL_S + 1) * 1_000;
        let mut digest = Fnv::default();
        let mut wrong = 0;
        let start = Instant::now();
        for (k, name) in self.names.iter().enumerate() {
            let (o, dt) = timed(|| {
                self.resolver
                    .resolve(name, RecordType::A, now, &mut self.net)
            });
            times.refetch.push(dt.as_nanos() as u64);
            wrong += u64::from(!answers_name(&o, k, name));
            fold(&mut digest, &o);
        }
        for name in &nx_names {
            let (o, dt) = timed(|| {
                self.resolver
                    .resolve(name, RecordType::A, now, &mut self.net)
            });
            times.nxdomain.push(dt.as_nanos() as u64);
            let nxdomain = o.answer.header.rcode == Rcode::NxDomain && o.answer.answers.is_empty();
            wrong += u64::from(!nxdomain);
        }
        (start.elapsed(), digest.0, wrong)
    }

    /// Runs rounds until `budget` has passed in them or `max_rounds`
    /// have run (at least one round). Returns each round's host wall
    /// time.
    fn rounds(
        &mut self,
        max_rounds: usize,
        budget: Duration,
        fill_digest: u64,
        times: &mut RoundTimes,
        out: &mut Outcome,
    ) -> Vec<Duration> {
        let (mut walls, mut wrong, mut drifted) = (Vec::new(), 0, 0);
        while walls.is_empty()
            || (walls.len() < max_rounds && walls.iter().sum::<Duration>() < budget)
        {
            let (dt, digest, bad) = self.round(times);
            walls.push(dt);
            wrong += bad;
            drifted += u64::from(digest != fill_digest);
        }
        let queries = (walls.len() * ROUND_QUERIES) as u64;
        out.attempted += queries;
        out.failed += wrong;
        out.check(wrong == 0, || {
            format!("{wrong} of {queries} round queries got a wrong answer or not NXDOMAIN")
        });
        out.check(drifted == 0, || {
            format!("{drifted} rounds refetched a response sequence unlike the fill")
        });
        walls
    }
}

/// Host time per query over whole rounds.
fn per_query_s(walls: &[Duration]) -> f64 {
    walls.iter().sum::<Duration>().as_secs_f64() / (walls.len() * ROUND_QUERIES) as f64
}

fn mean_us(samples: &[u64]) -> f64 {
    samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e3
}

pub fn end_to_end(args: &Args, out: &mut Outcome) {
    let (mut setup_s, mut walls, mut p50, mut p99) = (vec![], vec![], vec![], vec![]);
    let mut first_digest = None;
    let mut samples = 0;
    while walls.iter().sum::<Duration>() < args.seconds {
        let ((mut storm, _, fill_digest, wrong), dt) = timed(|| Storm::setup(args.seed, None));
        setup_s.push(dt.as_secs_f64());
        out.attempted += NAMES as u64;
        out.failed += wrong;
        out.check(wrong == 0, || format!("{wrong} fill answers are wrong"));
        out.check(first_digest.is_none_or(|d| d == fill_digest), || {
            "fill digest differs between set-ups".into()
        });
        if first_digest.is_none() {
            out.digest("expiry_storm.fill_and_refetch", fill_digest);
            first_digest = Some(fill_digest);
        }
        let mut times = RoundTimes::default();
        walls.extend(storm.rounds(EPISODE_ROUNDS, Duration::MAX, fill_digest, &mut times, out));
        let mut all: Vec<u64> = times.refetch.into_iter().chain(times.nxdomain).collect();
        all.sort_unstable();
        samples += all.len();
        p50.push(percentile(&all, 50.0) as f64 / 1e3);
        p99.push(percentile(&all, 99.0) as f64 / 1e3);
    }
    out.note("rounds", walls.len());
    out.note("episodes", setup_s.len());
    out.note("query_samples", samples);
    out.note("failed_share", out.failed as f64 / out.attempted as f64);
    out.metric("queries_per_s", 1.0 / per_query_s(&walls));
    // Episodes are equal in size, so the mean weighs every query
    // alike; a median would jump between the fast and slow phases of a
    // shared host.
    out.metric("query_p50_us", mean(&p50));
    out.metric("query_p99_us", mean(&p99));
    out.metric("setup_s", median(&setup_s));
    out.metric("peak_rss_mb", crate::peak_rss_mb());
}

pub fn traced(args: &Args, out: &mut Outcome) {
    let half = args.seconds / 2;

    // Untraced reference for the tracing overhead.
    let (mut plain, _, fill_digest, _) = Storm::setup(args.seed, None);
    let mut plain_times = RoundTimes::default();
    let plain_walls = plain.rounds(usize::MAX, half, fill_digest, &mut plain_times, out);
    drop(plain);

    let log = Rc::new(RefCell::new(AuthLog::default()));
    let (mut storm, fill_times, digest, wrong) = Storm::setup(args.seed, Some(&log));
    out.check(wrong == 0 && digest == fill_digest, || {
        "the traced fill differs from the untraced one".into()
    });
    let cold_miss_us = mean_us(&fill_times);

    // Count only the timed rounds from here on.
    *log.borrow_mut() = AuthLog::recording();
    let exchanges_before = world::exchanges(&storm.net);
    let stats_before = storm.resolver.stats().clone();
    let mut times = RoundTimes::default();
    let walls = storm.rounds(usize::MAX, half, fill_digest, &mut times, out);
    let wall: Duration = walls.iter().sum();
    let exchanges = world::exchanges(&storm.net) - exchanges_before;
    let stats = storm.resolver.stats();
    let queries = stats.client_queries - stats_before.client_queries;
    let misses = queries - (stats.cache_hits - stats_before.cache_hits);
    let log = log.borrow();
    let (codec, bytes) = log.replay_codec();
    let codec_total = codec * exchanges as u32;
    let resolve_total =
        Duration::from_nanos(times.refetch.iter().chain(&times.nxdomain).sum::<u64>());
    let resolver_self = resolve_total
        .saturating_sub(log.busy())
        .saturating_sub(codec_total)
        .saturating_sub(log.bookkeeping);
    let cache = storm.resolver.cache().stats();

    out.note("rounds", walls.len());
    out.note("misses", misses);
    out.note("refetch_us", mean_us(&times.refetch));
    out.note("nxdomain_query_us", mean_us(&times.nxdomain));
    out.metric("resolver.cold_miss_us", cold_miss_us);
    out.metric("resolver.self_us", us(resolver_self) / misses as f64);
    out.metric(
        "resolver.upstream_per_query",
        exchanges as f64 / queries as f64,
    );
    out.metric(
        "cache.refetch_penalty_us",
        mean_us(&times.refetch) - cold_miss_us,
    );
    out.metric("cache.hit_rate", 1.0 - misses as f64 / queries as f64);
    out.metric("cache.inserts", cache.inserts as f64);
    out.metric("cache.expiries", cache.expiries as f64);
    out.metric("cache.evictions", cache.evictions as f64);
    out.metric("auth.answer_us", us(log.answer) / log.answers as f64);
    out.metric("auth.nxdomain_us", us(log.nxdomain) / log.nxdomains as f64);
    out.metric("auth.queries", log.queries() as f64);
    out.metric("wire.codec_us", us(codec));
    out.metric("wire.bytes_per_exchange", bytes);
    out.metric("netsim.exchanges", exchanges as f64);
    // The layers split each `resolve` exactly, so what the trace does
    // not attribute is the benchmark loop around the calls.
    out.closure(1.0 - resolve_total.as_secs_f64() / wall.as_secs_f64());
    out.metric(
        "trace.overhead_share",
        per_query_s(&walls) / per_query_s(&plain_walls) - 1.0,
    );
}
