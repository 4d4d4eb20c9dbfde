//! `zipf_campaign`: the population engine at scale, through
//! `atlas::run_zipf_campaign` on `ZipfCampaignConfig::large(200_000)`.

use crate::world::{self, AuthLog};
use crate::{median, ms, timed, us, Args, Outcome};
use dnsttl_atlas::{
    partition, partition_bases, run_cells, run_zipf_campaign, run_zipf_cell, ZipfCampaignConfig,
    ZipfCellOut, ZipfDataset, ZipfEngine, ZipfOutcome, ZipfRow, ZipfRunOpts, ZipfSampler,
};
use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{shard_seed, Region, SimDuration, SimRng, SimTime};
use dnsttl_resolver::RecursiveResolver;
use dnsttl_telemetry::Telemetry;
use dnsttl_wire::{Name, RecordType};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

const PROBES: usize = 200_000;
/// Worker threads for the cell fan-out: the core count of the
/// two-core host the benchmark was sized on.
const WORKERS: usize = 2;
/// Set-ups before each repetition; `setup_s` is the median of all.
const SETUPS_PER_REP: usize = 2;

/// The inputs `run_zipf_campaign` builds before its cells run.
struct Inputs {
    cfg: ZipfCampaignConfig,
    sampler: ZipfSampler,
    names: Vec<Name>,
    sizes: Vec<usize>,
    bases: Vec<usize>,
}

impl Inputs {
    fn new(cfg: ZipfCampaignConfig) -> Inputs {
        let sampler = ZipfSampler::new(cfg.names, cfg.exponent);
        let names = (0..cfg.names).map(world::zone_name).collect();
        let sizes = partition(cfg.probes, cfg.cells);
        let bases = partition_bases(&sizes);
        Inputs {
            cfg,
            sampler,
            names,
            sizes,
            bases,
        }
    }

    /// Runs cell `cell` of the campaign with `cfg` (the inputs' own
    /// config, or a zero-duration copy that only builds the cell).
    fn run_cell(&self, cfg: &ZipfCampaignConfig, seed: u64, cell: usize) -> ZipfCellOut {
        run_zipf_cell(
            cfg,
            &self.sampler,
            &self.names,
            self.sizes[cell],
            self.bases[cell] as u32,
            shard_seed(seed, cell as u64),
            ZipfEngine::Soa,
            &Telemetry::disabled(),
        )
    }

    /// Builds every cell's world, resolvers and probe frame on the
    /// campaign's workers, without running a query. Returns each
    /// cell's build time.
    fn build_cells(&self, seed: u64) -> Vec<Duration> {
        let build_only = ZipfCampaignConfig {
            duration: SimDuration::from_millis(0),
            ..self.cfg.clone()
        };
        run_cells(WORKERS, self.cfg.cells, |cell| {
            let (out, dt) = timed(|| self.run_cell(&build_only, seed, cell));
            assert!(
                out.dataset.is_empty(),
                "a zero-duration cell fires no query"
            );
            dt
        })
    }
}

fn opts() -> ZipfRunOpts {
    ZipfRunOpts {
        workers: WORKERS,
        ..ZipfRunOpts::default()
    }
}

/// Checks an outcome's rows against its per-probe counters; returns
/// the number of rows that are not a usable answer.
fn check_outcome(o: &ZipfOutcome, out: &mut Outcome) -> u64 {
    let rows = o.dataset.len() as u64;
    let queries: u64 = o.queries_per_probe.iter().map(|&q| u64::from(q)).sum();
    let hit_rows = o.dataset.rows().iter().filter(|r| r.cache_hit).count() as u64;
    let hits: u64 = o.hits_per_probe.iter().map(|&h| u64::from(h)).sum();
    out.check(rows == queries, || {
        format!("{rows} rows but {queries} queries per probe")
    });
    out.check(hit_rows == hits, || {
        format!("{hit_rows} hit rows but {hits} hits per probe")
    });
    let failed = o.dataset.rows().iter().filter(|r| !r.ok).count() as u64;
    out.attempted += rows;
    out.failed += failed;
    out.check(failed == 0, || {
        format!("{failed} of {rows} queries got no answer")
    });
    failed
}

pub fn end_to_end(args: &Args, out: &mut Outcome) {
    let cfg = ZipfCampaignConfig::large(PROBES);
    let (mut rows, mut busy, mut per_query_s) = (0, Duration::ZERO, vec![]);
    let (mut setup_s, mut digest, mut failed) = (vec![], None, 0);
    let start = Instant::now();
    while per_query_s.len() < 2 || start.elapsed() < args.seconds {
        // Set-ups before each repetition, so that `setup_s` samples the
        // host over the whole run.
        for _ in 0..SETUPS_PER_REP {
            let (_, dt) = timed(|| Inputs::new(cfg.clone()).build_cells(args.seed));
            setup_s.push(dt.as_secs_f64());
        }
        let (o, dt) = timed(|| run_zipf_campaign(&cfg, args.seed, &opts()));
        failed += check_outcome(&o, out);
        rows += o.dataset.len();
        busy += dt;
        per_query_s.push(dt.as_secs_f64() / o.dataset.len() as f64);
        let d = o.dataset.digest();
        out.check(digest.is_none_or(|first| first == d), || {
            "dataset digest differs between repetitions".into()
        });
        if digest.is_none() {
            out.digest("zipf_campaign.dataset", d);
            out.note("rows", o.dataset.len());
            out.note("hit_rate", o.dataset.hit_rate());
        }
        digest = Some(d);
    }
    out.note("failed_share", failed as f64 / out.attempted as f64);
    out.metric("queries_per_s", rows as f64 / busy.as_secs_f64());
    crate::repetition_latency(out, &per_query_s);
    out.metric("setup_s", median(&setup_s));
    out.metric("peak_rss_mb", crate::peak_rss_mb());
}

/// What the replay of the campaign's rows measured, summed over cells.
#[derive(Default)]
struct Replay {
    /// `resolve` time and count of cache hits.
    hit: Duration,
    hits: u64,
    /// Misses on a name the resolver had never resolved.
    cold: Duration,
    colds: u64,
    /// Misses on a name the resolver had resolved before: its entry
    /// expired.
    refetch: Duration,
    refetches: u64,
    exchanges: u64,
    /// Replayed queries that did not reproduce their row.
    mismatched: u64,
}

/// Re-runs the queries of one cell, row by row, through a copy of the
/// cell's world with the benchmark's probe in front of its servers.
/// The resolvers are built as `run_zipf_cell` builds them, so each
/// replayed query must reproduce its row.
fn replay_cell(
    inp: &Inputs,
    seed: u64,
    cell: usize,
    rows: &[ZipfRow],
    log: &Rc<RefCell<AuthLog>>,
    replay: &mut Replay,
) {
    let (mut net, roots) = world::build(inp.cfg.names, inp.cfg.record_ttl, Some(log));
    let mut rng = SimRng::seed_from(shard_seed(seed, cell as u64));
    let base = inp.bases[cell];
    let mut resolvers: Vec<RecursiveResolver> = (0..inp.cfg.resolvers_per_cell.max(1))
        .map(|i| {
            RecursiveResolver::new(
                format!("zipf-{base}-{i}"),
                ResolverPolicy::default(),
                Region::Eu,
                i as u64,
                roots.clone(),
                rng.fork(1_000_000 + i as u64),
            )
        })
        .collect();
    let mut seen = vec![vec![false; inp.names.len()]; resolvers.len()];
    for row in rows {
        let (r, rank) = (row.resolver as usize, row.rank as usize);
        let now = SimTime::from_millis(row.at_ms);
        let (o, dt) =
            timed(|| resolvers[r].resolve(&inp.names[rank], RecordType::A, now, &mut net));
        if o.cache_hit {
            replay.hit += dt;
            replay.hits += 1;
        } else if seen[r][rank] {
            replay.refetch += dt;
            replay.refetches += 1;
        } else {
            replay.cold += dt;
            replay.colds += 1;
        }
        seen[r][rank] = true;
        let ok =
            o.answer.header.rcode == dnsttl_wire::Rcode::NoError && !o.answer.answers.is_empty();
        replay.mismatched += u64::from(o.cache_hit != row.cache_hit || ok != row.ok);
    }
    replay.exchanges += world::exchanges(&net);
}

pub fn traced(args: &Args, out: &mut Outcome) {
    // Untraced reference, for half the window: the end-to-end call the
    // layers decompose.
    let cfg = ZipfCampaignConfig::large(PROBES);
    let (mut reference, mut reference_wall, mut reps) = (None, Duration::ZERO, 0u32);
    let start = Instant::now();
    while reps == 0 || start.elapsed() < args.seconds / 2 {
        let (o, dt) = timed(|| run_zipf_campaign(&cfg, args.seed, &opts()));
        check_outcome(&o, out);
        reference_wall += dt;
        reps += 1;
        reference = Some(o);
    }
    let reference = reference.expect("at least one reference run");
    let reference_wall = reference_wall / reps;
    out.note("repetitions", reps);

    let inp = Inputs::new(cfg);
    let build = inp.build_cells(args.seed);

    // The campaign assembled cell by cell on the same worker count.
    let start = Instant::now();
    let cells: Vec<(ZipfCellOut, Duration)> = run_cells(WORKERS, inp.cfg.cells, |cell| {
        timed(|| inp.run_cell(&inp.cfg, args.seed, cell))
    });
    let fan_out = start.elapsed();

    // Every cell's queries once more, through the probed world: the
    // per-layer costs of a query.
    let log = Rc::new(RefCell::new(AuthLog::recording()));
    let mut replay = Replay::default();
    for (cell, (cell_out, _)) in cells.iter().enumerate() {
        replay_cell(
            &inp,
            args.seed,
            cell,
            cell_out.dataset.rows(),
            &log,
            &mut replay,
        );
    }
    let mismatched = replay.mismatched;
    out.check(mismatched == 0, || {
        format!("{mismatched} replayed queries differ from their campaign rows")
    });

    let mut parts = Vec::with_capacity(cells.len());
    let mut run_times = Vec::with_capacity(cells.len());
    let mut resolver_base = 0u32;
    for (cell_out, dt) in cells {
        parts.push((cell_out.dataset, resolver_base));
        resolver_base += cell_out.resolvers as u32;
        run_times.push(dt);
    }
    let (dataset, merge) = timed(|| ZipfDataset::merge_cells(parts));
    out.check(dataset.digest() == reference.dataset.digest(), || {
        "the cell-by-cell assembly has another digest than the campaign".into()
    });
    out.digest("zipf_campaign.dataset", dataset.digest());

    let log = log.borrow();
    let (codec, bytes) = log.replay_codec();
    let queries = dataset.len() as f64;
    let exchanges = replay.exchanges;
    let misses = replay.colds + replay.refetches;
    let resolver_self = (replay.cold + replay.refetch)
        .saturating_sub(log.busy())
        .saturating_sub(codec * exchanges as u32)
        .saturating_sub(log.bookkeeping);
    let mean_us = |t: Duration, n: u64| us(t) / n as f64;
    let cold_miss_us = mean_us(replay.cold, replay.colds);
    let cell_busy: Duration = run_times.iter().sum();
    let mean_run = cell_busy / run_times.len() as u32;
    let slowest = run_times.iter().max().copied().unwrap_or_default();
    let traced_wall = fan_out + merge;
    // `run_cells` caps the workers at the host's parallelism.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(WORKERS)) as f64;
    out.note("workers", workers);
    let cache = reference.cache;

    out.note("replayed_misses", misses);
    out.note("hit_us", mean_us(replay.hit, replay.hits));
    out.note("miss_us", mean_us(replay.cold + replay.refetch, misses));
    out.metric(
        "atlas.cell_build_ms",
        ms(build.iter().sum::<Duration>()) / build.len() as f64,
    );
    out.metric("atlas.cell_run_ms", ms(mean_run));
    out.metric(
        "atlas.cell_imbalance",
        slowest.as_secs_f64() / mean_run.as_secs_f64(),
    );
    out.metric(
        "atlas.worker_idle_share",
        1.0 - cell_busy.as_secs_f64() / (fan_out.as_secs_f64() * workers),
    );
    out.metric("atlas.merge_ms", ms(merge));
    out.metric(
        "atlas.dataset_bytes",
        (dataset.len() * std::mem::size_of::<ZipfRow>()) as f64,
    );
    out.metric("resolver.cold_miss_us", cold_miss_us);
    out.metric("resolver.self_us", us(resolver_self) / misses as f64);
    out.metric("resolver.upstream_per_query", exchanges as f64 / queries);
    out.metric(
        "cache.refetch_penalty_us",
        mean_us(replay.refetch, replay.refetches) - cold_miss_us,
    );
    out.metric("cache.hit_rate", reference.dataset.hit_rate());
    out.metric("cache.inserts", cache.inserts as f64);
    out.metric("cache.expiries", cache.expiries as f64);
    out.metric("cache.evictions", cache.evictions as f64);
    out.metric("auth.answer_us", us(log.answer) / log.answers as f64);
    out.metric("auth.queries", log.queries() as f64);
    out.metric("wire.codec_us", us(codec));
    out.metric("wire.bytes_per_exchange", bytes);
    out.metric("netsim.exchanges", exchanges as f64);
    // Cells are the layer below the fan-out: the trace attributes their
    // busy time, shared over the workers, and the merge. Worker idle
    // time and thread start-up stay unattributed.
    out.closure(
        1.0 - (cell_busy.as_secs_f64() / workers + merge.as_secs_f64()) / traced_wall.as_secs_f64(),
    );
    out.metric(
        "trace.overhead_share",
        traced_wall.as_secs_f64() / reference_wall.as_secs_f64() - 1.0,
    );
}
