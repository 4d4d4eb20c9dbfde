//! `bailiwick_paper`: the paper's §4 renumbering experiment through
//! `experiments::bailiwick_exp::run`, telemetry on as `repro`
//! configures a module's handle, with the trace, time-series and
//! Prometheus text rendered in memory as `repro` writes them.

use crate::{median, ms, timed, Args, Fnv, Outcome};
use dnsttl_atlas::{
    run_measurement_with_hooks, Dataset, Hook, MeasurementResult, MeasurementSpec, Population,
    PopulationConfig, QueryName,
};
use dnsttl_experiments::worlds::{self, addrs, CachetestWorld};
use dnsttl_experiments::{bailiwick_exp, ExpConfig, Report};
use dnsttl_netsim::{Network, SimRng, SimTime};
use dnsttl_telemetry::Telemetry;
use dnsttl_wire::{Name, RecordType, Ttl};
use std::net::IpAddr;
use std::time::{Duration, Instant};

/// Set-ups before each repetition; `setup_s` is the median of all.
const SETUPS: usize = 5;
/// When the experiment renumbers (its t = 9 min) and how long it runs.
const RENUMBER_AT: SimTime = SimTime::from_secs(9 * 60);
const HOURS: u64 = 4;

/// The experiment's config at its default scale, with a telemetry
/// handle configured as `repro` configures one per module.
fn config(seed: u64, telemetry: Telemetry) -> ExpConfig {
    let defaults = ExpConfig::default();
    telemetry.configure_timeseries(defaults.ts_bucket_ms, defaults.ts_span_cap);
    ExpConfig {
        seed,
        out_dir: None,
        telemetry,
        ..defaults
    }
}

/// The artifacts `repro` writes for a module, rendered in memory.
struct Rendered {
    trace: String,
    timeseries: String,
    prometheus: String,
}

fn render(t: &Telemetry) -> Rendered {
    Rendered {
        trace: t.trace_jsonl(),
        timeseries: t.timeseries_jsonl(),
        prometheus: t.prometheus_text(),
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(s.as_bytes());
    h.0
}

fn get(reports: &[Report], id: &str, key: &str) -> f64 {
    reports
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("bailiwick_exp produces {id}"))
        .get(key)
}

/// Checks the §4 findings `tests/paper_findings.rs` asserts; returns
/// the queries the run made.
fn check_findings(reports: &[Report], out: &mut Outcome) -> u64 {
    let in_60_120 = get(reports, "fig6", "new_60_120");
    let out_60_120 = get(reports, "fig7", "new_60_120");
    let out_after = get(reports, "fig7", "new_after_120");
    let (sticky_in, sticky_out) = (
        get(reports, "table4", "sticky_in"),
        get(reports, "table4", "sticky_out"),
    );
    out.check(in_60_120 > out_60_120 + 0.25, || {
        format!("fig6 new_60_120 {in_60_120} is not above fig7's {out_60_120} + 0.25")
    });
    out.check(out_after > 0.5, || {
        format!("fig7 new_after_120 {out_after} is not above 0.5")
    });
    out.check(sticky_out > sticky_in, || {
        format!("table4 sticky_out {sticky_out} is not above sticky_in {sticky_in}")
    });
    (get(reports, "table3", "in_queries") + get(reports, "table3", "out_queries")) as u64
}

/// What the run's telemetry says about its queries: valid answers,
/// answers a hijacking middlebox replaced, and queries that failed by
/// the benchmark's rule (SERVFAIL or timeout, or an empty answer).
fn accounting(t: &Telemetry) -> (u64, u64, u64) {
    let discarded = |reason| t.counter_value("atlas_measurements_discarded", &[("reason", reason)]);
    (
        t.counter_value("atlas_measurements_valid", &[]),
        discarded("hijacked"),
        discarded("rcode") + discarded("empty_answer"),
    )
}

/// One configuration's world and population, built as
/// `bailiwick_exp` builds them before its first query.
struct Built {
    world: CachetestWorld,
    pop: Population,
}

fn build(cfg: &ExpConfig, out_of_bailiwick: bool) -> Built {
    let mut world = worlds::cachetest_world(out_of_bailiwick);
    world.net.set_telemetry(cfg.telemetry.clone());
    let mut pop_rng = SimRng::seed_from(cfg.seed_for("bailiwick-pop"));
    let mut pop = Population::build(
        &PopulationConfig::small(cfg.probes),
        &world.roots,
        &mut pop_rng,
    );
    pop.set_telemetry(&cfg.telemetry);
    Built { world, pop }
}

pub fn end_to_end(args: &Args, out: &mut Outcome) {
    let (mut per_query_s, mut setup_s, mut digests) = (Vec::new(), Vec::new(), None);
    let (mut queries_total, mut busy) = (0, Duration::ZERO);
    let start = Instant::now();
    while per_query_s.len() < 2 || start.elapsed() < args.seconds {
        for _ in 0..SETUPS {
            let (_, dt) = timed(|| {
                let cfg = config(args.seed, Telemetry::new());
                (build(&cfg, false), build(&cfg, true))
            });
            setup_s.push(dt.as_secs_f64());
        }
        let telemetry = Telemetry::new();
        let cfg = config(args.seed, telemetry.clone());
        let ((reports, rendered), dt) = timed(|| (bailiwick_exp::run(&cfg), render(&telemetry)));
        let queries = check_findings(&reports, out);
        let (valid, hijacked, failed) = accounting(&telemetry);
        out.check(valid + hijacked + failed == queries, || {
            format!(
                "telemetry accounts for {} queries, table3 for {queries}",
                valid + hijacked + failed
            )
        });
        out.attempted += queries;
        out.failed += failed;
        per_query_s.push(dt.as_secs_f64() / queries as f64);
        queries_total += queries;
        busy += dt;
        let d = (fnv(&rendered.trace), fnv(&rendered.timeseries));
        out.check(digests.is_none_or(|first| first == d), || {
            "rendered trace or time series differs between repetitions".into()
        });
        if digests.is_none() {
            out.digest("bailiwick_paper.trace", d.0);
            out.digest("bailiwick_paper.timeseries", d.1);
            out.note("queries", queries);
            // Answers a simulated middlebox replaced: the paper's
            // discarded rows, not failures.
            out.note("hijacked", hijacked);
            out.note("failed_share", failed as f64 / queries as f64);
        }
        digests = Some(d);
    }
    out.metric("queries_per_s", queries_total as f64 / busy.as_secs_f64());
    crate::repetition_latency(out, &per_query_s);
    out.metric("setup_s", median(&setup_s));
    out.metric("peak_rss_mb", crate::peak_rss_mb());
}

/// The renumbering hook `bailiwick_exp` schedules at t = 9 min.
fn renumber(world: &CachetestWorld) -> Hook {
    let new_addr = match addrs::SUB_NEW {
        IpAddr::V4(a) => a,
        IpAddr::V6(_) => unreachable!("the experiment servers are IPv4"),
    };
    let (server, zone, host, ttl) = match &world.com {
        Some(com) => (com.clone(), "com", "ns1.zurrundedu.com", Ttl::TWO_DAYS),
        None => (
            world.parent.clone(),
            "cachetest.net",
            "ns1.sub.cachetest.net",
            Ttl::from_secs(7_200),
        ),
    };
    let zone = Name::parse(zone).expect("static name");
    let host = Name::parse(host).expect("static name");
    Hook {
        at: RENUMBER_AT,
        action: Box::new(move |_net: &mut Network| {
            server
                .borrow_mut()
                .zone_mut(&zone)
                .expect("the renumbered zone exists")
                .replace_address(&host, new_addr, ttl);
        }),
    }
}

/// Bytes the dataset's rows hold: the rows plus their answer strings.
fn dataset_bytes(ds: &Dataset) -> usize {
    ds.results()
        .iter()
        .map(|r| {
            std::mem::size_of::<MeasurementResult>()
                + r.answers.iter().map(String::len).sum::<usize>()
        })
        .sum()
}

pub fn traced(args: &Args, out: &mut Outcome) {
    // Runs with telemetry off and on, alternating, for half the window.
    let (mut off, mut on, mut export, mut runs) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO, 0);
    let (mut queries, mut events, mut rendered_bytes) = (0, 0, 0);
    let start = Instant::now();
    while runs == 0 || start.elapsed() < args.seconds / 2 {
        let (off_reports, dt) =
            timed(|| bailiwick_exp::run(&config(args.seed, Telemetry::disabled())));
        off += dt;
        let telemetry = Telemetry::new();
        let cfg = config(args.seed, telemetry.clone());
        let (reports, dt) = timed(|| bailiwick_exp::run(&cfg));
        on += dt;
        let (rendered, dt) = timed(|| render(&telemetry));
        export += dt;
        runs += 1;
        queries = check_findings(&reports, out);
        let off_queries = check_findings(&off_reports, out);
        out.check(off_queries == queries, || {
            "telemetry changed the query count".into()
        });
        out.attempted += queries;
        events = telemetry.events_recorded();
        rendered_bytes =
            rendered.trace.len() + rendered.timeseries.len() + rendered.prometheus.len();
    }
    out.note("repetitions", runs);

    // The classic engine, assembled as `bailiwick_exp` assembles it.
    let cfg = config(args.seed, Telemetry::new());
    let (mut setup, mut measurement) = (Duration::ZERO, Duration::ZERO);
    let (mut rows, mut bytes, mut upstream, mut client, mut hits, mut exchanges) =
        (0, 0, 0, 0, 0, 0);
    let mut cache = dnsttl_resolver::CacheStats::default();
    let start = Instant::now();
    for (out_of_bailiwick, tag) in [(false, "bailiwick-in"), (true, "bailiwick-out")] {
        let (mut b, dt) = timed(|| build(&cfg, out_of_bailiwick));
        setup += dt;
        let spec = MeasurementSpec::every_600s(
            QueryName::PerProbe {
                suffix: Name::parse("sub.cachetest.net").expect("static name"),
            },
            RecordType::AAAA,
            HOURS,
        );
        let mut rng = SimRng::seed_from(cfg.seed_for(tag));
        let hook = renumber(&b.world);
        let (ds, dt) = timed(|| {
            run_measurement_with_hooks(&spec, &mut b.pop, &mut b.world.net, &mut rng, vec![hook])
        });
        measurement += dt;
        rows += ds.len();
        bytes += dataset_bytes(&ds);
        for r in &b.pop.resolvers {
            upstream += r.stats().upstream_queries;
            client += r.stats().client_queries;
            hits += r.stats().cache_hits;
            cache.absorb(&r.cache().stats());
        }
        exchanges += [
            addrs::ROOT,
            addrs::NET,
            addrs::COM,
            addrs::CACHETEST,
            addrs::SUB_OLD,
            addrs::SUB_NEW,
        ]
        .iter()
        .map(|a| b.world.net.queries_received(*a))
        .sum::<u64>();
    }
    let assembled = start.elapsed();
    out.check(rows as u64 == queries, || {
        format!("the assembled run made {rows} queries, bailiwick_exp {queries}")
    });
    out.check(upstream == exchanges, || {
        format!("resolvers sent {upstream} upstream queries, servers received {exchanges}")
    });
    let misses = client - hits;

    out.note("setup_s", setup.as_secs_f64());
    out.note("misses", misses);
    out.metric("atlas.dataset_bytes", bytes as f64);
    out.metric("atlas.measurement_s", measurement.as_secs_f64());
    // Until the program has spans of its own, the authoritative and
    // wire layers cannot be split out of this run: self time here is
    // the whole classic-engine time per miss.
    out.metric(
        "resolver.self_us",
        measurement.as_secs_f64() * 1e6 / misses as f64,
    );
    out.metric(
        "resolver.upstream_per_query",
        exchanges as f64 / rows as f64,
    );
    out.metric("cache.hit_rate", hits as f64 / client as f64);
    out.metric("cache.inserts", cache.inserts as f64);
    out.metric("cache.expiries", cache.expiries as f64);
    out.metric("cache.evictions", cache.evictions as f64);
    out.metric("netsim.exchanges", exchanges as f64);
    out.metric(
        "telemetry.overhead_ratio",
        on.as_secs_f64() / off.as_secs_f64(),
    );
    out.metric("telemetry.export_ms", ms(export) / f64::from(runs));
    out.metric("telemetry.events", events as f64);
    out.metric("telemetry.trace_bytes", rendered_bytes as f64);
    out.metric(
        "trace.unattributed_share",
        1.0 - (setup + measurement).as_secs_f64() / assembled.as_secs_f64(),
    );
    // The assembly leaves out `bailiwick_exp`'s analysis of the
    // datasets, so this share reads below zero by that analysis' cost.
    out.metric(
        "trace.overhead_share",
        assembled.as_secs_f64() * f64::from(runs) / on.as_secs_f64() - 1.0,
    );
}
