//! Allocation budget of the query path, counted by a global allocator.
//!
//! The world is one campaign cell's (a root delegating `zipf`, whose
//! server holds 2,048 `A` records with a 300 s TTL), resolved by one
//! `ResolverPolicy::default()` resolver whose NS set is already cached.
//! The counts are deterministic: the allocator counts per thread, so
//! tests running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::net::IpAddr;
use std::rc::Rc;

use dnsttl::auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl::core::ResolverPolicy;
use dnsttl::netsim::{LatencyModel, Network, Region, SimRng, SimTime};
use dnsttl::resolver::{RecursiveResolver, RootHint};
use dnsttl::wire::{decode_message, encode_message, Message, Name, RData, Record, RecordType, Ttl};

/// Counts every `alloc` and `realloc` made on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the count touches only a const-initialised
// thread-local `Cell`, which never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const NAMES: usize = 2_048;
const TTL_S: u64 = 300;

/// One campaign cell's world, built as `atlas::scale` builds it.
fn cell_world() -> (Network, Vec<RootHint>) {
    let root_addr: IpAddr = "198.41.0.4".parse().unwrap();
    let child_addr: IpAddr = "192.0.2.53".parse().unwrap();
    let root = AuthoritativeServer::new("root").with_zone(
        ZoneBuilder::new(".")
            .ns("zipf", "ns.zipf", Ttl::TWO_DAYS)
            .a("ns.zipf", "192.0.2.53", Ttl::TWO_DAYS)
            .build(),
    );
    let mut zone = ZoneBuilder::new("zipf").ns("zipf", "ns.zipf", Ttl::HOUR).a(
        "ns.zipf",
        "192.0.2.53",
        Ttl::HOUR,
    );
    for k in 0..NAMES {
        let addr = format!("10.0.{}.{}", (k >> 8) & 255, k & 255);
        zone = zone.a(&format!("r{k}.zipf"), &addr, Ttl::from_secs(TTL_S as u32));
    }
    let child = AuthoritativeServer::new("ns.zipf").with_zone(zone.build());
    let mut net = Network::new(LatencyModel::constant(5.0));
    net.register(root_addr, Region::Eu, Rc::new(RefCell::new(root)));
    net.register(child_addr, Region::Eu, Rc::new(RefCell::new(child)));
    let roots = vec![RootHint {
        ns_name: Name::parse("root").unwrap(),
        addr: root_addr,
    }];
    (net, roots)
}

fn names() -> Vec<Name> {
    (0..NAMES)
        .map(|k| Name::parse(&format!("r{k}.zipf")).unwrap())
        .collect()
}

/// Resolves every name at `at`, returning the allocations of each
/// query; panics unless every query answered and `hit` says how.
fn round(
    resolver: &mut RecursiveResolver,
    net: &mut Network,
    names: &[Name],
    at: SimTime,
    hit: bool,
) -> Vec<u64> {
    names
        .iter()
        .map(|name| {
            let (n, outcome) = allocations(|| resolver.resolve(name, RecordType::A, at, net));
            assert_eq!(outcome.answer.answers.len(), 1, "{name}");
            assert_eq!(outcome.cache_hit, hit, "{name}");
            n
        })
        .collect()
}

#[test]
fn miss_and_hit_paths_stay_within_their_allocation_budgets() {
    let (mut net, roots) = cell_world();
    let names = names();
    let mut resolver = RecursiveResolver::new(
        "alloc-budget",
        ResolverPolicy::default(),
        Region::Eu,
        0,
        roots,
        SimRng::seed_from(7),
    );
    // Cold fill: caches the delegation and every name at t = 0.
    round(&mut resolver, &mut net, &names, SimTime::ZERO, false);
    // Warm misses: every name expired, the NS set still cached, so
    // each query is one exchange with the child and one refetch.
    let refetch_at = SimTime::from_secs(TTL_S + 1);
    let misses = round(&mut resolver, &mut net, &names, refetch_at, false);
    let hits = round(
        &mut resolver,
        &mut net,
        &names,
        SimTime::from_secs(TTL_S + 2),
        true,
    );
    let mean_miss = misses.iter().sum::<u64>() as f64 / misses.len() as f64;
    let max_hit = *hits.iter().max().unwrap();
    println!("allocations: {mean_miss:.2} per warm miss, at most {max_hit} per hit");
    assert!(
        mean_miss <= 36.0,
        "{mean_miss:.2} allocations per warm miss"
    );
    assert!(max_hit <= 4, "{max_hit} allocations per hit");
}

#[test]
fn codec_legs_stay_within_their_allocation_budgets() {
    let qname = Name::parse("r1234.zipf").unwrap();
    let query = Message::iterative_query(7, qname.clone(), RecordType::A);
    let mut response = Message::response_to(&query);
    response.header.authoritative = true;
    response.answers.push(Record::new(
        qname,
        Ttl::from_secs(300),
        RData::A("10.0.4.210".parse().unwrap()),
    ));
    for (msg, budget) in [(&query, 4), (&response, 6)] {
        let (n, back) = allocations(|| decode_message(&encode_message(msg).unwrap()).unwrap());
        assert_eq!(&back, msg);
        println!("codec leg: {n} allocations (budget {budget})");
        assert!(n <= budget, "{n} allocations for {msg:?}");
    }
}
