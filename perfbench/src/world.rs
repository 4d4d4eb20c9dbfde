//! The single-zone world of a Zipf campaign cell, rebuilt from the
//! public `dnsttl-auth`/`dnsttl-netsim` APIs the way `atlas::scale`
//! builds it, so the benchmark can put its own probe in front of the
//! authoritative servers.

use dnsttl_auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl_netsim::{ClientId, DnsService, LatencyModel, Network, Region, SimTime};
use dnsttl_resolver::RootHint;
use dnsttl_wire::{decode_message, encode_message, Message, Name, Rcode, Ttl};
use std::cell::RefCell;
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::time::{Duration, Instant};

const ROOT_ADDR: IpAddr = IpAddr::V4(Ipv4Addr::new(198, 41, 0, 4));
const CHILD_ADDR: IpAddr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 53));

/// Exchanges kept for the codec replay. The replay measures a mean per
/// exchange, so a bounded sample keeps memory flat on long runs.
const REPLAY_SAMPLE: usize = 16_384;

/// Universe name `k`, as the campaign names it.
pub fn zone_name(k: usize) -> Name {
    Name::parse(&format!("r{k}.zipf")).expect("static name shape")
}

/// The address the zone holds for universe name `k`.
pub fn zone_addr(k: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, (k >> 16) as u8, (k >> 8) as u8, k as u8)
}

/// What the benchmark's probe saw at the authoritative layer.
#[derive(Default)]
pub struct AuthLog {
    /// Host time inside `handle_query` for NOERROR responses
    /// (answers and referrals).
    pub answer: Duration,
    pub answers: u64,
    /// Host time inside `handle_query` for NXDOMAIN responses.
    pub nxdomain: Duration,
    pub nxdomains: u64,
    /// Host time inside `handle_query` for any other rcode.
    pub other: Duration,
    pub others: u64,
    /// Host time the probe spent on its own bookkeeping (copying
    /// messages for the replay): charged to tracing, not to a layer.
    pub bookkeeping: Duration,
    /// Whether exchanges are copied for the replay.
    record: bool,
    sample: Vec<(Message, Message)>,
}

impl AuthLog {
    /// An empty log that also keeps exchanges for the codec replay.
    pub fn recording() -> AuthLog {
        AuthLog {
            record: true,
            ..AuthLog::default()
        }
    }

    pub fn queries(&self) -> u64 {
        self.answers + self.nxdomains + self.others
    }

    pub fn busy(&self) -> Duration {
        self.answer + self.nxdomain + self.other
    }

    /// Replays the sampled exchanges through the wire codec, both legs
    /// of each as `Network::exchange` runs them. Returns the mean codec
    /// time and the mean bytes (query plus response) per exchange.
    pub fn replay_codec(&self) -> (Duration, f64) {
        if self.sample.is_empty() {
            return (Duration::ZERO, 0.0);
        }
        let mut bytes = 0usize;
        let start = Instant::now();
        for (query, response) in &self.sample {
            for msg in [query, response] {
                let wire = encode_message(black_box(msg)).expect("logged message encodes");
                bytes += wire.len();
                black_box(decode_message(&wire).expect("encoded message decodes"));
            }
        }
        let n = self.sample.len() as u32;
        (start.elapsed() / n, bytes as f64 / f64::from(n))
    }
}

/// A `DnsService` in front of an authoritative server that times each
/// `handle_query` by response rcode.
struct ProbedAuth {
    inner: AuthoritativeServer,
    log: Rc<RefCell<AuthLog>>,
}

impl DnsService for ProbedAuth {
    fn handle_query(&mut self, query: &Message, client: ClientId, now: SimTime) -> Message {
        let start = Instant::now();
        let response = self.inner.handle_query(query, client, now);
        let busy = start.elapsed();
        let mut log = self.log.borrow_mut();
        match response.header.rcode {
            Rcode::NoError => {
                log.answer += busy;
                log.answers += 1;
            }
            Rcode::NxDomain => {
                log.nxdomain += busy;
                log.nxdomains += 1;
            }
            _ => {
                log.other += busy;
                log.others += 1;
            }
        }
        if log.record && log.sample.len() < REPLAY_SAMPLE {
            let copy_start = Instant::now();
            log.sample.push((query.clone(), response.clone()));
            log.bookkeeping += copy_start.elapsed();
        }
        response
    }
}

/// Builds the world: a root delegating `zipf` to one child server whose
/// zone holds an `A` record for each of `names` universe names. With a
/// log, both servers sit behind the benchmark's probe.
pub fn build(
    names: usize,
    record_ttl: Ttl,
    log: Option<&Rc<RefCell<AuthLog>>>,
) -> (Network, Vec<RootHint>) {
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
    for k in 0..names {
        zone = zone.a(&format!("r{k}.zipf"), &zone_addr(k).to_string(), record_ttl);
    }
    let child = AuthoritativeServer::new("ns.zipf").with_zone(zone.build());
    let mut net = Network::new(LatencyModel::constant(5.0));
    for (addr, server) in [(ROOT_ADDR, root), (CHILD_ADDR, child)] {
        match log {
            Some(log) => net.register(
                addr,
                Region::Eu,
                Rc::new(RefCell::new(ProbedAuth {
                    inner: server,
                    log: log.clone(),
                })),
            ),
            None => net.register(addr, Region::Eu, Rc::new(RefCell::new(server))),
        }
    }
    let roots = vec![RootHint {
        ns_name: Name::parse("root").expect("static"),
        addr: ROOT_ADDR,
    }];
    (net, roots)
}

/// Upstream exchanges the world's servers received.
pub fn exchanges(net: &Network) -> u64 {
    net.queries_received(ROOT_ADDR) + net.queries_received(CHILD_ADDR)
}
