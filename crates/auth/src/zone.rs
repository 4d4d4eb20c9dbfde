//! Zones: the unit of authority.
//!
//! A [`Zone`] owns every record between its origin and its delegation
//! cuts. Names *at or below* a cut (other than the cut's NS records and
//! glue) belong to the child zone; queries for them produce referrals.

use dnsttl_wire::{Name, RData, Record, RecordType, SoaData, Ttl};
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr};

/// The RRsets one owner name holds, by type. Never empty: removing a
/// name's last type removes the name.
type RRsets = BTreeMap<RecordType, Vec<Record>>;

/// Result of looking a name up in one zone.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneLookup {
    /// The zone is authoritative for the name and has matching records.
    Answer {
        /// Matching records (possibly preceded by a CNAME chain).
        records: Vec<Record>,
        /// RRSIGs at the queried name covering a type in `records`
        /// (signed zones only; RFC 4035 §3.1.1).
        rrsigs: Vec<Record>,
        /// Additional-section addresses for NS/MX targets in this zone.
        additionals: Vec<Record>,
    },
    /// The name is at or below a delegation cut: here are the NS records
    /// (parent-side TTL!) and whatever glue this zone holds.
    Referral {
        /// The delegated zone's apex.
        cut: Name,
        /// NS records at the cut, with this (parent) zone's TTLs.
        ns_records: Vec<Record>,
        /// Glue A/AAAA records for in-bailiwick server names.
        glue: Vec<Record>,
    },
    /// The name exists but has no records of the requested type.
    NoData {
        /// Zone SOA for negative caching.
        soa: Record,
    },
    /// The name does not exist in this zone.
    NxDomain {
        /// Zone SOA for negative caching.
        soa: Record,
    },
    /// The name is not within this zone at all.
    NotInZone,
}

/// One zone of the namespace, with its records and delegations.
///
/// Records are stored per owner name and type. NS RRsets at names other
/// than the origin mark delegation cuts; A/AAAA records stored at or
/// below a cut are *glue*, served only in referrals' additional section.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    soa: SoaData,
    soa_ttl: Ttl,
    /// Owner names in canonical order (RFC 4034 §6.1). Every
    /// descendant of a name sorts directly after it, so one ordered
    /// probe tells whether a name exists as an owner, as an empty
    /// non-terminal, or not at all.
    records: BTreeMap<Name, RRsets>,
}

impl Zone {
    /// Creates an empty zone with a default SOA.
    pub fn new(origin: Name) -> Zone {
        let soa = SoaData {
            mname: origin.clone(),
            rname: Name::parse("hostmaster.invalid").expect("static name"),
            serial: 1,
            refresh: 7_200,
            retry: 3_600,
            expire: 1_209_600,
            minimum: 300,
        };
        Zone {
            origin,
            soa,
            soa_ttl: Ttl::HOUR,
            records: BTreeMap::new(),
        }
    }

    /// The zone apex.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// The SOA data (negative-caching TTL lives in `minimum`).
    pub fn soa(&self) -> &SoaData {
        &self.soa
    }

    /// Sets the negative-caching TTL (SOA `minimum`).
    pub fn set_negative_ttl(&mut self, ttl: Ttl) {
        self.soa.minimum = ttl.as_secs();
    }

    /// The SOA as a servable record at the apex.
    pub fn soa_record(&self) -> Record {
        Record::new(
            self.origin.clone(),
            self.soa_ttl,
            RData::Soa(self.soa.clone()),
        )
    }

    /// Adds a record. The owner must be at or below the origin.
    ///
    /// # Panics
    /// Panics if the owner is outside the zone — zone files with records
    /// out of zone are configuration errors, caught at build time.
    pub fn add(&mut self, record: Record) {
        assert!(
            record.name.is_subdomain_of(&self.origin),
            "record {} outside zone {}",
            record.name,
            self.origin
        );
        self.records
            .entry(record.name.clone())
            .or_default()
            .entry(record.record_type())
            .or_default()
            .push(record);
    }

    /// Removes all records of `rtype` at `name`, returning how many were
    /// removed.
    pub fn remove(&mut self, name: &Name, rtype: RecordType) -> usize {
        if let Some(types) = self.records.get_mut(name) {
            if let Some(v) = types.remove(&rtype) {
                if types.is_empty() {
                    self.records.remove(name);
                }
                return v.len();
            }
        }
        0
    }

    /// Replaces the A record(s) at `name` with a single new address,
    /// preserving the TTL of the previous RRset (or using `fallback_ttl`
    /// if none existed), and bumps the SOA serial.
    ///
    /// This is the paper's §4 *renumbering* operation: the name server
    /// keeps its name but moves to a new VM.
    pub fn replace_address(&mut self, name: &Name, new_addr: Ipv4Addr, fallback_ttl: Ttl) {
        let ttl = self
            .records
            .get(name)
            .and_then(|t| t.get(&RecordType::A))
            .and_then(|v| v.first())
            .map(|r| r.ttl)
            .unwrap_or(fallback_ttl);
        self.remove(name, RecordType::A);
        self.add(Record::new(name.clone(), ttl, RData::A(new_addr)));
        self.soa.serial += 1;
    }

    /// IPv6 variant of [`Zone::replace_address`].
    pub fn replace_address_v6(&mut self, name: &Name, new_addr: Ipv6Addr, fallback_ttl: Ttl) {
        let ttl = self
            .records
            .get(name)
            .and_then(|t| t.get(&RecordType::AAAA))
            .and_then(|v| v.first())
            .map(|r| r.ttl)
            .unwrap_or(fallback_ttl);
        self.remove(name, RecordType::AAAA);
        self.add(Record::new(name.clone(), ttl, RData::Aaaa(new_addr)));
        self.soa.serial += 1;
    }

    /// Records of `rtype` at exactly `name`, as stored.
    pub fn get(&self, name: &Name, rtype: RecordType) -> &[Record] {
        self.owner(name)
            .map_or(&[], |(_, rrsets)| of_type(rrsets, rtype))
    }

    /// Iterates over all records in the zone.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records
            .values()
            .flat_map(|types| types.values().flatten())
    }

    /// Owner names present in the zone (including glue owners).
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.records.keys()
    }

    /// The owner `name` as stored, with its RRsets. One O(log n)
    /// probe.
    fn owner(&self, name: &Name) -> Option<(&Name, &RRsets)> {
        #[cfg(test)]
        tests::count_probe();
        self.records.get_key_value(name)
    }

    /// The first owner at or after `name` in canonical order. One
    /// O(log n) probe.
    fn owner_at_or_after(&self, name: &Name) -> Option<(&Name, &RRsets)> {
        #[cfg(test)]
        tests::count_probe();
        self.records.range::<Name, _>(name..).next()
    }

    /// The highest delegation cut strictly between the origin and
    /// `qname` (both exclusive), with its RRsets. Only names two or
    /// more labels below the origin have such ancestors; `lookup`
    /// checks `qname` itself with its own probe.
    fn cut_above(&self, qname: &Name) -> Option<(&Name, &RRsets)> {
        let (top, depth) = (self.origin.label_count(), qname.label_count());
        let mut ancestor = qname.clone();
        // Deepest first, so the last cut found is the highest (a zone
        // cannot see past its first cut).
        (top + 1..depth)
            .filter_map(|_| {
                ancestor = ancestor.parent()?;
                self.owner(&ancestor)
                    .filter(|(_, rrsets)| rrsets.contains_key(&RecordType::NS))
            })
            .last()
    }

    /// The referral for a delegation cut.
    fn referral(&self, cut: &Name, rrsets: &RRsets) -> ZoneLookup {
        let ns_records = of_type(rrsets, RecordType::NS).to_vec();
        let mut glue = Vec::new();
        for ns in &ns_records {
            if let RData::Ns(target) = &ns.rdata {
                // Glue is served for targets inside this zone's
                // namespace (typically in-bailiwick of the cut).
                if target.is_subdomain_of(&self.origin) {
                    glue.extend(self.addresses_for(target));
                }
            }
        }
        ZoneLookup::Referral {
            cut: cut.clone(),
            ns_records,
            glue,
        }
    }

    /// Addresses (A/AAAA) this zone holds for `target`, used to populate
    /// glue and additional sections.
    fn addresses_for(&self, target: &Name) -> Vec<Record> {
        let Some((_, rrsets)) = self.owner(target) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        out.extend_from_slice(of_type(rrsets, RecordType::A));
        out.extend_from_slice(of_type(rrsets, RecordType::AAAA));
        out
    }

    /// Looks up `qname`/`qtype` following RFC 1034 §4.3.2.
    ///
    /// Besides the cut check on ancestors (none for names one label
    /// below the origin), everything about `qname` itself — a cut at
    /// it, its records, a CNAME, or whether it exists at all — comes
    /// from one ordered probe, so an NXDOMAIN costs O(log n) like an
    /// answer.
    pub fn lookup(&self, qname: &Name, qtype: RecordType) -> ZoneLookup {
        if !qname.is_subdomain_of(&self.origin) {
            return ZoneLookup::NotInZone;
        }

        // Step: delegation cut above or at the qname → referral, unless
        // the question is for the cut's NS records from the parent side
        // (still a referral per RFC 1034: the parent is not
        // authoritative below the cut).
        if let Some((cut, rrsets)) = self.cut_above(qname) {
            return self.referral(cut, rrsets);
        }
        let rrsets = match self.owner_at_or_after(qname) {
            Some((owner, rrsets)) if owner == qname => {
                if owner != &self.origin && rrsets.contains_key(&RecordType::NS) {
                    return self.referral(owner, rrsets);
                }
                rrsets
            }
            // No records at qname: it exists only as an empty
            // non-terminal, and then its first descendant is the next
            // owner in canonical order.
            Some((next, _)) if next.is_strict_subdomain_of(qname) => {
                return ZoneLookup::NoData {
                    soa: self.soa_record(),
                }
            }
            _ => {
                return ZoneLookup::NxDomain {
                    soa: self.soa_record(),
                }
            }
        };

        // Exact-name processing.
        let direct = of_type(rrsets, qtype);
        if !direct.is_empty() {
            let mut additionals = Vec::new();
            for r in direct {
                if let Some(target) = r.rdata.target_name() {
                    if r.record_type() != RecordType::CNAME {
                        additionals.extend(self.addresses_for(target));
                    }
                }
            }
            return ZoneLookup::Answer {
                rrsigs: covering_rrsigs(rrsets, direct),
                records: direct.to_vec(),
                additionals,
            };
        }

        // CNAME at the name (and the query was not for CNAME itself)?
        // Chase the chain iteratively with a hop bound: zones can
        // contain CNAME loops (misconfiguration), and a server must
        // answer with the partial chain rather than recurse forever.
        if qtype != RecordType::CNAME {
            if let Some(first) = of_type(rrsets, RecordType::CNAME).first() {
                let mut records = vec![first.clone()];
                for _ in 0..8 {
                    let Some(RData::Cname(target)) = records.last().map(|r| r.rdata.clone()) else {
                        break;
                    };
                    // The chain's owners are the names visited so far.
                    if records.iter().any(|r| r.name == target) {
                        break; // loop: stop chasing, serve what we have
                    }
                    let Some((_, at_target)) = self.owner(&target) else {
                        break;
                    };
                    let direct = of_type(at_target, qtype);
                    if !direct.is_empty() {
                        records.extend_from_slice(direct);
                        break;
                    }
                    match of_type(at_target, RecordType::CNAME).first() {
                        Some(next) => records.push(next.clone()),
                        None => break,
                    }
                }
                return ZoneLookup::Answer {
                    rrsigs: covering_rrsigs(rrsets, &records),
                    records,
                    additionals: Vec::new(),
                };
            }
        }

        ZoneLookup::NoData {
            soa: self.soa_record(),
        }
    }
}

/// The records of `rtype` in one owner's RRsets, as stored.
fn of_type(rrsets: &RRsets, rtype: RecordType) -> &[Record] {
    rrsets.get(&rtype).map_or(&[], Vec::as_slice)
}

/// The owner's RRSIGs that cover the type of some record in `records`.
fn covering_rrsigs(rrsets: &RRsets, records: &[Record]) -> Vec<Record> {
    let covered = |sig: &&Record| {
        matches!(&sig.rdata, RData::Rrsig { type_covered, .. }
            if records.iter().any(|r| r.record_type() == *type_covered))
    };
    let sigs = of_type(rrsets, RecordType::RRSIG);
    sigs.iter().filter(covered).cloned().collect()
}

/// Fluent zone construction for experiments and tests.
///
/// ```
/// use dnsttl_auth::ZoneBuilder;
/// use dnsttl_wire::Ttl;
/// let zone = ZoneBuilder::new("uy")
///     .ns("uy", "a.nic.uy", Ttl::from_secs(300))
///     .a("a.nic.uy", "200.40.241.1", Ttl::from_secs(120))
///     .build();
/// assert_eq!(zone.origin().to_string(), "uy.");
/// ```
pub struct ZoneBuilder {
    zone: Zone,
}

impl ZoneBuilder {
    /// Starts a zone at `origin` (presentation format).
    ///
    /// # Panics
    /// Panics on a malformed origin — builder misuse is a programming
    /// error in experiment setup.
    pub fn new(origin: &str) -> ZoneBuilder {
        ZoneBuilder {
            zone: Zone::new(Name::parse(origin).expect("valid origin")),
        }
    }

    fn name(s: &str) -> Name {
        Name::parse(s).expect("valid name in zone builder")
    }

    /// Adds an NS record: `owner NS target`.
    pub fn ns(mut self, owner: &str, target: &str, ttl: Ttl) -> ZoneBuilder {
        self.zone.add(Record::new(
            Self::name(owner),
            ttl,
            RData::Ns(Self::name(target)),
        ));
        self
    }

    /// Adds an A record.
    pub fn a(mut self, owner: &str, addr: &str, ttl: Ttl) -> ZoneBuilder {
        self.zone.add(Record::new(
            Self::name(owner),
            ttl,
            RData::A(addr.parse().expect("valid IPv4")),
        ));
        self
    }

    /// Adds an AAAA record.
    pub fn aaaa(mut self, owner: &str, addr: &str, ttl: Ttl) -> ZoneBuilder {
        self.zone.add(Record::new(
            Self::name(owner),
            ttl,
            RData::Aaaa(addr.parse().expect("valid IPv6")),
        ));
        self
    }

    /// Adds an MX record.
    pub fn mx(mut self, owner: &str, preference: u16, exchange: &str, ttl: Ttl) -> ZoneBuilder {
        self.zone.add(Record::new(
            Self::name(owner),
            ttl,
            RData::Mx {
                preference,
                exchange: Self::name(exchange),
            },
        ));
        self
    }

    /// Adds a CNAME record.
    pub fn cname(mut self, owner: &str, target: &str, ttl: Ttl) -> ZoneBuilder {
        self.zone.add(Record::new(
            Self::name(owner),
            ttl,
            RData::Cname(Self::name(target)),
        ));
        self
    }

    /// Adds a TXT record.
    pub fn txt(mut self, owner: &str, text: &str, ttl: Ttl) -> ZoneBuilder {
        self.zone
            .add(Record::new(Self::name(owner), ttl, RData::Txt(text.into())));
        self
    }

    /// Adds a DNSKEY record with a synthetic key.
    pub fn dnskey(mut self, owner: &str, ttl: Ttl) -> ZoneBuilder {
        self.zone.add(Record::new(
            Self::name(owner),
            ttl,
            RData::Dnskey {
                flags: 257,
                protocol: 3,
                algorithm: 13,
                key: vec![0xAB; 32],
            },
        ));
        self
    }

    /// Sets the negative-caching TTL.
    pub fn negative_ttl(mut self, ttl: Ttl) -> ZoneBuilder {
        self.zone.set_negative_ttl(ttl);
        self
    }

    /// Adds an arbitrary record.
    pub fn record(mut self, record: Record) -> ZoneBuilder {
        self.zone.add(record);
        self
    }

    /// Finishes the zone.
    pub fn build(self) -> Zone {
        self.zone
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dnsttl_netsim::SimRng;
    use std::cell::Cell;

    thread_local! {
        static PROBES: Cell<usize> = const { Cell::new(0) };
    }

    /// Counts one probe of a zone's owner map (called from the probe
    /// helpers, test builds only).
    pub(crate) fn count_probe() {
        PROBES.with(|p| p.set(p.get() + 1));
    }

    /// Owner-map probes on this thread since the last call.
    pub(crate) fn probes() -> usize {
        PROBES.with(Cell::take)
    }

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// The root zone from the paper's Table 1: delegates .cl with
    /// two-day NS and glue TTLs.
    fn root_zone() -> Zone {
        ZoneBuilder::new(".")
            .ns("cl", "a.nic.cl", Ttl::TWO_DAYS)
            .a("a.nic.cl", "190.124.27.10", Ttl::TWO_DAYS)
            .aaaa("a.nic.cl", "2001:1398:1::300", Ttl::TWO_DAYS)
            .build()
    }

    /// The .cl child zone: same records, its own (shorter) TTLs.
    fn cl_zone() -> Zone {
        ZoneBuilder::new("cl")
            .ns("cl", "a.nic.cl", Ttl::HOUR)
            .a("a.nic.cl", "190.124.27.10", Ttl::from_secs(43_200))
            .a("www.example.cl", "203.0.113.80", Ttl::HOUR)
            .ns("example.cl", "ns.example.cl", Ttl::from_secs(7_200))
            .a("ns.example.cl", "203.0.113.53", Ttl::from_secs(7_200))
            .build()
    }

    #[test]
    fn referral_at_delegation_carries_parent_ttl_and_glue() {
        let root = root_zone();
        match root.lookup(&n("www.example.cl"), RecordType::A) {
            ZoneLookup::Referral {
                cut,
                ns_records,
                glue,
            } => {
                assert_eq!(cut, n("cl"));
                assert_eq!(ns_records.len(), 1);
                assert_eq!(ns_records[0].ttl, Ttl::TWO_DAYS);
                // Glue: both A and AAAA of a.nic.cl.
                assert_eq!(glue.len(), 2);
                assert!(glue.iter().all(|g| g.name == n("a.nic.cl")));
            }
            other => panic!("expected referral, got {other:?}"),
        }
    }

    #[test]
    fn ns_query_at_cut_is_also_a_referral_from_parent() {
        // The parent is not authoritative for the cut's NS set; it
        // serves it as a referral (no AA) — which is why parent-side
        // TTLs reach resolvers at all.
        let root = root_zone();
        assert!(matches!(
            root.lookup(&n("cl"), RecordType::NS),
            ZoneLookup::Referral { .. }
        ));
    }

    #[test]
    fn child_answers_its_apex_ns_authoritatively() {
        let cl = cl_zone();
        match cl.lookup(&n("cl"), RecordType::NS) {
            ZoneLookup::Answer {
                records,
                additionals,
                ..
            } => {
                assert_eq!(records[0].ttl, Ttl::HOUR); // child's own TTL
                                                       // Additional carries the in-zone address of the NS host
                                                       // with the child's A TTL (43200 s, Table 1 row 2).
                assert_eq!(additionals.len(), 1);
                assert_eq!(additionals[0].ttl.as_secs(), 43_200);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn direct_a_query_gets_child_ttl() {
        let cl = cl_zone();
        match cl.lookup(&n("a.nic.cl"), RecordType::A) {
            ZoneLookup::Answer { records, .. } => {
                assert_eq!(records[0].ttl.as_secs(), 43_200);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn delegation_below_child_origin_refers() {
        let cl = cl_zone();
        match cl.lookup(&n("www.example.cl"), RecordType::A) {
            ZoneLookup::Referral { cut, glue, .. } => {
                assert_eq!(cut, n("example.cl"));
                assert_eq!(glue.len(), 1);
                assert_eq!(glue[0].name, n("ns.example.cl"));
            }
            other => panic!("expected referral, got {other:?}"),
        }
    }

    #[test]
    fn nxdomain_and_nodata_carry_soa() {
        let cl = cl_zone();
        match cl.lookup(&n("nonexistent.cl"), RecordType::A) {
            ZoneLookup::NxDomain { soa } => {
                assert_eq!(soa.record_type(), RecordType::SOA);
            }
            other => panic!("expected NXDOMAIN, got {other:?}"),
        }
        // a.nic.cl exists but has no MX.
        assert!(matches!(
            cl.lookup(&n("a.nic.cl"), RecordType::MX),
            ZoneLookup::NoData { .. }
        ));
    }

    #[test]
    fn empty_non_terminal_is_nodata_not_nxdomain() {
        let cl = cl_zone();
        // "example.cl" exists (it has NS), and "www.example.cl" exists
        // below the cut; but "nic.cl" exists only as an empty
        // non-terminal above a.nic.cl.
        assert!(matches!(
            cl.lookup(&n("nic.cl"), RecordType::A),
            ZoneLookup::NoData { .. }
        ));
    }

    #[test]
    fn out_of_zone_query_is_rejected() {
        let cl = cl_zone();
        assert_eq!(
            cl.lookup(&n("example.org"), RecordType::A),
            ZoneLookup::NotInZone
        );
    }

    #[test]
    fn cname_is_chased_within_zone() {
        let zone = ZoneBuilder::new("example.cl")
            .cname("www.example.cl", "web.example.cl", Ttl::HOUR)
            .a("web.example.cl", "203.0.113.80", Ttl::HOUR)
            .build();
        match zone.lookup(&n("www.example.cl"), RecordType::A) {
            ZoneLookup::Answer { records, .. } => {
                assert_eq!(records.len(), 2);
                assert_eq!(records[0].record_type(), RecordType::CNAME);
                assert_eq!(records[1].record_type(), RecordType::A);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn cname_loop_in_zone_terminates() {
        let zone = ZoneBuilder::new("example.cl")
            .cname("a.example.cl", "b.example.cl", Ttl::HOUR)
            .cname("b.example.cl", "a.example.cl", Ttl::HOUR)
            .build();
        // Must not recurse forever; serves the partial chain.
        match zone.lookup(&n("a.example.cl"), RecordType::A) {
            ZoneLookup::Answer { records, .. } => {
                assert!(!records.is_empty());
                assert!(records.iter().all(|r| r.record_type() == RecordType::CNAME));
            }
            other => panic!("expected partial CNAME answer, got {other:?}"),
        }
    }

    #[test]
    fn long_cname_chain_is_followed_to_the_address() {
        let zone = ZoneBuilder::new("example.cl")
            .cname("a.example.cl", "b.example.cl", Ttl::HOUR)
            .cname("b.example.cl", "c.example.cl", Ttl::HOUR)
            .cname("c.example.cl", "d.example.cl", Ttl::HOUR)
            .a("d.example.cl", "203.0.113.4", Ttl::HOUR)
            .build();
        match zone.lookup(&n("a.example.cl"), RecordType::A) {
            ZoneLookup::Answer { records, .. } => {
                assert_eq!(records.len(), 4, "3 CNAMEs + final A");
                assert_eq!(records.last().unwrap().record_type(), RecordType::A);
            }
            other => panic!("expected chain answer, got {other:?}"),
        }
    }

    #[test]
    fn renumber_preserves_ttl_and_bumps_serial() {
        let mut zone = cl_zone();
        let before_serial = zone.soa().serial;
        zone.replace_address(&n("a.nic.cl"), "198.51.100.99".parse().unwrap(), Ttl::HOUR);
        let recs = zone.get(&n("a.nic.cl"), RecordType::A);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ttl.as_secs(), 43_200, "TTL preserved");
        assert_eq!(recs[0].rdata, RData::A("198.51.100.99".parse().unwrap()));
        assert_eq!(zone.soa().serial, before_serial + 1);
    }

    #[test]
    fn remove_cleans_up_empty_names() {
        let mut zone = cl_zone();
        assert_eq!(zone.remove(&n("www.example.cl"), RecordType::A), 1);
        assert_eq!(zone.remove(&n("www.example.cl"), RecordType::A), 0);
    }

    /// The linear existence test `lookup` used before the ordered
    /// probe: any owner at or strictly below `name`.
    fn name_exists_linear(zone: &Zone, name: &Name) -> bool {
        zone.records.contains_key(name)
            || zone.records.keys().any(|k| k.is_strict_subdomain_of(name))
    }

    /// `lookup` as it was before the ordered probe: an ancestry walk
    /// for the cut, then separate probes for the qtype, the CNAME, the
    /// owner, and the linear existence scan.
    fn lookup_oracle(zone: &Zone, qname: &Name, qtype: RecordType) -> ZoneLookup {
        if !qname.is_subdomain_of(&zone.origin) {
            return ZoneLookup::NotInZone;
        }
        let cut = qname.ancestry().into_iter().find_map(|ancestor| {
            (ancestor.label_count() > zone.origin.label_count()
                && zone
                    .records
                    .get(&ancestor)
                    .is_some_and(|t| t.contains_key(&RecordType::NS)))
            .then(|| {
                zone.records
                    .get_key_value(&ancestor)
                    .map(|(k, _)| k.clone())
            })
            .flatten()
        });
        if let Some(cut) = cut {
            let ns_records = zone.get(&cut, RecordType::NS).to_vec();
            let mut glue = Vec::new();
            for ns in &ns_records {
                if let RData::Ns(target) = &ns.rdata {
                    if target.is_subdomain_of(&zone.origin) {
                        glue.extend_from_slice(zone.get(target, RecordType::A));
                        glue.extend_from_slice(zone.get(target, RecordType::AAAA));
                    }
                }
            }
            return ZoneLookup::Referral {
                cut,
                ns_records,
                glue,
            };
        }
        let direct = zone.get(qname, qtype);
        if !direct.is_empty() {
            let mut additionals = Vec::new();
            for r in direct {
                if let Some(target) = r.rdata.target_name() {
                    if r.record_type() != RecordType::CNAME {
                        additionals.extend_from_slice(zone.get(target, RecordType::A));
                        additionals.extend_from_slice(zone.get(target, RecordType::AAAA));
                    }
                }
            }
            return ZoneLookup::Answer {
                rrsigs: rrsigs_oracle(zone, qname, direct),
                records: direct.to_vec(),
                additionals,
            };
        }
        if qtype != RecordType::CNAME {
            if let Some(first) = zone.get(qname, RecordType::CNAME).first() {
                let mut records = vec![first.clone()];
                let mut seen: Vec<Name> = vec![qname.clone()];
                let mut cursor = first.clone();
                for _ in 0..8 {
                    let RData::Cname(target) = &cursor.rdata else {
                        break;
                    };
                    if seen.contains(target) {
                        break;
                    }
                    seen.push(target.clone());
                    let direct = zone.get(target, qtype);
                    if !direct.is_empty() {
                        records.extend_from_slice(direct);
                        break;
                    }
                    match zone.get(target, RecordType::CNAME).first() {
                        Some(next) => {
                            records.push(next.clone());
                            cursor = next.clone();
                        }
                        None => break,
                    }
                }
                return ZoneLookup::Answer {
                    rrsigs: rrsigs_oracle(zone, qname, &records),
                    records,
                    additionals: Vec::new(),
                };
            }
        }
        if name_exists_linear(zone, qname) {
            ZoneLookup::NoData {
                soa: zone.soa_record(),
            }
        } else {
            ZoneLookup::NxDomain {
                soa: zone.soa_record(),
            }
        }
    }

    /// The signatures the server attached before `lookup` returned
    /// them: a second probe for the RRSIGs at `qname`, filtered to the
    /// answered types.
    fn rrsigs_oracle(zone: &Zone, qname: &Name, records: &[Record]) -> Vec<Record> {
        let mut signatures = Vec::new();
        for sig in zone.get(qname, RecordType::RRSIG) {
            if let RData::Rrsig { type_covered, .. } = &sig.rdata {
                if records.iter().any(|r| r.record_type() == *type_covered) {
                    signatures.push(sig.clone());
                }
            }
        }
        signatures
    }

    /// A random name 1–4 labels below `origin`, drawn from a small
    /// mixed-case label alphabet so names share ancestors, collide
    /// case-insensitively, and leave empty non-terminals.
    fn random_name(rng: &mut SimRng, origin: &Name) -> Name {
        const LABELS: [&str; 8] = ["a", "B", "c", "Dd", "dD", "www", "ns", "x-1"];
        let mut name = origin.clone();
        for _ in 0..=rng.below(4) {
            name = name
                .child(LABELS[rng.below(LABELS.len() as u64) as usize])
                .unwrap();
        }
        name
    }

    /// A seeded random zone: addresses, MX and TXT data, CNAMEs (loops
    /// included), apex NS, and delegation cuts with in-zone glue and
    /// occluded data below them.
    fn random_zone(rng: &mut SimRng, origin: &str) -> Zone {
        let origin = n(origin);
        let mut zone = Zone::new(origin.clone());
        let ttl = Ttl::HOUR;
        zone.add(Record::new(
            origin.clone(),
            ttl,
            RData::Ns(n("ns.elsewhere.example")),
        ));
        for i in 0..rng.range_u64(5, 40) {
            let owner = random_name(rng, &origin);
            let rdata = match rng.below(8) {
                0 | 1 => RData::A(Ipv4Addr::from(rng.next_u64() as u32)),
                2 => RData::Aaaa(Ipv6Addr::from(u128::from(rng.next_u64()))),
                3 => RData::Mx {
                    preference: 10,
                    exchange: random_name(rng, &origin),
                },
                4 => RData::Txt(format!("t{i}")),
                5 => RData::Cname(random_name(rng, &origin)),
                _ => {
                    // A cut, served by a name below it (glue) or
                    // elsewhere; sometimes the glue itself.
                    let target = if rng.chance(0.7) {
                        owner.child("ns").unwrap()
                    } else {
                        n("ns.other.example")
                    };
                    if target.is_subdomain_of(&origin) {
                        let glue = Ipv4Addr::from(rng.next_u64() as u32);
                        zone.add(Record::new(target.clone(), ttl, RData::A(glue)));
                    }
                    RData::Ns(target)
                }
            };
            zone.add(Record::new(owner, ttl, rdata));
        }
        zone
    }

    #[test]
    fn ordered_probe_matches_the_linear_oracle_on_random_zones() {
        const QTYPES: [RecordType; 8] = [
            RecordType::A,
            RecordType::AAAA,
            RecordType::NS,
            RecordType::CNAME,
            RecordType::MX,
            RecordType::TXT,
            RecordType::SOA,
            RecordType::DNSKEY,
        ];
        let mut rng = SimRng::seed_from(0x20_4E_5A);
        let (mut nxdomain, mut nodata) = (0, 0);
        for round in 0..300 {
            let origin = ["example.cl", "cl", "."][round % 3];
            let zone = random_zone(&mut rng, origin);
            let owners: Vec<Name> = zone.names().cloned().collect();
            for _ in 0..60 {
                let qname = match rng.below(4) {
                    0 => owners[rng.below(owners.len() as u64) as usize].clone(),
                    1 => n("out.of.zone.example.org"),
                    _ => random_name(&mut rng, zone.origin()),
                };
                let qtype = QTYPES[rng.below(QTYPES.len() as u64) as usize];
                let got = zone.lookup(&qname, qtype);
                let expect = lookup_oracle(&zone, &qname, qtype);
                // Debug output keeps each name's stored case, so a cut
                // returned under another spelling would show.
                assert_eq!(
                    format!("{got:?}"),
                    format!("{expect:?}"),
                    "{qname} {qtype:?}"
                );
                match got {
                    ZoneLookup::NxDomain { .. } => {
                        nxdomain += 1;
                        assert!(!name_exists_linear(&zone, &qname), "{qname}");
                    }
                    ZoneLookup::NoData { .. } => {
                        nodata += 1;
                        assert!(name_exists_linear(&zone, &qname), "{qname}");
                    }
                    _ => {}
                }
            }
        }
        assert!(
            nxdomain > 500 && nodata > 500,
            "{nxdomain} NXDOMAIN, {nodata} NODATA"
        );
    }

    #[test]
    fn nxdomain_probes_do_not_grow_with_the_zone() {
        let mut counts = Vec::new();
        for names in [1_000, 10_000] {
            let mut zone = ZoneBuilder::new("zipf").ns("zipf", "ns.zipf", Ttl::HOUR);
            for k in 0..names {
                zone = zone.a(&format!("r{k}.zipf"), "10.0.0.1", Ttl::HOUR);
            }
            let zone = zone.build();
            probes();
            let shallow = zone.lookup(&n("x0123456789abcdef.zipf"), RecordType::A);
            let shallow_probes = probes();
            let deep = zone.lookup(&n("a.b.x0123456789abcdef.zipf"), RecordType::A);
            let deep_probes = probes();
            let answer = zone.lookup(&n("r999.zipf"), RecordType::A);
            let answer_probes = probes();
            assert!(matches!(shallow, ZoneLookup::NxDomain { .. }));
            assert!(matches!(deep, ZoneLookup::NxDomain { .. }));
            assert!(matches!(answer, ZoneLookup::Answer { .. }));
            counts.push((shallow_probes, deep_probes, answer_probes));
        }
        // One probe for a name one label below the origin, plus one per
        // intermediate ancestor for deeper names, at any zone size.
        assert_eq!(counts[0], (1, 3, 1));
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn adding_out_of_zone_record_panics() {
        let mut zone = Zone::new(n("example.cl"));
        zone.add(Record::new(
            n("example.org"),
            Ttl::HOUR,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
    }
}
