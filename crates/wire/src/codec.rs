//! RFC 1035 wire-format encoding and decoding.
//!
//! The encoder performs standard name compression (back-pointers to
//! earlier occurrences); the decoder accepts compression anywhere a name
//! may appear and rejects forward pointers and pointer loops. Round-trip
//! fidelity is enforced by property tests in `tests/` of this crate.

use crate::message::{Header, Message, Opcode, Question, Rcode};
use crate::name::{MAX_LABEL_LEN, MAX_NAME_LEN};
use crate::rdata::{RData, RecordType, SoaData};
use crate::record::{Class, Record};
use crate::{Name, Ttl, WireError};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Upper bound on an encoded message (TCP-framed DNS limit).
pub const MAX_MESSAGE_LEN: usize = 65_535;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Encoder<'a> {
    buf: Vec<u8>,
    /// Compression targets: each suffix written in full so far, as a
    /// slice of its name's buffer, with its offset. Matched by a
    /// case-insensitive linear scan (a message has a few dozen at
    /// most); added only when unmatched, so the first occurrence wins.
    name_offsets: Vec<(&'a str, u16)>,
}

impl<'a> Encoder<'a> {
    fn new() -> Encoder<'a> {
        Encoder {
            buf: Vec::with_capacity(512),
            name_offsets: Vec::with_capacity(16),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes `name`, compressing against previously written names.
    ///
    /// For each suffix of the name we either emit a pointer to a prior
    /// occurrence or emit the label and remember the offset (offsets must
    /// fit in 14 bits to be pointer targets).
    fn name(&mut self, name: &'a Name) {
        if name.is_root() {
            self.u8(0);
            return;
        }
        let repr = name.as_str();
        let mut off = 0;
        while off < repr.len() {
            let suffix = &repr[off..];
            if let Some(&(_, prior)) = self
                .name_offsets
                .iter()
                .find(|(known, _)| known.eq_ignore_ascii_case(suffix))
            {
                self.u16(0xC000 | prior);
                return;
            }
            let here = self.buf.len();
            if here < 0x3FFF {
                self.name_offsets.push((suffix, here as u16));
            }
            let label_len = repr[off..].find('.').expect("repr is dot-terminated");
            let label = &repr[off..off + label_len];
            self.u8(label_len as u8);
            self.buf.extend_from_slice(label.as_bytes());
            off += label_len + 1;
        }
        self.u8(0); // root terminator
    }

    fn question(&mut self, q: &'a Question) {
        self.name(&q.qname);
        self.u16(q.qtype.code());
        self.u16(q.qclass.code());
    }

    fn record(&mut self, r: &'a Record) {
        self.name(&r.name);
        self.u16(r.record_type().code());
        self.u16(r.class.code());
        self.u32(r.ttl.as_secs());
        // Reserve RDLENGTH, fill in after writing RDATA.
        let len_pos = self.buf.len();
        self.u16(0);
        let start = self.buf.len();
        self.rdata(&r.rdata);
        let rdlen = self.buf.len() - start;
        self.buf[len_pos..len_pos + 2].copy_from_slice(&(rdlen as u16).to_be_bytes());
    }

    fn rdata(&mut self, rd: &'a RData) {
        match rd {
            RData::A(addr) => self.buf.extend_from_slice(&addr.octets()),
            RData::Aaaa(addr) => self.buf.extend_from_slice(&addr.octets()),
            // Compression inside RDATA is legal for NS/CNAME/SOA/MX
            // (RFC 1035 §4.1.4 allows it for these "well-known" types).
            RData::Ns(n) | RData::Cname(n) => self.name(n),
            RData::Soa(soa) => {
                self.name(&soa.mname);
                self.name(&soa.rname);
                self.u32(soa.serial);
                self.u32(soa.refresh);
                self.u32(soa.retry);
                self.u32(soa.expire);
                self.u32(soa.minimum);
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                self.u16(*preference);
                self.name(exchange);
            }
            RData::Txt(t) => {
                // Character-strings of at most 255 bytes each.
                for chunk in t.as_bytes().chunks(255) {
                    self.u8(chunk.len() as u8);
                    self.buf.extend_from_slice(chunk);
                }
                if t.is_empty() {
                    self.u8(0);
                }
            }
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                key,
            } => {
                self.u16(*flags);
                self.u8(*protocol);
                self.u8(*algorithm);
                self.buf.extend_from_slice(key);
            }
            RData::Rrsig {
                type_covered,
                algorithm,
                original_ttl,
                signer,
                signature,
            } => {
                self.u16(type_covered.code());
                self.u8(*algorithm);
                self.u32(*original_ttl);
                // Signer name must NOT be compressed (RFC 4034 §3.1.7);
                // we emit it label by label without registering offsets.
                for label in signer.labels() {
                    self.u8(label.len() as u8);
                    self.buf.extend_from_slice(label.as_bytes());
                }
                self.u8(0);
                self.buf.extend_from_slice(signature);
            }
            RData::Opt(bytes) => self.buf.extend_from_slice(bytes),
        }
    }
}

/// Encodes a message to wire format.
pub fn encode_message(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut e = Encoder::new();
    let h = &msg.header;
    e.u16(h.id);
    let mut flags: u16 = 0;
    if h.response {
        flags |= 1 << 15;
    }
    flags |= (h.opcode.code() as u16) << 11;
    if h.authoritative {
        flags |= 1 << 10;
    }
    if h.truncated {
        flags |= 1 << 9;
    }
    if h.recursion_desired {
        flags |= 1 << 8;
    }
    if h.recursion_available {
        flags |= 1 << 7;
    }
    flags |= h.rcode.code() as u16;
    e.u16(flags);
    e.u16(msg.questions.len() as u16);
    e.u16(msg.answers.len() as u16);
    e.u16(msg.authorities.len() as u16);
    e.u16(msg.additionals.len() as u16);
    for q in &msg.questions {
        e.question(q);
    }
    for r in &msg.answers {
        e.record(r);
    }
    for r in &msg.authorities {
        e.record(r);
    }
    for r in &msg.additionals {
        e.record(r);
    }
    if e.buf.len() > MAX_MESSAGE_LEN {
        return Err(WireError::MessageTooLarge(e.buf.len()));
    }
    Ok(e.buf)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated {
            expected: what,
            at: self.pos,
        })?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let hi = self.u8(what)? as u16;
        let lo = self.u8(what)? as u16;
        Ok(hi << 8 | lo)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let hi = self.u16(what)? as u32;
        let lo = self.u16(what)? as u32;
        Ok(hi << 16 | lo)
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos + n;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated {
            expected: what,
            at: self.pos,
        })?;
        self.pos = end;
        Ok(s)
    }

    /// Reads a possibly-compressed name starting at the current offset.
    ///
    /// Pointers must point strictly backwards, which also bounds the
    /// number of jumps and rules out loops. The name is assembled on
    /// the stack, length-checked per label, then allocated once.
    fn name(&mut self) -> Result<Name, WireError> {
        let mut repr = [0u8; MAX_NAME_LEN];
        let mut used = 0;
        let mut pos = self.pos;
        let mut followed_pointer = false;
        let mut end_after_first_pointer = self.pos;
        let mut min_ptr_target = usize::MAX;
        loop {
            let len = *self.buf.get(pos).ok_or(WireError::Truncated {
                expected: "name label length",
                at: pos,
            })? as usize;
            if len & 0xC0 == 0xC0 {
                let lo = *self.buf.get(pos + 1).ok_or(WireError::Truncated {
                    expected: "compression pointer",
                    at: pos + 1,
                })? as usize;
                let target = (len & 0x3F) << 8 | lo;
                if target >= pos || target >= min_ptr_target {
                    return Err(WireError::BadCompressionPointer(pos));
                }
                min_ptr_target = target;
                if !followed_pointer {
                    end_after_first_pointer = pos + 2;
                    followed_pointer = true;
                }
                pos = target;
            } else if len == 0 {
                pos += 1;
                break;
            } else {
                if len > MAX_LABEL_LEN {
                    return Err(WireError::LabelTooLong(len));
                }
                let bytes = self
                    .buf
                    .get(pos + 1..pos + 1 + len)
                    .ok_or(WireError::Truncated {
                        expected: "name label",
                        at: pos + 1,
                    })?;
                // Labels live in a text buffer, so only ASCII bytes
                // survive an encode round-trip unchanged, and a dot
                // inside a label would blur the label boundaries in
                // presentation form; reject both rather than accept a
                // name we cannot re-encode faithfully.
                if let Some(&b) = bytes.iter().find(|&&b| !b.is_ascii() || b == b'.') {
                    return Err(WireError::InvalidCharacter(b as char));
                }
                // Presentation form so far + label + dot + terminator.
                if used + len + 2 > MAX_NAME_LEN {
                    return Err(WireError::NameTooLong(used + len + 2));
                }
                repr[used..used + len].copy_from_slice(bytes);
                repr[used + len] = b'.';
                used += len + 1;
                pos += 1 + len;
            }
        }
        self.pos = if followed_pointer {
            end_after_first_pointer
        } else {
            pos
        };
        let repr = std::str::from_utf8(&repr[..used]).expect("checked ASCII");
        Ok(Name::from_valid_repr(repr))
    }

    fn question(&mut self) -> Result<Question, WireError> {
        let qname = self.name()?;
        let qtype = RecordType::from_code(self.u16("qtype")?)?;
        let qclass = Class::from_code(self.u16("qclass")?)?;
        Ok(Question {
            qname,
            qtype,
            qclass,
        })
    }

    fn record(&mut self) -> Result<Record, WireError> {
        let name = self.name()?;
        let rtype = RecordType::from_code(self.u16("rtype")?)?;
        let class = Class::from_code(self.u16("class")?)?;
        let ttl = Ttl::from_wire(self.u32("ttl")?);
        let rdlen = self.u16("rdlength")? as usize;
        let rdata_end = self.pos + rdlen;
        if rdata_end > self.buf.len() {
            return Err(WireError::Truncated {
                expected: "rdata",
                at: self.pos,
            });
        }
        let rdata_start = self.pos;
        let rdata = self.rdata(rtype, rdlen)?;
        if self.pos != rdata_end {
            return Err(WireError::RdataLengthMismatch {
                declared: rdlen,
                consumed: self.pos - rdata_start,
            });
        }
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }

    fn rdata(&mut self, rtype: RecordType, rdlen: usize) -> Result<RData, WireError> {
        Ok(match rtype {
            RecordType::A => {
                let o = self.bytes(4, "A rdata")?;
                RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RecordType::AAAA => {
                let o = self.bytes(16, "AAAA rdata")?;
                let mut oct = [0u8; 16];
                oct.copy_from_slice(o);
                RData::Aaaa(Ipv6Addr::from(oct))
            }
            RecordType::NS => RData::Ns(self.name()?),
            RecordType::CNAME => RData::Cname(self.name()?),
            RecordType::SOA => RData::Soa(SoaData {
                mname: self.name()?,
                rname: self.name()?,
                serial: self.u32("SOA serial")?,
                refresh: self.u32("SOA refresh")?,
                retry: self.u32("SOA retry")?,
                expire: self.u32("SOA expire")?,
                minimum: self.u32("SOA minimum")?,
            }),
            RecordType::MX => RData::Mx {
                preference: self.u16("MX preference")?,
                exchange: self.name()?,
            },
            RecordType::TXT => {
                let end = self.pos + rdlen;
                let mut text = String::new();
                while self.pos < end {
                    let n = self.u8("TXT length")? as usize;
                    let chunk = self.bytes(n, "TXT chunk")?;
                    // Same ASCII restriction as name labels: a `String`
                    // re-encodes non-ASCII chars as multi-byte UTF-8,
                    // which would change the wire form.
                    if let Some(&b) = chunk.iter().find(|b| !b.is_ascii()) {
                        return Err(WireError::InvalidCharacter(b as char));
                    }
                    text.extend(chunk.iter().map(|&b| b as char));
                }
                RData::Txt(text)
            }
            RecordType::DNSKEY => {
                let flags = self.u16("DNSKEY flags")?;
                let protocol = self.u8("DNSKEY protocol")?;
                let algorithm = self.u8("DNSKEY algorithm")?;
                let key_len = rdlen.checked_sub(4).ok_or(WireError::Truncated {
                    expected: "DNSKEY key",
                    at: self.pos,
                })?;
                let key = self.bytes(key_len, "DNSKEY key")?.to_vec();
                RData::Dnskey {
                    flags,
                    protocol,
                    algorithm,
                    key,
                }
            }
            RecordType::RRSIG => {
                let start = self.pos;
                let type_covered = RecordType::from_code(self.u16("RRSIG covered")?)?;
                let algorithm = self.u8("RRSIG algorithm")?;
                let original_ttl = self.u32("RRSIG original ttl")?;
                let signer = self.name()?;
                let consumed = self.pos - start;
                let sig_len = rdlen.checked_sub(consumed).ok_or(WireError::Truncated {
                    expected: "RRSIG signature",
                    at: self.pos,
                })?;
                let signature = self.bytes(sig_len, "RRSIG signature")?.to_vec();
                RData::Rrsig {
                    type_covered,
                    algorithm,
                    original_ttl,
                    signer,
                    signature,
                }
            }
            RecordType::OPT => RData::Opt(self.bytes(rdlen, "OPT rdata")?.to_vec()),
        })
    }
}

/// Decodes a wire-format message.
pub fn decode_message(buf: &[u8]) -> Result<Message, WireError> {
    let mut d = Decoder { buf, pos: 0 };
    let id = d.u16("header id")?;
    let flags = d.u16("header flags")?;
    let header = Header {
        id,
        response: flags & (1 << 15) != 0,
        opcode: Opcode::from_code(((flags >> 11) & 0xF) as u8),
        authoritative: flags & (1 << 10) != 0,
        truncated: flags & (1 << 9) != 0,
        recursion_desired: flags & (1 << 8) != 0,
        recursion_available: flags & (1 << 7) != 0,
        rcode: Rcode::from_code((flags & 0xF) as u8),
    };
    let qd = d.u16("qdcount")?;
    let an = d.u16("ancount")?;
    let ns = d.u16("nscount")?;
    let ar = d.u16("arcount")?;
    let mut msg = Message {
        header,
        ..Message::default()
    };
    for _ in 0..qd {
        msg.questions.push(d.question()?);
    }
    for _ in 0..an {
        msg.answers.push(d.record()?);
    }
    for _ in 0..ns {
        msg.authorities.push(d.record()?);
    }
    for _ in 0..ar {
        msg.additionals.push(d.record()?);
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_message() -> Message {
        let q = Message::iterative_query(0x1234, name("example.cl"), RecordType::A);
        let mut r = Message::response_to(&q);
        r.header.rcode = Rcode::NoError;
        r.authorities.push(Record::new(
            name("cl"),
            Ttl::TWO_DAYS,
            RData::Ns(name("a.nic.cl")),
        ));
        r.additionals.push(Record::new(
            name("a.nic.cl"),
            Ttl::TWO_DAYS,
            RData::A("190.124.27.10".parse().unwrap()),
        ));
        r.additionals.push(Record::new(
            name("a.nic.cl"),
            Ttl::TWO_DAYS,
            RData::Aaaa("2001:1398:1::300".parse().unwrap()),
        ));
        r
    }

    #[test]
    fn round_trip_referral() {
        let m = sample_message();
        let wire = encode_message(&m).unwrap();
        let back = decode_message(&wire).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let m = sample_message();
        let wire = encode_message(&m).unwrap();
        // "a.nic.cl" appears three times; compression should keep the
        // packet comfortably under the uncompressed size.
        let uncompressed: usize = 12
            + m.questions
                .iter()
                .map(|q| q.qname.wire_len() + 4)
                .sum::<usize>()
            + m.sectioned_records()
                .map(|(_, r)| r.name.wire_len() + 10 + 16)
                .sum::<usize>();
        assert!(
            wire.len() < uncompressed,
            "{} !< {}",
            wire.len(),
            uncompressed
        );
    }

    #[test]
    fn decodes_all_rdata_types() {
        let mut m = Message::default();
        m.answers.push(Record::new(
            name("k.example"),
            Ttl::HOUR,
            RData::Dnskey {
                flags: 257,
                protocol: 3,
                algorithm: 13,
                key: vec![1, 2, 3, 4],
            },
        ));
        m.answers.push(Record::new(
            name("example"),
            Ttl::HOUR,
            RData::Soa(SoaData {
                mname: name("ns1.example"),
                rname: name("hostmaster.example"),
                serial: 2019031501,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        m.answers.push(Record::new(
            name("example"),
            Ttl::HOUR,
            RData::Mx {
                preference: 10,
                exchange: name("mail.example"),
            },
        ));
        m.answers.push(Record::new(
            name("example"),
            Ttl::HOUR,
            RData::Txt("v=spf1 -all".into()),
        ));
        m.answers.push(Record::new(
            name("example"),
            Ttl::HOUR,
            RData::Rrsig {
                type_covered: RecordType::NS,
                algorithm: 13,
                original_ttl: 3600,
                signer: name("example"),
                signature: vec![9; 64],
            },
        ));
        let wire = encode_message(&m).unwrap();
        assert_eq!(decode_message(&wire).unwrap(), m);
    }

    #[test]
    fn rejects_truncated_packet() {
        let wire = encode_message(&sample_message()).unwrap();
        for cut in [0, 5, 11, wire.len() / 2, wire.len() - 1] {
            assert!(decode_message(&wire[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_pointer_loops() {
        // Header (12 bytes) + a question whose name is a self-pointer.
        let mut buf = vec![0u8; 12];
        buf[5] = 1; // qdcount = 1
        buf.extend_from_slice(&[0xC0, 12]); // pointer to itself
        buf.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(
            decode_message(&buf),
            Err(WireError::BadCompressionPointer(_))
        ));
    }

    #[test]
    fn ttl_high_bit_decodes_as_zero() {
        let mut m = Message::default();
        m.answers.push(Record::new(
            name("x.example"),
            Ttl::HOUR,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
        let mut wire = encode_message(&m).unwrap();
        // Patch the TTL field (name len 10 + type 2 + class 2 after the
        // 12-byte header) to have the top bit set.
        let ttl_off = 12 + name("x.example").wire_len() + 4;
        wire[ttl_off] = 0x80;
        let back = decode_message(&wire).unwrap();
        assert_eq!(back.answers[0].ttl, Ttl::ZERO);
    }

    /// The encoder before its compression table became a borrowed-slice
    /// `Vec`: a `HashMap` from each suffix's lowercase copy to the
    /// offset of its first occurrence. Kept as the byte-identity
    /// oracle; everything but the name compression is written the same
    /// way, so only `name` differs from the production encoder.
    struct OracleEncoder {
        buf: Vec<u8>,
        name_offsets: std::collections::HashMap<String, usize>,
    }

    impl OracleEncoder {
        fn name(&mut self, name: &Name) {
            if name.is_root() {
                self.buf.push(0);
                return;
            }
            let canon = name.canonical();
            let repr = name.as_str();
            let mut off = 0;
            while off < repr.len() {
                let suffix = &canon[off..];
                if let Some(&prior) = self.name_offsets.get(suffix) {
                    self.buf
                        .extend_from_slice(&(0xC000 | prior as u16).to_be_bytes());
                    return;
                }
                let here = self.buf.len();
                if here < 0x3FFF {
                    self.name_offsets.insert(suffix.to_owned(), here);
                }
                let label_len = repr[off..].find('.').expect("repr is dot-terminated");
                self.buf.push(label_len as u8);
                self.buf
                    .extend_from_slice(&repr.as_bytes()[off..off + label_len]);
                off += label_len + 1;
            }
            self.buf.push(0);
        }

        fn record(&mut self, r: &Record) {
            self.name(&r.name);
            let mut fixed = Encoder::new();
            fixed.u16(r.record_type().code());
            fixed.u16(r.class.code());
            fixed.u32(r.ttl.as_secs());
            self.buf.extend_from_slice(&fixed.buf);
            let len_pos = self.buf.len();
            self.buf.extend_from_slice(&[0, 0]);
            let start = self.buf.len();
            match &r.rdata {
                RData::Ns(n) | RData::Cname(n) => self.name(n),
                RData::Soa(soa) => {
                    self.name(&soa.mname);
                    self.name(&soa.rname);
                    for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                        self.buf.extend_from_slice(&v.to_be_bytes());
                    }
                }
                RData::Mx {
                    preference,
                    exchange,
                } => {
                    self.buf.extend_from_slice(&preference.to_be_bytes());
                    self.name(exchange);
                }
                // No names to compress: the production rdata writer
                // (RRSIG signers are written uncompressed there).
                other => {
                    let mut e = Encoder::new();
                    e.rdata(other);
                    self.buf.extend_from_slice(&e.buf);
                }
            }
            let rdlen = (self.buf.len() - start) as u16;
            self.buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
        }
    }

    fn encode_with_oracle(msg: &Message) -> Vec<u8> {
        // The 12-byte header has no names in it.
        let mut header = encode_message(&Message {
            header: msg.header,
            ..Message::default()
        })
        .unwrap();
        for (i, count) in [
            msg.questions.len(),
            msg.answers.len(),
            msg.authorities.len(),
            msg.additionals.len(),
        ]
        .into_iter()
        .enumerate()
        {
            header[4 + 2 * i..6 + 2 * i].copy_from_slice(&(count as u16).to_be_bytes());
        }
        let mut e = OracleEncoder {
            buf: header,
            name_offsets: std::collections::HashMap::new(),
        };
        for q in &msg.questions {
            e.name(&q.qname);
            e.buf.extend_from_slice(&q.qtype.code().to_be_bytes());
            e.buf.extend_from_slice(&q.qclass.code().to_be_bytes());
        }
        for (_, r) in msg.sectioned_records() {
            e.record(r);
        }
        e.buf
    }

    /// A name from a small pool of labels in random case, so names
    /// repeat, share suffixes and differ only in case.
    fn pool_name(rng: &mut crate::TestRng) -> Name {
        const LABELS: [&str; 7] = ["a", "nic", "cl", "example", "ns1", "www", "zipf"];
        let labels: Vec<String> = (0..rng.below(5))
            .map(|_| {
                rng.pick(&LABELS)
                    .chars()
                    .map(|c| {
                        if rng.below(3) == 0 {
                            c.to_ascii_uppercase()
                        } else {
                            c
                        }
                    })
                    .collect()
            })
            .collect();
        Name::from_labels(labels).unwrap()
    }

    fn pool_record(rng: &mut crate::TestRng) -> Record {
        let rdata = match rng.below(8) {
            0 => RData::A([192, 0, 2, rng.below(256) as u8].into()),
            1 => RData::Ns(pool_name(rng)),
            2 => RData::Cname(pool_name(rng)),
            3 => RData::Soa(SoaData {
                mname: pool_name(rng),
                rname: pool_name(rng),
                serial: rng.next_u64() as u32,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            }),
            4 => RData::Mx {
                preference: 10,
                exchange: pool_name(rng),
            },
            5 => RData::Rrsig {
                type_covered: RecordType::A,
                algorithm: 13,
                original_ttl: 3600,
                signer: pool_name(rng),
                signature: vec![7; rng.below(40)],
            },
            // Sometimes large enough to land later names around the
            // end of the 14-bit pointer range (0x3FFF = 16,383).
            6 => RData::Txt("t".repeat(if rng.below(3) == 0 {
                16_100 + rng.below(300)
            } else {
                20
            })),
            _ => RData::Aaaa(std::net::Ipv6Addr::LOCALHOST),
        };
        Record::new(pool_name(rng), Ttl::HOUR, rdata)
    }

    #[test]
    fn compression_table_matches_the_hashmap_oracle_byte_for_byte() {
        let mut rng = crate::TestRng::new(0xC0_DEC);
        let (mut past_pointer_range, mut signers) = (0, 0);
        for _ in 0..3_000 {
            let mut msg = Message::default();
            msg.header.id = rng.next_u64() as u16;
            for _ in 0..rng.below(3) {
                msg.questions
                    .push(Question::new(pool_name(&mut rng), RecordType::A));
            }
            for section in [&mut msg.answers, &mut msg.authorities, &mut msg.additionals] {
                for _ in 0..rng.below(6) {
                    section.push(pool_record(&mut rng));
                }
            }
            let wire = encode_message(&msg).unwrap();
            assert_eq!(wire, encode_with_oracle(&msg), "{msg:?}");
            assert_eq!(decode_message(&wire).unwrap(), msg);
            past_pointer_range += usize::from(wire.len() > 0x3FFF);
            signers += msg
                .sectioned_records()
                .filter(
                    |(_, r)| matches!(&r.rdata, RData::Rrsig { signer, .. } if !signer.is_root()),
                )
                .count();
        }
        assert!(past_pointer_range > 50, "{past_pointer_range}");
        assert!(signers > 500, "{signers}");
        // Every name start offset around the end of the pointer range,
        // exactly: a TXT pad before a repeated owner name.
        for pad in 16_000..16_300 {
            let mut msg = Message::default();
            let txt = RData::Txt("t".repeat(pad));
            msg.answers.push(Record::new(Name::root(), Ttl::HOUR, txt));
            for owner in ["a.Example", "a.example", "example"] {
                let rdata = RData::A([192, 0, 2, 1].into());
                msg.answers.push(Record::new(name(owner), Ttl::HOUR, rdata));
            }
            assert_eq!(
                encode_message(&msg).unwrap(),
                encode_with_oracle(&msg),
                "{pad}"
            );
        }
    }

    #[test]
    fn rrsig_signer_is_never_compressed() {
        let owner = name("example");
        let mut m = Message::default();
        m.answers.push(Record::new(
            owner.clone(),
            Ttl::HOUR,
            RData::Rrsig {
                type_covered: RecordType::A,
                algorithm: 13,
                original_ttl: 3600,
                signer: owner.clone(),
                signature: vec![1; 4],
            },
        ));
        let wire = encode_message(&m).unwrap();
        // The signer follows the 18 fixed bytes after the owner name.
        let signer_at = 12 + owner.wire_len() + 10 + 7;
        assert_eq!(&wire[signer_at..signer_at + 9], b"\x07example\x00");
    }

    #[test]
    fn name_built_through_pointers_past_255_octets_is_rejected() {
        // Header with qdcount = 3, then three names, each two 63-octet
        // labels followed by a pointer to the previous name: 129, 256
        // and 383 octets in wire form once the pointers are followed.
        let mut buf = vec![0u8; 12];
        buf[5] = 3;
        let mut prev: Option<u16> = None;
        for fill in [b'a', b'b', b'c'] {
            let start = buf.len();
            for _ in 0..2 {
                buf.push(63);
                buf.extend(std::iter::repeat_n(fill, 63));
            }
            match prev {
                Some(p) => buf.extend_from_slice(&(0xC000u16 | p).to_be_bytes()),
                None => buf.push(0),
            }
            buf.extend_from_slice(&[0, 1, 0, 1]);
            prev = Some(start as u16);
        }
        assert!(matches!(
            decode_message(&buf),
            Err(WireError::NameTooLong(n)) if n > MAX_NAME_LEN
        ));
        // The first name alone is fine.
        buf[5] = 1;
        assert_eq!(
            decode_message(&buf).unwrap().questions[0].qname.wire_len(),
            129
        );
    }

    #[test]
    fn empty_txt_round_trips() {
        let mut m = Message::default();
        m.answers.push(Record::new(
            name("t.example"),
            Ttl::MINUTE,
            RData::Txt(String::new()),
        ));
        let wire = encode_message(&m).unwrap();
        assert_eq!(decode_message(&wire).unwrap(), m);
    }
}
