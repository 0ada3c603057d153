//! WAL record codec: checksummed, length-prefixed, schema-versioned frames.
//!
//! Every record is wrapped in a frame:
//!
//! ```text
//! frame   := magic(1B = 0xA7) | len(u32 LE, payload bytes) | crc32(u32 LE) | payload
//! payload := version(u16 LE) | tag(u8) | body
//! ```
//!
//! The CRC covers the payload only, so a torn write (truncated or garbled
//! frame at the end of the last segment) is always detectable: either the
//! header is short, the declared length overruns the segment, or the
//! checksum fails. A checksum *pass* followed by a body that fails to
//! decode is not a torn write — it is mid-log corruption or a codec bug,
//! and recovery refuses the log instead of guessing.

use lems_core::message::{Message, MessageId};
use lems_core::name::MailName;
use lems_sim::time::SimTime;

use crate::StoreError;

/// First byte of every frame.
pub(crate) const MAGIC: u8 = 0xA7;
/// Frame header bytes (magic + len + crc).
pub(crate) const HEADER_BYTES: usize = 9;
/// On-log schema version; bump on any record-format change. Version 1
/// carried each deposit's time in `Deposit` and `SnapshotMailbox`.
pub(crate) const WAL_SCHEMA_VERSION: u16 = 2;
/// Upper bound on a single payload; longer declared lengths are treated as
/// tail garbage, not allocation requests.
pub(crate) const MAX_PAYLOAD_BYTES: u32 = 1 << 28;

/// One durable operation (or compaction-snapshot chunk) on the log.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A message entered its recipient's mailbox.
    Deposit {
        /// The stored message.
        message: Message,
    },
    /// Reliable retrieval reserved the whole mailbox.
    DrainReserve {
        /// Mailbox owner.
        owner: MailName,
    },
    /// Acknowledged ids left the reservation buffer.
    Release {
        /// Mailbox owner.
        owner: MailName,
        /// Acknowledged message ids.
        ids: Vec<MessageId>,
    },
    /// This server took custody of a message to forward onward.
    AcceptForward {
        /// The in-flight message.
        message: Message,
        /// Hop budget it carried.
        hops_left: u32,
    },
    /// A previously accepted forward was discharged.
    SettleForward {
        /// The settled message id.
        id: MessageId,
    },
    /// Compaction chunk: a slice of one mailbox's stored messages.
    SnapshotMailbox {
        /// Mailbox owner.
        owner: MailName,
        /// Stored messages, oldest first.
        messages: Vec<Message>,
    },
    /// Compaction chunk: a slice of one reservation buffer.
    SnapshotPending {
        /// Mailbox owner.
        owner: MailName,
        /// Reserved messages, oldest first.
        messages: Vec<Message>,
    },
    /// Compaction chunk: a slice of the unsettled-forward journal.
    SnapshotForwards {
        /// (message, hop budget) pairs in id order.
        entries: Vec<(Message, u32)>,
    },
    /// Compaction chunk: a slice of the deposit dedup ledger.
    SnapshotDeposited {
        /// Deposited message ids.
        ids: Vec<MessageId>,
    },
}

impl Record {
    /// The record's wire tag. Tags 2, 3, 5 and 10 are retired — they
    /// were a removal by id, an expiry sweep, a destructive drain and a
    /// mailbox's lifetime counters, which nothing writes any more — and
    /// are never reused: a frame carrying one decodes as corrupt
    /// (`unknown record tag`).
    fn tag(&self) -> u8 {
        match self {
            Record::Deposit { .. } => 1,
            Record::DrainReserve { .. } => 4,
            Record::Release { .. } => 6,
            Record::AcceptForward { .. } => 7,
            Record::SettleForward { .. } => 8,
            Record::SnapshotMailbox { .. } => 9,
            Record::SnapshotPending { .. } => 11,
            Record::SnapshotForwards { .. } => 12,
            Record::SnapshotDeposited { .. } => 13,
        }
    }

    /// True for the chunks compaction writes (tags 9 and 11–13, the
    /// `Snapshot*` variants), false for an operation.
    fn is_snapshot(&self) -> bool {
        self.tag() >= 9
    }
}

/// CRC-32 (IEEE 802.3, reflected) tables for slicing-by-8: `[0]` is the
/// classic byte table, `[k][i]` the CRC of byte `i` followed by `k` zero
/// bytes, so eight input bytes fold into the checksum with eight
/// independent lookups instead of eight dependent ones.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends a record's fields to the frame being built.
struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn time(&mut self, t: SimTime) {
        self.u64(t.as_ticks());
    }
    /// The bytes of `n.to_string()`, token by token.
    fn name(&mut self, n: &MailName) {
        let (region, host, user) = (n.region(), n.host(), n.user());
        self.u32((region.len() + host.len() + user.len() + 2) as u32);
        self.buf.extend_from_slice(region.as_bytes());
        self.buf.push(b'.');
        self.buf.extend_from_slice(host.as_bytes());
        self.buf.push(b'.');
        self.buf.extend_from_slice(user.as_bytes());
    }
    fn message(&mut self, m: &Message) {
        self.u64(m.id.0);
        self.name(&m.from);
        self.name(&m.to);
        self.str(&m.subject);
        self.str(&m.body);
        self.time(m.submitted_at);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

type Decode<T> = Result<T, String>;

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Decode<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        if end > self.buf.len() {
            return Err(format!("payload truncated at byte {}", self.pos));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Decode<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Decode<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Decode<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Decode<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn str(&mut self) -> Decode<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| "invalid utf-8 in string".to_string())
    }
    fn time(&mut self) -> Decode<SimTime> {
        Ok(SimTime::from_ticks(self.u64()?))
    }
    fn name(&mut self) -> Decode<MailName> {
        let s = self.str()?;
        s.parse().map_err(|e| format!("bad mail name {s:?}: {e}"))
    }
    fn message(&mut self) -> Decode<Message> {
        let id = MessageId(self.u64()?);
        let from = self.name()?;
        let to = self.name()?;
        let subject = self.str()?;
        let body = self.str()?;
        let submitted_at = self.time()?;
        Ok(Message::new(id, from, to, subject, body, submitted_at))
    }
    fn done(&self) -> Decode<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after record body",
                self.buf.len() - self.pos
            ))
        }
    }
}

fn encode_body(record: &Record, w: &mut Writer<'_>) {
    match record {
        Record::Deposit { message } => {
            w.message(message);
        }
        Record::DrainReserve { owner } => {
            w.name(owner);
        }
        Record::Release { owner, ids } => {
            w.name(owner);
            w.u32(ids.len() as u32);
            for id in ids {
                w.u64(id.0);
            }
        }
        Record::AcceptForward { message, hops_left } => {
            w.message(message);
            w.u32(*hops_left);
        }
        Record::SettleForward { id } => {
            w.u64(id.0);
        }
        Record::SnapshotMailbox { owner, messages }
        | Record::SnapshotPending { owner, messages } => {
            w.name(owner);
            w.u32(messages.len() as u32);
            for m in messages {
                w.message(m);
            }
        }
        Record::SnapshotForwards { entries } => {
            w.u32(entries.len() as u32);
            for (m, hops) in entries {
                w.message(m);
                w.u32(*hops);
            }
        }
        Record::SnapshotDeposited { ids } => {
            w.u32(ids.len() as u32);
            for id in ids {
                w.u64(id.0);
            }
        }
    }
}

fn decode_body(tag: u8, r: &mut Reader<'_>) -> Decode<Record> {
    let rec = match tag {
        1 => Record::Deposit {
            message: r.message()?,
        },
        4 => Record::DrainReserve { owner: r.name()? },
        6 => {
            let owner = r.name()?;
            let n = r.u32()? as usize;
            let mut ids = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                ids.push(MessageId(r.u64()?));
            }
            Record::Release { owner, ids }
        }
        7 => Record::AcceptForward {
            message: r.message()?,
            hops_left: r.u32()?,
        },
        8 => Record::SettleForward {
            id: MessageId(r.u64()?),
        },
        9 | 11 => {
            let owner = r.name()?;
            let n = r.u32()? as usize;
            let mut messages = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                messages.push(r.message()?);
            }
            if tag == 9 {
                Record::SnapshotMailbox { owner, messages }
            } else {
                Record::SnapshotPending { owner, messages }
            }
        }
        12 => {
            let n = r.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let m = r.message()?;
                let hops = r.u32()?;
                entries.push((m, hops));
            }
            Record::SnapshotForwards { entries }
        }
        13 => {
            let n = r.u32()? as usize;
            let mut ids = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                ids.push(MessageId(r.u64()?));
            }
            Record::SnapshotDeposited { ids }
        }
        other => return Err(format!("unknown record tag {other}")),
    };
    r.done()?;
    Ok(rec)
}

/// Encodes `record` as one complete frame into `frame`, replacing what it
/// held: the header is reserved, the payload written behind it, and length
/// and checksum patched in — a caller that keeps `frame` between records
/// stops allocating once it has grown to the largest of them.
pub(crate) fn encode_frame_into(record: &Record, frame: &mut Vec<u8>) {
    frame.clear();
    frame.push(MAGIC);
    frame.extend_from_slice(&[0; HEADER_BYTES - 1]);
    let mut w = Writer { buf: frame };
    w.u16(WAL_SCHEMA_VERSION);
    w.u8(record.tag());
    encode_body(record, &mut w);
    let payload = &frame[HEADER_BYTES..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    frame[1..5].copy_from_slice(&len.to_le_bytes());
    frame[5..9].copy_from_slice(&crc.to_le_bytes());
}

/// Outcome of decoding the next frame from `bytes`.
#[derive(Debug)]
pub enum FrameOutcome {
    /// A complete, checksum-verified record; `consumed` bytes were used.
    Record {
        /// The decoded record.
        record: Record,
        /// Frame size in bytes.
        consumed: usize,
    },
    /// `bytes` is empty: clean end of segment.
    End,
    /// The remaining bytes are not a complete valid frame. At the end of
    /// the *last* segment this is a torn write and the tail is discarded;
    /// anywhere else it is corruption and recovery must refuse the log.
    Tail {
        /// Why the tail failed to parse.
        detail: String,
    },
    /// Checksum passed but the payload is from another schema.
    Version {
        /// Version found on the log.
        found: u16,
    },
    /// Checksum passed but the body failed to decode — mid-log corruption
    /// or a codec bug, never tolerated.
    Corrupt {
        /// What failed.
        detail: String,
    },
}

/// Decodes the next frame from `bytes` (the unconsumed suffix of one
/// segment).
pub(crate) fn decode_frame(bytes: &[u8]) -> FrameOutcome {
    if bytes.is_empty() {
        return FrameOutcome::End;
    }
    if bytes.len() < HEADER_BYTES {
        return FrameOutcome::Tail {
            detail: format!("{}-byte tail shorter than frame header", bytes.len()),
        };
    }
    if bytes[0] != MAGIC {
        return FrameOutcome::Tail {
            detail: format!("bad frame magic 0x{:02X}", bytes[0]),
        };
    }
    let len = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
    if len > MAX_PAYLOAD_BYTES {
        return FrameOutcome::Tail {
            detail: format!("implausible payload length {len}"),
        };
    }
    let want = HEADER_BYTES + len as usize;
    if bytes.len() < want {
        return FrameOutcome::Tail {
            detail: format!("frame declares {want} bytes, only {} present", bytes.len()),
        };
    }
    let crc = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]);
    let payload = &bytes[HEADER_BYTES..want];
    if crc32(payload) != crc {
        return FrameOutcome::Tail {
            detail: "payload checksum mismatch".to_string(),
        };
    }
    let mut r = Reader::new(payload);
    let version = match r.u16() {
        Ok(v) => v,
        Err(detail) => return FrameOutcome::Corrupt { detail },
    };
    if version != WAL_SCHEMA_VERSION {
        return FrameOutcome::Version { found: version };
    }
    let tag = match r.u8() {
        Ok(t) => t,
        Err(detail) => return FrameOutcome::Corrupt { detail },
    };
    match decode_body(tag, &mut r) {
        Ok(record) => FrameOutcome::Record {
            record,
            consumed: want,
        },
        Err(detail) => FrameOutcome::Corrupt { detail },
    }
}

/// Replays one segment's bytes, applying records via `apply`.
///
/// Returns the number of records applied and, when the segment ends in an
/// unparsable tail, the byte offset where the valid prefix ends. Callers
/// decide whether that tail is a tolerable torn write (last segment) or
/// fatal corruption.
pub fn replay_segment(
    bytes: &[u8],
    seq: u64,
    mut apply: impl FnMut(Record),
) -> Result<SegmentReplay, StoreError> {
    let mut off = 0usize;
    let mut records = 0u64;
    let mut op_bytes = 0u64;
    loop {
        match decode_frame(&bytes[off..]) {
            FrameOutcome::End => {
                return Ok(SegmentReplay {
                    records,
                    valid_len: off,
                    op_bytes,
                    tail: None,
                })
            }
            FrameOutcome::Record { record, consumed } => {
                if !record.is_snapshot() {
                    op_bytes += consumed as u64;
                }
                apply(record);
                records += 1;
                off += consumed;
            }
            FrameOutcome::Tail { detail } => {
                return Ok(SegmentReplay {
                    records,
                    valid_len: off,
                    op_bytes,
                    tail: Some(detail),
                })
            }
            FrameOutcome::Version { found } => {
                return Err(StoreError::SchemaVersion {
                    found,
                    supported: WAL_SCHEMA_VERSION,
                })
            }
            FrameOutcome::Corrupt { detail } => {
                return Err(StoreError::Corrupt {
                    segment: seq,
                    offset: off,
                    detail,
                })
            }
        }
    }
}

/// Result of replaying one segment.
#[derive(Debug)]
pub struct SegmentReplay {
    /// Records applied.
    pub records: u64,
    /// Bytes of valid frames from the start of the segment.
    pub(crate) valid_len: usize,
    /// Of those, the bytes of operation records — what counts towards
    /// [`WalConfig::segment_bytes`](crate::WalConfig::segment_bytes);
    /// compaction's snapshot chunks do not.
    pub(crate) op_bytes: u64,
    /// Unparsable-tail diagnostic, when the segment did not end cleanly.
    pub tail: Option<String>,
}

/// The encoder and the checksum as they were before frames were built in
/// place — a payload `Vec` copied into a frame `Vec`, names through
/// `to_string`, one table lookup a byte — kept as the oracle the tests
/// compare the production ones against.
#[cfg(test)]
mod reference {
    use super::{Record, HEADER_BYTES, MAGIC, WAL_SCHEMA_VERSION};
    use lems_core::message::Message;
    use lems_core::name::MailName;

    pub(super) fn crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = super::CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn str(buf: &mut Vec<u8>, s: &str) {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    }

    fn name(buf: &mut Vec<u8>, n: &MailName) {
        str(buf, &n.to_string());
    }

    fn u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    fn count(buf: &mut Vec<u8>, n: usize) {
        buf.extend_from_slice(&(n as u32).to_le_bytes());
    }

    fn message(buf: &mut Vec<u8>, m: &Message) {
        u64(buf, m.id.0);
        name(buf, &m.from);
        name(buf, &m.to);
        str(buf, &m.subject);
        str(buf, &m.body);
        u64(buf, m.submitted_at.as_ticks());
    }

    pub(super) fn encode_frame(record: &Record) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&WAL_SCHEMA_VERSION.to_le_bytes());
        p.push(record.tag());
        match record {
            Record::Deposit { message: m } => message(&mut p, m),
            Record::DrainReserve { owner } => {
                name(&mut p, owner);
            }
            Record::Release { owner, ids } => {
                name(&mut p, owner);
                count(&mut p, ids.len());
                for id in ids {
                    u64(&mut p, id.0);
                }
            }
            Record::AcceptForward {
                message: m,
                hops_left,
            } => {
                message(&mut p, m);
                p.extend_from_slice(&hops_left.to_le_bytes());
            }
            Record::SettleForward { id } => u64(&mut p, id.0),
            Record::SnapshotMailbox { owner, messages }
            | Record::SnapshotPending { owner, messages } => {
                name(&mut p, owner);
                count(&mut p, messages.len());
                for m in messages {
                    message(&mut p, m);
                }
            }
            Record::SnapshotForwards { entries } => {
                count(&mut p, entries.len());
                for (m, hops) in entries {
                    message(&mut p, m);
                    p.extend_from_slice(&hops.to_le_bytes());
                }
            }
            Record::SnapshotDeposited { ids } => {
                count(&mut p, ids.len());
                for id in ids {
                    u64(&mut p, id.0);
                }
            }
        }
        let mut frame = Vec::with_capacity(HEADER_BYTES + p.len());
        frame.push(MAGIC);
        frame.extend_from_slice(&(p.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&p).to_le_bytes());
        frame.extend_from_slice(&p);
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One complete frame for `record`.
    fn encode_frame(record: &Record) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_frame_into(record, &mut frame);
        frame
    }

    fn msg(id: u64) -> Message {
        Message::new(
            MessageId(id),
            "east.h.a".parse().unwrap(),
            "west.h.b".parse().unwrap(),
            "subject",
            "body text",
            SimTime::from_units(1.5),
        )
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_record_kind_round_trips() {
        let owner: MailName = "west.h.b".parse().unwrap();
        let records = vec![
            Record::Deposit { message: msg(1) },
            Record::DrainReserve {
                owner: owner.clone(),
            },
            Record::Release {
                owner: owner.clone(),
                ids: vec![MessageId(1), MessageId(7)],
            },
            Record::AcceptForward {
                message: msg(2),
                hops_left: 14,
            },
            Record::SettleForward { id: MessageId(2) },
            Record::SnapshotMailbox {
                owner: owner.clone(),
                messages: vec![msg(3)],
            },
            Record::SnapshotPending {
                owner,
                messages: vec![msg(4), msg(5)],
            },
            Record::SnapshotForwards {
                entries: vec![(msg(6), 3)],
            },
            Record::SnapshotDeposited {
                ids: vec![MessageId(3), MessageId(4)],
            },
        ];
        for rec in records {
            let frame = encode_frame(&rec);
            match decode_frame(&frame) {
                FrameOutcome::Record { record, consumed } => {
                    assert_eq!(record, rec);
                    assert_eq!(consumed, frame.len());
                }
                other => panic!("expected record, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_frame_is_a_tail_at_every_prefix() {
        let frame = encode_frame(&Record::Deposit { message: msg(9) });
        for cut in 1..frame.len() {
            match decode_frame(&frame[..cut]) {
                FrameOutcome::Tail { .. } => {}
                other => panic!("prefix of {cut} bytes should be a tail, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_in_payload_fails_checksum() {
        let mut frame = encode_frame(&Record::SettleForward { id: MessageId(5) });
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        match decode_frame(&frame) {
            FrameOutcome::Tail { detail } => assert!(detail.contains("checksum")),
            other => panic!("expected checksum tail, got {other:?}"),
        }
    }

    /// A frame of any other schema is refused as such, older ones too:
    /// a version-1 `SettleForward` reads the same, but its `Deposit`
    /// carried the time this version dropped.
    #[test]
    fn other_schema_versions_are_rejected() {
        let rec = Record::SettleForward { id: MessageId(5) };
        for version in [WAL_SCHEMA_VERSION - 1, WAL_SCHEMA_VERSION + 1] {
            let mut frame = encode_frame(&rec);
            // Rewrite the payload version and re-checksum so only the
            // version check can object.
            frame[HEADER_BYTES..HEADER_BYTES + 2].copy_from_slice(&version.to_le_bytes());
            let crc = crc32(&frame[HEADER_BYTES..]).to_le_bytes();
            frame[5..9].copy_from_slice(&crc);
            match decode_frame(&frame) {
                FrameOutcome::Version { found } => assert_eq!(found, version),
                other => panic!("expected version rejection, got {other:?}"),
            }
        }
    }

    // The vendored `proptest` has no `prop_map`, so composite values are
    // built by hand from primitive draws.

    fn arb_name(rng: &mut TestRng) -> MailName {
        const TOKEN: &str = "[A-Za-z0-9_-]{1,9}";
        MailName::new(
            &TOKEN.generate(rng),
            &TOKEN.generate(rng),
            &TOKEN.generate(rng),
        )
        .unwrap()
    }

    fn arb_time(rng: &mut TestRng) -> SimTime {
        SimTime::from_ticks(rng.next_u64())
    }

    fn arb_message(rng: &mut TestRng) -> Message {
        Message::new(
            MessageId(rng.next_u64()),
            arb_name(rng),
            arb_name(rng),
            "[a-z .é√]{0,12}".generate(rng),
            "[a-zA-Z0-9 .,é√\u{1}]{0,40}".generate(rng),
            arb_time(rng),
        )
    }

    fn arb_vec<T>(rng: &mut TestRng, mut item: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
        (0..rng.below(4)).map(|_| item(rng)).collect()
    }

    /// The wire tags in use: 1 to 13 but the retired 2, 3, 5 and 10.
    const TAGS: [u8; 9] = [1, 4, 6, 7, 8, 9, 11, 12, 13];

    /// A record of the variant with wire tag `tag`, one of [`TAGS`].
    fn arb_record(rng: &mut TestRng, tag: u8) -> Record {
        let id = |rng: &mut TestRng| MessageId(rng.next_u64());
        let record = match tag {
            1 => Record::Deposit {
                message: arb_message(rng),
            },
            4 => Record::DrainReserve {
                owner: arb_name(rng),
            },
            6 => Record::Release {
                owner: arb_name(rng),
                ids: arb_vec(rng, id),
            },
            7 => Record::AcceptForward {
                message: arb_message(rng),
                hops_left: rng.next_u64() as u32,
            },
            8 => Record::SettleForward { id: id(rng) },
            9 => Record::SnapshotMailbox {
                owner: arb_name(rng),
                messages: arb_vec(rng, arb_message),
            },
            11 => Record::SnapshotPending {
                owner: arb_name(rng),
                messages: arb_vec(rng, arb_message),
            },
            12 => Record::SnapshotForwards {
                entries: arb_vec(rng, |rng| (arb_message(rng), rng.next_u64() as u32)),
            },
            _ => Record::SnapshotDeposited {
                ids: arb_vec(rng, id),
            },
        };
        assert_eq!(record.tag(), tag);
        record
    }

    #[test]
    fn crc32_is_the_bytewise_crc_on_every_short_length() {
        // Every length around the 8-byte stride, at every alignment the
        // slicing loop can start from.
        let bytes: Vec<u8> = (0u32..80).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[start..start + len];
                assert_eq!(crc32(slice), reference::crc32(slice), "{start}+{len}");
            }
        }
    }

    proptest! {
        /// The in-place encoder writes the frames the two-buffer one
        /// wrote, into a buffer that held something else, and they decode
        /// to the record they were made from.
        #[test]
        fn frames_are_the_reference_frames_and_round_trip(
            kinds in proptest::collection::vec(0usize..TAGS.len(), 1..8),
            seed in 0usize..1_000_000,
        ) {
            let mut rng = TestRng::for_case("codec-record", seed);
            let mut frame = Vec::new();
            for kind in kinds {
                let rec = arb_record(&mut rng, TAGS[kind]);
                encode_frame_into(&rec, &mut frame);
                prop_assert_eq!(&frame, &reference::encode_frame(&rec));
                prop_assert_eq!(&frame, &encode_frame(&rec));
                match decode_frame(&frame) {
                    FrameOutcome::Record { record, consumed } => {
                        prop_assert_eq!(record, rec);
                        prop_assert_eq!(consumed, frame.len());
                    }
                    other => panic!("expected record, got {other:?}"),
                }
            }
        }

        #[test]
        fn crc32_is_the_bytewise_crc(
            bytes in proptest::collection::vec(0u8..=255, 0..200),
            skip in 0usize..8,
        ) {
            let slice = &bytes[skip.min(bytes.len())..];
            prop_assert_eq!(crc32(slice), reference::crc32(slice));
        }
    }
}
