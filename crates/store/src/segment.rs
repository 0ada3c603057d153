//! Segment devices: where WAL bytes actually live.
//!
//! The WAL is a sequence of numbered segments. [`SegmentIo`] is the device
//! interface the store logic runs against; [`MemSegments`] is the one
//! device — the simulated disk with an explicit durable/volatile boundary
//! and torn-tail fault injection. A log lives as long as its device, so no
//! log outlives the process that wrote it.

use std::collections::BTreeMap;

use crate::StoreError;

/// A numbered-segment append-only device.
pub(crate) trait SegmentIo: std::fmt::Debug {
    /// Creates (or truncates) segment `seq`.
    fn create(&mut self, seq: u64) -> Result<(), StoreError>;
    /// Appends bytes to segment `seq`.
    fn append(&mut self, seq: u64, bytes: &[u8]) -> Result<(), StoreError>;
    /// Forces segment `seq`'s appended bytes onto durable media (fsync).
    fn sync(&mut self, seq: u64) -> Result<(), StoreError>;
    /// Shrinks segment `seq` to `len` bytes (discarding a torn tail).
    fn truncate(&mut self, seq: u64, len: u64) -> Result<(), StoreError>;
    /// Deletes segment `seq`.
    fn delete(&mut self, seq: u64) -> Result<(), StoreError>;
    /// Existing segment numbers, ascending.
    fn list(&self) -> Vec<u64>;
    /// Reads segment `seq`'s current contents.
    fn read(&self, seq: u64) -> Result<Vec<u8>, StoreError>;
    /// Simulated power loss: un-synced bytes vanish; when
    /// `torn_tail_bytes > 0` the tail of the newest segment additionally
    /// keeps that many bytes of unparsable garbage past the durable
    /// boundary (the torn write that was in flight).
    fn crash(&mut self, torn_tail_bytes: usize);
}

#[derive(Clone, Debug, Default)]
struct MemSeg {
    bytes: Vec<u8>,
    durable: usize,
}

/// The simulated disk: per-segment byte buffers with a durable-length
/// watermark advanced only by [`SegmentIo::sync`].
#[derive(Clone, Debug, Default)]
pub(crate) struct MemSegments {
    segs: BTreeMap<u64, MemSeg>,
}

impl MemSegments {
    /// An empty device.
    pub(crate) fn new() -> Self {
        MemSegments::default()
    }

    fn seg(&mut self, seq: u64) -> Result<&mut MemSeg, StoreError> {
        self.segs
            .get_mut(&seq)
            .ok_or_else(|| StoreError::Io(format!("segment {seq} does not exist")))
    }
}

impl SegmentIo for MemSegments {
    fn create(&mut self, seq: u64) -> Result<(), StoreError> {
        self.segs.insert(seq, MemSeg::default());
        Ok(())
    }

    fn append(&mut self, seq: u64, bytes: &[u8]) -> Result<(), StoreError> {
        self.seg(seq)?.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, seq: u64) -> Result<(), StoreError> {
        let s = self.seg(seq)?;
        s.durable = s.bytes.len();
        Ok(())
    }

    fn truncate(&mut self, seq: u64, len: u64) -> Result<(), StoreError> {
        let s = self.seg(seq)?;
        s.bytes.truncate(len as usize);
        s.durable = s.durable.min(s.bytes.len());
        Ok(())
    }

    fn delete(&mut self, seq: u64) -> Result<(), StoreError> {
        self.segs.remove(&seq);
        Ok(())
    }

    fn list(&self) -> Vec<u64> {
        self.segs.keys().copied().collect()
    }

    fn read(&self, seq: u64) -> Result<Vec<u8>, StoreError> {
        self.segs
            .get(&seq)
            .map(|s| s.bytes.clone())
            .ok_or_else(|| StoreError::Io(format!("segment {seq} does not exist")))
    }

    fn crash(&mut self, torn_tail_bytes: usize) {
        let newest = self.segs.keys().next_back().copied();
        for (&seq, s) in &mut self.segs {
            let unsynced: Vec<u8> = s.bytes[s.durable.min(s.bytes.len())..].to_vec();
            s.bytes.truncate(s.durable);
            if torn_tail_bytes > 0 && Some(seq) == newest {
                // The write that was in flight when power failed: keep a
                // garbled fragment past the durable boundary. If real
                // un-synced bytes existed, tear them (a strict prefix);
                // otherwise fabricate a plausible-but-invalid frame head.
                if unsynced.is_empty() {
                    s.bytes.push(crate::codec::MAGIC);
                    s.bytes
                        .extend(std::iter::repeat_n(0x5A, torn_tail_bytes.saturating_sub(1)));
                } else {
                    let keep = torn_tail_bytes.min(unsynced.len().saturating_sub(1)).max(1);
                    s.bytes
                        .extend_from_slice(&unsynced[..keep.min(unsynced.len())]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_crash_discards_unsynced_suffix() {
        let mut io = MemSegments::new();
        io.create(0).unwrap();
        io.append(0, b"durable!").unwrap();
        io.sync(0).unwrap();
        io.append(0, b"volatile").unwrap();
        io.crash(0);
        assert_eq!(io.read(0).unwrap(), b"durable!");
    }

    #[test]
    fn mem_crash_with_torn_tail_leaves_garbage_past_durable_prefix() {
        let mut io = MemSegments::new();
        io.create(0).unwrap();
        io.append(0, b"durable!").unwrap();
        io.sync(0).unwrap();
        io.crash(5);
        let bytes = io.read(0).unwrap();
        assert_eq!(&bytes[..8], b"durable!");
        assert_eq!(bytes.len(), 8 + 5);
        // The tail must never parse as a frame.
        assert!(matches!(
            crate::codec::decode_frame(&bytes[8..]),
            crate::codec::FrameOutcome::Tail { .. }
        ));
    }

    #[test]
    fn mem_torn_tail_tears_real_unsynced_bytes_when_present() {
        let mut frame = Vec::new();
        let record = crate::codec::Record::SettleForward {
            id: lems_core::message::MessageId(1),
        };
        crate::codec::encode_frame_into(&record, &mut frame);
        let mut io = MemSegments::new();
        io.create(0).unwrap();
        io.append(0, &frame).unwrap();
        io.sync(0).unwrap();
        io.append(0, &frame).unwrap(); // un-synced copy
        io.crash(4);
        let bytes = io.read(0).unwrap();
        assert!(bytes.len() > frame.len());
        assert!(bytes.len() < 2 * frame.len());
        // Valid prefix still decodes; the torn copy does not.
        assert!(matches!(
            crate::codec::decode_frame(&bytes),
            crate::codec::FrameOutcome::Record { .. }
        ));
    }
}
