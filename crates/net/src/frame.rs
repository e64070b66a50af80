//! Byte-stream framing: `[u32 len][u32 crc][payload]`.
//!
//! The transport under a chronicle connection is an ordered byte stream
//! (TCP, or the deterministic in-memory pipe the simulation uses) that can
//! be torn mid-frame by a crash or partition. Framing makes message
//! boundaries explicit and cheap to find again, and the CRC (the same
//! table-driven CRC-32 the WAL uses) rejects any frame the transport
//! delivered damaged — a corrupt frame is a protocol error that drops the
//! connection, never a silently misparsed message.
//!
//! Both integers are little-endian; the CRC covers the payload only. A
//! length above [`MAX_FRAME`] is rejected before any allocation, so a
//! garbage length prefix cannot balloon memory.

use chronicle_durability::crc::crc32;
use chronicle_types::{mutate, ChronicleError, Result};

/// Hard ceiling on one frame's payload (64 MiB) — far above any legal
/// message, low enough that a corrupt length prefix fails fast.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes of framing overhead per frame.
pub const FRAME_OVERHEAD: usize = 8;

fn corrupt(detail: String) -> ChronicleError {
    ChronicleError::Corruption { detail }
}

/// Wrap `payload` in a frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME, "frame payload too large");
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental frame decoder over an arbitrary chunking of the stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (a non-zero value after the
    /// stream ends means it died mid-frame).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Decode the next complete frame, if one is buffered. `Ok(None)`
    /// means more bytes are needed; a bad length or CRC is a hard
    /// [`ChronicleError::Corruption`] — the connection is unusable, since
    /// frame boundaries can no longer be trusted.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if self.buf.len() < FRAME_OVERHEAD {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[0..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(corrupt(format!(
                "frame length {len} exceeds the {MAX_FRAME}-byte ceiling"
            )));
        }
        if self.buf.len() < FRAME_OVERHEAD + len {
            return Ok(None);
        }
        let want = u32::from_le_bytes(self.buf[4..8].try_into().expect("4 bytes"));
        let payload: Vec<u8> = self.buf[FRAME_OVERHEAD..FRAME_OVERHEAD + len].to_vec();
        self.buf.drain(..FRAME_OVERHEAD + len);
        if !mutate("skip_frame_crc") {
            let got = crc32(&payload);
            if got != want {
                return Err(corrupt(format!(
                    "frame CRC mismatch: stored {want:#010x}, computed {got:#010x}"
                )));
            }
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_testkit::{Rng, SeedableRng, SmallRng};

    #[test]
    fn frames_round_trip_under_any_chunking() {
        let mut rng = SmallRng::seed_from_u64(0x5eed_f7a3);
        let payloads: Vec<Vec<u8>> = (0..50)
            .map(|_| {
                let n = rng.gen_range(0..200usize);
                (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect()
            })
            .collect();
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        for trial in 0..20usize {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut pos = 0;
            while pos < stream.len() {
                let n = 1 + rng.gen_range(0..64 + trial);
                let end = (pos + n).min(stream.len());
                dec.feed(&stream[pos..end]);
                pos = end;
                while let Some(p) = dec.next_frame().unwrap() {
                    got.push(p);
                }
            }
            assert_eq!(got, payloads, "trial {trial}");
            assert_eq!(dec.pending(), 0);
        }
    }

    #[test]
    fn truncated_stream_yields_no_frame() {
        let frame = encode_frame(b"hello, chronicle");
        for cut in 0..frame.len() {
            let mut dec = FrameDecoder::new();
            dec.feed(&frame[..cut]);
            assert!(dec.next_frame().unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected_or_shortens() {
        // Flip each bit of a framed message: either the decoder reports
        // corruption, or (flips in the length prefix that *shrink* the
        // frame) the CRC no longer covers the right bytes and still fails,
        // or the frame is no longer complete. No flip may yield the
        // original payload or any other "valid" payload silently — except
        // a flip that *grows* the length past the buffered bytes, which
        // must simply wait for more bytes, not misparse.
        let payload = b"the chronicle is not stored".to_vec();
        let frame = encode_frame(&payload);
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut dec = FrameDecoder::new();
            dec.feed(&bad);
            match dec.next_frame() {
                Err(ChronicleError::Corruption { .. }) => {}
                Ok(None) => {} // grown length: incomplete, never misparsed
                Ok(Some(p)) => panic!("bit {bit} produced a frame: {p:?}"),
                Err(e) => panic!("bit {bit}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn absurd_length_rejected_before_allocation() {
        let mut dec = FrameDecoder::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        dec.feed(&bytes);
        assert!(dec.next_frame().is_err());
    }
}
