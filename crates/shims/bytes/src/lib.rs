//! Offline shim for the `bytes` crate: the `Buf`/`BufMut` subset used by
//! the shuffle codec and the wire codec (little-endian fixed-width puts
//! and gets, plus `chunk` / `advance` for bulk reads).

/// A readable byte cursor.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The readable bytes at the cursor that sit in one slice: all of them
    /// for a slice, possibly fewer for a buffer held in pieces.
    fn chunk(&self) -> &[u8];

    /// Moves the cursor `cnt` bytes forward.
    ///
    /// # Panics
    /// Panics when fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);

    /// Copies `dst.len()` bytes out, advancing the cursor.
    ///
    /// # Panics
    /// Panics when fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// True when any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(self.len() >= cnt, "buffer underflow");
        *self = &self[cnt..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.len() >= dst.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// A writable byte sink.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Writes one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Writes a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf: Vec<u8> = Vec::new();
        buf.put_u8(0x5a);
        buf.put_u32_le(0xdead_beef);
        buf.put_u64_le(42);
        buf.put_i64_le(-7);
        buf.put_f64_le(1.5);
        let mut r: &[u8] = &buf;
        assert_eq!(r.remaining(), 1 + 4 + 8 + 8 + 8);
        assert_eq!(r.get_u8(), 0x5a);
        assert_eq!(r.get_u32_le(), 0xdead_beef);
        assert_eq!(r.get_u64_le(), 42);
        assert_eq!(r.get_i64_le(), -7);
        assert_eq!(r.get_f64_le(), 1.5);
        assert!(!r.has_remaining());
    }

    #[test]
    fn chunk_and_advance_walk_a_slice() {
        let bytes = [1u8, 2, 3, 4, 5, 6];
        let mut r: &[u8] = &bytes;
        assert_eq!(r.chunk(), &bytes[..]);
        r.advance(2);
        assert_eq!((r.chunk(), r.remaining()), (&bytes[2..], 4));
        assert_eq!(r.get_u8(), 3);
        r.advance(0);
        assert_eq!(r.chunk(), &[4, 5, 6]);
        r.advance(3);
        assert!(r.chunk().is_empty() && !r.has_remaining());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn advance_past_the_end_panics() {
        let mut r: &[u8] = &[1, 2];
        r.advance(3);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut r: &[u8] = &[1, 2];
        let _ = r.get_u32_le();
    }
}
