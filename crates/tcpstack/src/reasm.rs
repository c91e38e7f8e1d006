//! Out-of-order segment bookkeeping for the receive path.
//!
//! The measurement tests deliberately park bytes *beyond* `rcv_nxt`
//! (the §III-B "hole") and later observe how the cumulative ACK advances
//! when the hole fills, so the reassembly semantics here must match real
//! stacks: queued ranges coalesce, and when the hole is plugged the ACK
//! jumps over everything contiguous.

use reorder_wire::SeqNum;

/// Set of received-but-not-yet-contiguous byte ranges, kept sorted and
/// disjoint.
#[derive(Debug, Default, Clone)]
pub struct ReasmQueue {
    /// Sorted, disjoint `(start, len)` ranges strictly above `rcv_nxt`.
    ranges: Vec<(SeqNum, u32)>,
}

impl ReasmQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an out-of-order range, merging overlaps. Works in place:
    /// the ranges it absorbs are removed and the merged range is
    /// inserted where it sorts, so no segment allocates.
    pub fn insert(&mut self, start: SeqNum, len: u32) {
        if len == 0 {
            return;
        }
        let mut merged_start = start;
        let mut merged_end = start + len;
        self.ranges.retain(|&(s, l)| {
            let e = s + l;
            // Overlapping or touching?
            if e.distance_to(merged_start) > 0 || merged_end.distance_to(s) > 0 {
                return true; // disjoint
            }
            if s < merged_start {
                merged_start = s;
            }
            if e > merged_end {
                merged_end = e;
            }
            false
        });
        let at = self.ranges.partition_point(|r| r.0 <= merged_start);
        self.ranges
            .insert(at, (merged_start, (merged_end - merged_start) as u32));
    }

    /// Given that contiguous data now extends to `rcv_nxt`, consume any
    /// queued ranges the new edge reaches and return the advanced edge.
    pub fn advance(&mut self, mut rcv_nxt: SeqNum) -> SeqNum {
        loop {
            let mut advanced = false;
            self.ranges.retain(|&(s, l)| {
                let e = s + l;
                if e <= rcv_nxt {
                    false // wholly below the edge: stale, drop
                } else if s <= rcv_nxt {
                    rcv_nxt = e;
                    advanced = true;
                    false
                } else {
                    true
                }
            });
            if !advanced {
                return rcv_nxt;
            }
        }
    }

    /// Whether any out-of-order data is queued.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of disjoint queued ranges (SACK-block count, used by the
    /// Bennett-style metric).
    pub fn block_count(&self) -> usize {
        self.ranges.len()
    }

    /// The queued ranges, for SACK option generation (most recent data
    /// first is not modeled; wire order is ascending).
    pub fn blocks(&self) -> &[(SeqNum, u32)] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(ranges: &[(u32, u32)]) -> ReasmQueue {
        let mut rq = ReasmQueue::new();
        for &(s, l) in ranges {
            rq.insert(SeqNum(s), l);
        }
        rq
    }

    #[test]
    fn single_byte_hole_scenario() {
        // The §III-B setup: expecting 1, byte at seq 2 queued.
        let mut rq = q(&[(2, 1)]);
        // data 1 arrives: edge moves to 2, then jumps the queued byte.
        let edge = rq.advance(SeqNum(2));
        assert_eq!(edge, SeqNum(3));
        assert!(rq.is_empty());
    }

    #[test]
    fn disjoint_ranges_stay_separate() {
        let rq = q(&[(10, 5), (20, 5)]);
        assert_eq!(rq.block_count(), 2);
        assert_eq!(rq.blocks(), &[(SeqNum(10), 5), (SeqNum(20), 5)]);
    }

    #[test]
    fn touching_ranges_merge() {
        let rq = q(&[(10, 5), (15, 5)]);
        assert_eq!(rq.block_count(), 1);
        assert_eq!(rq.blocks(), &[(SeqNum(10), 10)]);
    }

    #[test]
    fn overlapping_ranges_merge() {
        let rq = q(&[(10, 10), (15, 10)]);
        assert_eq!(rq.blocks(), &[(SeqNum(10), 15)]);
    }

    #[test]
    fn containing_range_absorbs() {
        let rq = q(&[(10, 20), (12, 3)]);
        assert_eq!(rq.blocks(), &[(SeqNum(10), 20)]);
    }

    #[test]
    fn advance_consumes_chain() {
        let mut rq = q(&[(5, 5), (10, 5), (20, 5)]);
        // ranges [5,10) and [10,15) merged on insert; edge 5 reaches both.
        let edge = rq.advance(SeqNum(5));
        assert_eq!(edge, SeqNum(15));
        assert_eq!(rq.block_count(), 1); // [20,25) remains
    }

    #[test]
    fn advance_drops_stale_ranges() {
        let mut rq = q(&[(5, 5)]);
        let edge = rq.advance(SeqNum(50));
        assert_eq!(edge, SeqNum(50));
        assert!(rq.is_empty());
    }

    #[test]
    fn advance_partial_overlap_uses_range_end() {
        let mut rq = q(&[(5, 10)]);
        let edge = rq.advance(SeqNum(8));
        assert_eq!(edge, SeqNum(15));
    }

    #[test]
    fn zero_length_insert_ignored() {
        let mut rq = ReasmQueue::new();
        rq.insert(SeqNum(5), 0);
        assert!(rq.is_empty());
    }

    #[test]
    fn wraparound_ranges() {
        let near_max = u32::MAX - 2;
        let mut rq = ReasmQueue::new();
        rq.insert(SeqNum(near_max), 5); // wraps to seq 2
        let edge = rq.advance(SeqNum(near_max));
        assert_eq!(edge, SeqNum(near_max) + 5);
        assert_eq!(edge, SeqNum(2));
    }
}
