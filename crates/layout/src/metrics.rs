//! Per-channel candidate access counts of one tile — the quantity behind
//! Fig. 11.

use crate::TileLayout;

/// Per-channel candidate access counts for one tile and one query.
///
/// `candidates` are tile-local row indices.
///
/// # Panics
///
/// Panics if any candidate index is outside the layout.
pub fn channel_loads(layout: &TileLayout, candidates: &[usize]) -> Vec<u64> {
    let mut loads = vec![0u64; layout.channels()];
    for &c in candidates {
        loads[layout.channel_of(c)] += 1;
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_count_candidates_per_channel() {
        let layout = TileLayout::from_assignment(vec![0, 1, 0, 2, 1, 0], 4);
        let loads = channel_loads(&layout, &[0, 1, 2, 5]);
        assert_eq!(loads, vec![3, 1, 0, 0]);
    }
}
