//! Incremental RAID-5 parity maintenance for update writes.
//!
//! Deploy-time parity is computed for free while streaming the whole
//! model in; an *update* rewrites a few pages of existing stripes, so each
//! touched stripe pays a read-modify-write: read the old parity plus the
//! data pages being replaced, then program the new parity page. Pages are
//! grouped by stripe first — a batch that rewrites several pages of one
//! stripe shares a single parity read and a single parity program.

use ecssd_layout::ParityScheme;
use ecssd_ssd::{PhysPageAddr, SsdGeometry};

/// Flash-operation counts a parity refresh adds on top of the data
/// programs themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParityRefreshCost {
    /// Old data + old parity pages read for the read-modify-write.
    pub page_reads: u64,
    /// New parity pages programmed (one per touched stripe).
    pub parity_programs: u64,
    /// Distinct stripes touched.
    pub stripes: u64,
}

impl ParityRefreshCost {
    /// The counts of the given stripe refreshes.
    pub fn of(stripes: &[StripeRefresh]) -> ParityRefreshCost {
        ParityRefreshCost {
            page_reads: stripes.iter().map(|s| s.reads.len() as u64).sum(),
            parity_programs: stripes.len() as u64,
            stripes: stripes.len() as u64,
        }
    }

    /// Component-wise sum, for aggregating per-batch costs.
    pub fn merge(&self, other: &ParityRefreshCost) -> ParityRefreshCost {
        ParityRefreshCost {
            page_reads: self.page_reads + other.page_reads,
            parity_programs: self.parity_programs + other.parity_programs,
            stripes: self.stripes + other.stripes,
        }
    }
}

/// One touched stripe's read-modify-write, at physical addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeRefresh {
    /// The old parity page, then the old image of each rewritten data
    /// page; empty for a full-stripe write.
    pub reads: Vec<PhysPageAddr>,
    /// Where the new parity page is programmed.
    pub parity: PhysPageAddr,
}

/// Plans the parity refresh of update writes under a [`ParityScheme`]
/// over one geometry's channels.
///
/// A stripe is what [`ParityScheme`] makes it: the pages at one (plane,
/// block, page) coordinate across the dies of one channel, with one die
/// holding parity, so a stripe carries `dies_per_channel - 1` data pages.
/// The FTL places data without reserving parity slots, so a coordinate
/// can hold more rewritten pages than that; its pages then form
/// consecutive stripes of at most that many, in die order. Each stripe's
/// parity goes on the first die of [`ParityScheme::parity_die`]'s
/// rotation, starting at the coordinate's own, that holds none of the
/// stripe's rewritten pages, so parity never shares a die with the data
/// it protects and never leaves its channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityRefreshModel {
    scheme: ParityScheme,
    geometry: SsdGeometry,
}

impl ParityRefreshModel {
    /// A model over `geometry`'s intra-channel parity scheme.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has fewer than 2 dies per channel (see
    /// [`ParityScheme::new`]).
    pub fn new(geometry: SsdGeometry) -> Self {
        ParityRefreshModel {
            scheme: ParityScheme::new(geometry.dies_per_channel),
            geometry,
        }
    }

    /// Data pages per stripe (`stripe_width - 1`; one die holds parity).
    pub fn data_width(&self) -> usize {
        self.scheme.stripe_width() - 1
    }

    /// The stripe index of `addr` within its channel: its (plane, block,
    /// page) coordinate, flattened.
    fn stripe_of(&self, addr: PhysPageAddr) -> u64 {
        let g = &self.geometry;
        ((addr.plane * g.blocks_per_plane + addr.block) * g.pages_per_block + addr.page) as u64
    }

    /// The refresh of rewriting the given data pages (physical addresses,
    /// in any order, duplicates allowed — a page rewritten twice in one
    /// batch still refreshes its stripe once), one entry per touched
    /// stripe in (channel, coordinate) order.
    ///
    /// Per touched stripe: one old-parity read and one old-data read per
    /// *distinct* rewritten page (skipped when the whole stripe is
    /// rewritten — a full-stripe write recomputes parity from new data
    /// alone), and one new-parity program.
    pub fn refresh_for_pages(&self, pages: &[PhysPageAddr]) -> Vec<StripeRefresh> {
        let width = self.data_width();
        // Within one (channel, stripe), addresses order by die.
        let mut touched: Vec<(usize, u64, PhysPageAddr)> = pages
            .iter()
            .map(|&p| (p.channel, self.stripe_of(p), p))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let mut refresh = Vec::new();
        for coordinate in touched.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let stripe = coordinate[0].1;
            for data in coordinate.chunks(width) {
                // `data` holds at most `width` of the `width + 1` dies, so
                // the rotation always reaches a free one.
                let die = (0..self.scheme.stripe_width() as u64)
                    .map(|i| self.scheme.parity_die(stripe + i))
                    .find(|&d| data.iter().all(|page| page.2.die != d))
                    .unwrap_or_default();
                let parity = PhysPageAddr { die, ..data[0].2 };
                let reads = if data.len() < width {
                    // Partial-stripe write: read old parity + old data images.
                    std::iter::once(parity)
                        .chain(data.iter().map(|page| page.2))
                        .collect()
                } else {
                    Vec::new()
                };
                refresh.push(StripeRefresh { reads, parity });
            }
        }
        refresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry(dies_per_channel: usize) -> SsdGeometry {
        SsdGeometry {
            dies_per_channel,
            ..SsdGeometry::tiny()
        }
    }

    fn model() -> ParityRefreshModel {
        // 4 dies: 3 data + 1 rotating parity.
        ParityRefreshModel::new(geometry(4))
    }

    /// Page `page` of block 0, plane 0 on `die` of `channel`.
    fn at(channel: usize, die: usize, page: usize) -> PhysPageAddr {
        PhysPageAddr {
            channel,
            die,
            plane: 0,
            block: 0,
            page,
        }
    }

    #[test]
    fn partial_stripe_pays_read_modify_write() {
        let m = model();
        // Two data pages of stripe 0 (width 3): 1 parity read + 2 data
        // reads + 1 parity program.
        let r = m.refresh_for_pages(&[at(0, 0, 0), at(0, 1, 0)]);
        let c = ParityRefreshCost::of(&r);
        assert_eq!(c.stripes, 1);
        assert_eq!(c.page_reads, 3);
        assert_eq!(c.parity_programs, 1);
        // Stripe 0 parks parity on the last die; its old image is read
        // there, then each old data image on its own die.
        assert_eq!(r[0].parity, at(0, 3, 0));
        assert_eq!(r[0].reads, vec![at(0, 3, 0), at(0, 0, 0), at(0, 1, 0)]);
    }

    #[test]
    fn full_stripe_write_skips_reads() {
        let m = model();
        let r = m.refresh_for_pages(&[at(0, 0, 0), at(0, 1, 0), at(0, 2, 0)]);
        let c = ParityRefreshCost::of(&r);
        assert_eq!(c.stripes, 1);
        assert_eq!(c.page_reads, 0, "full-stripe write needs no old images");
        assert_eq!(c.parity_programs, 1);
    }

    #[test]
    fn duplicate_pages_refresh_once() {
        let m = model();
        let c = ParityRefreshCost::of(&m.refresh_for_pages(&[at(1, 2, 4); 3]));
        assert_eq!(c.stripes, 1);
        assert_eq!(c.page_reads, 2); // 1 parity + 1 distinct data page
        assert_eq!(c.parity_programs, 1);
    }

    #[test]
    fn distant_pages_touch_distinct_stripes() {
        let m = model();
        // Another page, another channel, another block: three stripes.
        let far = PhysPageAddr {
            block: 5,
            ..at(0, 0, 0)
        };
        let c = ParityRefreshCost::of(&m.refresh_for_pages(&[at(0, 0, 0), at(0, 0, 3), far]));
        assert_eq!(c.stripes, 3);
        assert_eq!(c.parity_programs, 3);
        assert_eq!(c.page_reads, 3 * 2);
        // Aggregation is component-wise.
        let twice = c.merge(&c);
        assert_eq!(twice.stripes, 6);
    }

    #[test]
    fn parity_follows_the_rotation_and_skips_data_dies() {
        let m = model();
        // Stripe 1's rotation starts at die 2; with die 2 rewritten, its
        // parity moves on to die 1.
        let r = m.refresh_for_pages(&[at(0, 0, 1)]);
        assert_eq!(r[0].parity, at(0, 2, 1));
        let r = m.refresh_for_pages(&[at(0, 2, 1)]);
        assert_eq!(r[0].parity, at(0, 1, 1));
    }

    #[test]
    fn a_coordinate_fuller_than_a_stripe_splits_in_die_order() {
        let m = model();
        // All four dies of one coordinate rewritten: dies 0-2 fill one
        // stripe, die 3 starts the next.
        let pages: Vec<PhysPageAddr> = (0..4).map(|die| at(2, die, 0)).collect();
        let r = m.refresh_for_pages(&pages);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].parity, at(2, 3, 0));
        assert!(r[0].reads.is_empty());
        assert_eq!(r[1].parity, at(2, 2, 0), "never on die 3, its data's die");
        assert_eq!(r[1].reads, vec![at(2, 2, 0), at(2, 3, 0)]);
    }

    #[test]
    fn with_two_dies_every_page_is_its_own_stripe() {
        let m = ParityRefreshModel::new(geometry(2));
        let pages = [at(0, 0, 0), at(0, 1, 0), at(3, 1, 7)];
        let r = m.refresh_for_pages(&pages);
        assert_eq!(ParityRefreshCost::of(&r).stripes, 3);
        for (stripe, page) in r.iter().zip(pages) {
            assert!(stripe.reads.is_empty());
            assert_eq!(
                stripe.parity,
                PhysPageAddr {
                    die: 1 - page.die,
                    ..page
                }
            );
        }
    }
}
