//! Temporal data-diversity and semantic-consistency metrics (§V-A,
//! Fig 5): per-pixel bit differences between consecutive camera frames,
//! bit diversity of float sensor payloads, and object-center shifts.

use crate::stats::percentile;
use diverseav_simworld::Image;

/// Per-pixel bit differences between two images: the number of differing
/// bits out of the 24-bit RGB value at each pixel location.
///
/// # Panics
///
/// Panics if the images have different dimensions.
pub fn pixel_bit_diffs(a: &Image, b: &Image) -> Vec<u32> {
    assert_eq!(a.width(), b.width(), "image widths differ");
    assert_eq!(a.height(), b.height(), "image heights differ");
    // A zeroed exact-size output filled by one stride-1 loop vectorizes
    // the per-byte popcounts; a `collect`, or one popcount of the packed
    // 24-bit value, measured 2–4× slower on 64×48 images.
    let mut out = vec![0u32; a.width() * a.height()];
    for (o, (pa, pb)) in out.iter_mut().zip(a.data().chunks_exact(3).zip(b.data().chunks_exact(3)))
    {
        *o = (pa[0] ^ pb[0]).count_ones()
            + (pa[1] ^ pb[1]).count_ones()
            + (pa[2] ^ pb[2]).count_ones();
    }
    out
}

/// Per-element bit differences between two `f32` payload slices (IMU/GPS/
/// LiDAR diversity), out of 32 bits per value.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn float_bit_diffs(a: &[f32], b: &[f32]) -> Vec<u32> {
    assert_eq!(a.len(), b.len(), "payload lengths differ");
    a.iter().zip(b.iter()).map(|(&x, &y)| (x.to_bits() ^ y.to_bits()).count_ones()).collect()
}

/// Summary of a diversity distribution: the percentiles the paper reports.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DiversityStats {
    /// 50th percentile.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Mean.
    pub mean: f64,
}

impl DiversityStats {
    /// Summarize a bit-difference sample.
    ///
    /// # Panics
    ///
    /// Panics if `diffs` is empty.
    pub fn of(diffs: &[u32]) -> DiversityStats {
        let data: Vec<f64> = diffs.iter().map(|&d| d as f64).collect();
        DiversityStats {
            p50: percentile(&data, 50.0),
            p90: percentile(&data, 90.0),
            mean: crate::stats::mean(&data),
        }
    }
}

/// Shift distances between matched points of consecutive frames (object
/// centers in pixels, or world positions in meters).
pub fn matched_shifts(prev: &[(usize, f64, f64)], next: &[(usize, f64, f64)]) -> Vec<f64> {
    let mut shifts = Vec::new();
    for &(id, x0, y0) in prev {
        if let Some(&(_, x1, y1)) = next.iter().find(|&&(i, _, _)| i == id) {
            shifts.push(((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt());
        }
    }
    shifts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_images_have_zero_diversity() {
        let img = Image::new(4, 4);
        let diffs = pixel_bit_diffs(&img, &img);
        assert_eq!(diffs.len(), 16);
        assert!(diffs.iter().all(|&d| d == 0));
    }

    #[test]
    fn single_channel_lsb_flip_counts_one_bit() {
        let a = Image::new(2, 2);
        let mut b = Image::new(2, 2);
        b.set_pixel(1, 1, [1, 0, 0]);
        let diffs = pixel_bit_diffs(&a, &b);
        assert_eq!(diffs.iter().sum::<u32>(), 1);
        assert_eq!(diffs[3], 1);
    }

    #[test]
    fn paper_example_95_to_96_is_18_bits() {
        // §III-D: a 24-bit RGB value changing from 95 per channel to 96
        // per channel flips 18 bits (6 per channel: 0101_1111 → 0110_0000).
        let mut a = Image::new(1, 1);
        let mut b = Image::new(1, 1);
        a.set_pixel(0, 0, [95, 95, 95]);
        b.set_pixel(0, 0, [96, 96, 96]);
        assert_eq!(pixel_bit_diffs(&a, &b)[0], 18);
    }

    /// One count per pixel, equal to the per-channel definition (the
    /// popcount of each XOR-ed channel byte, summed), on random images of
    /// several sizes with identical and fully inverted pixels.
    #[test]
    fn pixel_bit_diffs_match_per_channel_definition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB17D);
        for (w, h) in [(1, 1), (7, 5), (64, 48), (100, 75)] {
            let mut a = Image::new(w, h);
            let mut b = Image::new(w, h);
            a.data_mut().iter_mut().for_each(|x| *x = rng.gen::<u64>() as u8);
            b.data_mut().iter_mut().for_each(|x| *x = rng.gen::<u64>() as u8);
            // Some identical and some fully inverted pixels.
            b.data_mut()[..3].copy_from_slice(&a.data()[..3]);
            let inverted: Vec<u8> = a.data()[a.data().len() - 3..].iter().map(|x| !x).collect();
            let n = b.data().len();
            b.data_mut()[n - 3..].copy_from_slice(&inverted);
            let want: Vec<u32> = a
                .data()
                .chunks_exact(3)
                .zip(b.data().chunks_exact(3))
                .map(|(pa, pb)| pa.iter().zip(pb).map(|(&x, &y)| (x ^ y).count_ones()).sum())
                .collect();
            let got = pixel_bit_diffs(&a, &b);
            assert_eq!(got, want, "{w}x{h}");
            assert_eq!(got.len(), w * h);
            assert_eq!(got[w * h - 1], 24);
            if w * h > 1 {
                assert_eq!(got[0], 0);
            }
        }
    }

    #[test]
    fn float_bit_diffs_count_xor_bits() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.0f32, 2.5, 3.0];
        let d = float_bit_diffs(&a, &b);
        assert_eq!(d[0], 0);
        assert!(d[1] > 0);
        assert_eq!(d[2], 0);
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn mismatched_images_panic() {
        let _ = pixel_bit_diffs(&Image::new(2, 2), &Image::new(3, 2));
    }

    #[test]
    fn diversity_stats_percentiles() {
        let diffs: Vec<u32> = (0..=10).collect();
        let s = DiversityStats::of(&diffs);
        assert_eq!(s.p50, 5.0);
        assert_eq!(s.p90, 9.0);
        assert_eq!(s.mean, 5.0);
    }

    #[test]
    fn matched_shifts_pairs_by_id() {
        let prev = [(0usize, 0.0, 0.0), (1, 10.0, 10.0)];
        let next = [(1usize, 13.0, 14.0), (2, 0.0, 0.0)];
        let shifts = matched_shifts(&prev, &next);
        assert_eq!(shifts.len(), 1, "only object 1 appears in both frames");
        assert!((shifts[0] - 5.0).abs() < 1e-12);
    }
}
