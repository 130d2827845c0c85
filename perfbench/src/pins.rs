//! Pinned results. Every simulated result of a workload is a pure
//! function of its explicit seeds, so these values hold on any machine,
//! thread count and `--seed`. A change that alters simulated results on
//! purpose re-pins them here and says so.

use crate::Size;
use diverseav_faultinj::TableRow;

const fn row(
    active: usize,
    hang_crash: usize,
    total: usize,
    accidents: usize,
    traj_violations: usize,
) -> TableRow {
    TableRow { active, hang_crash, total, accidents, traj_violations }
}

/// `campaign_rr`: results digest and the Table-I row at td = 2 m.
pub struct RrPins {
    pub digest: u64,
    pub row: TableRow,
}

pub fn rr(size: Size) -> RrPins {
    match size {
        Size::Full => RrPins { digest: 0xe7ec_f0dc_9629_183f, row: row(16, 1, 16, 0, 0) },
        Size::Tiny => RrPins { digest: 0x0e1f_be39_bdb4_4559, row: row(2, 0, 2, 0, 0) },
    }
}

/// `campaign_fd_sharded`: results digest and the merged Table-I rows.
pub struct FdPins {
    pub digest: u64,
    pub rows: &'static [(&'static str, TableRow)],
}

const FD_CPU: (&str, TableRow) = ("CPU-permanent GC [fd]", row(21, 19, 24, 0, 0));
const FD_GPU: (&str, TableRow) = ("GPU-permanent GC [fd]", row(19, 6, 24, 0, 4));

pub fn fd(size: Size) -> FdPins {
    match size {
        Size::Full => FdPins { digest: 0x6a87_70e7_dfb7_86fc, rows: &[FD_CPU, FD_GPU] },
        Size::Tiny => FdPins { digest: 0x4f75_a508_d0e5_d320, rows: &[FD_CPU] },
    }
}

/// `sensing_fig5`: results digest and the camera bit-diff percentiles.
pub struct Fig5Pins {
    pub digest: u64,
    pub camera_p50: f64,
    pub camera_p90: f64,
}

pub fn fig5(size: Size) -> Fig5Pins {
    match size {
        Size::Full => Fig5Pins { digest: 0x630e_4f99_1f0f_4c5c, camera_p50: 5.0, camera_p90: 9.0 },
        Size::Tiny => Fig5Pins { digest: 0xa5f0_6d08_fbe7_75d2, camera_p50: 6.0, camera_p90: 10.0 },
    }
}
