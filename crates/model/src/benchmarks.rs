//! The paper's benchmark instances (§5).
//!
//! * [`de`] — the DE (differential equation) benchmark of §5.1: the classic
//!   HAL dataflow graph for one Euler step of `y'' + 3xy' + 3y = 0`, mapped
//!   to a two-module library (16×16 array multiplier, 2 cycles; 16×1 ALU,
//!   1 cycle) — Table 1 and Figure 7;
//! * [`video_codec`] — the H.261 hybrid coder/decoder of §5.2 with the
//!   three-module library (PUM 25×25, BMM 64×64, DCTM 16×16) — Table 2.
//!
//! Both constructors return instances with placeholder containers; the
//! experiments re-target them through [`Instance::with_chip`] /
//! [`Instance::with_horizon`], and apply
//! [`Instance::with_transitive_closure`] as the paper prescribes in §5.1.

use crate::{Chip, Instance, Task};

/// Word length of the DE benchmark datapath (paper §5.1: `n = 16` bits).
pub const DE_WORD_LENGTH: u64 = 16;

/// A 16×16 array multiplier taking 2 clock cycles (paper §5.1).
fn de_multiplier(name: &str) -> Task {
    Task::new(name, DE_WORD_LENGTH, DE_WORD_LENGTH, 2)
}

/// A 16×1 ALU module (add / subtract / compare) taking 1 clock cycle
/// (paper §5.1).
fn de_alu(name: &str) -> Task {
    Task::new(name, DE_WORD_LENGTH, 1, 1)
}

/// The DE benchmark: 11 tasks of the HAL differential-equation dataflow
/// graph (paper Fig. 2), with the dependency arcs
/// `v1→v3, v2→v3, v3→v4, v4→v5, v6→v7, v7→v5, v8→v9, v10→v11`.
///
/// Operations: multiplications `v1, v2, v3, v6, v7, v8` (16×16×2), ALU
/// operations `v4, v5` (SUB), `v9, v10` (ADD), `v11` (COMP), all 16×1×1.
/// The duration-weighted longest path is `v1→v3→v4→v5` = 2+2+1+1 = 6,
/// matching §5.1 ("as the longest path in the graph has length 6, there
/// does not exist any faster schedule" than 6 cycles).
///
/// The returned instance carries `chip` and `horizon` as given; Table 1
/// solves BMP for horizons 6, 13, 14.
///
/// # Example
///
/// ```
/// use recopack_model::benchmarks::de;
/// use recopack_model::Chip;
///
/// let instance = de(Chip::square(32), 6);
/// assert_eq!(instance.task_count(), 11);
/// assert_eq!(instance.critical_path_length(), 6);
/// ```
pub fn de(chip: Chip, horizon: u64) -> Instance {
    Instance::builder()
        .chip(chip)
        .horizon(horizon)
        .task(de_multiplier("v1")) // 3 * x
        .task(de_multiplier("v2")) // u * dx
        .task(de_multiplier("v3")) // (3x) * (u dx)
        .task(de_alu("v4")) // u - 3x u dx
        .task(de_alu("v5")) // u' = (u - 3x u dx) - 3y dx
        .task(de_multiplier("v6")) // 3 * y
        .task(de_multiplier("v7")) // (3y) * dx
        .task(de_multiplier("v8")) // u * dx (for y')
        .task(de_alu("v9")) // y' = y + u dx
        .task(de_alu("v10")) // x' = x + dx
        .task(de_alu("v11")) // x' < a ?
        .precedence("v1", "v3")
        .precedence("v2", "v3")
        .precedence("v3", "v4")
        .precedence("v4", "v5")
        .precedence("v6", "v7")
        .precedence("v7", "v5")
        .precedence("v8", "v9")
        .precedence("v10", "v11")
        .build()
        .expect("the DE benchmark is a valid instance")
}

/// Normalized side length of the video codec's processor module
/// (PUM, 625 = 25×25 cells, paper §5.2).
pub const PUM_SIDE: u64 = 25;
/// Side length of the block-matching module (BMM, 64×64 cells).
pub const BMM_SIDE: u64 = 64;
/// Side length of the DCT/IDCT module (DCTM, 16×16 cells).
pub const DCTM_SIDE: u64 = 16;

/// The H.261 video-codec benchmark (paper §5.2, Figs. 8–9, Table 2).
///
/// The problem graph contains a coder subgraph (prediction error → DCT → Q →
/// RLC plus the reconstruction loop Q⁻¹ → DCT⁻¹ → + → loop filter → frame
/// memory, fed by block-matching motion estimation and motion compensation)
/// and a decoder subgraph (RLD → Q⁻¹ → IDCT → compensation → output).
///
/// **Substitution note (see DESIGN.md §5):** the paper's Fig. 9 durations are
/// only available in the companion journal paper; this reconstruction keeps
/// the paper's module library and graph structure, with durations calibrated
/// so the published results hold exactly: the duration-weighted critical path
/// is 59 cycles and the 64×64 BMM forces a 64×64 chip, yielding Table 2's
/// single Pareto point (64×64 at latency 59).
///
/// # Example
///
/// ```
/// use recopack_model::benchmarks::video_codec;
/// use recopack_model::Chip;
///
/// let instance = video_codec(Chip::square(64), 59);
/// assert_eq!(instance.critical_path_length(), 59);
/// ```
pub fn video_codec(chip: Chip, horizon: u64) -> Instance {
    let pum = |name: &str, cycles: u64| Task::new(name, PUM_SIDE, PUM_SIDE, cycles);
    let dctm = |name: &str, cycles: u64| Task::new(name, DCTM_SIDE, DCTM_SIDE, cycles);
    Instance::builder()
        .chip(chip)
        .horizon(horizon)
        // --- coder subgraph ---
        .task(pum("frame_input", 2)) // a[i]: current frame block fetch
        .task(Task::new("motion_estimation", BMM_SIDE, BMM_SIDE, 24)) // BMM
        .task(pum("motion_compensation", 4)) // g[i] -> h[i]
        .task(pum("prediction_error", 2)) // b[i] = a[i] - h[i]
        .task(dctm("dct", 8)) // c[i] = DCT(b[i])
        .task(pum("quantize", 2)) // Q
        .task(pum("run_length_code", 2)) // RLC (output)
        .task(pum("dequantize", 2)) // Q^-1
        .task(dctm("idct", 8)) // DCT^-1
        .task(pum("reconstruct", 2)) // d[i] = idct + h[i]
        .task(pum("loop_filter", 4)) // e[i]
        .task(pum("frame_memory", 1)) // f[i] write-back
        // --- decoder subgraph ---
        .task(pum("run_length_decode", 2)) // RLD
        .task(pum("dec_dequantize", 2)) // Q^-1
        .task(dctm("dec_idct", 8)) // IDCT
        .task(pum("dec_compensation", 4)) // + prev frame
        .task(pum("dec_output", 1)) // k[i]
        // coder arcs
        .precedence("frame_input", "motion_estimation")
        .precedence("motion_estimation", "motion_compensation")
        .precedence("frame_input", "prediction_error")
        .precedence("motion_compensation", "prediction_error")
        .precedence("prediction_error", "dct")
        .precedence("dct", "quantize")
        .precedence("quantize", "run_length_code")
        .precedence("quantize", "dequantize")
        .precedence("dequantize", "idct")
        .precedence("idct", "reconstruct")
        .precedence("motion_compensation", "reconstruct")
        .precedence("reconstruct", "loop_filter")
        .precedence("loop_filter", "frame_memory")
        // decoder arcs
        .precedence("run_length_decode", "dec_dequantize")
        .precedence("dec_dequantize", "dec_idct")
        .precedence("dec_idct", "dec_compensation")
        .precedence("dec_compensation", "dec_output")
        .build()
        .expect("the video codec benchmark is a valid instance")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dim;

    #[test]
    fn de_matches_paper_structure() {
        let i = de(Chip::square(32), 6);
        assert_eq!(i.task_count(), 11);
        // 6 multipliers, 5 ALU operations.
        let muls = i.tasks().iter().filter(|t| t.area() == 256).count();
        let alus = i.tasks().iter().filter(|t| t.area() == 16).count();
        assert_eq!((muls, alus), (6, 5));
        assert_eq!(i.precedence().arc_count(), 8);
        assert_eq!(i.critical_path_length(), 6);
        // A single multiplication occupies the full 16x16 chip (§5.1).
        assert_eq!(i.task(0).size(Dim::X), 16);
        assert_eq!(i.task(0).size(Dim::Y), 16);
    }

    #[test]
    fn de_transitive_closure_adds_paths() {
        let i = de(Chip::square(32), 6).with_transitive_closure();
        let v1 = i.task_id("v1").expect("exists");
        let v5 = i.task_id("v5").expect("exists");
        assert!(i.precedence().has_arc(v1, v5));
    }

    #[test]
    fn video_codec_matches_calibration() {
        let i = video_codec(Chip::square(64), 59);
        assert_eq!(i.task_count(), 17);
        assert_eq!(i.critical_path_length(), 59);
        // The BMM forces the chip: largest module is 64x64.
        let max_side = i
            .tasks()
            .iter()
            .map(|t| t.width().max(t.height()))
            .max()
            .expect("nonempty");
        assert_eq!(max_side, BMM_SIDE);
        // Two disconnected subgraphs: coder (12 tasks) + decoder (5 tasks).
        let order = i.precedence().topological_order().expect("acyclic");
        assert_eq!(order.len(), 17);
    }

    #[test]
    fn video_codec_critical_path_runs_through_the_coder_loop() {
        let i = video_codec(Chip::square(64), 59);
        let timing = i.timing();
        assert_eq!(timing.length(), 59);
        // A task lies on a critical path iff its head and tail fill it.
        for name in ["frame_input", "motion_estimation", "idct", "frame_memory"] {
            let v = i.task_id(name).expect("exists");
            assert_eq!(timing.heads()[v] + timing.tails()[v], 59, "{name}");
        }
        let first = i.task_id("frame_input").expect("exists");
        let last = i.task_id("frame_memory").expect("exists");
        assert_eq!(timing.heads()[first], 0);
        assert_eq!(timing.tails()[last], i.task(last).duration());
    }
}
