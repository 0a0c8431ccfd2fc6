//! Human-readable renderings of placements: a reconfiguration timeline and
//! per-interval chip floorplans.

use crate::{Dim, Instance, Placement};

/// The widest Gantt chart and floorplan drawn, in characters. A longer
/// chart is drawn to scale; a larger chip's floorplan is not drawn.
const MAX_CELLS: u64 = 120;

/// Renders a Gantt-style timeline: one row per task, `#` for cycles where
/// the task executes. Past 120 cycles each column covers
/// `⌈makespan / 120⌉` cycles, marked `#` when the task executes in any of
/// them, and the header says so.
///
/// # Example
///
/// ```
/// use recopack_model::{render, Chip, Instance, Placement, Task};
///
/// let instance = Instance::builder()
///     .chip(Chip::square(2))
///     .horizon(4)
///     .task(Task::new("a", 2, 2, 2))
///     .task(Task::new("b", 2, 2, 2))
///     .precedence("a", "b")
///     .build()?;
/// let placement = Placement::new(vec![[0, 0, 0], [0, 0, 2]], &instance);
/// let gantt = render::gantt(&placement, &instance);
/// assert!(gantt.contains("a"));
/// assert!(gantt.lines().count() >= 3);
/// # Ok::<(), recopack_model::BuildError>(())
/// ```
pub fn gantt(placement: &Placement, instance: &Instance) -> String {
    let span = placement.makespan().max(1);
    let scale = span.div_ceil(MAX_CELLS);
    let columns = span.div_ceil(scale);
    let name_width = instance
        .tasks()
        .iter()
        .map(|t| t.name().len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    out.push_str(&format!("{:>name_width$} | ", "task"));
    for column in 0..columns {
        out.push(char::from_digit((column % 10) as u32, 10).expect("digit"));
    }
    if scale > 1 {
        out.push_str(&format!("  (1 column = {scale} cycles)"));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:->name_width$}-+-{}\n",
        "",
        "-".repeat(columns as usize)
    ));
    for (id, b) in placement.boxes().iter().enumerate() {
        let (s, e) = (b.start(Dim::Time), b.end(Dim::Time));
        let row: String = (0..columns)
            .map(|column| {
                let (from, to) = (column * scale, (column + 1).saturating_mul(scale));
                if s < to && from < e {
                    '#'
                } else {
                    '.'
                }
            })
            .collect();
        out.push_str(&format!(
            "{:>name_width$} | {row}  @({},{})\n",
            instance.task(id).name(),
            b.origin[0],
            b.origin[1],
        ));
    }
    out
}

/// Renders the chip floorplan during the time interval `[from, to)`: a
/// character grid where each cell shows the occupying task's letter, `.` for
/// free cells. Tasks are lettered `a`, `b`, … by id (wrapping after 52).
///
/// Returns `None` when some task only partially overlaps the interval —
/// the floorplan is only well-defined for intervals between reconfiguration
/// events (use [`events`] to enumerate them). A chip wider or taller than
/// 120 cells gets a one-line note in place of the grid.
pub fn floorplan(placement: &Placement, instance: &Instance, from: u64, to: u64) -> Option<String> {
    const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    let chip = instance.chip();
    let mut running = Vec::new();
    for (id, b) in placement.boxes().iter().enumerate() {
        let (s, e) = (b.start(Dim::Time), b.end(Dim::Time));
        if s <= from && to <= e {
            running.push((id, b));
        } else if from < e && s < to {
            return None;
        }
    }
    if chip.width() > MAX_CELLS || chip.height() > MAX_CELLS {
        return Some(format!(
            "({chip} chip: floorplan not drawn past {MAX_CELLS} cells a side)\n"
        ));
    }
    let mut grid = vec![b'.'; (chip.width() * chip.height()) as usize];
    for (id, b) in running {
        let letter = LETTERS[id % LETTERS.len()];
        for y in b.start(Dim::Y)..b.end(Dim::Y) {
            for x in b.start(Dim::X)..b.end(Dim::X) {
                grid[(y * chip.width() + x) as usize] = letter;
            }
        }
    }
    let mut out = String::new();
    for y in 0..chip.height() {
        let row = &grid[(y * chip.width()) as usize..((y + 1) * chip.width()) as usize];
        out.push_str(std::str::from_utf8(row).expect("ascii grid"));
        out.push('\n');
    }
    Some(out)
}

/// The reconfiguration event times of a placement: every distinct task start
/// or end, sorted. Consecutive events bound intervals with a constant
/// floorplan.
pub fn events(placement: &Placement) -> Vec<u64> {
    let mut times: Vec<u64> = placement
        .boxes()
        .iter()
        .flat_map(|b| [b.start(Dim::Time), b.end(Dim::Time)])
        .collect();
    times.sort_unstable();
    times.dedup();
    times
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chip, Task};

    fn setup() -> (Instance, Placement) {
        let instance = Instance::builder()
            .chip(Chip::new(4, 2))
            .horizon(4)
            .task(Task::new("alpha", 2, 2, 2))
            .task(Task::new("b", 2, 2, 3))
            .build()
            .expect("valid");
        let placement = Placement::new(vec![[0, 0, 0], [2, 0, 0]], &instance);
        assert_eq!(placement.verify(&instance), Ok(()));
        (instance, placement)
    }

    #[test]
    fn gantt_marks_execution_cycles() {
        let (i, p) = setup();
        let g = gantt(&p, &i);
        let alpha_row = g.lines().find(|l| l.contains("alpha")).expect("row");
        assert!(alpha_row.contains("##."));
        let b_row = g
            .lines()
            .find(|l| l.trim_start().starts_with("b "))
            .expect("row");
        assert!(b_row.contains("###"));
    }

    #[test]
    fn floorplan_shows_letters() {
        let (i, p) = setup();
        let plan = floorplan(&p, &i, 0, 2).expect("constant interval");
        assert_eq!(plan, "aabb\naabb\n");
        // After alpha ends, only b remains.
        let plan = floorplan(&p, &i, 2, 3).expect("constant interval");
        assert_eq!(plan, "..bb\n..bb\n");
        // Interval crossing alpha's end is not constant.
        assert_eq!(floorplan(&p, &i, 1, 3), None);
    }

    #[test]
    fn long_charts_are_drawn_to_scale() {
        let instance = |duration| {
            Instance::builder()
                .chip(Chip::new(2, 1))
                .horizon(2 * duration)
                .task(Task::new("a", 1, 1, duration))
                .task(Task::new("b", 1, 1, duration))
                .build()
                .expect("valid")
        };
        // Up to 120 cycles, one column per cycle.
        let i = instance(60);
        let g = gantt(&Placement::new(vec![[0, 0, 0], [0, 0, 60]], &i), &i);
        assert!(!g.contains("column ="), "{g}");
        assert!(g.contains(&format!("{}{}  @", ".".repeat(60), "#".repeat(60))));
        // 1000 cycles: 112 columns of 9 cycles; the column holding cycle
        // 500 shows both tasks.
        let i = instance(500);
        let g = gantt(&Placement::new(vec![[0, 0, 0], [0, 0, 500]], &i), &i);
        assert!(g.contains("  (1 column = 9 cycles)\n"), "{g}");
        assert!(g.contains(&format!("{}{}  @", "#".repeat(56), ".".repeat(56))));
        assert!(g.contains(&format!("{}{}  @", ".".repeat(55), "#".repeat(57))));
        // A 10^12-cycle task needs no allocation per cycle.
        let i = instance(1_000_000_000_000);
        let g = gantt(&Placement::new(vec![[0, 0, 0], [1, 0, 0]], &i), &i);
        assert!(g.contains("(1 column = 8333333334 cycles)"), "{g}");
        assert!(g.contains(&format!("{}  @(1,0)", "#".repeat(120))));
    }

    #[test]
    fn huge_chips_get_a_note_instead_of_a_floorplan() {
        let instance = Instance::builder()
            .chip(Chip::square(1_000_000_000))
            .horizon(3)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 2, 2, 1))
            .build()
            .expect("valid");
        let placement = Placement::new(vec![[0, 0, 0], [2, 0, 0]], &instance);
        assert_eq!(
            floorplan(&placement, &instance, 0, 1).as_deref(),
            Some("(1000000000x1000000000 chip: floorplan not drawn past 120 cells a side)\n")
        );
        // An interval that is not constant is still refused.
        assert_eq!(floorplan(&placement, &instance, 0, 2), None);
    }

    #[test]
    fn events_are_distinct_sorted() {
        let (_, p) = setup();
        assert_eq!(events(&p), vec![0, 2, 3]);
    }

    #[test]
    fn empty_placement_renders() {
        let i = Instance::builder()
            .chip(Chip::square(2))
            .horizon(2)
            .build()
            .expect("valid");
        let p = Placement::new(vec![], &i);
        assert!(gantt(&p, &i).contains("task"));
        assert_eq!(floorplan(&p, &i, 0, 1).expect("empty"), "..\n..\n");
        assert!(events(&p).is_empty());
    }
}

/// Renders the whole space-time placement as an SVG document: one chip
/// floorplan panel per reconfiguration interval, tasks as labeled rectangles
/// with stable per-task colors, plus a caption per panel.
///
/// Pure string generation — no drawing dependencies. The output is a valid
/// standalone `.svg` file.
pub fn svg(placement: &Placement, instance: &Instance) -> String {
    const CELL: u64 = 8; // pixels per chip cell
    const GAP: u64 = 18; // between panels
    const CAPTION: u64 = 14;
    let chip = instance.chip();
    let events = events(placement);
    let intervals: Vec<(u64, u64)> = events.windows(2).map(|w| (w[0], w[1])).collect();
    let panels = intervals.len().max(1) as u64;
    let panel_w = chip.width() * CELL;
    let panel_h = chip.height() * CELL;
    let width = panels * (panel_w + GAP) + GAP;
    let height = panel_h + CAPTION + 2 * GAP;

    let color = |id: usize| -> String {
        // Evenly spaced hues, fixed saturation/lightness: stable and legible.
        let hue = (id * 137) % 360;
        format!("hsl({hue}, 62%, 68%)")
    };

    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\" font-family=\"monospace\" font-size=\"10\">\n"
    ));
    out.push_str(&format!(
        "  <rect width=\"{width}\" height=\"{height}\" fill=\"white\"/>\n"
    ));
    for (k, &(from, to)) in intervals.iter().enumerate() {
        let ox = GAP + k as u64 * (panel_w + GAP);
        let oy = GAP;
        out.push_str(&format!(
            "  <g transform=\"translate({ox},{oy})\">\n    <rect width=\"{panel_w}\" \
             height=\"{panel_h}\" fill=\"#f4f4f4\" stroke=\"#333\"/>\n"
        ));
        for (id, b) in placement.boxes().iter().enumerate() {
            let (s, e) = (b.start(Dim::Time), b.end(Dim::Time));
            if !(s <= from && to <= e) {
                continue;
            }
            let x = b.start(Dim::X) * CELL;
            let y = b.start(Dim::Y) * CELL;
            let w = (b.end(Dim::X) - b.start(Dim::X)) * CELL;
            let h = (b.end(Dim::Y) - b.start(Dim::Y)) * CELL;
            out.push_str(&format!(
                "    <rect x=\"{x}\" y=\"{y}\" width=\"{w}\" height=\"{h}\" fill=\"{}\" \
                 stroke=\"#222\"/>\n",
                color(id)
            ));
            out.push_str(&format!(
                "    <text x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
                x + w / 2,
                y + h / 2 + 3,
                xml_escape(instance.task(id).name())
            ));
        }
        out.push_str(&format!(
            "    <text x=\"0\" y=\"{}\">cycles [{from}, {to})</text>\n  </g>\n",
            panel_h + CAPTION
        ));
    }
    out.push_str("</svg>\n");
    out
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod svg_tests {
    use super::*;
    use crate::{Chip, Task};

    #[test]
    fn svg_has_one_panel_per_interval() {
        let instance = Instance::builder()
            .chip(Chip::new(4, 2))
            .horizon(4)
            .task(Task::new("alpha", 2, 2, 2))
            .task(Task::new("b", 2, 2, 3))
            .build()
            .expect("valid");
        let placement = Placement::new(vec![[0, 0, 0], [2, 0, 0]], &instance);
        let doc = svg(&placement, &instance);
        assert!(doc.starts_with("<svg"));
        assert!(doc.trim_end().ends_with("</svg>"));
        // Events 0, 2, 3 -> two intervals -> two captions.
        assert_eq!(doc.matches("cycles [").count(), 2);
        // alpha appears in the first interval only; b in both.
        assert_eq!(doc.matches(">alpha<").count(), 1);
        assert_eq!(doc.matches(">b<").count(), 2);
    }

    #[test]
    fn svg_escapes_task_names() {
        let instance = Instance::builder()
            .chip(Chip::square(2))
            .horizon(1)
            .task(Task::new("a<b&c>", 1, 1, 1))
            .build()
            .expect("valid");
        let placement = Placement::new(vec![[0, 0, 0]], &instance);
        let doc = svg(&placement, &instance);
        assert!(doc.contains("a&lt;b&amp;c&gt;"));
        assert!(!doc.contains("a<b"));
    }

    #[test]
    fn empty_placement_is_still_valid_svg() {
        let instance = Instance::builder()
            .chip(Chip::square(2))
            .horizon(1)
            .build()
            .expect("valid");
        let placement = Placement::new(vec![], &instance);
        let doc = svg(&placement, &instance);
        assert!(doc.starts_with("<svg"));
    }
}
