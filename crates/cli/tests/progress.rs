//! The `--progress` status line of a real `recopack` process: its final
//! line reports the solve's exact node count.

use std::process::Command;

use recopack_json::Json;

#[test]
fn final_progress_line_reports_the_solve_nodes() {
    let dir = std::env::temp_dir().join(format!("recopack-progress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Five 2x2x2 modules on a 4x4 chip with horizon 2: with bounds and
    // heuristics off, a 209-node exhaustive proof.
    let (instance, report) = (dir.join("quads.rpk"), dir.join("report.json"));
    let tasks: String = (0..5).map(|i| format!("task t{i} 2 2 2\n")).collect();
    std::fs::write(&instance, format!("chip 4 4\nhorizon 2\n{tasks}")).expect("written");
    // An explicit interval draws the line although stderr is a pipe.
    let output = Command::new(env!("CARGO_BIN_EXE_recopack"))
        .args([
            "solve",
            "--no-bounds",
            "--no-heuristics",
            "--progress=1",
            "--stats-json",
        ])
        .args([&report, &instance])
        .output()
        .expect("recopack runs");
    assert!(output.status.success(), "{output:?}");

    let report = Json::parse(&std::fs::read_to_string(&report).expect("report")).expect("JSON");
    let nodes = report.get("stats").and_then(|s| s.get("nodes"));
    let nodes = nodes.and_then(Json::as_u64).expect("stats.nodes");
    assert_eq!(nodes, 209);
    // Every redraw starts with carriage return + clear-to-end; the final
    // one is the last and ends the line.
    let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
    let last = stderr.rsplit("\r\x1b[K").next().expect("a status line");
    assert!(last.ends_with('\n'), "{stderr:?}");
    assert!(last.starts_with(&format!("nodes {nodes} (")), "{last:?}");
    std::fs::remove_dir_all(&dir).ok();
}
