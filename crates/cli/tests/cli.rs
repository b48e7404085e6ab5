//! End-to-end tests of the `repro` binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn repro_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn write_fasta(name: &str, contents: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("repro-cli-test-{name}-{}.fa", std::process::id()));
    std::fs::write(&path, contents).expect("write temp fasta");
    path
}

#[test]
fn analyzes_dna_repeat_file() {
    let path = write_fasta("toy", ">toy repeat\nATGCATGCATGC\n");
    let out = repro_bin()
        .args(["--alphabet", "dna", "--tops", "3"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(">toy repeat (12 residues"));
    assert!(stdout.contains("score      8"));
    assert!(stdout.contains("period Some(4)"));
    let _ = std::fs::remove_file(path);
}

/// `--open 40000` passes the score-range check but not the `i16` lane
/// kernels' gap bound: every engine must answer it (the SIMD ones on
/// their wide path) exactly as `--engine seq` does.
#[test]
fn every_engine_matches_seq_with_a_gap_open_past_i16() {
    let path = write_fasta("wide-open", ">t\nATGCATGCATGCATGCAATGCATGCCATGCATGCATGC\n");
    let run = |engine: &str| {
        let out = repro_bin()
            .args(["--alphabet", "dna", "--tops", "3", "--open", "40000"])
            .args(["--engine", engine])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "--engine {engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout
            .lines()
            .filter(|l| !l.starts_with("work:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let want = run("seq");
    assert!(want.contains("top   3"), "{want}");
    let engines = [
        "simd",
        "simd4",
        "simd8",
        "simd16",
        "simd-threads:2",
        "threads:2",
        "cluster:2",
        "hybrid:2:2",
        "legacy",
    ];
    for engine in engines {
        assert_eq!(run(engine), want, "--engine {engine}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn reads_stdin_with_dash() {
    let mut child = repro_bin()
        .args(["--alphabet", "dna", "--tops", "2", "--quiet", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b">x\nACGGTACGGTACGGT\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("repeats: period"));
    // --quiet suppresses the per-alignment listing.
    assert!(!stdout.contains("top   1"));
}

#[test]
fn engines_give_identical_answers() {
    let path = write_fasta("engines", ">r\nACGGTACGGTAACGGTACGGT\n");
    let mut outputs = Vec::new();
    for engine in [
        "seq",
        "simd",
        "simd4",
        "simd8",
        "simd16",
        "simd-threads:2",
        "threads:2",
        "cluster:2",
        "hybrid:2:2",
        "legacy",
    ] {
        let out = repro_bin()
            .args(["--alphabet", "dna", "--tops", "4", "--engine", engine])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{engine} failed");
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        // Strip the timing line, which legitimately differs.
        let stable: String = text.lines().filter(|l| !l.starts_with("work:")).collect();
        outputs.push((engine, stable));
    }
    for w in outputs.windows(2) {
        assert_eq!(w[0].1, w[1].1, "{} vs {}", w[0].0, w[1].0);
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn unsupported_lane_width_is_a_clean_typed_error() {
    // SSE2 registers hold at most 8 i16 lanes, so pinning the path to
    // sse2 while asking for 16 lanes must fail gracefully on *every*
    // x86-64 machine (and on other machines the sse2 path itself is
    // unavailable — also a clean, path-naming error). Never a panic.
    let path = write_fasta("lanes16", ">r\nACGGTACGGTACGGT\n");
    let out = repro_bin()
        .args([
            "--alphabet",
            "dna",
            "--engine",
            "simd",
            "--dispatch",
            "sse2",
            "--lanes",
            "16",
        ])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sse2"), "stderr: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "must be a diagnostic, not a panic: {stderr}"
    );
    let _ = std::fs::remove_file(path);

    // A width outside {4, 8, 16} is rejected at parse time.
    let out = repro_bin()
        .args(["--engine", "simd", "--lanes", "32", "x.fa"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported lane width 32"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = repro_bin()
        .arg("/nonexistent/genome.fa")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
}

#[test]
fn bad_flags_are_rejected() {
    for args in [
        vec!["--engine", "warp-drive", "x.fa"],
        vec!["--tops", "several", "x.fa"],
        vec!["--alphabet", "klingon", "x.fa"],
        vec!["--engine", "cluster:0", "x.fa"],
        vec!["--engine", "threads:0", "x.fa"],
        vec!["--engine", "hybrid:1:1", "x.fa"],
        vec![],
    ] {
        let out = repro_bin().args(&args).output().expect("binary runs");
        assert!(!out.status.success(), "args {args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().filter(|l| !l.trim().is_empty()).count() <= 2,
            "args {args:?}: diagnostic should be short, got: {stderr}"
        );
    }
}

#[test]
fn bad_residues_are_a_clean_error() {
    let path = write_fasta("residues", ">r\nACGT!!ACGT\n");
    let out = repro_bin()
        .args(["--alphabet", "dna"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid residue"), "stderr: {stderr}");
    assert!(stderr.contains("line 2"), "stderr: {stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn empty_input_is_a_clean_error() {
    let path = write_fasta("empty", "");
    let out = repro_bin()
        .args(["--alphabet", "dna"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no FASTA records"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn malformed_fasta_is_a_clean_error() {
    let path = write_fasta("bad", "ACGT without header\n");
    let out = repro_bin()
        .args(["--alphabet", "dna"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("FASTA"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn generate_then_analyze_roundtrip() {
    // Generate a tandem workload, then feed it straight back in.
    let gen = repro_bin()
        .args(["--generate", "tandem:20:5:7"])
        .output()
        .expect("binary runs");
    assert!(gen.status.success());
    let fasta = String::from_utf8(gen.stdout).unwrap();
    assert!(fasta.starts_with(">tandem unit=20 copies=5 seed=7"));

    let mut child = repro_bin()
        .args([
            "--alphabet",
            "dna",
            "--tops",
            "6",
            "--consensus",
            "--cigar",
            "-",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(fasta.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CIGAR"));
    assert!(stdout.contains("consensus ("));
    assert!(stdout.contains("period Some("));
}

#[test]
fn generate_titin_and_bad_specs() {
    let out = repro_bin()
        .args(["--generate", "titin:150:3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let fasta = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        fasta
            .lines()
            .filter(|l| !l.starts_with('>'))
            .map(|l| l.len())
            .sum::<usize>(),
        150
    );

    for bad in ["titin:abc:1", "nonsense:1:2", "tandem:5"] {
        let out = repro_bin()
            .args(["--generate", bad])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{bad} should fail");
    }
}

#[test]
fn generate_island_matches_its_spec() {
    // The e2e_speed fixture: copies × unit inside two explicit flanks,
    // spacers bounded by the unit length. Total length is therefore
    // bracketed by the spec even though spacers are random.
    let out = repro_bin()
        .args(["--generate", "island:30:4:150:1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let fasta = String::from_utf8_lossy(&out.stdout);
    assert!(fasta.starts_with(">repeat-island unit=30 copies=4 flank=150 seed=1"));
    let len: usize = fasta
        .lines()
        .filter(|l| !l.starts_with('>'))
        .map(|l| l.len())
        .sum();
    // 2 flanks + 4 units + 3 spacers of 15..=30 residues.
    assert!((465..=510).contains(&len), "unexpected island length {len}");
}

#[test]
fn gff_output() {
    let path = write_fasta("gff", ">chrT extra words\nATGCATGCATGCATGC\n");
    let out = repro_bin()
        .args(["--alphabet", "dna", "--tops", "4", "--quiet", "--gff"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("##gff-version 3"));
    assert!(stdout.contains("chrT\trepro\trepeat_unit\t1\t4\t"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn low_memory_flag_matches_default() {
    let path = write_fasta("lowmem", ">r\nATGCATGCATGCATGC\n");
    let normal = repro_bin()
        .args(["--alphabet", "dna", "--tops", "3"])
        .arg(&path)
        .output()
        .unwrap();
    let low = repro_bin()
        .args(["--alphabet", "dna", "--tops", "3", "--low-memory"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(normal.status.success() && low.status.success());
    let strip = |b: &[u8]| -> String {
        String::from_utf8_lossy(b)
            .lines()
            .filter(|l| !l.starts_with("work:"))
            .collect()
    };
    assert_eq!(strip(&normal.stdout), strip(&low.stdout));
    let _ = std::fs::remove_file(path);
}

#[test]
fn custom_matrix_file() {
    let matrix = std::env::temp_dir().join(format!("repro-cli-matrix-{}.txt", std::process::id()));
    std::fs::write(
        &matrix,
        "   A  C  G  T\nA  5 -4 -4 -4\nC -4  5 -4 -4\nG -4 -4  5 -4\nT -4 -4 -4  5\n",
    )
    .unwrap();
    let path = write_fasta("matrix", ">m\nATGCATGCATGC\n");
    let out = repro_bin()
        .args(["--alphabet", "dna", "--tops", "1", "--matrix"])
        .arg(&matrix)
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // 4 matches at +5 each.
    assert!(String::from_utf8_lossy(&out.stdout).contains("score     20"));
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(matrix);
}

/// A matrix file with a column whose row is missing used to panic in
/// the parser's symmetry assertion; it must be the usual one-line error.
#[test]
fn asymmetric_matrix_file_is_a_typed_error() {
    let matrix = std::env::temp_dir().join(format!(
        "repro-cli-skewed-matrix-{}.txt",
        std::process::id()
    ));
    std::fs::write(
        &matrix,
        "   A  C  G  T\nA  5 -4 -4 -4\nC -4  5 -4 -4\nG -4 -4  5 -4\n",
    )
    .unwrap();
    let path = write_fasta("skewed-matrix", ">m\nATGCATGCATGC\n");
    let out = repro_bin()
        .args(["--alphabet", "dna", "--tops", "1", "--matrix"])
        .arg(&matrix)
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(
        stderr.contains("bad matrix file") && stderr.contains("not symmetric: A/T and T/A differ"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(matrix);
}

#[test]
fn overflowing_scoring_is_a_one_line_error() {
    let path = write_fasta("score-range", ">m\nATGCATGCATGC\n");
    for engine in ["seq", "simd16", "cluster:2"] {
        let out = repro_bin()
            .args(["--alphabet", "dna", "--tops", "1", "--engine", engine])
            .args(["--match", "2000000000", "--extend", "1000000000"])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "engine {engine}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
        assert!(
            stderr.contains("could overflow 32 bits"),
            "stderr: {stderr}"
        );
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn proc_transport_agrees_with_sim_end_to_end() {
    let path = write_fasta("proc-vs-sim", ">toy repeat\nATGCATGCATGCATGC\n");
    let base = ["--alphabet", "dna", "--tops", "3", "--engine", "cluster:2"];
    let sim = repro_bin().args(base).arg(&path).output().unwrap();
    let proc = repro_bin()
        .args(base)
        .args(["--transport", "proc"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        sim.status.success() && proc.status.success(),
        "sim stderr: {}\nproc stderr: {}",
        String::from_utf8_lossy(&sim.stderr),
        String::from_utf8_lossy(&proc.stderr)
    );
    // Identical analysis either way; only the wall-clock line differs.
    let strip = |b: &[u8]| -> String {
        String::from_utf8_lossy(b)
            .lines()
            .filter(|l| !l.starts_with("work:"))
            .collect()
    };
    assert_eq!(strip(&sim.stdout), strip(&proc.stdout));
    let _ = std::fs::remove_file(path);
}

#[test]
fn worker_subcommand_requires_connect() {
    let out = repro_bin().arg("worker").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--connect"));
}

/// Spawn the real binary as a worker process against an in-test hub:
/// the worker must join, take the job greeting, announce IDLE, serve a
/// first-pass task of a lane pack, and exit 0 on DONE — the full
/// cross-process protocol, driven from the master's side of the wire.
#[test]
fn worker_subcommand_serves_a_real_master_over_sockets() {
    use repro::align::{NoMask, StoredRow};
    use repro::cluster::protocol::{tag, JobMsg, ResultMsg, TaskItem, TaskMsg};
    use repro::core::{PackUnit, ScoredSeq};
    use repro::simd::GroupSweeper;
    use repro::xmpi::socket::SocketHub;
    use repro::xmpi::Comm;
    use repro::{select, LaneWidth, Scoring, Seq};
    use std::time::{Duration, Instant};

    let seq = Seq::dna("ATGCATGCATGC").unwrap();
    let scoring = Scoring::dna_example();
    let hub = SocketHub::bind("127.0.0.1:0").unwrap();
    // Packs of four: unit 1 is splits 5–8.
    let job = JobMsg {
        count: 3,
        seq: seq.clone(),
        scoring: scoring.clone(),
        deadline_ms: 10_000,
        checkpoint_budget: None,
        lanes: LaneWidth::X4,
    };
    let sweeper = GroupSweeper::new(&seq, &scoring, select(Some(job.lanes), None).unwrap());
    let packs = PackUnit::new(sweeper, None);
    let payload = job.encode();
    hub.add_greeting(tag::JOB, &payload);
    hub.add_greeting(tag::JOB, &payload);

    let mut child = repro_bin()
        .args(["worker", "--connect", &hub.addr().to_string()])
        .stdout(Stdio::null())
        .spawn()
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(15);
    // The worker joins, decodes the job, and announces itself IDLE.
    loop {
        match hub.recv_timeout(Duration::from_millis(200)) {
            Ok(m) if m.tag == tag::IDLE => break,
            Ok(_) => {}
            Err(_) if Instant::now() < deadline => {}
            Err(e) => panic!("no IDLE from the worker process: {e:?}"),
        }
    }

    // Hand it a first-pass task; its RESULT frame holds the one result,
    // which must carry the bottom rows as stored.
    let task = TaskMsg::single(
        0,
        TaskItem {
            unit: 1,
            attempt: 1,
            first: true,
            bound: repro::align::Score::MAX,
            rows: vec![],
        },
    );
    hub.send(1, tag::TASK, task.encode()).unwrap();
    let res = loop {
        match hub.recv_timeout(Duration::from_millis(200)) {
            Ok(m) if m.tag == tag::RESULT => break ResultMsg::decode(&m.payload, &packs).unwrap(),
            Ok(_) => {}
            Err(_) if Instant::now() < deadline => {}
            Err(e) => panic!("no RESULT from the worker process: {e:?}"),
        }
    };
    assert_eq!((res.unit, res.attempt), (1, 1));
    let input = ScoredSeq::new(&seq, &scoring);
    let clean = |r| StoredRow::encode(&input.split(r).last_row(NoMask).row);
    let want: Vec<_> = packs.splits(1).map(|r| (r, clean(r))).collect();
    assert_eq!(res.rows, want, "first pass must return its rows");

    // DONE sends it home; the process exits cleanly.
    hub.send(1, tag::DONE, vec![]).unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "worker exit: {status:?}");
}
