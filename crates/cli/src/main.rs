//! `repro` — command-line internal-repeat detection.
//!
//! ```text
//! repro [OPTIONS] <input.fasta | ->
//! repro --generate titin:LEN:SEED | tandem:U:C:SEED | interspersed:U:C:SEED |
//!                  sparse:U:C:SEED | island:U:C:FLANK:SEED
//! repro worker --connect HOST:PORT
//! repro trace --chrome out.json [OPTIONS] <input.fasta | ->
//!
//! Options:
//!   --alphabet dna|protein     residue alphabet         [default: protein]
//!   --tops N                   top alignments to find   [default: 10]
//!   --engine ENGINE            seq | simd | simd4 | simd8 | simd16 |
//!                              simd-threads:N | threads:N |
//!                              cluster:N | hybrid:N:T | legacy
//!                                                       [default: seq]
//!   --transport sim|proc       cluster:N message substrate: in-process
//!                              rank threads, or real TCP sockets (the
//!                              master binds a hub; workers may also
//!                              join from other processes with the
//!                              `repro worker` subcommand)
//!                                                       [default: sim]
//!   --lanes auto|4|8|16        SIMD lane width for --engine simd /
//!                              simd-threads:N            [default: auto]
//!   --dispatch auto|portable|sse2|avx2
//!                              SIMD kernel path, same engines
//!                                                       [default: auto]
//!   --match N --mismatch N     simple exchange matrix (DNA default 2/-1)
//!   --open N --extend N        affine gap penalties
//!   --matrix FILE              NCBI-format exchange matrix
//!   --pairs                    print every matched pair
//!   --cigar                    print a CIGAR per top alignment
//!   --gff                      print the repeat units as GFF3
//!   --consensus                print the repeat-unit consensus
//!   --low-memory               Appendix A linear-memory configuration
//!                              (--engine seq only)
//!   --checkpoint-budget BYTES  enable incremental realignment with a
//!                              checkpoint store of BYTES (0 = account
//!                              only; results identical either way)
//!   --no-prune                 disable seeded split pruning (on by
//!                              default; results identical either way)
//!   --quiet                    suppress the per-alignment listing
//!   --report FILE              write a structured JSON run report
//!                              (`{"reports":[…]}`, one per record)
//!   --trace FILE               write the structured event log as JSONL
//!                              (cluster/hybrid engines; see repro-obs)
//!   --progress FILE|-          stream JSONL progress heartbeats to FILE
//!                              (`-` = stderr) while the run executes
//!   --chrome FILE              export a Chrome trace-event JSON (phase
//!                              spans + worker task spans; open it in
//!                              chrome://tracing or Perfetto); needs a
//!                              single-record input
//!   --generate SPEC            emit a workload FASTA and exit
//! ```
//!
//! Reads FASTA (`-` = stdin), prints the top alignments and the repeat
//! report per record.
//!
//! `repro worker --connect HOST:PORT` turns this process into a cluster
//! worker: it joins the hub at that address, receives the job
//! description, and serves tasks until the master says DONE (exit 0) or
//! goes silent past the job's deadline. Workers may join a run that is
//! already in progress.
//!
//! `repro trace` is the same analysis pipeline with Chrome trace export
//! made mandatory: `--chrome out.json` is required, and event capture
//! is forced on so the worker task spans materialize.

use repro::align::fasta::read_fasta;
use repro::align::{Alphabet, ExchangeMatrix, GapPenalties};
use repro::{DispatchPath, Engine, LaneWidth, LegacyKernel, Repro, Scoring, Seq, Transport};
use std::process::ExitCode;

#[derive(Debug)]
struct Options {
    input: String,
    alphabet: Alphabet,
    tops: usize,
    engine: Engine,
    transport: Transport,
    lanes: Option<Option<LaneWidth>>,
    dispatch: Option<Option<DispatchPath>>,
    match_score: Option<i32>,
    mismatch_score: Option<i32>,
    open: Option<i32>,
    extend: Option<i32>,
    matrix_file: Option<String>,
    pairs: bool,
    cigar: bool,
    gff: bool,
    consensus: bool,
    low_memory: bool,
    checkpoint_budget: Option<usize>,
    no_prune: bool,
    quiet: bool,
    report: Option<String>,
    trace: Option<String>,
    progress: Option<String>,
    chrome: Option<String>,
    generate: Option<String>,
}

fn usage() -> &'static str {
    "usage: repro [--alphabet dna|protein] [--tops N] \
     [--engine seq|simd|simd4|simd8|simd16|simd-threads:N|threads:N|cluster:N|hybrid:N:T|legacy] \
     [--transport sim|proc] \
     [--lanes auto|4|8|16] [--dispatch auto|portable|sse2|avx2] \
     [--match N] [--mismatch N] [--open N] [--extend N] [--matrix FILE] \
     [--pairs] [--cigar] [--consensus] [--low-memory] [--checkpoint-budget BYTES] \
     [--no-prune] [--quiet] \
     [--report FILE] [--trace FILE] [--progress FILE|-] [--chrome FILE] \
     <input.fasta | -> | repro --generate titin:LEN:SEED | \
     repro worker --connect HOST:PORT | \
     repro trace --chrome out.json [OPTIONS] <input.fasta | ->"
}

/// `--engine simd[4|8|16]`: the SIMD engine at `width` (`None` = the
/// widest the kernel path supports), the path auto-probed.
fn simd_engine(width: Option<LaneWidth>) -> Engine {
    Engine::SimdDispatch { width, path: None }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        input: String::new(),
        alphabet: Alphabet::Protein,
        tops: 10,
        engine: Engine::Sequential,
        transport: Transport::Sim,
        lanes: None,
        dispatch: None,
        match_score: None,
        mismatch_score: None,
        open: None,
        extend: None,
        matrix_file: None,
        pairs: false,
        cigar: false,
        gff: false,
        consensus: false,
        low_memory: false,
        checkpoint_budget: None,
        no_prune: false,
        quiet: false,
        report: None,
        trace: None,
        progress: None,
        chrome: None,
        generate: None,
    };
    let mut it = args.iter();
    let mut positional = Vec::new();
    while let Some(arg) = it.next() {
        let mut next = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--alphabet" => {
                opts.alphabet = match next("--alphabet")?.as_str() {
                    "dna" => Alphabet::Dna,
                    "protein" => Alphabet::Protein,
                    other => return Err(format!("unknown alphabet {other:?}")),
                }
            }
            "--tops" => {
                opts.tops = next("--tops")?
                    .parse()
                    .map_err(|_| "--tops needs an integer".to_string())?
            }
            "--engine" => {
                let v = next("--engine")?;
                opts.engine = match v.as_str() {
                    "seq" => Engine::Sequential,
                    "simd" => simd_engine(None),
                    "simd4" => simd_engine(Some(LaneWidth::X4)),
                    "simd8" => simd_engine(Some(LaneWidth::X8)),
                    "simd16" => simd_engine(Some(LaneWidth::X16)),
                    "legacy" => Engine::Legacy(LegacyKernel::Gotoh),
                    "legacy-naive" => Engine::Legacy(LegacyKernel::Naive),
                    other => {
                        if let Some(n) = other.strip_prefix("simd-threads:") {
                            let threads: usize =
                                n.parse().map_err(|_| "bad thread count".to_string())?;
                            if threads == 0 {
                                return Err("simd-threads:N needs at least 1 thread".to_string());
                            }
                            Engine::SimdThreads {
                                threads,
                                width: None,
                                path: None,
                            }
                        } else if let Some(n) = other.strip_prefix("threads:") {
                            let threads: usize =
                                n.parse().map_err(|_| "bad thread count".to_string())?;
                            if threads == 0 {
                                return Err("threads:N needs at least 1 thread".to_string());
                            }
                            Engine::Threads(threads)
                        } else if let Some(n) = other.strip_prefix("cluster:") {
                            let workers: usize =
                                n.parse().map_err(|_| "bad worker count".to_string())?;
                            if workers == 0 {
                                return Err("cluster:N needs at least 1 worker".to_string());
                            }
                            Engine::Cluster { workers }
                        } else if let Some(spec) = other.strip_prefix("hybrid:") {
                            let (nodes, tpn) = spec
                                .split_once(':')
                                .ok_or_else(|| "hybrid needs nodes:threads".to_string())?;
                            let nodes: usize =
                                nodes.parse().map_err(|_| "bad node count".to_string())?;
                            let threads_per_node: usize = tpn
                                .parse()
                                .map_err(|_| "bad threads-per-node".to_string())?;
                            if nodes == 0 || threads_per_node == 0 || nodes * threads_per_node < 2 {
                                return Err(
                                    "hybrid:N:T needs at least 2 CPUs total (one is the master)"
                                        .to_string(),
                                );
                            }
                            Engine::Hybrid {
                                nodes,
                                threads_per_node,
                            }
                        } else {
                            return Err(format!("unknown engine {other:?}"));
                        }
                    }
                }
            }
            "--transport" => {
                opts.transport = match next("--transport")?.as_str() {
                    "sim" => Transport::Sim,
                    "proc" => Transport::Proc,
                    other => return Err(format!("--transport needs sim or proc, not {other:?}")),
                }
            }
            "--lanes" => {
                let v = next("--lanes")?;
                opts.lanes = Some(match v.as_str() {
                    "auto" => None,
                    other => {
                        let n: usize = other.parse().map_err(|_| {
                            format!("--lanes needs auto, 4, 8 or 16, not {other:?}")
                        })?;
                        Some(LaneWidth::from_lanes(n).ok_or_else(|| {
                            format!("unsupported lane width {n}: expected auto, 4, 8 or 16")
                        })?)
                    }
                });
            }
            "--dispatch" => {
                opts.dispatch = Some(match next("--dispatch")?.as_str() {
                    "auto" => None,
                    "portable" => Some(DispatchPath::Portable),
                    "sse2" => Some(DispatchPath::Sse2),
                    "avx2" => Some(DispatchPath::Avx2),
                    other => {
                        return Err(format!(
                            "--dispatch needs auto, portable, sse2 or avx2, not {other:?}"
                        ))
                    }
                });
            }
            "--match" => opts.match_score = Some(parse_i32(next("--match")?)?),
            "--mismatch" => opts.mismatch_score = Some(parse_i32(next("--mismatch")?)?),
            "--open" => opts.open = Some(parse_i32(next("--open")?)?),
            "--extend" => opts.extend = Some(parse_i32(next("--extend")?)?),
            "--matrix" => opts.matrix_file = Some(next("--matrix")?.clone()),
            "--generate" => opts.generate = Some(next("--generate")?.clone()),
            "--pairs" => opts.pairs = true,
            "--cigar" => opts.cigar = true,
            "--gff" => opts.gff = true,
            "--consensus" => opts.consensus = true,
            "--low-memory" => opts.low_memory = true,
            "--checkpoint-budget" => {
                opts.checkpoint_budget = Some(
                    next("--checkpoint-budget")?
                        .parse()
                        .map_err(|_| "--checkpoint-budget needs a byte count".to_string())?,
                )
            }
            "--no-prune" => opts.no_prune = true,
            "--quiet" => opts.quiet = true,
            "--report" => opts.report = Some(next("--report")?.clone()),
            "--trace" => opts.trace = Some(next("--trace")?.clone()),
            "--progress" => opts.progress = Some(next("--progress")?.clone()),
            "--chrome" => opts.chrome = Some(next("--chrome")?.clone()),
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}\n{}", usage()))
            }
            other => positional.push(other.to_string()),
        }
    }
    if opts.lanes.is_some() || opts.dispatch.is_some() {
        // Fold the kernel knobs into the engine; they only make sense for
        // the runtime-dispatched engines.
        match &mut opts.engine {
            Engine::SimdDispatch { width, path } | Engine::SimdThreads { width, path, .. } => {
                if let Some(w) = opts.lanes {
                    *width = w;
                }
                if let Some(p) = opts.dispatch {
                    *path = p;
                }
            }
            _ => {
                return Err(
                    "--lanes/--dispatch apply only to --engine simd and simd-threads:N".to_string(),
                )
            }
        }
    }
    if opts.low_memory && opts.engine != Engine::Sequential {
        // Only the sequential engine recomputes rows on demand; any
        // other would silently store every row.
        return Err("--low-memory applies only to --engine seq".to_string());
    }
    match (opts.generate.is_some(), positional.len()) {
        (true, 0) => Ok(opts),
        (false, 1) => {
            opts.input = positional.pop().expect("len checked");
            Ok(opts)
        }
        (false, 0) => Err(format!("missing input file\n{}", usage())),
        _ => Err(format!("too many positional arguments\n{}", usage())),
    }
}

/// Generate a workload FASTA to stdout: `titin:LEN:SEED` (protein),
/// `tandem:UNIT:COPIES:SEED` (DNA), `interspersed:UNIT:COPIES:SEED`
/// (protein), `sparse:UNIT:COPIES:SEED` (protein sparse island — a
/// tandem block in long unrelated flanks, the split-pruning fixture)
/// or `island:UNIT:COPIES:FLANK:SEED` (protein interspersed copies
/// with tight spacers in explicit flanks, the `e2e_speed` fixture).
fn generate(spec: &str) -> Result<(), String> {
    use repro::align::fasta::{format_fasta, FastaRecord};
    use repro::seqgen::{titin_like, PlantedRepeats, RepeatSpec};

    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> Result<usize, String> {
        s.parse().map_err(|_| format!("{s:?} is not a number"))
    };
    let record = match parts.as_slice() {
        ["titin", len, seed] => FastaRecord {
            id: format!("titin-like length={len} seed={seed}"),
            seq: titin_like(num(len)?, num(seed)? as u64),
        },
        ["tandem", unit, copies, seed] => {
            let planted = PlantedRepeats::generate(
                &RepeatSpec::dna_tandem(num(unit)?, num(copies)?),
                num(seed)? as u64,
            );
            FastaRecord {
                id: format!("tandem unit={unit} copies={copies} seed={seed}"),
                seq: planted.seq,
            }
        }
        ["interspersed", unit, copies, seed] => {
            let planted = PlantedRepeats::generate(
                &RepeatSpec::protein_interspersed(num(unit)?, num(copies)?),
                num(seed)? as u64,
            );
            FastaRecord {
                id: format!("interspersed unit={unit} copies={copies} seed={seed}"),
                seq: planted.seq,
            }
        }
        ["sparse", unit, copies, seed] => {
            let planted = PlantedRepeats::generate(
                &RepeatSpec::protein_sparse_island(num(unit)?, num(copies)?),
                num(seed)? as u64,
            );
            FastaRecord {
                id: format!("sparse-island unit={unit} copies={copies} seed={seed}"),
                seq: planted.seq,
            }
        }
        // The `e2e_speed` bench fixture: interspersed protein copies
        // with tight spacers and an explicit flank, so EXPERIMENTS.md
        // protocols over that workload are reproducible from the CLI.
        ["island", unit, copies, flank, seed] => {
            use repro::seqgen::RepeatKind;
            let unit_len = num(unit)?;
            let spec = RepeatSpec {
                flank: num(flank)?,
                kind: RepeatKind::Interspersed {
                    min_spacer: unit_len / 2,
                    max_spacer: unit_len,
                },
                ..RepeatSpec::protein_interspersed(unit_len, num(copies)?)
            };
            let planted = PlantedRepeats::generate(&spec, num(seed)? as u64);
            FastaRecord {
                id: format!("repeat-island unit={unit} copies={copies} flank={flank} seed={seed}"),
                seq: planted.seq,
            }
        }
        _ => {
            return Err(format!(
                "bad --generate spec {spec:?}: expected titin:LEN:SEED, \
                 tandem:UNIT:COPIES:SEED, interspersed:UNIT:COPIES:SEED, \
                 sparse:UNIT:COPIES:SEED or island:UNIT:COPIES:FLANK:SEED"
            ))
        }
    };
    print!("{}", format_fasta(&[record], 60));
    Ok(())
}

fn parse_i32(s: &str) -> Result<i32, String> {
    s.parse().map_err(|_| format!("{s:?} is not an integer"))
}

fn build_scoring(opts: &Options) -> Result<Scoring, String> {
    let exchange = if let Some(path) = &opts.matrix_file {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read matrix {path}: {e}"))?;
        ExchangeMatrix::parse_ncbi(opts.alphabet, &text)
            .map_err(|e| format!("bad matrix file {path}: {e}"))?
    } else if opts.match_score.is_some() || opts.mismatch_score.is_some() {
        ExchangeMatrix::match_mismatch(
            opts.alphabet,
            opts.match_score.unwrap_or(2),
            opts.mismatch_score.unwrap_or(-1),
        )
    } else {
        match opts.alphabet {
            Alphabet::Dna => ExchangeMatrix::dna_default(),
            Alphabet::Protein => ExchangeMatrix::blosum62(),
        }
    };
    let (default_open, default_extend) = match opts.alphabet {
        Alphabet::Dna => (2, 1),
        Alphabet::Protein => (10, 1),
    };
    let gaps = GapPenalties::new(
        opts.open.unwrap_or(default_open),
        opts.extend.unwrap_or(default_extend),
    );
    Ok(Scoring::new(exchange, gaps))
}

fn run(opts: &Options) -> Result<(), String> {
    if let Some(spec) = &opts.generate {
        return generate(spec);
    }
    let scoring = build_scoring(opts)?;
    let records = if opts.input == "-" {
        let stdin = std::io::stdin();
        read_fasta(stdin.lock(), opts.alphabet)
    } else {
        let file = std::fs::File::open(&opts.input)
            .map_err(|e| format!("cannot open {}: {e}", opts.input))?;
        read_fasta(std::io::BufReader::new(file), opts.alphabet)
    }
    .map_err(|e| format!("FASTA error: {e}"))?;

    if records.is_empty() {
        return Err("no FASTA records in input".to_string());
    }
    if opts.chrome.is_some() && records.len() > 1 {
        return Err(format!(
            "--chrome exports one timeline and the input has {} records; \
             split the FASTA or pick one record",
            records.len()
        ));
    }

    // One sink for the whole input: a multi-record file streams all its
    // runs into the same heartbeat log (each run's final forced line
    // marks the boundary).
    let progress_sink = match opts.progress.as_deref() {
        None => None,
        Some("-") => Some(repro::obs::ProgressSink::stderr(
            repro::obs::DEFAULT_HEARTBEAT,
        )),
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create progress file {path}: {e}"))?;
            Some(repro::obs::ProgressSink::to_writer(
                Box::new(file),
                repro::obs::DEFAULT_HEARTBEAT,
            ))
        }
    };

    let mut reports: Vec<repro::obs::json::Json> = Vec::new();
    let mut trace_lines: Vec<String> = Vec::new();
    for record in &records {
        let analysis = analyze_one(
            &record.id,
            &record.seq,
            &scoring,
            opts,
            progress_sink.clone(),
        )?;
        if opts.report.is_some() {
            reports.push(analysis.run.to_json());
        }
        if opts.trace.is_some() {
            trace_lines.extend(analysis.events.iter().map(|e| e.to_jsonl()));
        }
        if let Some(path) = &opts.chrome {
            let doc = repro::trace::chrome_trace(&analysis.run, &analysis.events);
            let mut text = doc.to_string_compact();
            text.push('\n');
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write chrome trace {path}: {e}"))?;
        }
    }
    if let Some(path) = &opts.report {
        let doc = repro::obs::json::obj(vec![("reports", repro::obs::json::Json::Arr(reports))]);
        let mut text = doc.to_string_compact();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write report {path}: {e}"))?;
    }
    if let Some(path) = &opts.trace {
        let mut text = trace_lines.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write trace {path}: {e}"))?;
    }
    Ok(())
}

fn analyze_one(
    id: &str,
    seq: &Seq,
    scoring: &Scoring,
    opts: &Options,
    progress: Option<repro::obs::ProgressSink>,
) -> Result<repro::Analysis, String> {
    println!(
        ">{id} ({} residues, {} alphabet)",
        seq.len(),
        seq.alphabet()
    );
    let t0 = std::time::Instant::now();
    let analysis = Repro::new(scoring.clone())
        .top_alignments(opts.tops)
        .engine(opts.engine)
        .transport(opts.transport)
        .low_memory(opts.low_memory)
        .checkpoint_budget(opts.checkpoint_budget)
        .seed_config(if opts.no_prune {
            None
        } else {
            // The CLI defaults pruning ON (the library default is off,
            // keeping its golden tests on the plain path).
            Some(repro::SeedConfig::default())
        })
        .trace(opts.trace.is_some() || opts.chrome.is_some())
        .progress(progress)
        .try_run(seq)
        .map_err(|e| format!("engine failure on {id:?}: {e}"))?;
    let elapsed = t0.elapsed();

    if !opts.quiet {
        for top in &analysis.tops.alignments {
            let start = top.pairs.first().copied().unwrap_or((0, 0));
            let end = top.pairs.last().copied().unwrap_or((0, 0));
            println!(
                "top {:>3}  score {:>6}  split {:>6}  {}..{} ~ {}..{}  ({} pairs, {:.0}% id)",
                top.index + 1,
                top.score,
                top.r,
                start.0,
                end.0,
                start.1,
                end.1,
                top.pairs.len(),
                100.0 * top.identity(seq)
            );
            if opts.cigar {
                println!("    CIGAR {}", top.cigar());
            }
            if opts.pairs {
                for &(p, q) in &top.pairs {
                    println!("    {p} ~ {q}");
                }
            }
        }
    }

    let report = &analysis.report;
    println!(
        "repeats: period {:?}, {} units, {:.1}% coverage",
        report.period,
        report.copies(),
        100.0 * report.coverage(seq.len())
    );
    for unit in &report.units {
        println!("  unit {}..{}", unit.range.start, unit.range.end);
    }
    if opts.gff {
        print!(
            "{}",
            report.to_gff(id.split_whitespace().next().unwrap_or(id))
        );
    }
    if opts.consensus {
        if let Some(consensus) = &analysis.consensus {
            println!(
                "consensus ({} residues, mean identity {:.0}%): {}",
                consensus.consensus.len(),
                100.0 * consensus.mean_identity(),
                consensus.consensus
            );
        } else {
            println!("consensus: (no units)");
        }
    }
    println!(
        "work: {} alignments, {} cells, {} tracebacks, {:.3?}",
        analysis.tops.stats.alignments,
        analysis.tops.stats.cells,
        analysis.tops.stats.tracebacks,
        elapsed
    );
    Ok(analysis)
}

/// Restore the default SIGPIPE disposition so `repro ... | head` ends
/// the process quietly (as cat/grep do) instead of panicking when the
/// downstream reader closes the pipe. Rust's runtime ignores SIGPIPE,
/// which turns every println! into a potential broken-pipe panic.
#[cfg(unix)]
fn restore_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_sigpipe() {}

/// `repro worker --connect HOST:PORT`: serve a cluster run as a worker
/// process until the master says DONE.
fn run_worker(args: &[String]) -> ExitCode {
    const USAGE: &str = "usage: repro worker --connect HOST:PORT";
    let mut connect = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = it.next().cloned(),
            other => {
                eprintln!("repro worker: unknown argument {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(addr) = connect else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match repro::cluster::socket_worker(&addr) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro worker: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro trace --chrome out.json [OPTIONS] <input>`: the normal
/// analysis pipeline with Chrome trace export mandatory.
fn run_trace(args: &[String]) -> ExitCode {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.chrome.is_none() {
        eprintln!("repro trace: --chrome FILE is required\n{}", usage());
        return ExitCode::FAILURE;
    }
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("repro: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    restore_sigpipe();
    // A re-exec'd worker (spawned by a master with REPRO_WORKER_CONNECT
    // set) must become that worker before anything else looks at argv.
    if repro::cluster::maybe_run_worker_from_env() {
        return ExitCode::SUCCESS;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return run_worker(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace") {
        return run_trace(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("repro: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_defaults() {
        let o = parse_args(&args(&["in.fa"])).unwrap();
        assert_eq!(o.input, "in.fa");
        assert_eq!(o.tops, 10);
        assert_eq!(o.alphabet, Alphabet::Protein);
        assert_eq!(o.engine, Engine::Sequential);
    }

    #[test]
    fn parses_engines() {
        for (name, want) in [
            ("seq", Engine::Sequential),
            (
                "simd",
                Engine::SimdDispatch {
                    width: None,
                    path: None,
                },
            ),
            (
                "simd8",
                Engine::SimdDispatch {
                    width: Some(LaneWidth::X8),
                    path: None,
                },
            ),
            ("simd4", simd_engine(Some(LaneWidth::X4))),
            ("simd16", simd_engine(Some(LaneWidth::X16))),
            (
                "simd-threads:3",
                Engine::SimdThreads {
                    threads: 3,
                    width: None,
                    path: None,
                },
            ),
            ("threads:3", Engine::Threads(3)),
            ("cluster:5", Engine::Cluster { workers: 5 }),
            (
                "hybrid:4:2",
                Engine::Hybrid {
                    nodes: 4,
                    threads_per_node: 2,
                },
            ),
            ("legacy", Engine::Legacy(LegacyKernel::Gotoh)),
            ("legacy-naive", Engine::Legacy(LegacyKernel::Naive)),
        ] {
            let o = parse_args(&args(&["--engine", name, "x.fa"])).unwrap();
            assert_eq!(o.engine, want, "{name}");
        }
    }

    #[test]
    fn parses_transport() {
        let o = parse_args(&args(&["x.fa"])).unwrap();
        assert_eq!(o.transport, Transport::Sim);
        let o = parse_args(&args(&[
            "--engine",
            "cluster:2",
            "--transport",
            "proc",
            "x.fa",
        ]))
        .unwrap();
        assert_eq!(o.transport, Transport::Proc);
        assert_eq!(o.engine, Engine::Cluster { workers: 2 });
        assert!(parse_args(&args(&["--transport", "pigeon", "x.fa"])).is_err());
        assert!(parse_args(&args(&["x.fa", "--transport"])).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--engine", "warp", "x.fa"])).is_err());
        assert!(parse_args(&args(&["--tops", "many", "x.fa"])).is_err());
        assert!(parse_args(&args(&["a.fa", "b.fa"])).is_err());
        assert!(parse_args(&args(&["--bogus", "x.fa"])).is_err());
    }

    #[test]
    fn lanes_and_dispatch_fold_into_the_engine() {
        let o = parse_args(&args(&[
            "--engine",
            "simd",
            "--lanes",
            "16",
            "--dispatch",
            "avx2",
            "x.fa",
        ]))
        .unwrap();
        assert_eq!(
            o.engine,
            Engine::SimdDispatch {
                width: Some(LaneWidth::X16),
                path: Some(DispatchPath::Avx2),
            }
        );
        // Flag order doesn't matter.
        let o = parse_args(&args(&[
            "--lanes",
            "8",
            "--engine",
            "simd-threads:2",
            "x.fa",
        ]))
        .unwrap();
        assert_eq!(
            o.engine,
            Engine::SimdThreads {
                threads: 2,
                width: Some(LaneWidth::X8),
                path: None,
            }
        );
        // "auto" is the explicit spelling of the default.
        let o = parse_args(&args(&["--engine", "simd", "--lanes", "auto", "x.fa"])).unwrap();
        assert_eq!(
            o.engine,
            Engine::SimdDispatch {
                width: None,
                path: None,
            }
        );
    }

    #[test]
    fn rejects_bad_lanes_and_dispatch() {
        let err = parse_args(&args(&["--engine", "simd", "--lanes", "32", "x.fa"])).unwrap_err();
        assert!(err.contains("unsupported lane width 32"), "{err}");
        assert!(parse_args(&args(&["--engine", "simd", "--lanes", "wide", "x.fa"])).is_err());
        assert!(parse_args(&args(&["--engine", "simd", "--dispatch", "mmx", "x.fa"])).is_err());
        // Kernel knobs demand a dispatch-capable engine.
        let err = parse_args(&args(&["--engine", "seq", "--lanes", "8", "x.fa"])).unwrap_err();
        assert!(err.contains("simd"), "{err}");
    }

    #[test]
    fn low_memory_demands_the_sequential_engine() {
        assert!(
            parse_args(&args(&["--low-memory", "x.fa"]))
                .unwrap()
                .low_memory
        );
        for engine in ["simd", "simd8", "threads:2", "simd-threads:2", "cluster:2"] {
            let err = parse_args(&args(&["--engine", engine, "--low-memory", "x.fa"])).unwrap_err();
            assert_eq!(err, "--low-memory applies only to --engine seq", "{engine}");
        }
    }

    #[test]
    fn rejects_degenerate_engine_configs() {
        // Worlds too small to host a master + one worker must be a
        // parse-time diagnostic, not a panic deep in the engine.
        for spec in [
            "threads:0",
            "cluster:0",
            "hybrid:0:4",
            "hybrid:4:0",
            "hybrid:1:1",
        ] {
            let err = parse_args(&args(&["--engine", spec, "x.fa"])).unwrap_err();
            assert!(err.contains("needs"), "{spec}: {err}");
        }
    }

    #[test]
    fn parses_checkpoint_budget() {
        let o = parse_args(&args(&["x.fa"])).unwrap();
        assert_eq!(o.checkpoint_budget, None);
        let o = parse_args(&args(&["--checkpoint-budget", "1048576", "x.fa"])).unwrap();
        assert_eq!(o.checkpoint_budget, Some(1_048_576));
        let o = parse_args(&args(&["--checkpoint-budget", "0", "x.fa"])).unwrap();
        assert_eq!(o.checkpoint_budget, Some(0));
        assert!(parse_args(&args(&["--checkpoint-budget", "lots", "x.fa"])).is_err());
        assert!(parse_args(&args(&["x.fa", "--checkpoint-budget"])).is_err());
    }

    #[test]
    fn parses_prune_flags() {
        let o = parse_args(&args(&["x.fa"])).unwrap();
        assert!(!o.no_prune, "pruning defaults on");
        let o = parse_args(&args(&["--no-prune", "x.fa"])).unwrap();
        assert!(o.no_prune);
        // The k-mer width selected nothing and its flag is gone.
        let err = parse_args(&args(&["--seed-k", "4", "x.fa"])).unwrap_err();
        assert!(err.contains("unknown option --seed-k"), "{err}");
    }

    #[test]
    fn pruned_and_unpruned_runs_agree_end_to_end() {
        let dir = std::env::temp_dir();
        let fasta = dir.join("repro_cli_prune_test.fa");
        let pruned_report = dir.join("repro_cli_prune_on.json");
        let plain_report = dir.join("repro_cli_prune_off.json");
        std::fs::write(&fasta, ">t\nATGCATGCATGCATGC\n").unwrap();
        let base = [
            "--alphabet",
            "dna",
            "--tops",
            "3",
            "--quiet",
            fasta.to_str().unwrap(),
        ];
        let mut on = vec!["--report", pruned_report.to_str().unwrap()];
        on.extend_from_slice(&base);
        let mut off = vec!["--no-prune", "--report", plain_report.to_str().unwrap()];
        off.extend_from_slice(&base);
        run(&parse_args(&args(&on)).unwrap()).unwrap();
        run(&parse_args(&args(&off)).unwrap()).unwrap();
        use repro::obs::json::Json;
        let read = |p: &std::path::Path| Json::parse(&std::fs::read_to_string(p).unwrap()).unwrap();
        let on_doc = read(&pruned_report);
        let off_doc = read(&plain_report);
        let tops = |d: &Json| {
            d.get("reports").and_then(Json::as_arr).unwrap()[0]
                .get("tops_found")
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert_eq!(tops(&on_doc), tops(&off_doc));
        // The seeded run stamps its index build time; the plain run has
        // nothing seed-related.
        let build_ns = |d: &Json| {
            d.get("reports").and_then(Json::as_arr).unwrap()[0]
                .get("stats")
                .and_then(|s| s.get("seed_index_build_ns"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert!(build_ns(&on_doc) > 0);
        assert_eq!(build_ns(&off_doc), 0);
    }

    #[test]
    fn parses_report_and_trace_paths() {
        let o = parse_args(&args(&["--report", "r.json", "--trace", "t.jsonl", "x.fa"])).unwrap();
        assert_eq!(o.report.as_deref(), Some("r.json"));
        assert_eq!(o.trace.as_deref(), Some("t.jsonl"));
        assert!(parse_args(&args(&["--report"])).is_err());
        assert!(parse_args(&args(&["x.fa", "--trace"])).is_err());
    }

    #[test]
    fn report_and_trace_files_are_written_and_valid() {
        use repro::obs::json::Json;
        let dir = std::env::temp_dir();
        let fasta = dir.join("repro_cli_obs_test.fa");
        let report = dir.join("repro_cli_obs_test.json");
        let trace = dir.join("repro_cli_obs_test.jsonl");
        std::fs::write(&fasta, ">t\nATGCATGCATGCATGC\n").unwrap();
        let o = parse_args(&args(&[
            "--alphabet",
            "dna",
            "--tops",
            "3",
            "--engine",
            "cluster:2",
            "--quiet",
            "--report",
            report.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            fasta.to_str().unwrap(),
        ]))
        .unwrap();
        run(&o).unwrap();

        let doc = Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let reports = doc.get("reports").and_then(Json::as_arr).unwrap();
        assert_eq!(reports.len(), 1);
        repro::RunReport::validate(&reports[0]).unwrap();

        // The cluster engine emits assign/result/done events; every line
        // of the trace must be a standalone JSON object.
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(
            trace_text.lines().count() >= 2,
            "trace too short:\n{trace_text}"
        );
        for line in trace_text.lines() {
            Json::parse(line).unwrap();
        }
    }

    #[test]
    fn parses_progress_and_chrome_paths() {
        let o = parse_args(&args(&["--progress", "-", "x.fa"])).unwrap();
        assert_eq!(o.progress.as_deref(), Some("-"));
        let o = parse_args(&args(&[
            "--progress",
            "p.jsonl",
            "--chrome",
            "t.json",
            "x.fa",
        ]))
        .unwrap();
        assert_eq!(o.progress.as_deref(), Some("p.jsonl"));
        assert_eq!(o.chrome.as_deref(), Some("t.json"));
        assert!(parse_args(&args(&["x.fa", "--progress"])).is_err());
        assert!(parse_args(&args(&["x.fa", "--chrome"])).is_err());
    }

    #[test]
    fn progress_file_streams_heartbeats_ending_in_the_final_line() {
        use repro::obs::json::Json;
        let dir = std::env::temp_dir();
        let fasta = dir.join("repro_cli_progress_test.fa");
        let progress = dir.join("repro_cli_progress_test.jsonl");
        std::fs::write(&fasta, ">t\nATGCATGCATGCATGC\n").unwrap();
        let o = parse_args(&args(&[
            "--alphabet",
            "dna",
            "--tops",
            "3",
            "--quiet",
            "--progress",
            progress.to_str().unwrap(),
            fasta.to_str().unwrap(),
        ]))
        .unwrap();
        run(&o).unwrap();
        let text = std::fs::read_to_string(&progress).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "no heartbeats written");
        for line in &lines {
            Json::parse(line).unwrap();
        }
        // The forced end-of-run line reports a finished search.
        let last = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("tops_found").and_then(Json::as_u64), Some(3));
        assert!(matches!(last.get("eta_secs"), Some(Json::Null)));
    }

    #[test]
    fn chrome_trace_file_is_written_with_worker_spans() {
        use repro::obs::json::Json;
        let dir = std::env::temp_dir();
        let fasta = dir.join("repro_cli_chrome_test.fa");
        let chrome = dir.join("repro_cli_chrome_test.json");
        std::fs::write(&fasta, ">t\nATGCATGCATGCATGC\n").unwrap();
        let o = parse_args(&args(&[
            "--alphabet",
            "dna",
            "--tops",
            "3",
            "--engine",
            "cluster:2",
            "--quiet",
            "--chrome",
            chrome.to_str().unwrap(),
            fasta.to_str().unwrap(),
        ]))
        .unwrap();
        run(&o).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Phase spans plus at least one worker task span (the chrome
        // flag forces event capture even without --trace).
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("tid").and_then(Json::as_u64) == Some(0)
        }));
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("tid").and_then(Json::as_u64).unwrap_or(0) >= 1
        }));
    }

    #[test]
    fn chrome_export_rejects_multi_record_input() {
        let dir = std::env::temp_dir();
        let fasta = dir.join("repro_cli_chrome_multi_test.fa");
        let chrome = dir.join("repro_cli_chrome_multi_test.json");
        std::fs::write(&fasta, ">a\nATGCATGC\n>b\nATGCATGC\n").unwrap();
        let o = parse_args(&args(&[
            "--alphabet",
            "dna",
            "--quiet",
            "--chrome",
            chrome.to_str().unwrap(),
            fasta.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run(&o).unwrap_err();
        assert!(err.contains("2 records"), "{err}");
    }

    #[test]
    fn scoring_defaults_per_alphabet() {
        let dna = parse_args(&args(&["--alphabet", "dna", "x.fa"])).unwrap();
        let s = build_scoring(&dna).unwrap();
        assert_eq!(s.gaps.open, 2);
        let prot = parse_args(&args(&["x.fa"])).unwrap();
        let s = build_scoring(&prot).unwrap();
        assert_eq!(s.gaps.open, 10);
        assert_eq!(s.exchange.max_score(), 11); // BLOSUM62's W/W
    }

    #[test]
    fn custom_simple_matrix() {
        let o = parse_args(&args(&[
            "--alphabet",
            "dna",
            "--match",
            "5",
            "--mismatch",
            "-4",
            "--open",
            "3",
            "--extend",
            "2",
            "x.fa",
        ]))
        .unwrap();
        let s = build_scoring(&o).unwrap();
        assert_eq!(s.exchange.max_score(), 5);
        assert_eq!(s.gaps.cost(2), 7);
    }
}
