//! The command line of the harness binaries: `--flag V` / `--flag=V` lookup
//! with typed errors, the one table of which `harness` subcommand takes
//! which flag, the [`Run`] a command line states (a `--script` file, or the
//! run-shape flags that spell one), and the file reads and writes flags
//! name — so a bad command line or an unusable file is one line on stderr
//! and exit status 2, never a panic.

use std::fmt::{self, Display};
use std::io::Write as _;
use std::path::Path;

use netstack::{FlowSpec, MobilitySpec, SimConfig, TcpVariant, TopologySpec};
use sim_core::SimDuration;

use crate::run::{spread_endpoints, Run};

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// A flag the binary cannot run without is absent.
    Required {
        /// The flag's name.
        flag: String,
    },
    /// `flag` was the last argument, with no value after it.
    MissingValue {
        /// The flag as typed.
        flag: String,
    },
    /// A `--flag` the binary does not have.
    UnknownFlag {
        /// The flag as typed, without any `=value`.
        flag: String,
    },
    /// The value given for `flag` did not parse.
    BadValue {
        /// The flag as typed.
        flag: String,
        /// The rejected value.
        value: String,
        /// The parser's own message.
        reason: String,
    },
    /// The subcommand is absent or not one the binary has.
    Subcommand {
        /// What stood where the subcommand belongs, if anything did.
        given: Option<String>,
        /// The subcommands there are.
        want: &'static str,
    },
    /// A file or directory the command line names could not be used.
    File {
        /// What was attempted: `read`, `parse`, `write`, `create`.
        action: &'static str,
        /// The path as typed.
        path: String,
        /// The operating system's or the parser's own message.
        reason: String,
    },
}

impl CliError {
    /// A [`CliError::Subcommand`] for `given` where one of `want` belongs.
    pub fn subcommand(given: Option<impl Display>, want: &'static str) -> Self {
        CliError::Subcommand { given: given.map(|g| g.to_string()), want }
    }

    /// A [`CliError::File`] for `action` on `path` failing with `reason`.
    pub fn file(action: &'static str, path: impl AsRef<Path>, reason: impl Display) -> Self {
        let path = path.as_ref().display().to_string();
        CliError::File { action, path, reason: reason.to_string() }
    }
}

/// A [`CliError::BadValue`] for a `flag` whose value parsed on its own but
/// cannot be honoured beside the rest of `args`, for `reason`.
pub fn conflicting(args: &[String], flag: &str, reason: impl Display) -> CliError {
    let value = parse_flag(args, flag).ok().flatten().unwrap_or_default();
    CliError::BadValue { flag: flag.to_string(), value, reason: reason.to_string() }
}

impl Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Required { flag } => write!(f, "{flag} is required"),
            CliError::MissingValue { flag } => write!(f, "{flag} expects a value"),
            CliError::UnknownFlag { flag } => write!(f, "unknown flag {flag}"),
            CliError::BadValue { flag, value, reason } => {
                write!(f, "{flag}: cannot use {value:?}: {reason}")
            }
            CliError::Subcommand { given: None, want } => {
                write!(f, "missing subcommand (want {want})")
            }
            CliError::Subcommand { given: Some(given), want } => {
                write!(f, "unknown subcommand {given:?} (want {want})")
            }
            CliError::File { action, path, reason } => {
                write!(f, "cannot {action} {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The value of `--flag V` or `--flag=V` (first occurrence), if present.
///
/// # Errors
///
/// [`CliError::MissingValue`] when `flag` is the last argument.
pub fn parse_flag(args: &[String], flag: &str) -> Result<Option<String>, CliError> {
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(flag).and_then(|rest| rest.strip_prefix('=')) {
            return Ok(Some(v.to_string()));
        }
        if a == flag {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(CliError::MissingValue { flag: flag.to_string() }),
            };
        }
    }
    Ok(None)
}

/// [`parse_flag`] for a flag the binary cannot run without.
///
/// # Errors
///
/// [`CliError::Required`] when `flag` is absent; [`CliError::MissingValue`]
/// as [`parse_flag`].
pub fn required_flag(args: &[String], flag: &str) -> Result<String, CliError> {
    parse_flag(args, flag)?.ok_or_else(|| CliError::Required { flag: flag.to_string() })
}

/// [`parse_flag`], then `parse` on the value: `str::parse::<u64>` for a
/// number, a spec grammar's own `parse` for the rest.
///
/// # Errors
///
/// [`CliError::MissingValue`] as [`parse_flag`]; [`CliError::BadValue`]
/// carrying `parse`'s message when it rejects the value.
pub fn parse_flag_with<T, E: Display>(
    args: &[String],
    flag: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<Option<T>, CliError> {
    let Some(value) = parse_flag(args, flag)? else { return Ok(None) };
    match parse(&value) {
        Ok(v) => Ok(Some(v)),
        Err(e) => Err(CliError::BadValue { flag: flag.to_string(), value, reason: e.to_string() }),
    }
}

/// The positional arguments of `args`, after checking every `--flag` against
/// the binary's vocabulary: a `valued` flag takes a value (`--flag V` or
/// `--flag=V`; the `V` is not a positional), a `switch` stands alone. A
/// misspelt or retired flag is refused here rather than ignored, so a run
/// never silently falls back to the defaults.
///
/// # Errors
///
/// [`CliError::UnknownFlag`] for the first `--flag` in neither list.
pub fn positionals<'a>(
    args: &'a [String],
    valued: &[&str],
    switches: &[&str],
) -> Result<Vec<&'a str>, CliError> {
    let mut rest = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            rest.push(arg.as_str());
            continue;
        }
        let (name, joined) = match arg.split_once('=') {
            Some((name, _)) => (name, true),
            None => (arg.as_str(), false),
        };
        if valued.contains(&name) {
            if !joined {
                args.next();
            }
        } else if !switches.contains(&name) {
            return Err(CliError::UnknownFlag { flag: name.to_string() });
        }
    }
    Ok(rest)
}

/// The flags that spell a run without a file. `--hops N` is `--topology
/// chain:N`.
const SHAPE_FLAGS: [&str; 7] =
    ["--topology", "--mobility", "--hops", "--variant", "--flows", "--secs", "--seed"];

/// What `harness` can be told to do with a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subcommand {
    /// Capture it with the trace subsystem and render the capture.
    Trace,
    /// Run it under the invariant checker.
    Topo,
    /// Explore its bounded interleavings.
    Mc,
    /// Snapshot it, or resume a snapshot of it.
    Checkpoint,
}

/// One row of the argv table.
struct Row {
    sub: Subcommand,
    name: &'static str,
    /// Whether the run may be spelled by [`SHAPE_FLAGS`]; `--script` always may.
    shaped: bool,
    /// The subcommand's own flags that take a value.
    valued: &'static [&'static str],
    switches: &'static [&'static str],
}

/// The one argv table: what each `harness` subcommand accepts.
const SUBCOMMANDS: [Row; 4] = [
    Row {
        sub: Subcommand::Trace,
        name: "trace",
        shaped: true,
        valued: &["--format", "--follow-flow", "--last", "--out"],
        switches: &["--quick"],
    },
    Row { sub: Subcommand::Topo, name: "topo", shaped: true, valued: &[], switches: &[] },
    Row {
        sub: Subcommand::Mc,
        name: "mc",
        shaped: false,
        valued: &[
            "--tie-window",
            "--max-branches",
            "--max-depth",
            "--shift-window",
            "--shift-steps",
            "--report",
        ],
        switches: &["--quiet"],
    },
    Row {
        sub: Subcommand::Checkpoint,
        name: "checkpoint",
        shaped: false,
        valued: &["--at", "--out", "--checkpoint-every", "--out-dir", "--from", "--until"],
        switches: &[],
    },
];

/// Checks `args` — a subcommand name, then its arguments — against the
/// table and returns it with the positionals that follow it.
///
/// # Errors
///
/// [`CliError::Subcommand`] for a first argument that is not in the table;
/// [`CliError::UnknownFlag`] as [`positionals`].
pub fn subcommand(args: &[String]) -> Result<(Subcommand, Vec<&str>), CliError> {
    let given = args.first().filter(|a| !a.starts_with("--"));
    let row = SUBCOMMANDS.iter().find(|row| Some(row.name) == given.map(String::as_str));
    let Some(row) = row else {
        return Err(CliError::subcommand(given, "trace, topo, mc or checkpoint"));
    };
    let shape: &[&str] = if row.shaped { &SHAPE_FLAGS } else { &[] };
    let valued = [&["--script"], row.valued, shape].concat();
    Ok((row.sub, positionals(&args[1..], &valued, row.switches)?))
}

/// Parses a `--topology` value for a run that drives flows across it: the
/// spec grammar, plus the two nodes a flow needs.
fn flow_topology(text: &str) -> Result<TopologySpec, String> {
    let spec = TopologySpec::parse(text)?;
    if spec.node_count() < 2 {
        return Err(format!("a flow needs two nodes, this topology has {}", spec.node_count()));
    }
    Ok(spec)
}

/// The run a command line states. `--script PATH` reads a run file; without
/// it the run-shape flags spell the run over `default` — the topology,
/// mobility and duration of a subcommand that can run unprompted — with
/// `--flows` flows of `--variant` (one Muzha flow when absent) between the
/// endpoints [`spread_endpoints`] picks, stated with [`Run::new`]. `None`
/// for a subcommand that takes a file only.
///
/// # Errors
///
/// [`CliError::BadValue`] for a run-shape flag beside `--script`, `--hops`
/// beside `--topology`, a value its grammar refuses, a `--topology` the
/// seed cannot place (a `random-disc` too sparse to connect), or more
/// `--flows` than the topology has nodes; [`CliError::File`]
/// when the file cannot be read or is not a run; [`CliError::Required`]
/// when there is neither a file nor a default.
pub fn parse_run(
    args: &[String],
    default: Option<(TopologySpec, MobilitySpec, SimDuration)>,
) -> Result<Run, CliError> {
    if let Some(path) = parse_flag(args, "--script")? {
        if let Some(flag) = SHAPE_FLAGS.iter().find(|f| parse_flag(args, f) != Ok(None)) {
            return Err(conflicting(args, flag, "--script states the whole run"));
        }
        let text = std::fs::read_to_string(&path).map_err(|e| CliError::file("read", &path, e))?;
        return Run::parse(&text).map_err(|e| CliError::file("parse", &path, e));
    }
    let Some((topology, mobility, duration)) = default else {
        return Err(CliError::Required { flag: "--script".to_string() });
    };
    let chain = |hops: &str| flow_topology(&format!("chain:{hops}"));
    let hops = parse_flag_with(args, "--hops", chain)?;
    let stated = parse_flag_with(args, "--topology", flow_topology)?;
    if hops.is_some() && stated.is_some() {
        return Err(conflicting(args, "--hops", "--hops N is --topology chain:N; give one"));
    }
    let topology = stated.or(hops).unwrap_or(topology);
    let seed = parse_flag_with(args, "--seed", str::parse::<u64>)?;
    let cfg = SimConfig { seed: seed.unwrap_or(SimConfig::default().seed), ..SimConfig::default() };
    let placed = topology.try_build(cfg.radio.tx_range_m, cfg.seed);
    let positions = placed.map_err(|e| conflicting(args, "--topology", e))?;
    let variant = parse_flag_with(args, "--variant", TcpVariant::parse)?;
    let variant = variant.unwrap_or(TcpVariant::Muzha);
    let flows = parse_flag_with(args, "--flows", |n| match n.parse::<usize>() {
        Ok(0) => Err("a run needs a flow".to_string()),
        other => other.map_err(|e| e.to_string()),
    })?;
    let duration = parse_flag_with(args, "--secs", SimDuration::parse_secs)?.unwrap_or(duration);
    let mobility = parse_flag_with(args, "--mobility", MobilitySpec::parse)?.unwrap_or(mobility);
    let (flows, nodes) = (flows.unwrap_or(1), positions.len());
    if flows > nodes {
        let reason = format!("at most {nodes} flows on a {nodes}-node topology");
        return Err(conflicting(args, "--flows", reason));
    }
    let ends = spread_endpoints(&positions, flows);
    let flows = ends.into_iter().map(|(src, dst)| FlowSpec::new(src, dst, variant)).collect();
    Ok(Run::new(cfg, topology, mobility, flows, duration).placed_at(positions))
}

/// Writes a rendered report to stdout. A closed pipe (`harness topo … |
/// head -3`) is the reader's choice, not an error, and never a panic.
///
/// # Errors
///
/// [`CliError::File`] for any other failure to write.
pub fn print_report(report: impl AsRef<[u8]>) -> Result<(), CliError> {
    let mut out = std::io::stdout().lock();
    match out.write_all(report.as_ref()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(CliError::file("write", "stdout", e))
        }
        _ => Ok(()),
    }
}

/// Writes `contents` to `path`.
///
/// # Errors
///
/// [`CliError::File`] carrying the operating system's message.
pub fn write_output(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(&path, contents).map_err(|e| CliError::file("write", &path, e))
}

/// Entry point for a binary: hands `run` the process arguments (program
/// name stripped); a rejected command line prints one line to stderr and
/// exits with status 2.
pub fn run_main(run: impl FnOnce(&[String]) -> Result<(), CliError>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn separate_and_joined_values_are_found() {
        let a = args(&["--quick", "--secs", "7", "--out=run.tr", "--secs", "9"]);
        assert_eq!(parse_flag(&a, "--secs"), Ok(Some("7".to_string())), "first occurrence wins");
        assert_eq!(parse_flag(&a, "--out"), Ok(Some("run.tr".to_string())));
        assert_eq!(parse_flag(&a, "--seed"), Ok(None));
        // A longer flag sharing the prefix is a different flag.
        assert_eq!(parse_flag(&args(&["--outdir=x"]), "--out"), Ok(None));
        assert_eq!(parse_flag_with(&a, "--secs", str::parse::<u64>), Ok(Some(7)));
        assert_eq!(parse_flag_with(&a, "--seed", str::parse::<u64>), Ok(None));
    }

    #[test]
    fn missing_value_is_an_error_not_a_panic() {
        let a = args(&["--quick", "--secs"]);
        let want = CliError::MissingValue { flag: "--secs".to_string() };
        assert_eq!(parse_flag(&a, "--secs"), Err(want.clone()));
        assert_eq!(parse_flag_with(&a, "--secs", str::parse::<u64>), Err(want.clone()));
        assert_eq!(want.to_string(), "--secs expects a value");
        // Absent altogether is a different error, and only when required.
        assert_eq!(
            required_flag(&a, "--script"),
            Err(CliError::Required { flag: "--script".to_string() })
        );
        assert_eq!(required_flag(&args(&["--script=a.scn"]), "--script"), Ok("a.scn".to_string()));
    }

    #[test]
    fn unknown_flags_are_refused_and_positionals_returned() {
        let valued = ["--secs", "--out"];
        let switches = ["--quick"];
        let a = args(&["snapshot", "--secs", "7", "--quick", "--out=run.tr", "dir"]);
        assert_eq!(positionals(&a, &valued, &switches), Ok(vec!["snapshot", "dir"]));
        // A flag's value is never mistaken for a flag or a positional, even
        // when it looks like one; a trailing valued flag is left for
        // `parse_flag` to report as a missing value.
        assert_eq!(positionals(&args(&["--secs", "--bogus"]), &valued, &switches), Ok(vec![]));
        assert_eq!(positionals(&args(&["--out"]), &valued, &switches), Ok(vec![]));
        for (line, flag) in [
            (&["--sec", "7"][..], "--sec"),
            (&["--quick", "--twin"][..], "--twin"),
            (&["--phy-index=brute"][..], "--phy-index"),
            (&["--scheduler", "heap"][..], "--scheduler"),
        ] {
            let err = positionals(&args(line), &valued, &switches).unwrap_err();
            assert_eq!(err, CliError::UnknownFlag { flag: flag.to_string() });
            assert_eq!(err.to_string(), format!("unknown flag {flag}"));
        }
    }

    /// Every flag the table knows, each subcommand's and the run-shape ones.
    fn every_flag() -> Vec<&'static str> {
        let rows = SUBCOMMANDS.iter().flat_map(|row| row.valued.iter().chain(row.switches));
        ["--script"].iter().chain(&SHAPE_FLAGS).chain(rows).copied().collect()
    }

    /// No knob was added when four argv tables became one: the flags
    /// `harness` accepts are the 25 the four binaries accepted between them.
    #[test]
    fn the_table_holds_the_same_25_flags_the_four_binaries_had() {
        let mut flags = every_flag();
        flags.sort_unstable();
        flags.dedup();
        let before = "--at --checkpoint-every --flows --follow-flow --format --from --hops \
                      --last --max-branches --max-depth --mobility --out --out-dir --quick \
                      --quiet --report --script --secs --seed --shift-steps --shift-window \
                      --tie-window --topology --until --variant";
        assert_eq!(flags.join(" "), before);
        assert_eq!(flags.len(), 25);
    }

    #[test]
    fn the_subcommand_comes_first_and_brings_its_own_flags() {
        let line = args(&["topo", "--secs", "2"]);
        assert_eq!(subcommand(&line), Ok((Subcommand::Topo, vec![])));
        let line = args(&["checkpoint", "resume", "--from=x", "--script", "y"]);
        assert_eq!(subcommand(&line), Ok((Subcommand::Checkpoint, vec!["resume"])));
        for line in [&[][..], &["--quick"], &["explain"]] {
            let refused = subcommand(&args(line)).map(|(sub, _)| sub);
            assert!(matches!(refused, Err(CliError::Subcommand { .. })), "{line:?}");
        }
        for (line, flag) in [
            (&["mc", "--script", "y", "--hops", "2"][..], "--hops"),
            (&["topo", "--quick"], "--quick"),
        ] {
            let refused = subcommand(&args(line)).map(|(sub, _)| sub);
            assert_eq!(refused, Err(CliError::UnknownFlag { flag: flag.to_string() }));
        }
    }

    /// The words an argv case is drawn from: the subcommands and one
    /// garbage word, then values and small specs. No spec places more than
    /// a few dozen nodes, so every case is cheap.
    const WORDS: [&str; 24] = [
        "trace",
        "topo",
        "mc",
        "checkpoint",
        "explain",
        "0",
        "1",
        "3",
        "-1",
        "nan",
        "1e309",
        "18446744073709551615",
        "many",
        "chain:3",
        "chain:0",
        "grid:2x2",
        "cross:2",
        "random-disc:12",
        "city-blocks:1x1@2",
        "waypoint",
        "waypoint:5-1@2",
        "NewReno",
        "muzha",
        "/nonexistent/run.scn",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 2048, ..Default::default() })]

        /// Whatever the command line, `subcommand` then `parse_run` (with
        /// `trace`'s default run) returns a run or one typed, one-line
        /// error; neither panics. After the lead, a draw is a word, a bare
        /// flag (so `--f v` when a word follows) or a joined `--f=v`.
        #[test]
        fn any_argv_is_a_run_or_a_typed_error(
            lead in 0usize..6,
            draws in proptest::collection::vec((0u8..3, 0usize..64, 0usize..64), 0..=7),
        ) {
            let flags = every_flag();
            let rest = draws.iter().map(|&(kind, a, b)| match kind {
                0 => WORDS[a % WORDS.len()].to_string(),
                1 => flags[a % flags.len()].to_string(),
                _ => format!("{}={}", flags[a % flags.len()], WORDS[b % WORDS.len()]),
            });
            // Most cases lead with a subcommand name or the garbage word;
            // one in six leads with whatever the first draw is.
            let lead = WORDS[..5].get(lead).map(|sub| sub.to_string());
            let argv: Vec<String> = lead.into_iter().chain(rest).collect();
            let default =
                (TopologySpec::default(), MobilitySpec::Static, SimDuration::from_secs(10));
            let parsed = std::panic::catch_unwind(|| {
                subcommand(&argv)?;
                parse_run(&argv[1..], Some(default)).map(|_| ())
            });
            let Ok(parsed) = parsed else { panic!("{argv:?} panicked") };
            if let Err(e) = parsed {
                proptest::prop_assert!(!e.to_string().contains('\n'), "{argv:?}: {e}");
            }
        }
    }

    #[test]
    fn unparsable_value_names_flag_value_and_reason() {
        for a in [args(&["--secs", "soon"]), args(&["--secs=soon"])] {
            let err = parse_flag_with(&a, "--secs", str::parse::<u64>).unwrap_err();
            assert_eq!(
                err,
                CliError::BadValue {
                    flag: "--secs".to_string(),
                    value: "soon".to_string(),
                    reason: "invalid digit found in string".to_string(),
                }
            );
            let line = err.to_string();
            assert!(!line.contains('\n'), "one line: {line:?}");
            assert!(line.contains("--secs") && line.contains("soon"), "{line}");
        }
    }
}
