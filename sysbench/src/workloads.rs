//! The end-to-end workloads. The harness is the load generator; the
//! system under test is the shipped `bonsai` binary run as a child
//! process and timed from outside: spawn → exit for the batch commands,
//! request write → response line for the daemon. Never more than one
//! runnable thread of the harness beside the program's own.

use crate::checks::{
    check_compress_output, check_sweep_output, expected_reach_reply, number_after, reference_sweep,
    Tally,
};
use crate::daemon::{is_ok, Daemon, LineClient};
use crate::gen::{dc_policy, edit_edge0_0, request_list, Request, Rng, MIX_PERIOD};
use crate::measure::{
    pin_to_one_cpu, quantile_sorted, run_child, samples_beyond, ChildRun, CALM_QUANTILE,
    MIN_TIMED_OPS,
};
use bonsai::config::{print_network, BuiltTopology, NetworkConfig};
use bonsai::topo::{fattree, named_links, FattreePolicy};
use bonsai::verify::sim_engine::SimEngine;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one invocation of a workload is given.
pub struct Env<'a> {
    /// The program under test.
    pub bin: &'a Path,
    /// An empty scratch directory inside the checkout, removed afterwards.
    pub dir: &'a Path,
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
}

/// A reported number with the count of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub samples: usize,
}

/// A printed, ungated number.
#[derive(Clone, Debug, PartialEq)]
pub struct Note {
    pub name: String,
    pub sample: Sample,
    pub unit: String,
}

/// The result of one workload.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The end-to-end metrics, by name.
    pub metrics: BTreeMap<&'static str, Sample>,
    /// Outputs that must repeat exactly; the run's checks already held
    /// them to their references, the saved document lets two runs be
    /// compared bit for bit.
    pub exact: Vec<(&'static str, f64)>,
    /// Numbers worth printing that no bound gates.
    pub notes: Vec<Note>,
}

impl Outcome {
    fn absorb(&mut self, tally: Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.failures.extend(tally.failures);
    }

    fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Sample { value, samples });
    }

    fn note(&mut self, name: &str, value: f64, samples: usize, unit: &str) {
        self.notes.push(Note {
            name: name.to_string(),
            sample: Sample { value, samples },
            unit: unit.to_string(),
        });
    }

    /// `op_calm_ms` from the run's timed operations, with the whole-run
    /// median and p90 beside it as notes.
    fn timed_ops(&mut self, op_ms: &[f64]) {
        let mut sorted = op_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        self.metric("op_calm_ms", quantile_sorted(&sorted, CALM_QUANTILE), n);
        self.note("op_p50_ms", quantile_sorted(&sorted, 0.5), n, "ms");
        self.note("op_p90_ms", quantile_sorted(&sorted, 0.9), n, "ms");
        self.note(
            "op_p90_samples_beyond",
            samples_beyond(n, 10) as f64,
            n,
            "count",
        );
    }
}

/// Failure bound of `serve_cycle`'s daemon and of `sweep_symmetric`.
pub const K2: usize = 2;
/// Requests in the seeded standing list of `serve_cycle`: chosen once so
/// that the replay costs about twice the reload at the commit that
/// defined the benchmark. A multiple of the mix period, so every seed
/// sends the same mix.
pub const REQUESTS: usize = 8 * MIX_PERIOD;
/// `sweep_derive` derives exactly this many refinements (fattree-6
/// PreferBottom, k = 1: 39 per class, nothing shared).
pub const SWEEP_DERIVE_DERIVATIONS: u64 = 702;

/// A run that cannot time [`MIN_TIMED_OPS`] operations in this long is
/// given up (the driver allows 180 s for everything).
const GIVE_UP: Duration = Duration::from_secs(130);

pub fn run(name: &str, env: &Env<'_>) -> Result<Outcome, String> {
    match name {
        "compress_policy" => compress_policy(env),
        "sweep_symmetric" => sweep_workload(env, SYMMETRIC),
        "sweep_derive" => sweep_workload(env, DERIVE),
        "serve_cycle" => serve_cycle(env),
        other => Err(format!("unknown workload `{other}`")),
    }
}

pub fn path_str(p: &Path) -> Result<&str, String> {
    p.to_str()
        .ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}

pub fn write_text(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Removes a directory a previous invocation may have left; a directory
/// that is not there is fine.
pub fn clear_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot clear {}: {e}", dir.display())),
    }
}

/// Keeps timing operations until `seconds` have passed and at least
/// [`MIN_TIMED_OPS`] are timed; each call of `op` returns its own time in
/// milliseconds.
pub fn timed_loop(
    seconds: f64,
    mut op: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let begun = Instant::now();
    let mut op_ms = Vec::new();
    while op_ms.len() < MIN_TIMED_OPS || begun.elapsed().as_secs_f64() < seconds {
        if begun.elapsed() > GIVE_UP {
            return Err(format!(
                "only {} operations in {} s; a run needs {MIN_TIMED_OPS}",
                op_ms.len(),
                GIVE_UP.as_secs()
            ));
        }
        op_ms.push(op(op_ms.len())?);
    }
    Ok(op_ms)
}

// ---------------------------------------------------------------------
// Batch commands
// ---------------------------------------------------------------------

/// One batch command: where its configuration goes, how it is invoked,
/// and what restores the state a fresh invocation expects.
struct Batch<'a> {
    env: &'a Env<'a>,
    config_path: &'a Path,
    args: &'a [&'a str],
    before_each: &'a dyn Fn() -> Result<(), String>,
}

/// What a batch command's one set-up produced.
struct BatchSetup {
    setup_s: f64,
    network: NetworkConfig,
    config_text: String,
    /// The cache-filling run: the untimed first operation, and the one
    /// whose outputs the checks read before timed runs overwrite them.
    first: ChildRun,
}

impl Batch<'_> {
    /// Sets up once: generate the configuration, write it, and run the
    /// command once so the binary and its input are in the page cache.
    fn set_up(&self, make_network: impl FnOnce() -> NetworkConfig) -> Result<BatchSetup, String> {
        (self.before_each)()?;
        let begun = Instant::now();
        let network = make_network();
        let config_text = print_network(&network);
        write_text(self.config_path, &config_text)?;
        let first = run_child(self.env.bin, self.args, self.env.dir)?;
        Ok(BatchSetup {
            setup_s: begun.elapsed().as_secs_f64(),
            network,
            config_text,
            first,
        })
    }

    /// Repeats the command for `seconds`. Returns the outcome with all
    /// three end-to-end metrics set, and the timed runs' outputs for the
    /// caller to compare.
    fn measure(&self, setup_s: f64) -> Result<(Outcome, Vec<String>), String> {
        let mut peaks_mb = Vec::new();
        let mut outputs = Vec::new();
        let op_ms = timed_loop(self.env.seconds, |_| {
            (self.before_each)()?;
            let run = run_child(self.env.bin, self.args, self.env.dir)?;
            peaks_mb.push(run.peak_rss_kb as f64 / 1024.0);
            outputs.push(run.stdout);
            Ok(run.wall.as_secs_f64() * 1e3)
        })?;
        let mut outcome = Outcome {
            attempted: 1 + op_ms.len() as u64,
            ..Default::default()
        };
        outcome.metric("setup_s", setup_s, 1);
        outcome.timed_ops(&op_ms);
        peaks_mb.sort_by(f64::total_cmp);
        outcome.metric(
            "peak_rss_mb",
            quantile_sorted(&peaks_mb, 0.5),
            peaks_mb.len(),
        );
        Ok((outcome, outputs))
    }
}

fn compress_policy(env: &Env<'_>) -> Result<Outcome, String> {
    let config = env.dir.join("dcpolicy.cfg");
    let out_dir = env.dir.join("abstract");
    let batch = Batch {
        env,
        config_path: &config,
        args: &["compress", path_str(&config)?, "--out", path_str(&out_dir)?],
        before_each: &|| clear_dir(&out_dir),
    };
    let mut tally = Tally::default();
    let setup = batch.set_up(|| dc_policy(env.seed))?;
    let node_ratio = check_compress_output(
        &mut tally,
        &setup.network,
        &out_dir,
        &setup.first.stdout,
        16,
        &mut Rng::new(env.seed),
    )?;
    let (mut outcome, outputs) = batch.measure(setup.setup_s)?;
    let summary = compress_summary(&setup.first.stdout);
    for stdout in &outputs {
        tally.check(compress_summary(stdout) == summary, || {
            format!("a timed run summarized differently: {stdout}")
        });
    }
    outcome.exact.push(("node_ratio", node_ratio));
    outcome.absorb(tally);
    Ok(outcome)
}

/// The summary row of `bonsai compress` up to its (varying) timings.
fn compress_summary(stdout: &str) -> &str {
    stdout.split("; BDD").next().unwrap_or(stdout)
}

/// The two sweeps: same layer, opposite paths.
struct SweepShape {
    config_name: &'static str,
    fattree_k: usize,
    policy: FattreePolicy,
    k: usize,
    /// `--json <file>` (with per-scenario outcomes) or `--aggregate`.
    json: bool,
    derivations: Option<u64>,
}

/// `sweep_symmetric`: fattree-8 shortest-path, k = 2, aggregate mode — a
/// million cache probes, under 50 derivations.
const SYMMETRIC: SweepShape = SweepShape {
    config_name: "ft8.cfg",
    fattree_k: 8,
    policy: FattreePolicy::ShortestPath,
    k: K2,
    json: false,
    derivations: None,
};

/// `sweep_derive`: fattree-6 PreferBottom, k = 1, with the JSON document —
/// 1944 items, every refinement derived. (Fattree-8 PreferBottom takes 2 s
/// an operation: ten a run, too few for a quartile.)
const DERIVE: SweepShape = SweepShape {
    config_name: "ft6pb.cfg",
    fattree_k: 6,
    policy: FattreePolicy::PreferBottom,
    k: 1,
    json: true,
    derivations: Some(SWEEP_DERIVE_DERIVATIONS),
};

/// The `bonsai failures` arguments of a sweep workload.
pub fn sweep_args<'a>(json: bool, config: &'a str, k: &'a str, json_path: &'a str) -> Vec<&'a str> {
    let mut args = vec!["failures", config, "--failures", k, "--threads", "1"];
    if json {
        args.extend(["--json", json_path]);
    } else {
        args.push("--aggregate");
    }
    args
}

fn sweep_workload(env: &Env<'_>, shape: SweepShape) -> Result<Outcome, String> {
    let config = env.dir.join(shape.config_name);
    let json_path = env.dir.join("sweep.json");
    let k_arg = shape.k.to_string();
    let args = sweep_args(
        shape.json,
        path_str(&config)?,
        &k_arg,
        path_str(&json_path)?,
    );
    let batch = Batch {
        env,
        config_path: &config,
        args: &args,
        before_each: &|| Ok(()),
    };
    let read_json = || {
        std::fs::read_to_string(&json_path)
            .map_err(|e| format!("cannot read {}: {e}", json_path.display()))
    };
    let mut tally = Tally::default();
    let setup = batch.set_up(|| fattree(shape.fattree_k, shape.policy))?;
    let reference = reference_sweep(&setup.config_text, shape.k, shape.json)?;
    let first_json = shape.json.then(read_json).transpose()?;
    let check = check_sweep_output(
        &mut tally,
        &reference,
        &setup.first.stdout,
        shape.derivations,
        first_json.as_deref(),
        &mut Rng::new(env.seed),
    )?;
    let (mut outcome, outputs) = batch.measure(setup.setup_s)?;
    let streamed = number_after(&setup.first.stdout, "streamed ");
    for stdout in &outputs {
        tally.check(number_after(stdout, "streamed ") == streamed, || {
            format!("a timed run streamed other items: {stdout:.200}")
        });
    }
    if let Some(first_json) = &first_json {
        // The last timed run's document is still on disk.
        tally.check(read_json()? == *first_json, || {
            "the last timed run wrote another document than the first".to_string()
        });
    }
    let sweep = &reference.sweep;
    outcome
        .exact
        .push(("items", sweep.scenarios_swept() as f64));
    outcome
        .exact
        .push(("refined_nodes_mean", check.refined_nodes_mean));
    if shape.derivations.is_some() {
        outcome
            .exact
            .push(("derivations", sweep.derivations as f64));
    } else {
        outcome.note("derivations", sweep.derivations as f64, 1, "count");
    }
    outcome.note(
        "lifted_answer_mismatches",
        check.lifted_mismatches as f64,
        check.lifted_sampled,
        "count",
    );
    outcome.absorb(tally);
    Ok(outcome)
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

/// The served network, its one-clause edit, and the seeded request list.
pub struct ServeInputs {
    pub network: NetworkConfig,
    pub edited: NetworkConfig,
    /// `[ft8.cfg, ft8_edit.cfg]`.
    pub configs: [PathBuf; 2],
    pub requests: Vec<Request>,
}

/// Generates and writes both fattree-8 configuration files and builds the
/// request list: the part of the set-up that happens before the daemon
/// starts.
pub fn serve_inputs(env: &Env<'_>) -> Result<ServeInputs, String> {
    let network = fattree(8, FattreePolicy::ShortestPath);
    let edited = edit_edge0_0(&network);
    let configs = [env.dir.join("ft8.cfg"), env.dir.join("ft8_edit.cfg")];
    write_text(&configs[0], &print_network(&network))?;
    write_text(&configs[1], &print_network(&edited))?;
    let topo = BuiltTopology::build(&network).map_err(|e| format!("fattree-8: {e}"))?;
    let devices: Vec<String> = network.devices.iter().map(|d| d.name.clone()).collect();
    let origins: Vec<String> = network
        .devices
        .iter()
        .filter(|d| !d.originated_prefixes().is_empty())
        .map(|d| d.name.clone())
        .collect();
    let requests = request_list(env.seed, &devices, &origins, &named_links(&topo), REQUESTS);
    Ok(ServeInputs {
        network,
        edited,
        configs,
        requests,
    })
}

/// What a replay does with each reply.
#[derive(Clone, Copy)]
pub enum Expect<'a> {
    /// Keep every reply: later replays on this configuration compare to it.
    Record,
    /// Every reply must equal the recorded one, byte for byte.
    Same(&'a [String]),
}

/// What one replay of the request list saw.
#[derive(Default)]
pub struct Replay {
    pub requests: u64,
    pub replies: Vec<String>,
    /// Replies that were not `"ok": true` (a shed request is one of them)
    /// or differed from the recorded bytes.
    pub bad: u64,
    pub first_problem: Option<String>,
    /// Request write → reply line in microseconds, when asked for.
    pub latencies_us: Vec<f64>,
}

/// Closed loop on one connection: each request is sent after the previous
/// reply arrived, as an operator's script does.
pub fn replay(
    client: &mut LineClient,
    requests: &[Request],
    expect: Expect<'_>,
    time_each: bool,
) -> Result<Replay, String> {
    let mut seen = Replay {
        requests: requests.len() as u64,
        ..Default::default()
    };
    for (i, request) in requests.iter().enumerate() {
        let sent = time_each.then(Instant::now);
        let reply = client
            .call(&request.line)
            .map_err(|e| format!("request {i}: {e}"))?;
        if let Some(sent) = sent {
            seen.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        let good = is_ok(reply)
            && match expect {
                Expect::Record => true,
                Expect::Same(recorded) => reply == recorded[i],
            };
        if !good {
            seen.bad += 1;
            seen.first_problem
                .get_or_insert_with(|| format!("request {i}: `{reply}`"));
        }
        if let Expect::Record = expect {
            seen.replies.push(reply.to_string());
        }
    }
    Ok(seen)
}

/// Pushes one configuration: `reload` onto `config`. The edit is one
/// local-pref clause on one edge router, so exactly one class may be
/// re-derived and nothing rebuilt; anything else is not the operation
/// being measured. Returns the reload's latency in milliseconds.
pub fn push_config(
    client: &mut LineClient,
    config: &Path,
    tally: &mut Tally,
) -> Result<f64, String> {
    let line = format!(
        "{{\"op\": \"reload\", \"path\": \"{}\"}}\n",
        path_str(config)?
    );
    let sent = Instant::now();
    let reply = client.call(&line).map_err(|e| format!("reload: {e}"))?;
    let took_ms = sent.elapsed().as_secs_f64() * 1e3;
    tally.check(
        is_ok(reply)
            && reply.contains("\"full_rebuild\": false")
            && reply.contains("\"rederived\": 1,"),
        || format!("reload answered `{reply}`"),
    );
    Ok(took_ms)
}

/// Folds a replay into the tally: every request is an attempted
/// operation, every bad reply a failed one.
pub fn absorb_replay(tally: &mut Tally, seen: &Replay, what: &str) {
    tally.ops(seen.requests, seen.bad, || {
        format!(
            "{what}: {} bad replies, first {}",
            seen.bad,
            seen.first_problem.as_deref().unwrap_or("?")
        )
    });
}

/// Seeded `reach` replies against a concrete masked simulation of the
/// served network: 256 requests with at most one failed link are gated;
/// 256 with two failed links are counted beside them (the lifted-answer
/// defect described at [`check_sweep_output`] reaches the wire there);
/// returns how many of those were compared and how many differed.
pub fn check_reach_sample(
    tally: &mut Tally,
    inputs: &ServeInputs,
    replies: &[String],
    rng: &mut Rng,
) -> Result<(usize, usize), String> {
    let engine = SimEngine::new(&inputs.network);
    let reach_with = |multi: bool| -> Vec<usize> {
        (0..inputs.requests.len())
            .filter(|&i| {
                inputs.requests[i].is_reach && (inputs.requests[i].links.len() > 1) == multi
            })
            .collect()
    };
    let gated = reach_with(false);
    for pick in rng.sample(gated.len(), 256) {
        let i = gated[pick];
        let expected = expected_reach_reply(&engine, &inputs.requests[i])?;
        tally.check(replies[i] == expected, || {
            format!(
                "{} answered `{}`, concrete simulation says `{expected}`",
                inputs.requests[i].line.trim_end(),
                replies[i]
            )
        });
    }
    let observed = reach_with(true);
    let picks = rng.sample(observed.len(), 256);
    let mut mismatches = 0;
    for &pick in &picks {
        let i = observed[pick];
        let expected = expected_reach_reply(&engine, &inputs.requests[i])?;
        mismatches += usize::from(replies[i] != expected);
    }
    Ok((picks.len(), mismatches))
}

/// One daemon, one connection, config pushes beside reads: each timed
/// operation is a `reload` onto the other of the two configurations
/// followed by the whole standing request list, as a rolling update's
/// script does it. One untimed B, A pair fills the memos and records the
/// replies every later replay on the same configuration must repeat.
/// Client and daemon share one CPU (see [`pin_to_one_cpu`]).
fn serve_cycle(env: &Env<'_>) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut rng = Rng::new(env.seed);
    // Before the daemon is spawned: it inherits the mask.
    let pinned = pin_to_one_cpu();
    let begun = Instant::now();
    let inputs = serve_inputs(env)?;
    let daemon = Daemon::spawn(env.bin, &inputs.configs[0], env.dir, K2)?;
    let setup_s = begun.elapsed().as_secs_f64();
    let mut client = LineClient::connect(&daemon.socket)?;
    let n = inputs.requests.len();

    // Indexed like `configs`: [replies on ft8.cfg, replies on ft8_edit.cfg].
    let mut recorded: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for target in [1, 0] {
        push_config(&mut client, &inputs.configs[target], &mut tally)?;
        let seen = replay(&mut client, &inputs.requests, Expect::Record, false)?;
        absorb_replay(&mut tally, &seen, "first replay");
        recorded[target] = seen.replies;
    }
    let lifted = check_reach_sample(&mut tally, &inputs, &recorded[0], &mut rng)?;

    let (mut reload_ms, mut replay_ms) = (Vec::new(), Vec::new());
    let op_ms = timed_loop(env.seconds, |i| {
        // The untimed pair ended on ft8.cfg, so the first timed push is
        // the edit.
        let target = (i + 1) % 2;
        let sent = Instant::now();
        reload_ms.push(push_config(
            &mut client,
            &inputs.configs[target],
            &mut tally,
        )?);
        let seen = replay(
            &mut client,
            &inputs.requests,
            Expect::Same(&recorded[target]),
            false,
        )?;
        let took_ms = sent.elapsed().as_secs_f64() * 1e3;
        absorb_replay(&mut tally, &seen, "replay");
        replay_ms.push(took_ms - reload_ms[i]);
        Ok(took_ms)
    })?;
    let peak_mb = daemon.peak_rss_kb()? as f64 / 1024.0;
    drop(client);
    daemon.shutdown()?;

    let mut outcome = Outcome::default();
    outcome.metric("setup_s", setup_s, 1);
    outcome.timed_ops(&op_ms);
    outcome.metric("peak_rss_mb", peak_mb, 1);
    for (name, mut ms) in [("reload_p50_ms", reload_ms), ("replay_p50_ms", replay_ms)] {
        ms.sort_by(f64::total_cmp);
        outcome.note(name, quantile_sorted(&ms, 0.5), ms.len(), "ms");
    }
    outcome.note("requests_per_cycle", n as f64, 1, "count");
    outcome.note(
        "pinned_cpu",
        pinned.map_or(-1.0, |cpu| cpu as f64),
        1,
        "cpu",
    );
    outcome.note(
        "lifted_answer_mismatches",
        lifted.1 as f64,
        lifted.0,
        "count",
    );
    outcome.absorb(tally);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_loop_runs_for_the_time_and_at_least_ten_operations() {
        let ops = timed_loop(0.0, |i| Ok(i as f64)).unwrap();
        assert_eq!(ops.len(), MIN_TIMED_OPS);
        let ops = timed_loop(0.05, |_| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(1.0)
        })
        .unwrap();
        assert!(
            ops.len() > MIN_TIMED_OPS && ops.len() <= 50,
            "{}",
            ops.len()
        );
        assert!(timed_loop(0.0, |_| Err("boom".to_string())).is_err());
    }

    /// A stand-in daemon: answers each request line with the next canned
    /// reply. The replay must record the bytes, accept the same bytes
    /// again, and flag a reply that is not ok or differs in one byte.
    #[test]
    fn replay_compares_replies_byte_for_byte() {
        use std::io::{BufRead, BufReader, Write};
        let dir = crate::measure::TestDir::new("replay");
        let socket = dir.0.join("d.sock");
        let listener = std::os::unix::net::UnixListener::bind(&socket).unwrap();
        let ok = |n: u32| format!("{{\"ok\": true, \"n\": {n}}}");
        let canned = [
            // First pass: recorded.
            vec![ok(0), ok(1), ok(2)],
            // Second pass: the same bytes.
            vec![ok(0), ok(1), ok(2)],
            // Third: one byte more, an error, and a good one.
            vec![
                format!("{} ", ok(0)),
                "{\"ok\": false, \"code\": \"overloaded\"}".to_string(),
                ok(2),
            ],
        ];
        let requests: Vec<Request> = (0..3)
            .map(|i| Request {
                line: format!("{{\"op\": \"ping\", \"i\": {i}}}\n"),
                is_reach: true,
                src: String::new(),
                dst: String::new(),
                links: Vec::new(),
                waypoints: Vec::new(),
            })
            .collect();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (stream, _) = listener.accept().unwrap();
                let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
                let mut out = stream;
                for reply in canned.iter().flatten() {
                    lines.next().unwrap().unwrap();
                    writeln!(out, "{reply}").unwrap();
                }
            });
            let mut client = LineClient::connect(&socket).unwrap();
            let first = replay(&mut client, &requests, Expect::Record, true).unwrap();
            assert_eq!(
                (first.requests, first.bad, first.latencies_us.len()),
                (3, 0, 3)
            );
            assert_eq!(first.replies, [ok(0), ok(1), ok(2)]);
            let same = replay(&mut client, &requests, Expect::Same(&first.replies), false).unwrap();
            assert_eq!((same.bad, same.replies.len()), (0, 0));
            let off = replay(&mut client, &requests, Expect::Same(&first.replies), false).unwrap();
            assert_eq!(off.bad, 2);
            assert!(off.first_problem.unwrap().starts_with("request 0"));
        });
    }

    #[test]
    fn replay_counts_every_request_and_every_bad_reply() {
        let mut tally = Tally::default();
        let good = Replay {
            requests: 100,
            ..Default::default()
        };
        absorb_replay(&mut tally, &good, "replay");
        assert_eq!((tally.attempted, tally.failed), (100, 0));
        let bad = Replay {
            requests: 100,
            bad: 3,
            first_problem: Some("request 7: `{\"ok\": false}`".into()),
            ..Default::default()
        };
        absorb_replay(&mut tally, &bad, "replay");
        assert_eq!((tally.attempted, tally.failed), (200, 3));
        assert!(tally.failures[0].contains("request 7"));
    }

    #[test]
    fn calm_quartile_is_the_reported_metric() {
        let mut outcome = Outcome::default();
        let ops: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        outcome.timed_ops(&ops);
        assert_eq!(
            outcome.metrics["op_calm_ms"],
            Sample {
                value: 3.5,
                samples: 11
            }
        );
        let notes: Vec<(&str, f64)> = outcome
            .notes
            .iter()
            .map(|n| (n.name.as_str(), n.sample.value))
            .collect();
        assert_eq!(
            notes,
            [
                ("op_p50_ms", 6.0),
                ("op_p90_ms", 10.0),
                ("op_p90_samples_beyond", 1.0)
            ]
        );
    }
}
