//! Results on disk: one JSON file per run, the spans of traced runs, and a
//! ledger holding each metric's last measurement per workload, in which a
//! metric never measured (or a layer the workload never calls) says
//! `never`.
//!
//! Everything lands in `perfbench/results/` (not committed).  The ledger
//! starts from the committed `perfbench/ledger.tsv` baseline.

use crate::{layers, machine, Outcome, Settings, HELDOUT_POOL, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The benchmark directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where runs write their results.
pub fn results_dir() -> PathBuf {
    bench_dir().join("results")
}

const LEDGER_HEADER: &str =
    "workload\tmetric\tunit\tvalue\tseed/pool\tunix_time\tnproc\tcpu\trustc\tcommit";

/// Writes the run's results file and updates the ledger.
pub fn save(
    workload: &str,
    settings: &Settings,
    outcome: &Outcome,
    reported: &[(String, &str)],
) -> std::io::Result<()> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let root = bench_dir().join("..");
    let commit = machine::commit(&root);
    let cpu = machine::cpu_model();
    let when = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mode = if settings.trace { "trace" } else { "e2e" };

    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, unit)| {
            format!(
                "    \"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                outcome.metrics[name]
            )
        })
        .collect();
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("    \"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    let moves: Vec<String> = if settings.trace {
        layers::per_layer()
            .iter()
            .map(|m| format!("    \"{}\": \"{}\"", m.name, m.moves))
            .collect()
    } else {
        Vec::new()
    };
    let body = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"mode\": \"{mode}\",\n  \"seed\": {},\n  \"pool\": {},\n  \
         \"heldout_pool\": {HELDOUT_POOL},\n  \"seconds\": {},\n  \"nproc\": {},\n  \
         \"cpu\": \"{cpu}\",\n  \"rustc\": \"{}\",\n  \"commit\": \"{commit}\",\n  \
         \"unix_time\": {when},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"metrics\": {{\n{}\n  }},\n  \"notes\": {{\n{}\n  }},\n  \"moves\": {{\n{}\n  }}\n}}\n",
        settings.seed,
        settings.pool,
        settings.seconds,
        machine::nproc(),
        machine::rustc(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",\n"),
        notes.join(",\n"),
        moves.join(",\n"),
    );
    std::fs::write(
        dir.join(format!("{workload}-{mode}-seed{}.json", settings.seed)),
        body,
    )?;

    let ledger_path = dir.join("ledger.tsv");
    let mut ledger = read_ledger(&ledger_path)
        .or_else(|_| read_ledger(&bench_dir().join("ledger.tsv")))
        .unwrap_or_default();
    for (name, unit) in reported {
        if outcome.unexercised.contains(name) {
            continue;
        }
        ledger.insert(
            (workload.to_string(), name.clone()),
            format!(
                "{unit}\t{:?}\t{}/{}\t{when}\t{}\t{cpu}\t{}\t{commit}",
                outcome.metrics[name],
                settings.seed,
                settings.pool,
                machine::nproc(),
                machine::rustc()
            ),
        );
    }
    write_ledger(&ledger_path, &ledger)
}

type Ledger = BTreeMap<(String, String), String>;

fn read_ledger(path: &Path) -> std::io::Result<Ledger> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .skip(1)
        .filter_map(|line| {
            let mut parts = line.splitn(3, '\t');
            Some((
                (parts.next()?.to_string(), parts.next()?.to_string()),
                parts.next()?.to_string(),
            ))
        })
        .collect())
}

/// Writes every workload × metric row; rows never measured say `never`.
fn write_ledger(path: &Path, ledger: &Ledger) -> std::io::Result<()> {
    let mut out = String::from(LEDGER_HEADER);
    out.push('\n');
    let names: Vec<(String, &str)> = layers::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .chain(layers::per_layer().into_iter().map(|m| (m.name, m.unit)))
        .collect();
    for (workload, _) in WORKLOADS {
        for (name, unit) in &names {
            let key = (workload.to_string(), name.clone());
            let row = ledger
                .get(&key)
                .cloned()
                .unwrap_or_else(|| format!("{unit}\tnever\t-\t-\t-\t-\t-\t-"));
            out += &format!("{workload}\t{name}\t{row}\n");
        }
    }
    let tmp = path.with_extension("tsv.tmp");
    std::fs::write(&tmp, out)?;
    std::fs::rename(tmp, path)
}

/// Writes a traced run's spans next to its results.
pub fn save_spans(workload: &str, seed: u64, tracer: &crate::trace::Tracer) {
    let dir = results_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| tracer.write(&dir.join(format!("{workload}-spans-seed{seed}.tsv"))));
    if let Err(error) = written {
        eprintln!("perfbench: could not write spans: {error}");
    }
}
