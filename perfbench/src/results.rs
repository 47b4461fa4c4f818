//! The results file: every workload's metrics plus provenance (git
//! revision, run id, `nproc`, scheduler kind), and the reader that
//! refuses a file whose workloads come from different runs.

use crate::json::{self, Json};
use crate::report::{Config, Metric, Report};
use std::path::Path;

/// Where a run came from.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Unique per process: start time and pid.
    pub run_id: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
}

impl Provenance {
    /// Provenance of the current process.
    pub fn current() -> Provenance {
        // Only ask git about a checkout rooted here, never a parent repo.
        let git_rev = if Path::new(".git").exists() {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        } else {
            None
        };
        let since_epoch = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        Provenance {
            git_rev: git_rev.unwrap_or_else(|| "unknown".to_owned()),
            run_id: format!("{since_epoch:x}-{:x}", std::process::id()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Renders the results file for `reports` (workload name, report).
pub fn render(prov: &Provenance, cfg: &Config, reports: &[(&str, Report)]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|(name, r)| {
            format!(
                "    {{\"name\": {}, \"run_id\": {}, \"git_rev\": {}, \"nproc\": {}, \"scheduler\": {}, \
                 \"attempted\": {}, \"failed\": {}, \"fail_ratio\": {},\n     \"end_to_end\": {},\n     \"named\": {},\n     \"per_layer\": {}}}",
                json::string(name),
                json::string(&prov.run_id),
                json::string(&prov.git_rev),
                prov.nproc,
                json::string(&r.scheduler),
                r.attempted,
                r.failed,
                json::number(r.fail_ratio()),
                metrics_object(&r.end_to_end),
                metrics_object(&r.named),
                metrics_object(&r.layers),
            )
        })
        .collect();
    format!(
        "{{\n  \"run_id\": {},\n  \"git_rev\": {},\n  \"nproc\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        json::string(&prov.run_id),
        json::string(&prov.git_rev),
        prov.nproc,
        cfg.seed,
        json::number(cfg.seconds),
        cfg.trace,
        workloads.join(",\n")
    )
}

/// Reads a results file and checks that it is one run: every workload
/// carries the file's run id, git revision and `nproc`. Returns the
/// workload names.
pub fn check(text: &str) -> Result<Vec<String>, String> {
    let doc = json::parse(text)?;
    let field = |v: &Json, k: &str| -> Result<String, String> {
        match v.get(k) {
            Some(Json::Str(s)) => Ok(s.clone()),
            Some(Json::Num(n)) => Ok(n.to_string()),
            _ => Err(format!("missing field {k:?}")),
        }
    };
    let keys = ["run_id", "git_rev", "nproc"];
    let want: Vec<String> = keys
        .iter()
        .map(|k| field(&doc, k))
        .collect::<Result<_, _>>()?;
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        return Err("missing workloads".to_owned());
    };
    if workloads.is_empty() {
        return Err("no workloads".to_owned());
    }
    let mut names = Vec::new();
    for w in workloads {
        let name = field(w, "name")?;
        for (k, expected) in keys.iter().zip(&want) {
            let got = field(w, k)?;
            if &got != expected {
                return Err(format!(
                    "workload {name:?} comes from another run: {k} {got:?} != {expected:?}"
                ));
            }
        }
        field(w, "scheduler")?;
        names.push(name);
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let prov = Provenance {
            git_rev: "abc".to_owned(),
            run_id: "r1".to_owned(),
            nproc: 2,
        };
        let cfg = Config {
            seed: 1,
            seconds: 2.0,
            trace: false,
            wrong_reference: false,
        };
        let mut r = Report {
            attempted: 3,
            scheduler: "none".to_owned(),
            ..Report::default()
        };
        r.e2e("setup_s", 0.25, "s");
        render(&prov, &cfg, &[("spec", r.clone()), ("gateway", r)])
    }

    #[test]
    fn one_run_is_accepted() {
        assert_eq!(
            check(&sample()),
            Ok(vec!["spec".to_owned(), "gateway".to_owned()])
        );
    }

    #[test]
    fn workloads_from_different_runs_are_rejected() {
        let text = sample();
        let at = text.rfind("\"run_id\": \"r1\"").expect("a workload run id");
        let mixed = format!("{}\"run_id\": \"r2\"{}", &text[..at], &text[at + 14..]);
        let err = check(&mixed).expect_err("mixed runs must be rejected");
        assert!(err.contains("another run"), "{err}");
    }
}
