//! The one harness behind every committed `BENCH_*.json` snapshot.
//!
//! A snapshot bench compares two sides that compute the same thing (the
//! oracle and the fast core, a 4x4 and an 8x2 step, a closed and an open
//! run, ...) and records the ratio of their host times, which holds on
//! any host speed where nanoseconds do not. A bench supplies only its
//! [`Cell`]s; [`run`] owns the rest:
//!
//! * the reps, taken rep-major across cells so a slow host phase lands on
//!   every cell, with the side that runs first alternating from rep to
//!   rep;
//! * each cell's per-rep ratio, summarised by its median and its spread,
//!   the full range of the per-rep ratios: what one run may read on the
//!   host that recorded it;
//! * the snapshot, `BENCH_<bench>.json` at the repo root, one line per
//!   cell;
//! * the gate. Under `BENCH_CHECK=1` a cell fails when its median is
//!   worse than the committed median by more than the committed spread, or
//!   worse than its fixed [`Cell::claim`]. Without it, the run rewrites the
//!   snapshot.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which direction of a cell's ratio is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A higher ratio is better: a speedup.
    Higher,
    /// A lower ratio is better: an overhead or a relative cost.
    Lower,
}

/// One comparison of a snapshot bench: two sides that compute the same
/// thing, timed in the same rep.
pub trait Cell {
    /// The cell's key in its snapshot, unique within the bench.
    fn name(&self) -> &str;
    /// The two sides, numerator first: the cell's ratio is the first
    /// side's host time over the second's.
    fn sides(&self) -> [&str; 2];
    /// Which direction of the ratio is better.
    fn better(&self) -> Better;
    /// A bound the median must clear whatever the snapshot records: the
    /// claim the cell stands for, if it has one.
    fn claim(&self) -> Option<f64> {
        None
    }
    /// Runs one rep of both sides, side `first` (0 or 1) first, and returns
    /// their host times in [`Cell::sides`] order.
    fn rep(&mut self, first: usize) -> [Duration; 2];
}

/// Times `side(first)`, then `side(1 - first)`, `calls` times over, and
/// returns each side's median call time, in side order: [`Cell::rep`] for
/// a cell whose sides are calls. Short calls taken in turn see the same
/// host speed, and the median drops a call the host interrupted. Each
/// call's result is dropped after its clock stops.
pub fn time_sides<R>(
    first: usize,
    calls: usize,
    mut side: impl FnMut(usize) -> R,
) -> [Duration; 2] {
    let mut times = [vec![], vec![]];
    for _ in 0..calls {
        for s in [first, 1 - first] {
            let start = Instant::now();
            let result = side(s);
            times[s].push(start.elapsed());
            drop(result);
        }
    }
    times.map(|mut t| {
        t.sort();
        t[t.len() / 2]
    })
}

/// Measures `cells` over `reps` reps, prints each cell's summary, and then
/// either gates the cells against `BENCH_<bench>.json` (under
/// `BENCH_CHECK=1`) or rewrites that file. Exits with status 1 when a cell
/// fails its gate or the snapshot cannot be read or written.
pub fn run<C: Cell>(bench: &str, reps: usize, cells: &mut [C]) {
    let measured = measure(reps, cells);
    for (cell, m) in cells.iter().zip(&measured) {
        let [a, b] = cell.sides();
        println!(
            "{bench}/{}: {a}/{b} median {:.3}, spread {:.3} ({a} {:.3} ms, {b} {:.3} ms)",
            cell.name(),
            m.median,
            m.spread,
            m.ms[0],
            m.ms[1]
        );
    }
    let path = snapshot_path(bench);
    let fail = |why: String| -> ! {
        eprintln!("{}", unusable(bench, &why));
        std::process::exit(1)
    };
    if std::env::var("BENCH_CHECK").is_ok_and(|v| v == "1") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(e.to_string()));
        if !check(&text, cells, &measured).unwrap_or_else(|e| fail(e)) {
            eprintln!(
                "{bench}: a cell regressed beyond its band in {}",
                path.display()
            );
            std::process::exit(1);
        }
    } else {
        let json = render(bench, reps, cells, &measured);
        std::fs::write(&path, json).unwrap_or_else(|e| fail(e.to_string()));
        println!("wrote {}", path.display());
    }
}

fn snapshot_path(bench: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{bench}.json"))
}

/// Why the snapshot of `bench` cannot serve, naming the file and the
/// command that regenerates it.
fn unusable(bench: &str, why: &str) -> String {
    format!(
        "{}: {why}; regenerate it with `cargo bench -p vliw-bench --bench {bench}`",
        snapshot_path(bench).display()
    )
}

/// One cell's run: its per-rep ratio summarised, and each side's median
/// host time in ms.
#[derive(Debug, Clone, PartialEq)]
struct Measured {
    median: f64,
    spread: f64,
    ms: [f64; 2],
}

fn measure<C: Cell>(reps: usize, cells: &mut [C]) -> Vec<Measured> {
    let mut times = vec![Vec::with_capacity(reps); cells.len()];
    for rep in 0..reps {
        for (cell, t) in cells.iter_mut().zip(&mut times) {
            t.push(cell.rep(rep % 2).map(|d| d.as_secs_f64() * 1e3));
        }
    }
    times.iter().map(|t| summarise(t)).collect()
}

fn summarise(times: &[[f64; 2]]) -> Measured {
    let sorted = |side: &dyn Fn(&[f64; 2]) -> f64| {
        let mut v: Vec<f64> = times.iter().map(side).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let ratios = sorted(&|t| t[0] / t[1]);
    Measured {
        median: ratios[ratios.len() / 2],
        spread: ratios[ratios.len() - 1] - ratios[0],
        ms: [0, 1].map(|s| sorted(&|t| t[s])[times.len() / 2]),
    }
}

fn render<C: Cell>(bench: &str, reps: usize, cells: &[C], measured: &[Measured]) -> String {
    let mut s = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"reps\": {reps},\n  \"note\": \"*_ms are machine-specific \
         medians; BENCH_CHECK=1 gates each cell's median ratio against median and spread\",\n  \
         \"cells\": [\n"
    );
    for (i, (cell, m)) in cells.iter().zip(measured).enumerate() {
        let [a, b] = cell.sides();
        let better = match cell.better() {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        let _ = writeln!(
            s,
            "    {{\"cell\":\"{}\",\"ratio\":\"{a}/{b}\",\"better\":\"{better}\",\"median\":{:.3},\
             \"spread\":{:.3},\"{a}_ms\":{:.3},\"{b}_ms\":{:.3}}}{}",
            cell.name(),
            m.median,
            m.spread,
            m.ms[0],
            m.ms[1],
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    s + "  ]\n}\n"
}

/// The committed median and spread of cell `name` in snapshot `text`.
fn committed(text: &str, name: &str) -> Result<(f64, f64), String> {
    let key = format!("{{\"cell\":\"{name}\",");
    let line = text
        .lines()
        .find(|l| l.contains(&key))
        .ok_or_else(|| format!("no cell \"{name}\""))?;
    let field = |field: &str| {
        line.split(&format!("\"{field}\":"))
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("cell \"{name}\" has no number \"{field}\""))
    };
    Ok((field("median")?, field("spread")?))
}

/// The worst median a cell may read: the committed median moved by the
/// committed spread in the worse direction, held to the claim if stricter.
fn edge(better: Better, median: f64, spread: f64, claim: Option<f64>) -> f64 {
    match better {
        Better::Higher => claim.map_or(median - spread, |c| c.max(median - spread)),
        Better::Lower => claim.map_or(median + spread, |c| c.min(median + spread)),
    }
}

/// Whether `median` clears `edge`. Both are compared at the snapshot's
/// three decimals, so a median that reads exactly the edge passes.
fn passes(better: Better, median: f64, edge: f64) -> bool {
    let round = |x: f64| (x * 1e3).round();
    match better {
        Better::Higher => round(median) >= round(edge),
        Better::Lower => round(median) <= round(edge),
    }
}

/// Gates every measured cell against snapshot `text`, printing one verdict
/// per cell; whether all passed.
fn check<C: Cell>(text: &str, cells: &[C], measured: &[Measured]) -> Result<bool, String> {
    let mut ok = true;
    for (cell, m) in cells.iter().zip(measured) {
        let (median, spread) = committed(text, cell.name())?;
        let edge = edge(cell.better(), median, spread, cell.claim());
        let pass = passes(cell.better(), m.median, edge);
        println!(
            "check {}: median {:.3} vs committed {median:.3} ± {spread:.3}{} (edge {edge:.3}) — {}",
            cell.name(),
            m.median,
            cell.claim()
                .map_or(String::new(), |c| format!(", claim {c:.3}")),
            if pass { "ok" } else { "REGRESSION" }
        );
        ok &= pass;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell with fixed timings: rep `r` takes `num[r % num.len()]` ms
    /// on the first side and 1 ms on the second, whichever runs first.
    struct Fixed {
        name: &'static str,
        better: Better,
        claim: Option<f64>,
        num: Vec<f64>,
        rep: usize,
    }

    impl Fixed {
        fn new(name: &'static str, better: Better, num: &[f64]) -> Self {
            Fixed {
                name,
                better,
                claim: None,
                num: num.to_vec(),
                rep: 0,
            }
        }
    }

    impl Cell for Fixed {
        fn name(&self) -> &str {
            self.name
        }
        fn sides(&self) -> [&str; 2] {
            ["slow", "fast"]
        }
        fn better(&self) -> Better {
            self.better
        }
        fn claim(&self) -> Option<f64> {
            self.claim
        }
        fn rep(&mut self, _first: usize) -> [Duration; 2] {
            let ms = self.num[self.rep % self.num.len()];
            self.rep += 1;
            [Duration::from_secs_f64(ms / 1e3), Duration::from_millis(1)]
        }
    }

    #[test]
    fn a_written_snapshot_reads_back_each_cells_median_and_spread() {
        let mut cells = [
            Fixed::new("speedup", Better::Higher, &[8.5, 6.0, 7.25]),
            Fixed::new("overhead", Better::Lower, &[1.0, 1.125]),
        ];
        let measured = measure(5, &mut cells);
        // Ratios 8.5, 6, 7.25, 8.5, 6 and 1, 1.125, 1, 1.125, 1.
        assert_eq!((measured[0].median, measured[0].spread), (7.25, 2.5));
        assert_eq!((measured[1].median, measured[1].spread), (1.0, 0.125));
        assert_eq!(measured[0].ms, [7.25, 1.0]);
        let text = render("fake", 5, &cells, &measured);
        assert_eq!(text.lines().filter(|l| l.contains("\"cell\"")).count(), 2);
        assert_eq!(committed(&text, "speedup"), Ok((7.25, 2.5)));
        assert_eq!(committed(&text, "overhead"), Ok((1.0, 0.125)));
        assert_eq!(check(&text, &cells, &measured), Ok(true));
    }

    #[test]
    fn the_gate_fails_a_worse_median_in_either_direction() {
        assert_eq!(edge(Better::Higher, 7.0, 1.5, None), 5.5);
        assert!(passes(Better::Higher, 5.6, 5.5));
        assert!(!passes(Better::Higher, 5.4, 5.5));
        assert!(passes(Better::Higher, 100.0, 5.5), "better is never a fail");
        assert_eq!(edge(Better::Lower, 1.0, 0.25, None), 1.25);
        assert!(passes(Better::Lower, 1.2, 1.25));
        assert!(!passes(Better::Lower, 1.3, 1.25));
        assert!(passes(Better::Lower, 0.1, 1.25), "better is never a fail");
    }

    #[test]
    fn a_median_exactly_on_the_band_edge_passes() {
        // 2.63 - 0.17 and 0.995 + 0.093 are not exact in binary.
        let text = "{\"cell\":\"a\",\"median\":2.630,\"spread\":0.170}\n\
                    {\"cell\":\"b\",\"median\":0.995,\"spread\":0.093}";
        let (median, spread) = committed(text, "a").unwrap();
        assert!(passes(
            Better::Higher,
            2.46,
            edge(Better::Higher, median, spread, None)
        ));
        assert!(!passes(
            Better::Higher,
            2.459,
            edge(Better::Higher, median, spread, None)
        ));
        let (median, spread) = committed(text, "b").unwrap();
        assert!(passes(
            Better::Lower,
            1.088,
            edge(Better::Lower, median, spread, None)
        ));
        assert!(!passes(
            Better::Lower,
            1.089,
            edge(Better::Lower, median, spread, None)
        ));
    }

    #[test]
    fn the_claim_fails_a_cell_even_below_a_committed_median_under_it() {
        let mut far = Fixed::new("far", Better::Higher, &[4.5]);
        far.claim = Some(5.0);
        let mut cells = [far];
        let measured = measure(3, &mut cells);
        // Recorded at 4.5 ± 0: the band alone would pass 4.5 again.
        let text = render("fake", 3, &cells, &measured);
        assert_eq!(edge(Better::Higher, 4.5, 0.0, None), 4.5);
        assert_eq!(edge(Better::Higher, 4.5, 0.0, Some(5.0)), 5.0);
        assert_eq!(check(&text, &cells, &measured), Ok(false));
        // A stricter band still wins over a looser claim.
        assert_eq!(edge(Better::Higher, 9.0, 1.0, Some(5.0)), 8.0);
    }

    #[test]
    fn a_missing_cell_or_number_is_an_error_naming_it() {
        let cells = [Fixed::new("gone", Better::Lower, &[1.0])];
        let measured = [Measured {
            median: 1.0,
            spread: 0.0,
            ms: [1.0, 1.0],
        }];
        let err = check("{\"cell\":\"other\",\"median\":1.000}", &cells, &measured);
        assert_eq!(err, Err("no cell \"gone\"".into()));
        let bad = "{\"cell\":\"gone\",\"median\":x,\"spread\":0.1}";
        assert_eq!(
            committed(bad, "gone"),
            Err("cell \"gone\" has no number \"median\"".into())
        );
        let msg = unusable("fake", "no cell \"gone\"");
        assert!(msg.ends_with(
            "BENCH_fake.json: no cell \"gone\"; regenerate it with \
             `cargo bench -p vliw-bench --bench fake`"
        ));
    }
}
