//! The untraced measurement loop shared by every workload.

use std::time::{Duration, Instant};

/// Fewest set-up calls timed per run; `setup_s` is the fastest.
const MIN_SETUPS: usize = 5;
/// Cheap set-ups repeat until this much time is spent on them, so a
/// 10 ms set-up is not judged on five samples.
const SETUP_BUDGET: Duration = Duration::from_millis(1_000);
/// Most set-up calls per run.
const MAX_SETUPS: usize = 40;
/// Fewest reps per run, however short the budget.
const MIN_REPS: usize = 3;

/// A verified rep: its digest and, where the paper has reference
/// values for the workload, the distance from them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checked {
    /// `sim_digest`: FNV-1a-64 over the rep's simulated statistics.
    pub digest: u64,
    /// Mean absolute relative error against the paper's headline
    /// values, in percent.
    pub paper_abs_err_pct: Option<f64>,
}

/// One untraced run of one workload.
#[derive(Debug, Clone)]
pub struct Untraced {
    /// Wall time of each timed set-up call, s.
    pub setup_secs: Vec<f64>,
    /// Wall time of each rep of the timed region, s.
    pub rep_secs: Vec<f64>,
    /// One line per failed rep: which rep, and why.
    pub failures: Vec<String>,
    /// Rep 0's verdict; later reps must reproduce its digest.
    pub first: Option<Checked>,
    /// `VmHWM` after the first set-up and the first rep, MiB.
    pub peak_rss_mib: f64,
}

impl Untraced {
    /// The rep time `units_per_s` is computed from: the fastest rep.
    ///
    /// The single-threaded, deterministic timed regions here can only
    /// be slowed by the machine (a busy sibling core, a cold cache),
    /// never sped up, so the fastest of N is the steadiest estimate of
    /// what the code costs — ROADMAP's "best-of-N". On the 2-core
    /// sandbox this was written on, ten same-seed `crawl-small` runs
    /// spread 17% by their median rep and 5.5% by their fastest.
    pub fn rep_best_s(&self) -> f64 {
        fastest(&self.rep_secs)
    }

    /// The set-up time reported as `setup_s`: the fastest call, for
    /// the reason given at [`Untraced::rep_best_s`].
    pub fn setup_best_s(&self) -> f64 {
        fastest(&self.setup_secs)
    }
}

fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Run one set-up and one rep, note the peak resident set, then time
/// `setup` several more times and repeat `rep` on the first set-up's
/// result until `budget` is spent on reps (at least [`MIN_REPS`] of
/// them), checking every rep with `verify`. A rep fails if `verify`
/// rejects it or its digest differs from rep 0's. Only the `setup` and
/// `rep` calls themselves are timed: verification and dropping the
/// outputs happen between timed regions.
///
/// The resident-set peak is read after the first rep because that is
/// what one `repro` run peaks at; later reps add heap fragmentation
/// that grows with their count, and their count follows the clock.
pub fn measure<I, O>(
    budget: Duration,
    setup: impl Fn() -> I,
    rep: impl Fn(&I) -> O,
    verify: impl Fn(&O) -> Result<Checked, String>,
) -> Result<Untraced, String> {
    let mut run = Untraced {
        setup_secs: Vec::new(),
        rep_secs: Vec::new(),
        failures: Vec::new(),
        first: None,
        peak_rss_mib: 0.0,
    };
    let timed_setup = |run: &mut Untraced| {
        let t = Instant::now();
        let input = setup();
        run.setup_secs.push(t.elapsed().as_secs_f64());
        input
    };
    // Returns what the rep cost the budget: the call, its check and
    // the drop of its output.
    let timed_rep = |run: &mut Untraced, input: &I| {
        let i = run.rep_secs.len();
        let t = Instant::now();
        let output = std::hint::black_box(rep(std::hint::black_box(input)));
        run.rep_secs.push(t.elapsed().as_secs_f64());
        match (verify(&output), run.first) {
            (Err(why), _) => run.failures.push(format!("rep {i}: {why}")),
            (Ok(c), None) => run.first = Some(c),
            (Ok(c), Some(first)) if c.digest != first.digest => run.failures.push(format!(
                "rep {i}: sim_digest {:#018x} differs from rep 0's {:#018x}",
                c.digest, first.digest
            )),
            (Ok(_), Some(_)) => {}
        }
        drop(output);
        t.elapsed()
    };

    let input = timed_setup(&mut run);
    let mut spent = timed_rep(&mut run, &input);
    run.peak_rss_mib = peak_rss_mib()?;

    let setup_start = Instant::now();
    while run.setup_secs.len() < MIN_SETUPS
        || (setup_start.elapsed() < SETUP_BUDGET && run.setup_secs.len() < MAX_SETUPS)
    {
        drop(timed_setup(&mut run));
    }
    while run.rep_secs.len() < MIN_REPS || spent < budget {
        spent += timed_rep(&mut run, &input);
    }
    Ok(run)
}

/// Peak resident set of this process, MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn ok(digest: u64) -> Result<Checked, String> {
        Ok(Checked {
            digest,
            paper_abs_err_pct: None,
        })
    }

    #[test]
    fn measure_times_setups_and_reps_and_hands_the_first_input_over() {
        let setups = Cell::new(0u32);
        let run = measure(
            Duration::ZERO,
            || {
                setups.set(setups.get() + 1);
                std::thread::sleep(Duration::from_millis(30));
                setups.get()
            },
            |&input| input,
            |&out| {
                assert_eq!(out, 1, "reps see the first set-up's result");
                ok(9)
            },
        )
        .unwrap();
        assert_eq!(run.rep_secs.len(), MIN_REPS);
        assert_eq!(run.setup_secs.len(), setups.get() as usize);
        assert!((MIN_SETUPS..=MAX_SETUPS).contains(&run.setup_secs.len()));
        assert!(run.setup_best_s() >= 0.03 && run.rep_best_s() < 0.03);
        assert!(run.failures.is_empty());
        assert_eq!(run.first, ok(9).ok());
        assert!(run.peak_rss_mib > 0.5);
    }

    #[test]
    fn a_changed_digest_or_a_broken_invariant_fails_the_rep() {
        let n = Cell::new(0u64);
        let run = measure(
            Duration::ZERO,
            || (),
            |()| {
                n.set(n.get() + 1);
                n.get()
            },
            |&out| match out {
                1 => ok(7),
                2 => ok(8),
                _ => Err("pages mismatch".into()),
            },
        )
        .unwrap();
        assert_eq!(run.failures.len(), 2);
        assert!(run.failures[0].contains("rep 1") && run.failures[0].contains("differs"));
        assert!(run.failures[1].contains("rep 2: pages mismatch"));
    }

    #[test]
    fn peak_rss_is_read_and_positive() {
        assert!(peak_rss_mib().unwrap() > 0.5);
    }
}
