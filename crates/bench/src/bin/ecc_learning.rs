//! ECC learning curves: how fast the pattern predictor becomes a useful
//! reporter.
//!
//! The paper's ECC units learn each household's consumption pattern and
//! report on its behalf (§I). Here every household has a *noisy habit*: a
//! base preferred window that jitters by ±1 hour from day to day inside a
//! wider tolerance. The ECC only ever sees realized consumption. Two
//! curves are measured per day:
//!
//! * **prediction hit rate** — the predicted (margin-widened) window
//!   contains that day's actual habit window;
//! * **mean satisfaction** — `τ/v`, how much of the habit window the
//!   mechanism's allocation covers when the ECC's prediction (clamped to
//!   the household's tolerance) is submitted as the report.
//!
//! Both climb over the first days and then plateau — the learning
//! transient the paper's day-ahead design presumes away.

use enki_bench::{print_table, write_json, RunArgs};
use enki_core::prelude::*;
use enki_sim::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;

#[derive(Serialize)]
struct LearningDay {
    day: usize,
    prediction_hit_rate: f64,
    mean_satisfaction: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let (n, days) = if args.fast { (10, 7) } else { (30, 21) };
    let enki = Enki::new(EnkiConfig::default());
    let profile_config = ProfileConfig::default();
    let margin = 2u8;

    let mut rng = StdRng::seed_from_u64(args.seed);
    let profiles: Vec<UsageProfile> = (0..n)
        .map(|_| UsageProfile::generate(&mut rng, &profile_config))
        .collect();
    let mut predictors: Vec<EccPredictor> = (0..n)
        .map(|_| EccPredictor::new(0.3).expect("valid smoothing"))
        .collect();

    // Today's habit: the base narrow window jittered ±1 hour, kept inside
    // the wide tolerance.
    let habit = |p: &UsageProfile, rng: &mut StdRng| -> Preference {
        let base = p.narrow();
        let jitter = rng.random_range(-1..=1i16);
        let lo = i16::from(p.wide().begin());
        let hi = i16::from(p.wide().end() - base.duration());
        let begin = (i16::from(base.begin()) + jitter).clamp(lo, hi) as u8;
        Preference::exact(begin, base.duration()).expect("jittered habit fits the day")
    };

    let mut rows = Vec::new();
    for day in 1..=days {
        let habits: Vec<Preference> =
            profiles.iter().map(|p| habit(p, &mut rng)).collect();

        // Reports: the ECC prediction intersected with the household's
        // tolerance (the ECC is configured with the tolerance); the narrow
        // base is the cold-start fallback.
        let mut hits = 0usize;
        let reports: Vec<Report> = profiles
            .iter()
            .zip(&predictors)
            .zip(&habits)
            .enumerate()
            .map(|(i, ((p, ecc), today))| {
                let predicted = ecc.predict(p.duration(), margin);
                if let Some(pred) = &predicted {
                    if pred.window().contains(&today.window()) {
                        hits += 1;
                    }
                }
                let preference = predicted
                    .and_then(|pred| {
                        // Clamp the predicted window into the tolerance.
                        let begin = pred.begin().max(p.wide().begin());
                        let end = pred.end().min(p.wide().end());
                        Preference::new(begin, end, p.duration()).ok()
                    })
                    .unwrap_or_else(|| p.narrow());
                Report::new(HouseholdId::new(i as u32), preference)
            })
            .collect();

        let outcome = enki.allocate(&reports, &mut rng)?;
        // Consumption: as close to today's habit as the tolerance allows,
        // starting from the allocation.
        let consumption: Vec<Interval> = outcome
            .assignments
            .iter()
            .zip(&habits)
            .zip(&profiles)
            .map(|((a, today), p)| {
                let preferred = p.wide().closest_window(today.window());
                // Follow the allocation when it already covers the habit;
                // otherwise consume the habit itself.
                if a.window.contains(&today.window()) {
                    a.window
                } else {
                    preferred
                }
            })
            .collect();
        let satisfaction: f64 = outcome
            .assignments
            .iter()
            .zip(&habits)
            .map(|(a, today)| {
                f64::from(a.window.overlap(&today.window()))
                    / f64::from(today.duration())
            })
            .sum::<f64>()
            / n as f64;

        for (ecc, w) in predictors.iter_mut().zip(&consumption) {
            ecc.observe(*w);
        }

        rows.push(LearningDay {
            day,
            prediction_hit_rate: hits as f64 / n as f64,
            mean_satisfaction: satisfaction,
        });
    }

    println!("ECC learning curves (n = {n}, {days} days, margin {margin}h)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.day.to_string(),
                format!("{:.2}", r.prediction_hit_rate),
                format!("{:.2}", r.mean_satisfaction),
            ]
        })
        .collect();
    print_table(&["day", "prediction hit rate", "mean satisfaction"], &table);

    let early: f64 = rows[..3].iter().map(|r| r.prediction_hit_rate).sum::<f64>() / 3.0;
    let late: f64 = rows[rows.len() - 3..]
        .iter()
        .map(|r| r.prediction_hit_rate)
        .sum::<f64>()
        / 3.0;
    println!(
        "\nprediction hit rate: {:.2} (first 3 days, includes the cold start) → {:.2} (last 3 days)",
        early, late
    );
    assert!(late >= early, "the learner must improve over its cold start");
    println!("✓ the ECC transient settles within a few days of history");

    let path = write_json("ecc_learning", &rows)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
