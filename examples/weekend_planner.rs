//! The paper's motivating scenario (§1): Alice the sports-and-music fan
//! faces a Saturday with three partially conflicting Meetup events — a
//! running club 9–11 a.m., a tennis match 10 a.m.–1:30 p.m. and a jazz
//! party 2–3 p.m. — plus travel costs and a budget. USEP plans for her
//! *and* everyone else at once, respecting event capacities.
//!
//! ```sh
//! cargo run --release --example weekend_planner
//! ```

use usep::algos::{DeDPO, Solver};
use usep::core::{Cost, InstanceBuilder, Point, TimeInterval, UserId};

fn t(hhmm: (i64, i64)) -> i64 {
    hhmm.0 * 60 + hhmm.1 // minutes since midnight
}

fn main() {
    let mut b = InstanceBuilder::new();

    // Saturday's events around town (locations on a city grid, one unit
    // ≈ 100 m of Manhattan walking; cost is travel effort).
    let running = b.event(
        20,
        Point::new(10, 40),
        TimeInterval::new(t((9, 0)), t((11, 0))).unwrap(),
    );
    let tennis = b.event(
        4,
        Point::new(60, 35),
        TimeInterval::new(t((10, 0)), t((13, 30))).unwrap(),
    );
    let jazz = b.event(
        30,
        Point::new(30, 5),
        TimeInterval::new(t((14, 0)), t((15, 0))).unwrap(),
    );
    let brunch = b.event(
        6,
        Point::new(15, 35),
        TimeInterval::new(t((11, 30)), t((13, 0))).unwrap(),
    );
    let names = ["running club", "tennis match", "jazz party", "brunch meetup"];

    // Users: Alice and friends, with homes and travel budgets.
    let _alice = b.user(Point::new(20, 30), Cost::new(120));
    let _bob = b.user(Point::new(55, 40), Cost::new(60));
    let _carol = b.user(Point::new(28, 8), Cost::new(90));
    let _dave = b.user(Point::new(12, 42), Cost::new(200));
    let people = ["Alice", "Bob", "Carol", "Dave"];

    // Interests (μ): Alice likes everything, the others are pickier.
    for (v, mus) in [
        (running, [0.9, 0.1, 0.0, 0.8]),
        (tennis, [0.8, 0.9, 0.0, 0.3]),
        (jazz, [0.7, 0.2, 0.9, 0.6]),
        (brunch, [0.5, 0.4, 0.6, 0.7]),
    ] {
        for (u, mu) in mus.into_iter().enumerate() {
            b.utility(v, UserId(u as u32), mu);
        }
    }

    let inst = b.build().expect("valid instance");
    let planning = DeDPO::new().with_augment().solve(&inst);
    planning.validate(&inst).expect("feasible");

    println!("USEP planning (DeDPO+RG), Ω = {:.2}\n", planning.omega(&inst));
    for (ui, name) in people.iter().enumerate() {
        let u = UserId(ui as u32);
        let s = planning.schedule(u);
        if s.is_empty() {
            println!("{name:>6}: stays home");
            continue;
        }
        let legs: Vec<String> = s
            .events()
            .iter()
            .map(|&v| {
                let e = inst.event(v);
                format!(
                    "{} ({:02}:{:02}-{:02}:{:02})",
                    names[v.index()],
                    e.time.start() / 60,
                    e.time.start() % 60,
                    e.time.end() / 60,
                    e.time.end() % 60
                )
            })
            .collect();
        println!(
            "{name:>6}: {}  [travel {} of budget {}]",
            legs.join(" → "),
            s.total_cost(&inst.freeze(), u),
            inst.user(u).budget
        );
    }

    // The running club (9-11) and tennis (10-13:30) conflict: nobody can
    // attend both, which is exactly the dilemma the paper opens with.
    let both = inst.cost_vv(running, tennis).is_finite()
        || inst.cost_vv(tennis, running).is_finite();
    println!("\nrunning club and tennis compatible? {both} (they overlap 10-11 a.m.)");
}
