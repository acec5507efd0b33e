//! Remark 2 in action: events with participation fees. The paper's
//! reduction charges each event's fee on the inbound travel leg
//! (`cost'(u, v) = cost(u, v) + fee_v`), so a money budget covers both
//! travel and tickets — no algorithm changes needed.
//!
//! Also shows Remark 1: restricting each user to their own candidate
//! list `V_u` by zeroing utilities outside it.
//!
//! ```sh
//! cargo run --release --example ticketed_events
//! ```

use usep::algos::{solve, Algorithm};
use usep::core::{Cost, EventId, InstanceBuilder, Point, TimeInterval, UserId};

fn main() {
    let mut b = InstanceBuilder::new();
    // a free park run, a cheap gallery, a pricey concert — sequential slots
    let park = b.event(50, Point::new(2, 2), TimeInterval::new(540, 660).unwrap());
    let gallery = b.event(10, Point::new(6, 3), TimeInterval::new(720, 840).unwrap());
    let concert = b.event(5, Point::new(4, 8), TimeInterval::new(900, 1020).unwrap());
    b.fee(park, 0);
    b.fee(gallery, 8);
    b.fee(concert, 40);
    let names = ["park run (free)", "gallery ($8)", "concert ($40)"];

    let budgets = [20u32, 40, 80];
    for &budget in &budgets {
        b.user(Point::new(0, 0), Cost::new(budget));
    }
    for v in [park, gallery, concert] {
        for u in 0..budgets.len() as u32 {
            b.utility(v, UserId(u), 0.8);
        }
    }
    let inst = b.build().expect("valid instance");

    println!("everyone likes everything equally; budgets differ:\n");
    let plan = solve(Algorithm::DeDPO, &inst);
    plan.validate(&inst).unwrap();
    for (ui, &budget) in budgets.iter().enumerate() {
        let u = UserId(ui as u32);
        let s = plan.schedule(u);
        let what: Vec<&str> = s.events().iter().map(|&v| names[v.index()]).collect();
        println!(
            "budget ${budget:>3}: {}  (spends {} on travel+tickets)",
            if what.is_empty() { "stays home".to_string() } else { what.join(" + ") },
            s.total_cost(&inst.freeze(), u)
        );
    }

    // Remark 1: the $80 user refuses concerts — restrict their list
    let sets: Vec<Vec<EventId>> = vec![
        vec![park, gallery, concert],
        vec![park, gallery, concert],
        vec![park, gallery], // no concert for user 2
    ];
    let restricted = inst.restrict_candidates(&sets);
    let plan2 = solve(Algorithm::DeDPO, &restricted);
    let s = plan2.schedule(UserId(2));
    let what: Vec<&str> = s.events().iter().map(|&v| names[v.index()]).collect();
    println!("\nwith a candidate list excluding the concert, the $80 user gets:");
    println!("  {}", what.join(" + "));
    assert!(!s.contains(concert));
}
