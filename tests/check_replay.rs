//! Stored-counterexample regression corpus.
//!
//! Every `tests/fixtures/*.check` file is a schedule the checker once
//! produced (or a hand-pinned clean schedule worth guarding): scenario,
//! bounds, choice list, and the verdict that run must keep producing.
//! Replaying them here makes schedule semantics part of the public contract
//! — a refactor that changes option enumeration, fingerprinting windows, or
//! layer behavior under reordering shows up as verdict drift in review, not
//! as a silent loss of coverage.

use horus_check::schedule::verdict_line;
use horus_check::{replay_choices, Scenario, Schedule};

fn fixture(name: &str) -> Schedule {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Schedule::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn replay(schedule: &Schedule) -> String {
    let scenario = Scenario::by_name(&schedule.scenario)
        .unwrap_or_else(|| panic!("fixture references unknown scenario {:?}", schedule.scenario));
    let cfg = schedule.to_config();
    verdict_line(&replay_choices(scenario, &schedule.choices, &cfg))
}

#[test]
fn all_fixtures_replay_to_their_recorded_verdicts() {
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("fixtures directory exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("check") {
            continue;
        }
        seen += 1;
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let schedule = fixture(&name);
        let verdict = replay(&schedule);
        assert_eq!(verdict, schedule.verdict, "verdict drift in fixture {name}");
    }
    assert!(seen >= 4, "fixture corpus went missing (found {seen} files)");
}

#[test]
fn replays_are_byte_stable_across_repetition() {
    let schedule = fixture("fifo2_fifo.check");
    let first = replay(&schedule);
    for _ in 0..3 {
        assert_eq!(replay(&schedule), first);
    }
}

#[test]
fn fifo_counterexample_is_a_real_violation() {
    let schedule = fixture("fifo2_fifo.check");
    assert!(
        schedule.verdict.starts_with("violation fifo:"),
        "fixture must pin a FIFO violation, got {:?}",
        schedule.verdict
    );
    assert_eq!(replay(&schedule), schedule.verdict);
}

#[test]
fn wedge_reconstruction_stays_wedged_and_clean() {
    // The view-merge wedge neighborhood: a false suspicion against the
    // coordinator wedges the group into {a} / {b, c}.  The suspicion is no
    // longer scripted — the fixture carries a `max_suspects: 1` budget and
    // its first choice (index 11: past the nine unfiltered fire options,
    // into the suspect block at ordered pair (ep:2, ep:1)) injects it.  No
    // invariant is violated — the members agree within their components —
    // and this fixture pins both the budget semantics and the verdict.
    let schedule = fixture("wedge_clean.check");
    assert_eq!(schedule.verdict, "clean");
    assert_eq!(schedule.to_config().max_suspects, 1, "fixture must carry the suspect budget");
    assert_eq!(replay(&schedule), "clean");

    // Pin the option layout the choice index depends on: 9 fires + 6
    // ordered suspect pairs at the first branch point.  An enumeration
    // change that silently moves the suspect block would otherwise keep
    // replaying clean while injecting nothing.
    {
        let scenario = Scenario::by_name("wedge").unwrap();
        let rec = replay_choices(scenario, &schedule.choices, &schedule.to_config());
        assert_eq!(rec.branch_options.first(), Some(&15), "wedge first-branch option count moved");
        assert_eq!(
            rec.taken.first(),
            Some(&11),
            "fixture choice must land on suspect (ep:2, ep:1)"
        );
    }

    // The wedged *shape* is reconstructed here with the same suspicion the
    // explorer injects, placed calendar-style just after the merge nudge.
    use horus_core::prelude::EndpointAddr;
    let scenario = Scenario::by_name("wedge").unwrap();
    let mut w = scenario.build();
    let base = horus_core::prelude::SimTime::ZERO + scenario.settle;
    w.suspect_at(
        base + std::time::Duration::from_millis(2),
        EndpointAddr::new(2),
        EndpointAddr::new(1),
    );
    let mut cal = horus_sim::CalendarScheduler;
    w.run_scheduled(&mut cal, std::time::Duration::ZERO, scenario.deadline());
    let views: Vec<usize> = (1..=3)
        .map(|i| w.installed_views(EndpointAddr::new(i)).last().map(|v| v.len()).unwrap_or(0))
        .collect();
    assert_eq!(views, vec![1, 2, 2], "the false suspicion must wedge the group into 1+2");
}

#[test]
fn unordered_counterexample_needs_no_choices() {
    // The planted total-order bug fires even on the calendar-order schedule;
    // the shrinker reduced the counterexample to the empty choice list.
    let schedule = fixture("unordered_total.check");
    assert!(schedule.choices.is_empty());
    assert!(schedule.verdict.starts_with("violation total-order:"));
    assert_eq!(replay(&schedule), schedule.verdict);
}

#[test]
fn tokenself_holder_crash_stays_clean() {
    // The TOTAL holder ep:1 casts first, so its cast goes out self-ordered
    // (the sequence number rides in its DATA header); ep:2's concurrent
    // cast reaches ep:1, which hands ep:2 the token in an ORDER; the fourth
    // choice fail-stops ep:1 with its self-ordered cast and that ORDER both
    // in flight.  The survivors deliver ep:1's cast by the sequence it
    // carried and ep:2's by the ORDER, in one order, before the new view.
    let schedule = fixture("tokenself_clean.check");
    assert_eq!(schedule.verdict, "clean");
    let scenario = Scenario::by_name("tokenself").unwrap();
    let rec = replay_choices(scenario, &schedule.choices, &schedule.to_config());
    assert_eq!(verdict_line(&rec), "clean");
    // Pin the option layout the crash choice depends on: after the handover
    // ORDER is sent, 17 events are ready and the crash block starts with ep:1.
    assert_eq!(rec.branch_options.get(3), Some(&20), "fourth branch point option count moved");
    assert_eq!(rec.taken.get(3), Some(&17), "fixture choice must land on the crash of ep:1");
}
