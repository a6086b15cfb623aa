//! The one panic rule of the fan-outs: a panic leaves as itself — not as
//! "a scoped thread panicked" — at any job count, the lowest-index one when
//! several items panic, and nothing unclaimed is handed out after it.

use hoploc_harness::{join, parallel_map, MachineSpec, Suite};
use hoploc_sim::SimConfig;
use hoploc_workloads::{mgrid, swim, RunKind, Scale};
use std::panic::{self, catch_unwind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// The text a payload was raised with by [`panic::panic_any`].
fn message(payload: Box<dyn std::any::Any + Send>) -> &'static str {
    *payload.downcast::<&str>().expect("a &str payload")
}

#[test]
fn the_lowest_index_panic_wins_and_stops_the_handing_out() {
    // Items 0 and 1 meet at the barrier, so each is claimed by its own
    // worker before either panics; nothing after them is handed out.
    let (met, ran) = (Barrier::new(2), AtomicUsize::new(0));
    let items: Vec<usize> = (0..100).collect();
    let caught = catch_unwind(|| {
        parallel_map(&items, 2, |&i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i < 2 {
                met.wait();
                panic::panic_any(["item 0", "item 1"][i]);
            }
        })
    });
    assert_eq!(message(caught.unwrap_err()), "item 0");
    assert_eq!(ran.load(Ordering::Relaxed), 2);
    let caught =
        catch_unwind(|| join(|| panic::panic_any("helper"), || panic::panic_any("caller")));
    assert_eq!(message(caught.unwrap_err()), "helper");
}

/// Two applications on a machine whose memory holds one page per
/// controller.
fn starved() -> Suite {
    let machine = MachineSpec::at(Scale::Test);
    let sim = machine.sim();
    let sim = SimConfig {
        memory_bytes: sim.page_bytes * 4,
        ..sim
    };
    let apps = vec![swim(Scale::Test), mgrid(Scale::Test)];
    Suite::new(apps, machine.mapping(), sim)
}

#[test]
#[should_panic(expected = "physical memory exhausted")]
fn a_panic_in_parallel_map_leaves_as_itself() {
    let s = starved();
    parallel_map(&s.full_matrix(&RunKind::ALL), 4, |req| s.run(req));
}

#[test]
#[should_panic(expected = "physical memory exhausted")]
fn a_panic_in_a_sequential_run_all_leaves_as_itself() {
    let s = starved();
    s.run_all(&s.full_matrix(&RunKind::ALL), 1);
}

#[test]
#[should_panic(expected = "physical memory exhausted")]
fn a_panic_in_a_parallel_run_all_leaves_as_itself() {
    let s = starved();
    s.run_all(&s.full_matrix(&RunKind::ALL), 4);
}
