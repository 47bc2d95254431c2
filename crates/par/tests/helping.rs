//! A blocked region owner helps with queued pool jobs of its own tree,
//! and only those.
//!
//! Its own test binary, so the pool holds exactly the one worker that
//! `with_threads(2)` asks for: no other test can have grown it. The
//! tests take turns on that worker.

use std::sync::{Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// Serializes the tests: each needs the one worker to itself.
static WORKER: Mutex<()> = Mutex::new(());

/// Two parties that must be inside `meet` at the same time; each
/// returns whether the other arrived within five seconds.
#[derive(Default)]
struct Rendezvous {
    arrived: Mutex<usize>,
    both: Condvar,
}

impl Rendezvous {
    fn meet(&self) -> bool {
        let mut arrived = self.arrived.lock().expect("rendezvous poisoned");
        *arrived += 1;
        self.both.notify_all();
        let (arrived, _) = self
            .both
            .wait_timeout_while(arrived, Duration::from_secs(5), |n| *n < 2)
            .expect("rendezvous poisoned");
        *arrived >= 2
    }
}

#[test]
fn a_blocked_owner_runs_a_nested_region_of_the_worker() {
    let _turn = WORKER.lock().unwrap_or_else(|e| e.into_inner());
    let caller = std::thread::current().id();
    let (outer, inner) = (Rendezvous::default(), Rendezvous::default());
    let met = qpd_par::with_threads(2, || {
        qpd_par::par_map(&[0, 1], |_| {
            // The two items first meet, so one runs on the caller and one
            // on the worker. The caller's then returns at once and the
            // caller blocks on the other, which opens a region whose two
            // items can only finish together: one runs on the worker, so
            // the other must run on the blocked caller.
            let mut met = vec![outer.meet()];
            if std::thread::current().id() != caller {
                met.extend(qpd_par::with_threads(2, || {
                    qpd_par::par_map(&[0, 1], |_| inner.meet())
                }));
            }
            met
        })
    })
    .concat();
    assert_eq!(met, [true; 4], "every pair met in time");
}

#[test]
fn a_blocked_owner_leaves_another_callers_jobs_alone() {
    let _turn = WORKER.lock().unwrap_or_else(|e| e.into_inner());
    let caller = std::thread::current().id();
    let outer = Rendezvous::default();
    let other = qpd_par::with_threads(2, || {
        qpd_par::par_map(&[0, 1], |_| {
            // As above, one item runs on the caller, which then blocks on
            // the one holding the worker. That one starts an unrelated
            // caller whose region queues a job the worker cannot take
            // yet: the blocked caller must not take it either, so the
            // other caller runs all of its items itself.
            assert!(outer.meet(), "the items met in time");
            if std::thread::current().id() == caller {
                return None;
            }
            let other = std::thread::spawn(|| {
                let ran_on: Vec<ThreadId> = qpd_par::with_threads(2, || {
                    qpd_par::par_map(&[0, 1, 2, 3], |_| {
                        std::thread::sleep(Duration::from_millis(20));
                        std::thread::current().id()
                    })
                });
                (std::thread::current().id(), ran_on)
            });
            Some(other.join().expect("the other caller finished"))
        })
    });
    let (other, ran_on) = other.into_iter().flatten().next().expect("one item ran on the worker");
    assert_eq!(ran_on, [other; 4], "the other caller ran every item itself");
}
